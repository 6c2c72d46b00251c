//! The coordinator core: every decision the process-level master
//! (`esse_master`, paper §4.2) makes, as a pure state machine. It owns
//! the member book, fencing epochs, lease watch, attempt and requeue
//! budgets with backoff, the validator, the subspace estimator, the
//! convergence test and the checkpoint/stage schedule, and touches no
//! file, clock, thread, process or socket: time comes in as `now_ms`,
//! forecasts through a [`ForecastSource`], and each pool scan comes back
//! out as [`Action`]s in write-ahead order — an `EpochAdvanced` record
//! before its seed, covariance files before their `SvdPublished`, a
//! quarantine move before its `MemberQuarantined`.
//!
//! **Read once.** A forecast is read and CRC-checked once, when the core
//! asks for it at ingest (or resume); the vector that passed the gate is
//! the one every SVD and the posterior use.
//!
//! **Determinism.** Checkpoints fire when the *decided prefix* (members
//! from 0 whose fate is settled) crosses fixed counts, and fold the
//! first `c` completed prefix members, ascending, into one persistent
//! estimator, so the rho sequence, convergence point and posterior are
//! bit-identical under any interleaving, kill schedule or restart.

use crate::fault::RetryPolicy;
use crate::journal::{JournalRecord, JournalState};
use crate::pool::{LeaseState, LeaseWatch, PoolScan, ResultRecord, CODE_REJECTED};
use esse_core::adaptive::EnsembleSchedule;
use esse_core::convergence::{similarity, ConvergenceTest};
use esse_core::subspace::{
    make_estimator, ErrorSubspace, SubspaceEstimator, SubspaceStrategy, UpdateKind,
};
use esse_core::validate::{finite_stat, ForecastValidator, Reason, Verdict};
use esse_core::EsseError;
use esse_linalg::LinalgCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::time::Duration;

/// Exit code journalled when a member exhausts its lease-requeue budget.
pub const CODE_LEASE_BUDGET: i32 = -9;
/// Exit code journalled when a member keeps failing semantic validation
/// past the requeue budget (replacements could not heal it).
pub const CODE_QUARANTINE_BUDGET: i32 = -10;
/// Mode relative tolerance shared by every subspace estimate.
const SVD_REL_TOL: f64 = 1e-4;
/// Rank cap shared by every subspace estimate.
const SVD_MAX_RANK: usize = 64;

/// The schedule and budget knobs of one coordinator run.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Initial ensemble size (first stage target).
    pub initial: usize,
    /// Maximum ensemble size (last stage target).
    pub max: usize,
    /// Convergence tolerance on the subspace similarity.
    pub tolerance: f64,
    /// Real task failures a member may consume before it is failed.
    pub task_attempts: u32,
    /// Lease expiries plus quarantines a member may consume.
    pub requeue_budget: u32,
    /// A claim whose heartbeat stalls this long is reclaimed.
    pub lease_ms: u64,
    /// How checkpoint estimates are computed.
    pub strategy: SubspaceStrategy,
    /// Run seed; the backoff jitter stream derives from it.
    pub base_seed: u64,
}

/// Where the core gets a member's forecast (`esse_master` reads the file,
/// the simulation synthesizes it): the vector and the CRC-32 trailer of
/// the bytes it was decoded from (0 for formats without one), or why it
/// could not be read.
pub type ForecastSource<'a> = dyn FnMut(u64) -> Result<(Vec<f64>, u32), String> + 'a;

/// One side effect for the caller to carry out, in list order. Members are
/// `u64` ids, epochs `u32` fencing tokens.
#[derive(Debug, Clone)]
pub enum Action {
    /// Durably append a journal record (the commit point).
    Journal(JournalRecord),
    /// `(member, epoch, quarantine reason of the payload it replaces)`.
    Seed(u64, u32, Option<u32>),
    /// `(result, current epoch)`: fence off a stale-epoch result.
    Fence(ResultRecord, u32),
    /// Consume (delete) a handled result record.
    Consume(ResultRecord),
    /// `(member, epoch)`: remove the task's claim.
    RemoveClaim(u64, u32),
    /// `(member, exit code)`: the per-member status record (0 = success).
    Status(u64, i32),
    /// `(member, epoch)`: a result passed the gate and was journalled.
    Ingested(u64, u32),
    /// `(member, epoch, reason, why)`: move the forecast file aside; `epoch`
    /// is `None` for a journalled member whose file failed to load.
    Quarantine(u64, Option<u32>, u32, String),
    /// `(member, epoch, state)`: a lease was granted, renewed or expired.
    Lease(u64, u32, LeaseState),
    /// A diagnostic for the operator.
    Note(String),
    /// `(members, kind, defect)`: an incremental-strategy estimate.
    Estimate(u64, UpdateKind, f64),
    /// `(members, rho)`: similarity against the previous checkpoint.
    Rho(u64, f64),
    /// `(version, estimate)`: publish through the safe/live covariance files.
    PublishCovariance(u64, Rc<ErrorSubspace>),
    /// `(members, rho)`: converged — cancel queued tasks, tell workers.
    Cancel(u64, f64),
}

/// What a (re)started coordinator does with a replayed journal.
#[derive(Debug, Clone, PartialEq)]
pub enum Opening {
    /// The journal holds a complete run (of this many members) that
    /// satisfies this schedule: nothing to do, nothing journalled.
    Complete(u64),
    /// Append these records, then serve the pool as this incarnation.
    Run(Vec<JournalRecord>, u64),
}

/// Member accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    /// Completed members.
    pub completed: usize,
    /// Members folded back in from the journal at start.
    pub resumed: usize,
    /// Permanently failed members.
    pub failed: usize,
    /// Members ever quarantined (journal history included).
    pub quarantined: usize,
    /// Quarantined members a later attempt completed.
    pub replaced: usize,
    /// Members this incarnation lost to the quarantine budget.
    pub lost: usize,
}

/// Per-member run bookkeeping; `decided` = completed ∪ failed.
#[derive(Default)]
struct MemberBook {
    /// Completed members → attempts consumed.
    completed: BTreeMap<u64, u32>,
    /// Permanently failed members.
    failed: BTreeSet<u64>,
    /// Real task failures consumed (exit codes, not lease expiries).
    attempts: HashMap<u64, u32>,
    /// Lease expiries and quarantines consumed (a separate budget, so
    /// worker kills never count against real task failures).
    requeues: HashMap<u64, u32>,
    /// Backoff holds: do not reseed the member before this time.
    hold_until_ms: HashMap<u64, u64>,
}

impl MemberBook {
    fn decided(&self, m: u64) -> bool {
        self.completed.contains_key(&m) || self.failed.contains(&m)
    }

    /// Completed member ids inside the contiguous decided prefix from
    /// member 0 — the only ids a checkpoint may consume.
    fn prefix_eligible(&self) -> Vec<u64> {
        (0..).take_while(|&m| self.decided(m)).filter(|m| self.completed.contains_key(m)).collect()
    }
}

/// The coordinator core (see the module docs).
pub struct Coordinator {
    cfg: CoordinatorConfig,
    book: MemberBook,
    epochs: HashMap<u64, u32>,
    watch: LeaseWatch,
    retry: RetryPolicy,
    rng: StdRng,
    validator: ForecastValidator,
    /// Members that passed the gate but are not folded yet.
    ingested: BTreeMap<u64, Vec<f64>>,
    /// Members with a task in the pool during the current step.
    outstanding: HashSet<u64>,
    /// Actions of the current call, in order.
    out: Vec<Action>,
    est: Box<dyn SubspaceEstimator>,
    conv: ConvergenceTest,
    /// Members at convergence, once the criterion has fired.
    converged: Option<u64>,
    stages: Vec<usize>,
    stage_idx: usize,
    checkpoints: Vec<usize>,
    /// Checkpoint member counts already published, in order.
    rounds: Vec<u64>,
    /// The latest estimate: members, subspace, and whether it is exact
    /// (the full decomposition of those members).
    previous: Option<(u64, Rc<ErrorSubspace>, bool)>,
    svd_version: u64,
    quarantined: BTreeSet<u64>,
    lost: usize,
    resumed: usize,
    finished: bool,
}

impl Coordinator {
    /// What a coordinator started on `state` does: a completed run that
    /// still satisfies `max`/`tolerance` is left alone.
    pub fn opening(state: &JournalState, config_hash: u64, cfg: &CoordinatorConfig) -> Opening {
        let mut records = Vec::new();
        if state.config_hash.is_none() {
            records.push(JournalRecord::RunStart { config_hash });
        }
        if let Some(members) = state.complete {
            // A resume with a larger ensemble or a tighter tolerance
            // legitimately extends a finished run.
            if state.converged_at(cfg.tolerance).is_some() || state.completed.len() >= cfg.max {
                return Opening::Complete(members);
            }
        }
        let incarnation = state.incarnations + 1;
        records.push(JournalRecord::CoordinatorStarted { incarnation });
        Opening::Run(records, incarnation)
    }

    /// Build the core from a replayed journal. `pool_epochs` are the
    /// epochs visible in the pool directories; `legacy` lists members a
    /// pre-journal workdir's status records mark completed. Every
    /// journalled (or legacy) member's forecast is loaded once from
    /// `forecasts`; one that fails to load is quarantined for requeue.
    pub fn start(
        cfg: CoordinatorConfig,
        state: &JournalState,
        pool_epochs: HashMap<u64, u32>,
        legacy: &[u64],
        central: Vec<f64>,
        validator: ForecastValidator,
        forecasts: &mut ForecastSource,
    ) -> (Coordinator, Vec<Action>) {
        // The pool scan alone is not enough after a crash: a consumed
        // result leaves no file behind, so raise every member to its
        // journalled high-water mark. `EpochAdvanced` is journalled
        // before its seed, so this covers every epoch a worker saw.
        let mut epochs = pool_epochs;
        for &(m, hw) in &state.epoch_high_water {
            let e = epochs.entry(m).or_insert(0);
            *e = (*e).max(hw);
        }
        let conv = ConvergenceTest::restore(cfg.tolerance, &state.rho_history());
        let stages = EnsembleSchedule::new(cfg.initial, cfg.max).stages();
        let stride = (cfg.initial / 2).max(4);
        let mut checkpoints: BTreeSet<usize> =
            (1..).map(|k| k * stride).take_while(|&c| c <= cfg.max).collect();
        checkpoints.extend(stages.iter().copied().filter(|&c| c <= cfg.max));
        let est =
            make_estimator(&cfg.strategy, central, SVD_REL_TOL, SVD_MAX_RANK, LinalgCtx::default());
        let backoff = Duration::from_millis(20);
        let mut core = Coordinator {
            retry: RetryPolicy::retries(cfg.task_attempts).with_backoff(backoff, 2.0, 0.0),
            rng: StdRng::seed_from_u64(cfg.base_seed ^ 0x00D1_7A5C),
            book: MemberBook {
                failed: state.failed.iter().copied().collect(),
                ..MemberBook::default()
            },
            epochs,
            watch: LeaseWatch::new(),
            validator,
            ingested: BTreeMap::new(),
            outstanding: HashSet::new(),
            out: Vec::new(),
            est,
            conv,
            converged: state.converged_at(cfg.tolerance),
            stages,
            stage_idx: 0,
            checkpoints: checkpoints.into_iter().filter(|&c| c >= 2).collect(),
            rounds: state.svd_rounds.iter().map(|r| r.members).collect(),
            previous: None,
            svd_version: state.svd_rounds.last().map_or(0, |r| r.version),
            quarantined: state.quarantine_reasons.iter().map(|&(m, _)| m).collect(),
            lost: 0,
            resumed: 0,
            finished: false,
            cfg,
        };
        // Fold journalled members back in; legacy members are migrated
        // forward into the journal on the way.
        let journalled = state.completed.iter().map(|&(m, attempts)| (m, attempts, false));
        for (m, attempts, migrate) in journalled.chain(legacy.iter().map(|&m| (m, 1, true))) {
            match forecasts(m) {
                Ok((xf, _)) => {
                    if migrate {
                        let rec = JournalRecord::MemberCompleted { member: m, attempts };
                        core.out.push(Action::Journal(rec));
                    }
                    core.admit(m, attempts, xf);
                    core.resumed += 1;
                }
                Err(why) => core.quarantine(m, None, Reason::CorruptPayload.code(), why),
            }
        }
        while core.stage_idx + 1 < core.stages.len() && core.stage_done() {
            core.stage_idx += 1;
        }
        let out = std::mem::take(&mut core.out);
        (core, out)
    }

    /// Turn one pool scan at coordinator time `now_ms` into the ordered
    /// actions that ingest its results, police its leases, seed the
    /// current stage and fire any checkpoint now due.
    pub fn step(
        &mut self,
        scan: &PoolScan,
        now_ms: u64,
        forecasts: &mut ForecastSource,
    ) -> Result<Vec<Action>, EsseError> {
        self.outstanding = scan.pending.iter().map(|t| t.member).collect();
        self.outstanding.extend(scan.claims.iter().map(|c| c.spec.member));
        for r in &scan.results {
            self.ingest(r, now_ms, forecasts);
        }
        for c in &scan.claims {
            let (m, epoch) = (c.spec.member, c.spec.epoch);
            if self.book.decided(m) || epoch != self.epoch(m) {
                // Leftover claim of an ingested or requeued task.
                self.out.push(Action::RemoveClaim(m, epoch));
                continue;
            }
            let counter = c.heartbeat.map(|hb| hb.counter);
            let state = self.watch.observe(m, epoch, counter, now_ms, self.cfg.lease_ms);
            if state != LeaseState::Held {
                self.out.push(Action::Lease(m, epoch, state));
            }
            if state == LeaseState::Expired {
                // Seed the successor first, then drop the dead claim:
                // the member always has an incarnation in the pool.
                self.requeue_or_fail(m, CODE_LEASE_BUDGET, None);
                self.out.push(Action::RemoveClaim(m, epoch));
                self.watch.forget(m);
            }
        }
        if self.converged.is_none() {
            for m in 0..self.stages[self.stage_idx] as u64 {
                let held = self.book.hold_until_ms.get(&m).is_some_and(|&t| now_ms < t);
                if !self.book.decided(m) && !self.outstanding.contains(&m) && !held {
                    self.advance_and_seed(m, None);
                }
            }
        }
        self.checkpoint()?;
        let done = self.stage_done();
        if done && self.converged.is_none() && self.stage_idx + 1 < self.stages.len() {
            self.stage_idx += 1;
        } else {
            self.finished = done || self.converged.is_some();
        }
        Ok(std::mem::take(&mut self.out))
    }

    /// The posterior and its member count: on convergence at `c`
    /// members the first `c` completed members of the decided prefix
    /// (never "whatever arrived"), otherwise every completed member;
    /// `None` with fewer than two. Under the full strategy a converged
    /// posterior is the converging checkpoint's estimate itself.
    pub fn posterior(&mut self) -> Option<(Rc<ErrorSubspace>, usize)> {
        let eligible = self.book.prefix_eligible();
        let ids: Vec<u64> = match self.converged {
            Some(c) => eligible[..(c as usize).min(eligible.len())].to_vec(),
            _ => self.book.completed.keys().copied().collect(),
        };
        let members = ids.len();
        if let Some((n, sub, true)) = &self.previous {
            if *n as usize == members && self.est.count() == members {
                return Some((sub.clone(), members));
            }
        }
        self.fold(&ids);
        Some((Rc::new(self.est.recompute()?), members))
    }

    /// The run is over: converged, or the last stage fully decided.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The convergence criterion has fired.
    pub fn converged(&self) -> bool {
        self.converged.is_some()
    }

    /// Current fencing epoch of every member that has one.
    pub fn epochs(&self) -> &HashMap<u64, u32> {
        &self.epochs
    }

    /// Member accounting so far.
    pub fn ledger(&self) -> Ledger {
        Ledger {
            completed: self.book.completed.len(),
            resumed: self.resumed,
            failed: self.book.failed.len(),
            quarantined: self.quarantined.len(),
            replaced: self
                .quarantined
                .iter()
                .filter(|m| self.book.completed.contains_key(m))
                .count(),
            lost: self.lost,
        }
    }

    fn epoch(&self, m: u64) -> u32 {
        self.epochs.get(&m).copied().unwrap_or(0)
    }

    fn stage_done(&self) -> bool {
        (0..self.stages[self.stage_idx] as u64).all(|m| self.book.decided(m))
    }

    fn admit(&mut self, m: u64, attempts: u32, xf: Vec<f64>) {
        self.book.completed.insert(m, attempts);
        self.validator.note_decided(m, &xf);
        self.ingested.insert(m, xf);
    }

    fn ingest(&mut self, r: &ResultRecord, now_ms: u64, forecasts: &mut ForecastSource) {
        let m = r.member;
        let current = self.epoch(m);
        if r.epoch != current {
            // A zombie worker published after its lease expired and
            // the task was requeued. Never ingested.
            self.out.push(Action::Fence(*r, current));
            return;
        }
        if self.book.decided(m) {
            self.out.push(Action::Consume(*r));
            return;
        }
        if r.code == 0 || r.code == CODE_REJECTED {
            match self.gate(r, forecasts) {
                Ok(xf) => {
                    let attempts = self.book.attempts.get(&m).copied().unwrap_or(0) + 1;
                    self.out.push(Action::Status(m, 0));
                    let rec = JournalRecord::MemberCompleted { member: m, attempts };
                    self.out.push(Action::Journal(rec));
                    self.out.push(Action::Ingested(m, r.epoch));
                    self.admit(m, attempts, xf);
                }
                Err((reason, why)) => {
                    self.quarantine(m, Some(r.epoch), reason, why);
                    // Self-healing: the replacement runs at the next
                    // epoch with the member's canonical seed, so the
                    // quarantined payload can never race it into the SVD.
                    self.requeue_or_fail(m, CODE_QUARANTINE_BUDGET, Some(reason));
                }
            }
        } else {
            // A real (deterministic) task failure: count it against the
            // task-attempt budget.
            let attempts = self.book.attempts.entry(m).or_insert(0);
            *attempts += 1;
            let attempts = *attempts;
            self.out.push(Action::Status(m, r.code));
            self.retire(r);
            if attempts >= self.cfg.task_attempts {
                self.out
                    .push(Action::Journal(JournalRecord::MemberFailed { member: m, code: r.code }));
                self.book.failed.insert(m);
                self.out.push(Action::Note(format!(
                    "member {m} failed permanently (code {}, {attempts} attempts)",
                    r.code
                )));
            } else {
                let delay = self.retry.backoff_delay(attempts, &mut self.rng);
                self.book.hold_until_ms.insert(m, now_ms + delay.as_millis() as u64);
            }
            return;
        }
        self.retire(r);
    }

    /// A handled result: consume it, drop its claim, forget its lease.
    fn retire(&mut self, r: &ResultRecord) {
        self.out.push(Action::Consume(*r));
        self.out.push(Action::RemoveClaim(r.member, r.epoch));
        self.watch.forget(r.member);
    }

    /// The single ingestion gate, ahead of the journal commit point:
    /// a worker's own rejection, then the forecast's CRC against the
    /// result record, then the semantic validator.
    fn gate(
        &self,
        r: &ResultRecord,
        forecasts: &mut ForecastSource,
    ) -> Result<Vec<f64>, (u32, String)> {
        if r.code == CODE_REJECTED {
            let what = Reason::from_code(r.reason).describe();
            return Err((r.reason, format!("worker self-check rejection ({what})")));
        }
        let corrupt = |why| (Reason::CorruptPayload.code(), why);
        let (xf, crc) = forecasts(r.member).map_err(corrupt)?;
        if crc != r.fc_crc {
            return Err(corrupt(format!(
                "forecast CRC {crc:#010x} != result record {:#010x}",
                r.fc_crc
            )));
        }
        match self.validator.validate_member(r.member, &xf) {
            Verdict::Pass => Ok(xf),
            Verdict::Quarantine(reason) => {
                Err((reason.code(), format!("failed semantic validation: {}", reason.describe())))
            }
        }
    }

    fn quarantine(&mut self, m: u64, epoch: Option<u32>, reason: u32, why: String) {
        self.out.push(Action::Quarantine(m, epoch, reason, why));
        self.out.push(Action::Journal(JournalRecord::MemberQuarantined { member: m, reason }));
        self.quarantined.insert(m);
    }

    /// Spend one requeue of `m`'s budget: seed its next epoch, or — past
    /// the budget — journal it lost under `code`.
    fn requeue_or_fail(&mut self, m: u64, code: i32, replaces: Option<u32>) {
        let requeues = self.book.requeues.entry(m).or_insert(0);
        *requeues += 1;
        let requeues = *requeues;
        if requeues <= self.cfg.requeue_budget {
            return self.advance_and_seed(m, replaces);
        }
        self.out.push(Action::Journal(JournalRecord::MemberFailed { member: m, code }));
        self.book.failed.insert(m);
        let why = if code == CODE_QUARANTINE_BUDGET {
            self.lost += 1;
            format!("lost to quarantine after {requeues} replacement(s)")
        } else {
            format!("abandoned after {requeues} lease expiries")
        };
        self.out.push(Action::Note(format!("member {m} {why}")));
    }

    /// Give `m` its next fencing epoch: journalled before the seed, so a
    /// crash between the two costs one unused epoch, never an epoch a
    /// worker saw but the journal did not.
    fn advance_and_seed(&mut self, m: u64, replaces: Option<u32>) {
        let epoch = self.epoch(m) + 1;
        self.epochs.insert(m, epoch);
        self.outstanding.insert(m);
        self.out.push(Action::Journal(JournalRecord::EpochAdvanced { member: m, epoch }));
        self.out.push(Action::Seed(m, epoch, replaces));
    }

    /// Move the ingested vectors of `ids[est.count()..]` into the
    /// estimator (ids extend the estimator's members, ascending).
    fn fold(&mut self, ids: &[u64]) {
        for &m in ids.get(self.est.count()..).unwrap_or_default() {
            let xf = self.ingested.remove(&m).expect("every completed member is ingested once");
            self.est.add_member(m as usize, &xf);
        }
    }

    /// The estimate over the estimator's members; under the incremental
    /// strategy, a checkpoint at `members` also labels it for the trace.
    fn estimate(&mut self, members: Option<u64>) -> Result<Option<ErrorSubspace>, EsseError> {
        if self.cfg.strategy == SubspaceStrategy::FullRecompute {
            return Ok(self.est.recompute());
        }
        let Some(update) = self.est.estimate()? else { return Ok(None) };
        if let Some(c) = members {
            self.out.push(Action::Estimate(c, update.kind, update.defect));
        }
        Ok(Some(update.subspace))
    }

    /// Continuous SVD + convergence at decided-prefix checkpoints.
    fn checkpoint(&mut self) -> Result<(), EsseError> {
        let eligible = self.book.prefix_eligible();
        let exact = self.cfg.strategy == SubspaceStrategy::FullRecompute;
        for i in 0..self.checkpoints.len() {
            let cp = self.checkpoints[i];
            let c = cp as u64;
            if self.converged.is_some() {
                break;
            }
            // Checkpoints only move forward (the estimator folds an append-
            // only prefix): one at or below a journalled round is past.
            if self.rounds.iter().any(|&r| r >= c) || eligible.len() < cp {
                continue;
            }
            if self.previous.is_none() && !self.rounds.is_empty() {
                self.replay_rounds(&eligible)?;
            }
            self.fold(&eligible[..cp]);
            let Some(estimate) = self.estimate(Some(c))? else { break };
            let estimate = Rc::new(estimate);
            let mut rho = f64::NAN;
            if let Some((_, prev, _)) = &self.previous {
                rho = similarity(prev, &estimate);
                self.out.push(Action::Rho(c, rho));
                if finite_stat(rho).is_pass() && self.conv.check(rho) {
                    self.converged = Some(c);
                }
            }
            // Covariance files first, then the journal commit point.
            self.svd_version += 1;
            self.out.push(Action::PublishCovariance(self.svd_version, estimate.clone()));
            let rec = JournalRecord::SvdPublished { members: c, version: self.svd_version, rho };
            self.out.push(Action::Journal(rec));
            self.rounds.push(c);
            self.previous = Some((c, estimate, exact));
            if self.converged.is_some() {
                self.out.push(Action::Journal(JournalRecord::Converged { members: c, rho }));
                self.out.push(Action::Cancel(c, rho));
            }
        }
        Ok(())
    }

    /// A restarted core rebuilds the estimator by replaying the
    /// journalled checkpoints in order, so its state — and the
    /// `previous` estimate the next rho compares against — is exactly
    /// what an uninterrupted run would hold. The full strategy keeps no
    /// state between estimates and only decomposes the last round.
    fn replay_rounds(&mut self, eligible: &[u64]) -> Result<(), EsseError> {
        let exact = self.cfg.strategy == SubspaceStrategy::FullRecompute;
        let rounds = self.rounds.clone();
        for (i, &p) in rounds.iter().enumerate() {
            let Some(ids) = eligible.get(..p as usize) else { break };
            self.fold(ids);
            if !exact || i + 1 == rounds.len() {
                self.previous = self.estimate(None)?.map(|s| (p, Rc::new(s), exact));
            }
        }
        Ok(())
    }
}
