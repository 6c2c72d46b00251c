//! Seeded in-process simulation of the coordinator core: thousands of
//! random interleavings of worker and coordinator faults against a
//! simulated pool and journal — no processes, sleeps or disks.
//!
//! Each schedule interleaves claims, heartbeats, publishes, duplicate
//! publishes, zombie (stale-epoch) publishes, worker self-rejections,
//! corrupt payloads (quarantine), stalled workers (lease expiry) and
//! coordinator crashes right after a journal append, each crash
//! followed by a resume from the replayed `JournalState`. Forecasts
//! depend only on the member id. Every schedule must end with the
//! fault-free posterior bytes (or journal every member it lost), never
//! ingest a member twice, and never hand out an epoch twice.

use esse::core::durable::crc32;
use esse::core::subspace::{ErrorSubspace, SubspaceStrategy};
use esse::core::validate::{ForecastValidator, Reason, ValidatorConfig};
use esse::mtc::coordinator::{Action, Coordinator, CoordinatorConfig, Opening};
use esse::mtc::journal::{JournalRecord, JournalState};
use esse::mtc::pool::{
    ClaimScan, Heartbeat, LeaseState, PoolScan, ResultRecord, TaskSpec, CODE_REJECTED,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};

const DIM: usize = 24;
const LEASE_MS: u64 = 120;

/// Member `m`'s forecast: three smooth modes with member-seeded
/// amplitudes plus a little member-seeded noise.
fn forecast(m: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(m.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF0C5);
    let amps: Vec<f64> =
        [3.0, 1.5, 0.6].iter().map(|a| a * (rng.gen::<f64>() * 2.0 - 1.0)).collect();
    (0..DIM)
        .map(|i| {
            let modes: f64 = amps
                .iter()
                .enumerate()
                .map(|(k, a)| a * ((k + 1) as f64 * (i + 1) as f64 * 0.3).sin())
                .sum();
            modes + 0.05 * (rng.gen::<f64>() - 0.5)
        })
        .collect()
}

fn crc_of(x: &[f64]) -> u32 {
    crc32(&x.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>())
}

fn bytes_of(sub: &ErrorSubspace) -> Vec<u8> {
    let modes = (0..sub.rank()).flat_map(|j| sub.modes.col(j).to_vec());
    sub.variances.iter().copied().chain(modes).flat_map(|v| v.to_le_bytes()).collect()
}

/// Fault rates of one schedule (all zero: the fault-free reference).
#[derive(Clone, Copy, Default)]
struct Faults {
    corrupt: f64,
    reject: f64,
    fail: f64,
    stall: f64,
    duplicate: f64,
    crash: f64,
}

/// One simulated worker process holding (or having held) a claim.
struct Worker {
    member: u64,
    epoch: u32,
    stalled: bool,
    result: Option<ResultRecord>,
}

/// The simulated workdir: pool directories, forecast files, journal.
#[derive(Default)]
struct Disk {
    pending: BTreeSet<(u64, u32)>,
    claims: BTreeMap<(u64, u32), u64>,
    results: BTreeMap<(u64, u32), ResultRecord>,
    files: HashMap<u64, (Vec<f64>, u32)>,
    journal: Vec<JournalRecord>,
    posterior: Option<Vec<u8>>,
}

impl Disk {
    fn load(&self, member: u64) -> Result<(Vec<f64>, u32), String> {
        self.files.get(&member).cloned().ok_or_else(|| format!("fc_{member}.vec missing"))
    }

    fn scan(&self) -> PoolScan {
        let spec =
            |(member, epoch): (u64, u32)| TaskSpec { member, epoch, seed: 0, parent_span: 0 };
        PoolScan {
            pending: self.pending.iter().map(|&k| spec(k)).collect(),
            claims: self
                .claims
                .iter()
                .map(|(&k, &counter)| ClaimScan {
                    spec: spec(k),
                    heartbeat: Some(Heartbeat { pid: 1, counter }),
                })
                .collect(),
            results: self.results.values().copied().collect(),
        }
    }

    fn pool_epochs(&self) -> HashMap<u64, u32> {
        let mut epochs = HashMap::new();
        let keys = self.pending.iter().chain(self.claims.keys()).chain(self.results.keys());
        for &(m, e) in keys {
            let hw = epochs.entry(m).or_insert(0);
            *hw = e.max(*hw);
        }
        epochs
    }
}

/// Everything a schedule run checks and reports.
struct Sim {
    cfg: CoordinatorConfig,
    faults: Faults,
    rng: StdRng,
    disk: Disk,
    workers: Vec<Worker>,
    /// Highest epoch ever seeded per member, across incarnations.
    seeded: HashMap<u64, u32>,
    now_ms: u64,
    /// How often each fault path fired.
    seen: BTreeMap<&'static str, usize>,
}

/// A coordinator incarnation died right after a journal append.
struct Crashed;

impl Sim {
    fn new(strategy: SubspaceStrategy, seed: u64, faults: Faults, requeue_budget: u32) -> Sim {
        let cfg = CoordinatorConfig {
            initial: 8,
            max: 24,
            tolerance: 0.004,
            task_attempts: 3,
            requeue_budget,
            lease_ms: LEASE_MS,
            strategy,
            base_seed: 11,
        };
        Sim {
            cfg,
            faults,
            rng: StdRng::seed_from_u64(seed),
            disk: Disk::default(),
            workers: Vec::new(),
            seeded: HashMap::new(),
            now_ms: 0,
            seen: BTreeMap::new(),
        }
    }

    fn note(&mut self, what: &'static str) {
        *self.seen.entry(what).or_default() += 1;
    }

    /// Carry out actions in order, like `esse_master`; a crash
    /// may strike after any journal append.
    fn apply(&mut self, actions: Vec<Action>) -> Result<(), Crashed> {
        for action in actions {
            match action {
                Action::Journal(rec) => {
                    self.disk.journal.push(rec);
                    if self.rng.gen::<f64>() < self.faults.crash {
                        self.note("crash");
                        return Err(Crashed);
                    }
                }
                Action::Seed(m, e, _) => {
                    let last = self.seeded.insert(m, e).unwrap_or(0);
                    assert!(e > last, "member {m}: epoch {e} handed out twice (high water {last})");
                    self.disk.pending.insert((m, e));
                }
                Action::Ingested(m, e) => {
                    assert_eq!(Some(&e), self.seeded.get(&m), "member {m}: stale epoch ingested")
                }
                Action::Fence(r, _) => {
                    self.note("fence");
                    self.disk.results.remove(&(r.member, r.epoch));
                }
                Action::Consume(r) => {
                    self.disk.results.remove(&(r.member, r.epoch));
                }
                Action::RemoveClaim(m, e) => {
                    self.disk.claims.remove(&(m, e));
                }
                Action::Quarantine(m, ..) => {
                    self.note("quarantine");
                    self.disk.files.remove(&m);
                }
                Action::Lease(_, _, LeaseState::Expired) => self.note("lease expiry"),
                Action::Cancel(..) => self.disk.pending.clear(),
                _ => {}
            }
        }
        Ok(())
    }

    /// Start (or restart) a coordinator from the journal on disk.
    /// `None`: the journal already holds a complete run.
    fn boot(&mut self) -> Result<Option<(Coordinator, u64)>, Crashed> {
        let state = JournalState::replay(&self.disk.journal);
        let Opening::Run(records, _) = Coordinator::opening(&state, 7, &self.cfg) else {
            return Ok(None);
        };
        self.apply(records.into_iter().map(Action::Journal).collect())?;
        let state = JournalState::replay(&self.disk.journal);
        let validator = ForecastValidator::new(
            Vec::new(),
            vec![0.0; DIM],
            ValidatorConfig { outlier_min_decided: usize::MAX, ..ValidatorConfig::default() },
        );
        let (core, actions) = Coordinator::start(
            self.cfg.clone(),
            &state,
            self.disk.pool_epochs(),
            &[],
            vec![0.0; DIM],
            validator,
            &mut |m| self.disk.load(m),
        );
        self.apply(actions)?;
        Ok(Some((core, self.now_ms)))
    }

    /// One coordinator pool scan; `Ok(true)` once the run is complete.
    fn scan(&mut self, core: &mut Coordinator, t0: u64) -> Result<bool, Crashed> {
        let scan = self.disk.scan();
        let disk = &self.disk;
        let actions = core.step(&scan, self.now_ms - t0, &mut |m| disk.load(m)).expect("estimate");
        self.apply(actions)?;
        if !core.finished() {
            return Ok(false);
        }
        let (posterior, members) = core.posterior().expect("at least two members");
        self.disk.posterior = Some(bytes_of(&posterior));
        self.apply(vec![Action::Journal(JournalRecord::RunComplete { members: members as u64 })])?;
        Ok(true)
    }

    /// One worker-side event.
    fn worker_event(&mut self) {
        let r = self.rng.gen::<f64>();
        if r < 0.35 && !self.disk.pending.is_empty() {
            let i = self.rng.gen_range(0..self.disk.pending.len());
            let key = *self.disk.pending.iter().nth(i).unwrap();
            self.disk.pending.remove(&key);
            self.disk.claims.insert(key, 0);
            let (member, epoch) = key;
            self.workers.push(Worker { member, epoch, stalled: false, result: None });
            return;
        }
        if self.workers.is_empty() {
            return;
        }
        let i = self.rng.gen_range(0..self.workers.len());
        if let Some(result) = self.workers[i].result {
            if self.rng.gen::<f64>() < self.faults.duplicate {
                self.note("duplicate publish");
                self.disk.results.insert((result.member, result.epoch), result);
            }
            return;
        }
        if self.rng.gen::<f64>() < self.faults.stall && !self.workers[i].stalled {
            // Heartbeats stop; the worker may still publish later, as a
            // zombie once its lease has expired and the task moved on.
            self.workers[i].stalled = true;
            return;
        }
        let (member, epoch) = (self.workers[i].member, self.workers[i].epoch);
        // A stalled worker resuming as a zombie recomputes the member's
        // deterministic forecast; injected faults strike live workers.
        let roll = if self.workers[i].stalled { 1.0 } else { self.rng.gen::<f64>() };
        let mut record = ResultRecord { member, epoch, code: 0, pid: 1, fc_crc: 0, reason: 0 };
        if !self.disk.claims.contains_key(&(member, epoch)) {
            self.note("zombie publish");
        }
        if roll < self.faults.reject {
            self.note("self-rejection");
            record.code = CODE_REJECTED;
            record.reason = Reason::NonFinite.code();
        } else if roll < self.faults.reject + self.faults.fail {
            self.note("task failure");
            record.code = 3;
        } else {
            let mut x = forecast(member);
            if roll < self.faults.reject + self.faults.fail + self.faults.corrupt {
                x[member as usize % DIM] = f64::NAN;
            }
            record.fc_crc = crc_of(&x);
            self.disk.files.insert(member, (x, record.fc_crc));
        }
        self.disk.results.insert((member, epoch), record);
        self.workers[i].result = Some(record);
    }

    /// Run the schedule to a complete journal; returns the posterior.
    fn run(&mut self) -> Vec<u8> {
        let mut core = None;
        for _ in 0..200_000 {
            self.now_ms += self.rng.gen_range(0..12u64);
            for w in &self.workers {
                if !w.stalled && w.result.is_none() {
                    if let Some(counter) = self.disk.claims.get_mut(&(w.member, w.epoch)) {
                        *counter += 1;
                    }
                }
            }
            if self.rng.gen::<f64>() < 0.6 {
                self.worker_event();
                continue;
            }
            let outcome = match core.as_mut() {
                None => self.boot().map(|booted| {
                    core = booted;
                    core.is_none()
                }),
                Some((c, t0)) => {
                    let t0 = *t0;
                    self.scan(c, t0)
                }
            };
            match outcome {
                Ok(true) => return self.disk.posterior.clone().expect("posterior written"),
                Ok(false) => {}
                Err(Crashed) => core = None,
            }
        }
        panic!("schedule did not finish");
    }
}

/// The members the posterior was built from, recomputed from the final
/// journal exactly as the core chooses them.
fn posterior_members(state: &JournalState, tolerance: f64) -> Vec<u64> {
    let completed: BTreeSet<u64> = state.completed.iter().map(|&(m, _)| m).collect();
    let decided = |m: &u64| completed.contains(m) || state.failed.contains(m);
    let prefix = (0..).take_while(decided).filter(|m| completed.contains(m));
    match state.converged_at(tolerance) {
        Some(c) => prefix.take(c as usize).collect(),
        None => completed.into_iter().collect(),
    }
}

/// `(members, rho bits)` of every journalled checkpoint, in order.
fn svd_rounds(journal: &[JournalRecord]) -> Vec<(u64, u64)> {
    let rounds = JournalState::replay(journal).svd_rounds;
    rounds.iter().map(|r| (r.members, r.rho.to_bits())).collect()
}

fn explore(strategy: SubspaceStrategy, schedules: u64) {
    let mut fault_free = Sim::new(strategy, 1, Faults::default(), 16);
    let reference = fault_free.run();
    let reference_rounds = svd_rounds(&fault_free.disk.journal);
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    let mut lossy = 0;
    for seed in 0..schedules {
        let mut pick = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let mut rate =
            |max: f64| if pick.gen::<f64>() < 0.7 { pick.gen::<f64>() * max } else { 0.0 };
        let faults = Faults {
            corrupt: rate(0.15),
            reject: rate(0.1),
            fail: rate(0.1),
            stall: rate(0.15),
            duplicate: rate(0.5),
            crash: rate(0.08),
        };
        let budget = if seed % 4 == 0 { 1 } else { 16 };
        let mut sim = Sim::new(strategy, seed, faults, budget);
        let posterior = sim.run();
        for (what, n) in &sim.seen {
            *seen.entry(what).or_default() += n;
        }
        let state = JournalState::replay(&sim.disk.journal);
        // No member is ingested twice, in any incarnation.
        let mut completions: HashMap<u64, usize> = HashMap::new();
        for rec in &sim.disk.journal {
            if let JournalRecord::MemberCompleted { member, .. } = rec {
                *completions.entry(*member).or_default() += 1;
            }
        }
        assert!(
            completions.values().all(|&n| n == 1),
            "schedule {seed}: a member was ingested twice: {completions:?}"
        );
        // Every member the posterior skips is journalled as lost: no
        // silent partial ensemble.
        let used = posterior_members(&state, sim.cfg.tolerance);
        assert_eq!(Some(used.len() as u64), state.complete, "schedule {seed}");
        let top = used.last().copied().unwrap_or(0);
        for m in (0..top).filter(|m| !used.contains(m)) {
            assert!(state.failed.contains(&m), "schedule {seed}: member {m} silently dropped");
        }
        if state.failed.is_empty() {
            assert!(posterior == reference, "schedule {seed}: posterior differs from fault-free");
            // The checkpoint estimates a crash rebuilds are the ones an
            // uninterrupted run holds: same rho sequence, bit for bit.
            let rounds = svd_rounds(&sim.disk.journal);
            assert_eq!(rounds, reference_rounds, "schedule {seed}: rho sequence differs");
        } else {
            lossy += 1;
        }
    }
    for what in [
        "crash",
        "duplicate publish",
        "fence",
        "lease expiry",
        "quarantine",
        "self-rejection",
        "task failure",
        "zombie publish",
    ] {
        assert!(seen.get(what).is_some_and(|&n| n >= 100), "{what} barely exercised: {seen:?}");
    }
    assert!(lossy > 0 && lossy < schedules / 2, "loss paths exercised in {lossy} schedule(s)");
}

#[test]
fn full_strategy_survives_random_fault_schedules() {
    explore(SubspaceStrategy::FullRecompute, 1500);
}

#[test]
fn incremental_strategy_survives_random_fault_schedules() {
    explore(SubspaceStrategy::Incremental { refresh_every: 3, defect_tol: 1e-6 }, 1500);
}

#[test]
fn fault_free_schedules_agree_and_converge_early() {
    let mut a = Sim::new(SubspaceStrategy::FullRecompute, 1, Faults::default(), 16);
    let mut b = Sim::new(SubspaceStrategy::FullRecompute, 2, Faults::default(), 16);
    assert!(a.run() == b.run(), "fault-free posterior depends on the interleaving");
    let state = JournalState::replay(&a.disk.journal);
    let converged = state.converged.map(|(m, _)| m);
    assert!(converged.is_some_and(|m| m < 24), "reference run never converged: {state:?}");
}
