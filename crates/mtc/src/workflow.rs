//! The parallel ESSE workflow of paper Fig. 4, on real threads.
//!
//! Structure (one box per paper concept):
//!
//! * **pool of ensemble calculations** — worker threads pull
//!   perturb/forecast task attempts from a channel; the pool is
//!   over-provisioned (`M ≥ N`) so the SVD pipeline never drains;
//! * **continuous differ** — the coordinator receives member results as
//!   they arrive (any order) and accumulates difference columns;
//! * **continuous SVD + convergence** — every `svd_stride` new members a
//!   consistent snapshot (the "safe file", see [`crate::triple_buffer`])
//!   is decomposed and compared with the previous subspace;
//! * **cancellation** — convergence, the Tmax deadline and the death of
//!   the whole pool share one stop path: idle workers exit, pending
//!   retries are cancelled and the queue drained; the completion policy
//!   decides what happens to members already computed or still running;
//! * **failure recovery** — failed or timed-out attempts are requeued
//!   with exponential backoff under the [`RetryPolicy`] budget, slow
//!   members can be speculatively re-launched (first finisher wins),
//!   and exhausted members degrade the run *explicitly*: the outcome
//!   carries a [`RunHealth`] verdict, never a silent partial ensemble
//!   (paper §4 point 3: losses are tolerable unless systematic — so
//!   they must at least be visible).

use crate::fault::{FaultKind, FaultPlan, FaultReport, RetryPolicy, RunHealth};
use crate::journal::{encode_subspace_blob, Checkpoint};
use crate::task::{TaskId, TaskOutcome, TaskRecord, TaskState};
use crate::triple_buffer::DiskTripleBuffer;
use esse_core::adaptive::{CompletionPolicy, EnsembleSchedule};
use esse_core::convergence::{similarity, ConvergenceTest};
use esse_core::model::{ForecastError, ForecastModel};
use esse_core::perturb::{PerturbConfig, PerturbationGenerator};
use esse_core::subspace::{
    make_estimator, ErrorSubspace, SubspaceEstimator, SubspaceStrategy, UpdateKind,
};
use esse_core::validate::{ForecastValidator, Reason, Verdict};
use esse_core::{ConfigError, EsseError};
use esse_linalg::LinalgCtx;
use esse_obs::registry::{Counter, Gauge, Histogram, MetricsRegistry};
use esse_obs::{ArgValue, Lane, Recorder, RecorderExt, NULL};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Duration since workflow start as trace nanoseconds.
fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Configuration of the MTC workflow.
///
/// Prefer [`MtcConfig::builder`] for new code: it validates the
/// combination as it is built. Struct construction with
/// `..Default::default()` works too; [`MtcEsse::run`] validates either.
#[derive(Debug, Clone)]
pub struct MtcConfig {
    /// Worker threads (the paper's cluster cores).
    pub workers: usize,
    /// Pool over-provisioning: `M = ceil(pool_factor · N) ≥ N`.
    pub pool_factor: f64,
    /// Ensemble growth schedule.
    pub schedule: EnsembleSchedule,
    /// Convergence tolerance (ρ ≥ 1 − tol).
    pub tolerance: f64,
    /// Relative σ cutoff for retained modes.
    pub mode_rel_tol: f64,
    /// Maximum retained rank.
    pub max_rank: usize,
    /// Perturbation settings.
    pub perturb: PerturbConfig,
    /// Forecast duration (model seconds).
    pub duration: f64,
    /// Forecast start (model seconds).
    pub start_time: f64,
    /// Run the SVD every this many newly arrived members.
    pub svd_stride: usize,
    /// What to do with in-flight members at convergence.
    pub completion: CompletionPolicy,
    /// Hard wall-clock deadline Tmax (paper §4 point 1: "a forecast
    /// needs to be timely"). When it expires, queued members are
    /// cancelled and still-running members are ignored ("runs that have
    /// not finished … by the forecast deadline can be safely ignored").
    pub deadline: Option<Duration>,
    /// Failure recovery policy (default: retries disabled, reproducing
    /// the pre-fault-tolerance engine exactly).
    pub retry: RetryPolicy,
    /// Deterministic fault injection (default: none). Used by resilience
    /// tests and the `fault_sweep` bench harness.
    pub faults: Option<FaultPlan>,
    /// How the error subspace is (re)computed as members arrive. The
    /// default, [`SubspaceStrategy::FullRecompute`], reproduces the
    /// legacy full-SVD-per-round path bit for bit.
    pub subspace: SubspaceStrategy,
    /// Threading/blocking context handed to the linalg kernels once at
    /// engine construction (replaces per-call `threads` arguments).
    pub linalg: LinalgCtx,
}

impl Default for MtcConfig {
    fn default() -> Self {
        MtcConfig {
            workers: 4,
            pool_factor: 1.25,
            schedule: EnsembleSchedule::new(8, 64),
            tolerance: 0.03,
            mode_rel_tol: 1e-4,
            max_rank: 100,
            perturb: PerturbConfig::default(),
            duration: 86400.0,
            start_time: 0.0,
            svd_stride: 8,
            completion: CompletionPolicy::UseCompleted,
            deadline: None,
            retry: RetryPolicy::default(),
            faults: None,
            subspace: SubspaceStrategy::FullRecompute,
            linalg: LinalgCtx::default(),
        }
    }
}

impl MtcConfig {
    /// Start building a validated configuration from the defaults.
    pub fn builder() -> MtcConfigBuilder {
        MtcConfigBuilder { cfg: MtcConfig::default() }
    }

    /// Validate an already-constructed configuration (the builder calls
    /// this from [`MtcConfigBuilder::build`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::new("workers", "must be at least 1"));
        }
        if !self.pool_factor.is_finite() || self.pool_factor < 1.0 {
            return Err(ConfigError::new("pool_factor", "must be finite and ≥ 1 (M ≥ N)"));
        }
        if !(self.tolerance > 0.0 && self.tolerance < 1.0) {
            return Err(ConfigError::new("tolerance", "must lie strictly within (0, 1)"));
        }
        if self.mode_rel_tol.is_nan() || self.mode_rel_tol < 0.0 {
            return Err(ConfigError::new("mode_rel_tol", "must be ≥ 0"));
        }
        if self.max_rank == 0 {
            return Err(ConfigError::new("max_rank", "must be at least 1"));
        }
        if self.svd_stride == 0 {
            return Err(ConfigError::new("svd_stride", "must be at least 1"));
        }
        if !self.duration.is_finite() || self.duration < 0.0 {
            return Err(ConfigError::new("duration", "must be finite and ≥ 0"));
        }
        if let CompletionPolicy::SpareNearlyDone(frac) = self.completion {
            if frac.is_nan() || frac < 0.0 {
                return Err(ConfigError::new("completion", "SpareNearlyDone fraction must be ≥ 0"));
            }
        }
        if let SubspaceStrategy::Incremental { defect_tol, .. } = self.subspace {
            if defect_tol.is_nan() || defect_tol < 0.0 {
                return Err(ConfigError::new("subspace", "Incremental defect_tol must be ≥ 0"));
            }
        }
        if self.linalg.threads == 0 {
            return Err(ConfigError::new("linalg", "threads must be at least 1"));
        }
        if self.linalg.block_size == 0 {
            return Err(ConfigError::new("linalg", "block_size must be at least 1"));
        }
        self.retry.validate()?;
        Ok(())
    }
}

/// Builder for [`MtcConfig`] with typed defaults and a validating
/// [`build`](MtcConfigBuilder::build).
#[derive(Debug, Clone)]
pub struct MtcConfigBuilder {
    cfg: MtcConfig,
}

/// One builder setter per configuration field (`=> Some` wraps an
/// optional field).
macro_rules! setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty $(=> $wrap:ident)?;)*) => {$(
        $(#[$doc])*
        pub fn $field(mut self, value: $ty) -> Self {
            self.cfg.$field = $($wrap)?(value);
            self
        }
    )*};
}

impl MtcConfigBuilder {
    setters! {
        /// Worker threads.
        workers: usize;
        /// Pool over-provisioning factor (`M = ceil(pool_factor · N)`).
        pool_factor: f64;
        /// Ensemble growth schedule.
        schedule: EnsembleSchedule;
        /// Convergence tolerance.
        tolerance: f64;
        /// Relative σ cutoff for retained modes.
        mode_rel_tol: f64;
        /// Maximum retained rank.
        max_rank: usize;
        /// Perturbation settings.
        perturb: PerturbConfig;
        /// Forecast duration (model seconds).
        duration: f64;
        /// Forecast start (model seconds).
        start_time: f64;
        /// SVD stride (members between decompositions).
        svd_stride: usize;
        /// Completion policy for in-flight members at convergence.
        completion: CompletionPolicy;
        /// Hard Tmax wall-clock deadline.
        deadline: Duration => Some;
        /// Failure recovery policy.
        retry: RetryPolicy;
        /// Deterministic fault injection plan.
        faults: FaultPlan => Some;
        /// Subspace estimation strategy (default: bit-identical
        /// [`SubspaceStrategy::FullRecompute`]).
        subspace: SubspaceStrategy;
        /// Linalg engine context (threads + cache block size), passed to
        /// the kernels once at engine construction.
        linalg: LinalgCtx;
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<MtcConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// SVD/convergence state rehydrated from a run journal + the on-disk
/// safe/live covariance files, so a resumed run continues the
/// convergence cadence exactly where the dead coordinator left it
/// instead of restarting the similarity test from scratch.
#[derive(Debug, Clone, Default)]
pub struct ReplayState {
    /// Similarity history from `SvdPublished` journal records.
    pub rho_history: Vec<f64>,
    /// The last published subspace (from the safe/live files), used as
    /// the "previous" estimate of the next convergence check.
    pub previous: Option<ErrorSubspace>,
    /// Ensemble size at the last SVD round (restores the stride phase).
    pub last_svd_members: usize,
    /// Version counter of the last published subspace.
    pub svd_version: u64,
}

/// Input to [`MtcEsse::run`]: the mean state and prior subspace, plus
/// optional resume bookkeeping (paper §4.2: a stopped ESSE execution
/// "can be restarted without rerunning all jobs").
#[derive(Debug, Clone, Copy)]
pub struct RunInit<'a> {
    /// Initial mean state.
    pub mean: &'a [f64],
    /// Prior error subspace supplying the perturbation directions.
    pub prior: &'a ErrorSubspace,
    /// Previously completed `(member index, forecast result)` pairs
    /// recovered from the bookkeeping directory; those indices are
    /// folded into the differ up front and never re-enqueued.
    pub resume: &'a [(TaskId, Vec<f64>)],
    /// Rehydrated SVD/convergence state from a journal replay.
    pub replay: Option<&'a ReplayState>,
}

impl<'a> RunInit<'a> {
    /// Fresh run from `mean` and `prior`.
    pub fn new(mean: &'a [f64], prior: &'a ErrorSubspace) -> RunInit<'a> {
        RunInit { mean, prior, resume: &[], replay: None }
    }

    /// Attach resume bookkeeping from a previous incarnation.
    pub fn resuming(mut self, previous: &'a [(TaskId, Vec<f64>)]) -> RunInit<'a> {
        self.resume = previous;
        self
    }

    /// Attach rehydrated SVD/convergence state from a journal replay.
    pub fn rehydrating(mut self, replay: &'a ReplayState) -> RunInit<'a> {
        self.replay = Some(replay);
        self
    }
}

/// Result of an MTC ESSE run.
#[derive(Debug)]
pub struct MtcOutcome {
    /// Central (unperturbed) forecast.
    pub central: Vec<f64>,
    /// Final error subspace.
    pub subspace: ErrorSubspace,
    /// Whether the convergence criterion fired (vs Nmax exhaustion).
    pub converged: bool,
    /// Similarity history across SVD rounds.
    pub rho_history: Vec<f64>,
    /// Per-task bookkeeping.
    pub records: Vec<TaskRecord>,
    /// Wall-clock makespan of the whole workflow.
    pub makespan: Duration,
    /// Members whose results entered the final subspace.
    pub members_used: usize,
    /// Members that failed permanently (retry budget exhausted).
    pub members_failed: usize,
    /// Members computed but discarded (arrived after convergence under
    /// `CancelImmediately`) — the paper's "wasted cycles".
    pub members_wasted: usize,
    /// Tasks cancelled before starting.
    pub members_cancelled: usize,
    /// SVD rounds executed.
    pub svd_rounds: usize,
    /// Whether the Tmax deadline fired before convergence/Nmax.
    pub deadline_expired: bool,
    /// Statistical health: [`RunHealth::Full`], or an explicit
    /// [`RunHealth::Degraded`] verdict when members were lost.
    pub health: RunHealth,
    /// What the recovery machinery did (retries, timeouts, speculation,
    /// worker deaths).
    pub faults: FaultReport,
}

impl MtcOutcome {
    /// Statistical-coverage report over the planned member set (paper §4
    /// point 3: losses are fine unless they form a systematic hole).
    pub fn coverage(&self) -> crate::coverage::CoverageReport {
        let completed: Vec<TaskId> = self
            .records
            .iter()
            .filter(|r| matches!(r.outcome, Some(TaskOutcome::Success)))
            .map(|r| r.id)
            .collect();
        crate::coverage::analyze(&completed, self.records.len())
    }
}

/// Worker receive and coordinator loop poll period: deadlines, backoff
/// releases and the straggler scan run at least this often.
const POLL: Duration = Duration::from_millis(5);

/// What a coordinator decision returns.
type Step = Result<(), EsseError>;

/// One attempt of one member, as queued to the worker pool.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    id: TaskId,
    attempt: u32,
}

/// A finished attempt, as its worker reports it.
struct AttemptDone {
    att: Attempt,
    worker: usize,
    started: Duration,
    finished: Duration,
    result: Result<Vec<f64>, ForecastError>,
    /// The worker died running it and takes no further attempt.
    died: bool,
}

/// Messages from workers to the coordinator.
enum WorkerMsg {
    /// A worker picked up an attempt (feeds straggler detection).
    Started { id: TaskId, at: Duration },
    /// An attempt finished.
    Done(AttemptDone),
}

/// Recovery bookkeeping of one planned member, beside its public
/// [`TaskRecord`].
#[derive(Default)]
struct Member {
    /// Attempts issued so far (including in flight).
    attempts: u32,
    /// Attempt messages in the queue or on a worker.
    inflight: u32,
    /// Reached a final state (success / permanent failure /
    /// cancellation); late duplicates are discarded.
    resolved: bool,
    /// The attempt index of its speculative copy, once one is launched.
    spec_attempt: Option<u32>,
    /// When the most recent attempt started running (straggler scan).
    running_since: Option<Duration>,
    /// Quarantined at least once (a later successful attempt makes it a
    /// *replaced* member).
    quarantined: bool,
}

/// Declares [`Meters`], one live handle per registered metric.
macro_rules! meters {
    ($($field:ident: $ty:ident = $kind:ident($name:literal),)*) => {
        /// Live metric handles for one run, registered by
        /// [`MtcEsse::with_metrics`]. Handles are atomics behind `Arc`s,
        /// so updating them never touches the registry lock.
        struct Meters {
            $($field: $ty,)*
        }

        impl Meters {
            fn new(reg: &MetricsRegistry) -> Meters {
                Meters { $($field: reg.$kind($name),)* }
            }
        }
    };
}

meters! {
    members_done: Gauge = gauge("esse_members_done"),
    coverage: Gauge = gauge("esse_coverage"),
    rho: Gauge = gauge("esse_convergence_rho"),
    completed: Counter = counter("esse_tasks_completed_total"),
    failed: Counter = counter("esse_tasks_failed_total"),
    wasted: Counter = counter("esse_tasks_wasted_total"),
    cancelled: Counter = counter("esse_tasks_cancelled_total"),
    attempts: Counter = counter("esse_task_attempts_total"),
    retries: Counter = counter("esse_retries_total"),
    timeouts: Counter = counter("esse_task_timeouts_total"),
    spec_launches: Counter = counter("esse_speculative_launches_total"),
    spec_wins: Counter = counter("esse_speculative_wins_total"),
    spec_losses: Counter = counter("esse_speculative_losses_total"),
    workers_died: Counter = counter("esse_workers_died_total"),
    quarantined: Counter = counter("esse_quarantined_total"),
    replaced: Counter = counter("esse_replaced_total"),
    member_runtime: Histogram = histogram("esse_member_runtime_ns"),
    // Incremental rank-block folds of the subspace lane.
    subspace_update: Histogram = histogram("esse_subspace_update_ns"),
    // Full recomputes of the subspace lane (every round under
    // `FullRecompute`; drift-control refreshes under `Incremental`).
    subspace_refresh: Histogram = histogram("esse_subspace_refresh_ns"),
    // Orthonormality defect of the last published estimate.
    subspace_defect: Gauge = gauge("esse_subspace_defect"),
    queue_wait: Histogram = histogram("esse_queue_wait_ns"),
}

/// The MTC ESSE engine.
pub struct MtcEsse<'m, M: ForecastModel> {
    /// The forecast model shared by all workers.
    pub model: &'m M,
    /// Workflow configuration.
    pub config: MtcConfig,
    /// Observability sink (no-op unless [`MtcEsse::with_recorder`]).
    recorder: &'m dyn Recorder,
    /// Live metrics registry (none unless [`MtcEsse::with_metrics`]).
    metrics: Option<&'m MetricsRegistry>,
    /// Durable run journal (none unless [`MtcEsse::with_checkpoint`]).
    checkpoint: Option<&'m Checkpoint>,
    /// Semantic ingest gate (none unless [`MtcEsse::with_validator`]).
    validator: Option<ForecastValidator>,
}

impl<'m, M: ForecastModel> MtcEsse<'m, M> {
    /// New engine.
    pub fn new(model: &'m M, config: MtcConfig) -> Self {
        MtcEsse { model, config, recorder: &NULL, metrics: None, checkpoint: None, validator: None }
    }

    /// Attach a semantic forecast validator. Every arriving payload
    /// must then pass the validator before it enters the spread matrix:
    /// a quarantined member is journalled with its reason code,
    /// replaced under the retry budget (fresh attempt index, same
    /// member), and — only when the budget is exhausted — reported in
    /// the [`RunHealth::Degraded`] quarantine breakdown. Accepted
    /// members feed the validator's decided-prefix statistics for the
    /// ensemble-relative outlier test.
    pub fn with_validator(mut self, validator: ForecastValidator) -> Self {
        self.validator = Some(validator);
        self
    }

    /// Attach a trace recorder. Timestamps are on the workflow clock of
    /// the [`TaskRecord`]s. The run then emits:
    ///
    /// * on each [`Lane::Worker`] lane: one `task/member` span per
    ///   executed attempt, a `task/member_failed` instant when the
    ///   attempt failed, and `fault/worker_died` when the worker died;
    /// * on [`Lane::Coordinator`], the spans `phase/central_forecast`,
    ///   `svd/svd` (with a nested `svd/subspace_update` or
    ///   `svd/subspace_refresh`) and `svd/svd_final`;
    /// * on [`Lane::Coordinator`], the instants `sched/enqueued`,
    ///   `task/cancelled` and `svd/convergence_check`, the lifecycle
    ///   instants `workflow/{resumed, stage_advance, converged,
    ///   deadline_expired, degraded}` and the recovery instants
    ///   `fault/{retry_scheduled, replacement_scheduled, task_timeout,
    ///   speculative_launch, speculative_win, speculative_loss,
    ///   member_quarantined, member_lost_quarantine,
    ///   member_failed_permanent}`;
    /// * the progress counters `members_done`, `members_failed`,
    ///   `members_wasted`, and `retries` and `timeouts` once non-zero.
    ///
    /// With the default [`esse_obs::NullRecorder`] no event or argument
    /// vector is ever built.
    pub fn with_recorder(mut self, recorder: &'m dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach a live metrics registry. The run then keeps task-state
    /// counters (`esse_tasks_*_total`), fault-recovery counters
    /// (retries, timeouts, speculation, worker deaths), the convergence
    /// rho gauge, and runtime/queue-wait histograms current while it
    /// executes — scrape [`MetricsRegistry::snapshot`] at any moment
    /// for a consistent point-in-time view.
    pub fn with_metrics(mut self, registry: &'m MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attach a durable run journal. Every member that enters the
    /// spread matrix is first persisted (result blob + journal record
    /// as the commit point), permanent failures and SVD rounds are
    /// journalled, and each published subspace is written through the
    /// on-disk safe/live covariance files in the checkpoint directory —
    /// so a coordinator killed at any instant can be resumed via
    /// [`Checkpoint::open`] + [`RunInit::resuming`]/
    /// [`RunInit::rehydrating`] without re-running completed members.
    pub fn with_checkpoint(mut self, checkpoint: &'m Checkpoint) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Run the decoupled uncertainty forecast (Fig. 4): a fresh run is
    /// `run(RunInit::new(&mean, &prior))`; a restarted one chains
    /// [`RunInit::resuming`]. A configuration [`MtcConfig::validate`]
    /// rejects is an [`EsseError::Config`].
    pub fn run(&self, init: RunInit<'_>) -> Result<MtcOutcome, EsseError> {
        let cfg = &self.config;
        cfg.validate()?;
        // The on-disk safe/live covariance files live beside the
        // journal; every published subspace goes through them so a
        // resumed run recovers its "previous" estimate from disk.
        let journal = match self.checkpoint {
            Some(ck) => Some((ck, DiskTripleBuffer::create(ck.dir())?)),
            None => None,
        };
        let t0 = Instant::now();
        let mut sink = Sink::new(self.recorder, self.metrics.map(Meters::new));
        if !init.resume.is_empty() {
            sink.note(Duration::ZERO, Event::Resumed(init.resume.len()));
        }
        // Central forecast first: the differ needs it.
        let begun = t0.elapsed();
        let central = self.model.forecast(init.mean, cfg.start_time, cfg.duration, None)?;
        sink.note(t0.elapsed(), Event::Span("phase", "central_forecast", begun, None));

        let (tasks, queue) = channel();
        let (msg_tx, msgs) = channel();
        let pool = Pool {
            model: self.model,
            cfg,
            gen: PerturbationGenerator::new(init.prior, cfg.perturb.clone()),
            mean: init.mean,
            t0,
            queue: Mutex::new(queue),
            cancel: AtomicBool::new(false),
        };
        let acc = make_estimator(
            &cfg.subspace,
            central.clone(),
            cfg.mode_rel_tol,
            cfg.max_rank,
            cfg.linalg,
        );
        let replay = init.replay;
        let engine = Engine {
            pool: &pool,
            journal,
            validator: self.validator.clone(),
            sink,
            tasks,
            stages: cfg.schedule.stages(),
            stage: 0,
            resumed: init.resume.iter().map(|(id, _)| *id).collect(),
            records: Vec::new(),
            book: Vec::new(),
            sent: 0,
            got: 0,
            alive: cfg.workers,
            acc,
            conv: match replay {
                Some(r) => ConvergenceTest::restore(cfg.tolerance, &r.rho_history),
                None => ConvergenceTest::new(cfg.tolerance),
            },
            previous: replay.and_then(|r| r.previous.clone()),
            since_svd: 0,
            svd_rounds: 0,
            svd_version: replay.map_or(0, |r| r.svd_version),
            converged_at: None,
            deadline_expired: false,
            runtime: (Duration::ZERO, 0),
            retry_queue: Vec::new(),
            // The jitter stream is owned by the workflow and seeded from
            // its own config; it is only advanced when a retry is
            // actually scheduled, so zero-fault runs never consume it.
            jitter: StdRng::seed_from_u64(cfg.perturb.base_seed ^ 0x7E57_FA17),
        };
        std::thread::scope(|scope| {
            for w in 0..cfg.workers {
                let (pool, tx) = (&pool, msg_tx.clone());
                scope.spawn(move || work(w, pool, tx));
            }
            drop(msg_tx); // the coordinator keeps only the receiver
            let out = engine.drive(&init, &msgs, central);
            // Also after an error: idle workers exit rather than run
            // the rest of the queue.
            pool.cancel.store(true, Ordering::Relaxed);
            out
        })
    }
}

/// What the worker threads share with the coordinator.
struct Pool<'a> {
    model: &'a dyn ForecastModel,
    cfg: &'a MtcConfig,
    gen: PerturbationGenerator<'a>,
    mean: &'a [f64],
    /// The workflow clock's origin.
    t0: Instant,
    /// Workers share the one task receiver; each takes the lock only for
    /// the duration of a single bounded receive.
    queue: Mutex<Receiver<Attempt>>,
    /// Set at a stop: idle workers exit.
    cancel: AtomicBool,
}

impl Pool<'_> {
    /// Member `id`'s forecast. A planned payload corruption then damages
    /// it: the forecast "succeeds" but its bytes are wrong, and only the
    /// ingest validator can catch it.
    fn forecast(&self, Attempt { id, attempt }: Attempt) -> Result<Vec<f64>, ForecastError> {
        let x0 = self.gen.perturb(self.mean, id);
        let seed = Some(self.gen.forecast_seed(id));
        let mut r = self.model.forecast(&x0, self.cfg.start_time, self.cfg.duration, seed);
        if let (Ok(xf), Some(p)) = (&mut r, &self.cfg.faults) {
            if let Some(kind) = p.corruption_for(id, attempt) {
                kind.apply(p.seed, id as u64, (xf.len() / 5).max(1), xf);
            }
        }
        r
    }
}

/// One worker of the pool: take attempts until a stop or the closed
/// queue, settle each attempt's fate under the fault plan, report it.
fn work(w: usize, pool: &Pool<'_>, tx: Sender<WorkerMsg>) {
    let plan = pool.cfg.faults.as_ref();
    let mut taken = 0;
    while !pool.cancel.load(Ordering::Relaxed) {
        // Let a woken peer take the receiver first: a worker back from a
        // short task would otherwise barge past workers already waiting
        // on the lock.
        std::thread::yield_now();
        let att = match crate::lock(&pool.queue).recv_timeout(POLL) {
            Ok(att) => att,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let Attempt { id, attempt } = att;
        taken += 1;
        let started = pool.t0.elapsed();
        // The receiver may be gone during shutdown; send errors are moot.
        let _ = tx.send(WorkerMsg::Started { id, at: started });
        let died = plan.is_some_and(|p| p.worker_dies(w, taken));
        let injected = |what| Err(ForecastError::Injected(what));
        let which = || format!("(member {id}, attempt {attempt})");
        let result = match plan.and_then(|p| p.fault_for(id, attempt)) {
            _ if died => injected(format!("worker {w} died running member {id}")),
            Some(FaultKind::Crash) => injected(format!("injected crash {}", which())),
            Some(FaultKind::TransientIo) => injected(format!("transient I/O error {}", which())),
            Some(FaultKind::Straggle(extra)) => {
                // A straggler: the work happens, just late.
                std::thread::sleep(extra);
                pool.forecast(att)
            }
            None => pool.forecast(att),
        };
        let finished = pool.t0.elapsed();
        let done = AttemptDone { att, worker: w, started, finished, result, died };
        let _ = tx.send(WorkerMsg::Done(done));
        if died {
            break;
        }
    }
}

/// What stops a run taking on new work.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// The convergence criterion fired at this similarity.
    Converged(f64),
    /// The Tmax deadline expired.
    Deadline,
    /// Every worker died.
    PoolDied,
}

/// A recovery or lifecycle event, as [`Sink::note`] records it.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A resumed run folded this many results of an earlier incarnation.
    Resumed(usize),
    /// An attempt was queued (with its index, when it is not the first).
    Enqueued(TaskId, Option<u32>),
    /// A worker ran an attempt: `(worker, attempt, started, finished, failed)`.
    Ran(usize, Attempt, Duration, Duration, bool),
    /// A stop cancelled a member before its next attempt ran; `true` when
    /// the pool died, which makes it a lost member.
    Cancelled(TaskId, bool),
    /// `(member, runtime)`: an attempt overran the task timeout.
    TaskTimeout(TaskId, Duration),
    /// `(member, attempt, delay, quarantined)`: a failed member is
    /// retried, a quarantined one replaced.
    Requeued(TaskId, u32, Duration, bool),
    /// `(member, attempt)`: a straggler's duplicate is launched.
    SpeculativeLaunch(TaskId, u32),
    /// The speculative copy resolved the member.
    SpeculativeWin(TaskId),
    /// The speculative copy arrived after the member was resolved.
    SpeculativeLoss(TaskId),
    /// `(member, reason code)`: the validator rejected a payload.
    Quarantined(TaskId, u32),
    /// A member entered the ensemble.
    Completed,
    /// A member was computed in vain (it arrived after a stop).
    Wasted,
    /// `(member, attempts, quarantined)`: a member failed for good, or a
    /// quarantined one was never healed.
    Lost(TaskId, u32, bool),
    /// A quarantined member was healed by a later attempt.
    Replaced,
    /// The worker with this index died.
    WorkerDied(usize),
    /// `(members done, planned, queue wait)` as the run progresses.
    Progress(usize, usize, Option<Duration>),
    /// `(members, started, update kind / defect / error bound)`: an SVD
    /// round, with no update when the ensemble is still too small.
    SvdRound(usize, Duration, Option<(UpdateKind, f64, f64)>),
    /// `(rho, members)`: a similarity test against the last estimate.
    ConvergenceCheck(f64, usize),
    /// `(rho, members)`: the convergence criterion fired.
    Converged(f64, usize),
    /// The Tmax deadline expired.
    DeadlineExpired(Duration),
    /// The pool grows to this stage target.
    StageAdvance(usize),
    /// `(cat, name, started, members)`: a coordinator span that ended now.
    Span(&'static str, &'static str, Duration, Option<usize>),
    /// `(coverage, lost, quarantined, replaced)` of a degraded run.
    Degraded(f64, usize, usize, usize),
}

/// The one place a run's events are recorded: the [`FaultReport`], the
/// outcome tallies, the live [`Meters`] and the trace.
struct Sink<'a> {
    obs: &'a dyn Recorder,
    meters: Option<Meters>,
    faults: FaultReport,
    /// Members failed for good (`MtcOutcome::members_failed`).
    failed: usize,
    /// Members computed but discarded (`MtcOutcome::members_wasted`).
    wasted: usize,
    /// Quarantined members never healed.
    lost_quarantine: usize,
    /// Members a dead pool never ran.
    abandoned: usize,
}

/// Picks an event's counter out of the [`Meters`].
type Pick = fn(&Meters) -> &Counter;

fn ms(d: Duration) -> ArgValue {
    (d.as_millis() as u64).into()
}

impl<'a> Sink<'a> {
    fn new(obs: &'a dyn Recorder, meters: Option<Meters>) -> Self {
        let faults = FaultReport::default();
        Sink { obs, meters, faults, failed: 0, wasted: 0, lost_quarantine: 0, abandoned: 0 }
    }

    /// Record `ev` at `now`: its report field or tally, its meter, its
    /// trace events.
    fn note(&mut self, now: Duration, ev: Event) {
        use Event::*;
        let f = &mut self.faults;
        let (tally, counter): (Option<&mut usize>, Option<Pick>) = match ev {
            Ran(..) => (None, Some(|m| &m.attempts)),
            Cancelled(_, lost) => (lost.then_some(&mut self.abandoned), Some(|m| &m.cancelled)),
            TaskTimeout(..) => (Some(&mut f.timeouts), Some(|m| &m.timeouts)),
            Requeued(..) => (Some(&mut f.retries), Some(|m| &m.retries)),
            SpeculativeLaunch(..) => {
                (Some(&mut f.speculative_launches), Some(|m| &m.spec_launches))
            }
            SpeculativeWin(_) => (Some(&mut f.speculative_wins), Some(|m| &m.spec_wins)),
            SpeculativeLoss(_) => (Some(&mut f.speculative_losses), Some(|m| &m.spec_losses)),
            Quarantined(..) => (Some(&mut f.quarantined), Some(|m| &m.quarantined)),
            Completed => (None, Some(|m| &m.completed)),
            Wasted => (Some(&mut self.wasted), Some(|m| &m.wasted)),
            Lost(.., false) => (Some(&mut self.failed), Some(|m| &m.failed)),
            Lost(.., true) => (Some(&mut self.lost_quarantine), Some(|m| &m.failed)),
            Replaced => (Some(&mut f.replaced), Some(|m| &m.replaced)),
            WorkerDied(_) => (Some(&mut f.workers_died), Some(|m| &m.workers_died)),
            _ => (None, None),
        };
        if let Some(n) = tally {
            *n += 1;
        }
        if let Some(m) = &self.meters {
            if let Some(counter) = counter {
                counter(m).inc();
            }
            match ev {
                Ran(_, _, started, finished, _) => {
                    m.member_runtime.observe(ns(finished.saturating_sub(started)))
                }
                Progress(done, planned, wait) => {
                    m.members_done.set(done as f64);
                    m.coverage.set(done as f64 / planned.max(1) as f64);
                    if let Some(w) = wait {
                        m.queue_wait.observe(ns(w));
                    }
                }
                ConvergenceCheck(rho, _) => m.rho.set(rho),
                SvdRound(_, started, Some((kind, defect, _))) => {
                    let lane = match kind {
                        UpdateKind::Incremental => &m.subspace_update,
                        UpdateKind::Full | UpdateKind::Refresh => &m.subspace_refresh,
                    };
                    lane.observe(ns(now.saturating_sub(started)));
                    m.subspace_defect.set(defect);
                }
                _ => {}
            }
        }
        if self.obs.enabled() {
            self.trace(now, ev);
        }
    }

    /// The trace events of `ev`, built only when tracing.
    fn trace(&self, now: Duration, ev: Event) {
        use Event::*;
        let (obs, coord, ts) = (self.obs, Lane::Coordinator, ns(now));
        let member = |id: TaskId| ("member", ArgValue::from(id));
        let task = |id, a: u32| vec![member(id), ("attempt", ArgValue::from(u64::from(a)))];
        let count = |name, n: usize| (name, ArgValue::from(n));
        let tries = |id, n: u32| vec![member(id), count("attempts", n as usize)];
        let rho_at = |rho: f64, n| vec![("rho", rho.into()), count("members", n)];
        let (cat, name, args) = match ev {
            Resumed(n) => ("workflow", "resumed", vec![count("members", n)]),
            Enqueued(id, None) => ("sched", "enqueued", vec![member(id)]),
            Enqueued(id, Some(a)) => ("sched", "enqueued", task(id, a)),
            Ran(w, Attempt { id, attempt: a }, started, finished, failed) => {
                let lane = Lane::Worker(w as u32);
                obs.begin_at(ns(started), lane, "task", "member", task(id, a));
                if failed {
                    obs.instant_at(ns(finished), lane, "task", "member_failed", task(id, a));
                }
                obs.end_at(ns(finished), lane, "task", "member");
                obs.observe("member", ns(finished.saturating_sub(started)));
                return;
            }
            Cancelled(id, _) => ("task", "cancelled", vec![member(id)]),
            TaskTimeout(id, rt) => {
                ("fault", "task_timeout", vec![member(id), ("runtime_ms", ms(rt))])
            }
            Requeued(id, a, _, true) => ("fault", "replacement_scheduled", task(id, a)),
            Requeued(id, a, delay, false) => {
                let mut args = task(id, a);
                args.push(("delay_ms", ms(delay)));
                ("fault", "retry_scheduled", args)
            }
            SpeculativeLaunch(id, a) => ("fault", "speculative_launch", task(id, a)),
            SpeculativeWin(id) => ("fault", "speculative_win", vec![member(id)]),
            SpeculativeLoss(id) => ("fault", "speculative_loss", vec![member(id)]),
            Quarantined(id, reason) => {
                let reason = ("reason", ArgValue::from(u64::from(reason)));
                ("fault", "member_quarantined", vec![member(id), reason])
            }
            Lost(id, n, false) => ("fault", "member_failed_permanent", tries(id, n)),
            Lost(id, n, true) => ("fault", "member_lost_quarantine", tries(id, n)),
            WorkerDied(w) => {
                let args = vec![count("worker", w)];
                obs.instant_at(ts, Lane::Worker(w as u32), "fault", "worker_died", args);
                return;
            }
            Progress(done, ..) => {
                obs.counter_at(ts, coord, "members_done", done as f64);
                obs.counter_at(ts, coord, "members_failed", self.failed as f64);
                obs.counter_at(ts, coord, "members_wasted", self.wasted as f64);
                let f = &self.faults;
                for (name, n) in [("retries", f.retries), ("timeouts", f.timeouts)] {
                    if n > 0 {
                        obs.counter_at(ts, coord, name, n as f64);
                    }
                }
                return;
            }
            SvdRound(members, started, update) => {
                obs.begin_at(ns(started), coord, "svd", "svd", vec![count("members", members)]);
                // A nested span names the update flavour this round took
                // (incremental fold vs full/refresh recompute), so the
                // outer "svd" span stays stable for analytics.
                if let Some((kind, defect, bound)) = update {
                    let inner = match kind {
                        UpdateKind::Incremental => "subspace_update",
                        UpdateKind::Full | UpdateKind::Refresh => "subspace_refresh",
                    };
                    let args = vec![("defect", defect.into()), ("error_bound", bound.into())];
                    obs.begin_at(ns(started), coord, "svd", inner, args);
                    obs.end_at(ts, coord, "svd", inner);
                }
                obs.end_at(ts, coord, "svd", "svd");
                obs.observe("svd", ns(now.saturating_sub(started)));
                return;
            }
            ConvergenceCheck(rho, n) => ("svd", "convergence_check", rho_at(rho, n)),
            Converged(rho, n) => ("workflow", "converged", rho_at(rho, n)),
            DeadlineExpired(tmax) => ("workflow", "deadline_expired", vec![("tmax_ms", ms(tmax))]),
            StageAdvance(target) => ("workflow", "stage_advance", vec![count("target", target)]),
            Degraded(coverage, lost, quarantined, replaced) => {
                let args = vec![
                    ("coverage", coverage.into()),
                    count("lost", lost),
                    count("quarantined", quarantined),
                    count("replaced", replaced),
                ];
                ("workflow", "degraded", args)
            }
            Span(cat, name, started, members) => {
                let args = members.map_or(Vec::new(), |n| vec![count("members", n)]);
                obs.begin_at(ns(started), coord, cat, name, args);
                obs.end_at(ts, coord, cat, name);
                return;
            }
            Completed | Wasted | Replaced => return,
        };
        obs.instant_at(ts, coord, cat, name, args);
    }
}

/// The coordinator of one run — differ, SVD, convergence and recovery —
/// with one method per decision. Every event goes through `sink`.
struct Engine<'a> {
    pool: &'a Pool<'a>,
    /// The run journal and its on-disk covariance files.
    journal: Option<(&'a Checkpoint, DiskTripleBuffer)>,
    validator: Option<ForecastValidator>,
    sink: Sink<'a>,
    tasks: Sender<Attempt>,
    stages: Vec<usize>,
    stage: usize,
    resumed: HashSet<TaskId>,
    records: Vec<TaskRecord>,
    book: Vec<Member>,
    /// Attempt messages queued to the pool (first attempts, retries and
    /// speculative duplicates) and accounted for (finished or drained).
    sent: usize,
    got: usize,
    /// Workers that have not died.
    alive: usize,
    acc: Box<dyn SubspaceEstimator>,
    conv: ConvergenceTest,
    previous: Option<ErrorSubspace>,
    since_svd: usize,
    svd_rounds: usize,
    svd_version: u64,
    converged_at: Option<Duration>,
    deadline_expired: bool,
    /// Total runtime and count of the attempts that produced a payload.
    runtime: (Duration, u32),
    /// Backoff-pending retries: (ready at, member, attempt index).
    retry_queue: Vec<(Duration, TaskId, u32)>,
    jitter: StdRng,
}

impl<'a> Engine<'a> {
    fn cfg(&self) -> &'a MtcConfig {
        self.pool.cfg
    }

    fn clock(&self) -> Duration {
        self.pool.t0.elapsed()
    }

    fn stopped(&self) -> bool {
        self.converged_at.is_some() || self.deadline_expired || self.alive == 0
    }

    fn pool_target(&self, n: usize) -> usize {
        ((n as f64 * self.cfg().pool_factor).ceil() as usize).max(n)
    }

    /// Fold the resumed members, queue the first stage, run the receive
    /// loop, wind down.
    fn drive(
        mut self,
        init: &RunInit<'_>,
        msgs: &Receiver<WorkerMsg>,
        central: Vec<f64>,
    ) -> Result<MtcOutcome, EsseError> {
        // Resumed members were validated before they were journalled;
        // they re-arm the decided-prefix stats.
        for (id, xf) in init.resume {
            self.admit(*id, xf, None)?;
        }
        // Resume restores the SVD stride phase: members folded from the
        // journal that the dead coordinator never decomposed still count
        // toward the next round.
        let decomposed = init.replay.map(|r| r.last_svd_members);
        self.since_svd = decomposed.map_or(0, |n| self.acc.count().saturating_sub(n));
        self.enqueue_to(self.pool_target(self.stages[0]));
        // Resumed members may already complete early stages.
        while self.advance_stage() {}
        self.pump(msgs)?;
        self.finish(central)
    }

    /// The receive loop: runs until every queued attempt is accounted
    /// for and no retry is pending.
    fn pump(&mut self, msgs: &Receiver<WorkerMsg>) -> Step {
        while self.got < self.sent || !self.retry_queue.is_empty() {
            let msg = msgs.recv_timeout(POLL);
            let now = self.clock();
            if !self.deadline_expired && self.cfg().deadline.is_some_and(|tmax| now >= tmax) {
                self.stop(now, Stop::Deadline)?;
            }
            self.release_due_retries(now);
            self.speculate(now);
            match msg {
                Ok(WorkerMsg::Started { id, at }) => {
                    self.book[id].running_since = Some(at);
                    if self.records[id].state == TaskState::Pending {
                        self.records[id].state = TaskState::Running;
                    }
                }
                Ok(WorkerMsg::Done(done)) => {
                    let died = done.died.then_some((done.worker, done.finished));
                    self.on_done(now, done)?;
                    if let Some((worker, at)) = died {
                        self.sink.note(at, Event::WorkerDied(worker));
                        self.alive -= 1;
                        if self.alive == 0 {
                            self.stop(now, Stop::PoolDied)?;
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        Ok(())
    }

    /// Queue one attempt of member `id`.
    fn send(&mut self, id: TaskId, attempt: u32) {
        self.sent += 1;
        self.book[id].inflight += 1;
        self.tasks.send(Attempt { id, attempt }).expect("the pool holds the task receiver");
    }

    /// Issue member ids up to `target`: resumed ids are recorded as done,
    /// the others get their first attempt queued.
    fn enqueue_to(&mut self, target: usize) {
        while self.records.len() < target {
            let (id, now) = (self.records.len(), self.clock());
            let resumed = self.resumed.contains(&id);
            let mut rec = TaskRecord::pending(id);
            if resumed {
                (rec.state, rec.outcome) = (TaskState::Done, Some(TaskOutcome::Success));
            } else {
                rec.enqueued_at = Some(now);
            }
            self.records.push(rec);
            let attempts = u32::from(!resumed);
            self.book.push(Member { attempts, resolved: resumed, ..Member::default() });
            if !resumed {
                self.send(id, 0);
                self.sink.note(now, Event::Enqueued(id, None));
            }
        }
    }

    /// Queue the retries whose backoff has elapsed.
    fn release_due_retries(&mut self, now: Duration) {
        let mut i = 0;
        while i < self.retry_queue.len() {
            if self.retry_queue[i].0 > now {
                i += 1;
                continue;
            }
            let (_, id, attempt) = self.retry_queue.swap_remove(i);
            self.records[id].enqueued_at = Some(now);
            self.send(id, attempt);
            self.sink.note(now, Event::Enqueued(id, Some(attempt)));
        }
    }

    /// Straggler speculation: re-launch members that have been running
    /// much longer than the mean on the (free) pool; the first finisher
    /// resolves the member.
    fn speculate(&mut self, now: Duration) {
        let (retry, (sum, n)) = (&self.cfg().retry, self.runtime);
        if !retry.speculative || self.stopped() || n < 2 {
            return;
        }
        let threshold = (sum / n).mul_f64(retry.speculation_factor);
        for id in 0..self.book.len() {
            let m = &mut self.book[id];
            let straggles = m.running_since.is_some_and(|t| now.saturating_sub(t) > threshold);
            if m.resolved || m.spec_attempt.is_some() || m.inflight != 1 || !straggles {
                continue;
            }
            let attempt = m.attempts;
            m.attempts += 1;
            m.spec_attempt = Some(attempt);
            self.send(id, attempt);
            self.sink.note(now, Event::SpeculativeLaunch(id, attempt));
        }
    }

    /// Settle one finished attempt, then take the SVD and pool-growth
    /// decisions it may trigger.
    fn on_done(&mut self, now: Duration, d: AttemptDone) -> Step {
        let AttemptDone { att, worker, started, finished, result, .. } = d;
        self.sink.note(now, Event::Ran(worker, att, started, finished, result.is_err()));
        self.got += 1;
        let id = att.id;
        let m = &mut self.book[id];
        m.inflight = m.inflight.saturating_sub(1);
        if m.inflight == 0 {
            m.running_since = None;
        }
        if m.resolved {
            // A late duplicate: the losing side of a speculation race, or
            // a result arriving after cancellation. Only the speculative
            // attempt itself counts as a loss — the original losing to
            // its twin is already scored as a win.
            if m.spec_attempt == Some(att.attempt) {
                self.sink.note(now, Event::SpeculativeLoss(id));
            }
            return Ok(());
        }
        // Per-task timeout: an over-budget attempt is discarded even if
        // it technically succeeded (its slot was needed elsewhere; paper
        // §4 point 1 — timeliness).
        let runtime = finished.saturating_sub(started);
        let timeout = self.cfg().retry.task_timeout;
        let timed_out = result.is_ok() && timeout.is_some_and(|limit| runtime > limit);
        if timed_out {
            self.sink.note(now, Event::TaskTimeout(id, runtime));
        }
        let rec = &mut self.records[id];
        (rec.worker, rec.started_at, rec.finished_at) =
            (Some(worker), Some(started), Some(finished));
        rec.state = TaskState::Done;
        match result {
            Ok(_) if timed_out => {
                let why = format!("attempt exceeded task timeout ({runtime:?})");
                self.retry_or_fail(now, id, why, false)?
            }
            Err(e) => self.retry_or_fail(now, id, e.to_string(), false)?,
            Ok(xf) => {
                self.runtime = (self.runtime.0 + runtime, self.runtime.1 + 1);
                match self.validator.as_ref().map(|v| v.validate_member(id as u64, &xf)) {
                    Some(Verdict::Quarantine(reason)) => self.quarantine(now, id, reason)?,
                    _ => self.accept(now, att, started, &xf)?,
                }
            }
        }
        let wait = self.records[id].queue_wait();
        self.sink.note(self.clock(), Event::Progress(self.acc.count(), self.records.len(), wait));
        if self.stopped() {
            return Ok(()); // draining in-flight results
        }
        let (count, stage_target) = (self.acc.count(), self.stages[self.stage]);
        if (self.since_svd >= self.cfg().svd_stride || count >= stage_target) && count >= 2 {
            self.svd_round()?;
        }
        self.advance_stage();
        Ok(())
    }

    /// A payload that passed validation enters the ensemble — unless a
    /// stop came first: after the deadline late runs are ignored, after
    /// convergence the completion policy decides (§4.1).
    fn accept(&mut self, now: Duration, att: Attempt, started: Duration, xf: &[f64]) -> Step {
        let id = att.id;
        self.book[id].resolved = true;
        if self.book[id].spec_attempt == Some(att.attempt) {
            self.sink.note(now, Event::SpeculativeWin(id));
        }
        let keep = match (self.converged_at, self.cfg().completion) {
            (None, _) => !self.deadline_expired,
            (Some(_), CompletionPolicy::CancelImmediately) => false,
            (Some(_), CompletionPolicy::UseCompleted) => true,
            // Spare only members that had already run ≥ frac of the mean
            // runtime when convergence fired ("spare any ensemble
            // calculations close to finishing").
            (Some(at), CompletionPolicy::SpareNearlyDone(frac)) => {
                let mean = self.runtime.0.checked_div(self.runtime.1).unwrap_or_default();
                at.saturating_sub(started).as_secs_f64() >= frac * mean.as_secs_f64()
            }
        };
        if !keep {
            self.records[id].outcome = Some(TaskOutcome::Wasted);
            self.sink.note(now, Event::Wasted);
            return Ok(());
        }
        self.records[id].outcome = Some(TaskOutcome::Success);
        self.since_svd += 1;
        self.admit(id, xf, Some(self.book[id].attempts))?;
        self.sink.note(now, Event::Completed);
        Ok(())
    }

    /// Fold a member into the ensemble: the journal first (blob, then
    /// the record as commit point; a resumed member, `attempts: None`,
    /// is already there), then the estimator, then the validator's
    /// decided-prefix statistics.
    fn admit(&mut self, id: TaskId, xf: &[f64], attempts: Option<u32>) -> Step {
        if let (Some((ck, _)), Some(n)) = (&self.journal, attempts) {
            ck.record_member(id, n, xf)?;
        }
        self.acc.add_member(id, xf);
        if let Some(v) = self.validator.as_mut() {
            v.note_decided(id as u64, xf);
        }
        Ok(())
    }

    /// Semantic quarantine: the attempt "succeeded" but its payload is
    /// wrong, so it never enters the spread matrix. After a stop the
    /// member would have been wasted anyway; before one the quarantine
    /// is journalled (resume replays it bit-for-bit) and the member is
    /// replaced under the retry budget.
    fn quarantine(&mut self, now: Duration, id: TaskId, reason: Reason) -> Step {
        self.book[id].quarantined = true;
        self.sink.note(now, Event::Quarantined(id, reason.code()));
        if self.stopped() {
            self.book[id].resolved = true;
            self.records[id].outcome = Some(TaskOutcome::Wasted);
            self.sink.note(now, Event::Wasted);
            return Ok(());
        }
        if let Some((ck, _)) = &self.journal {
            ck.record_quarantined(id, reason.code())?;
        }
        self.retry_or_fail(now, id, format!("quarantined: {}", reason.describe()), true)
    }

    /// A failed, timed-out or `quarantined` attempt: a twin still in
    /// flight decides the member's fate; otherwise the member is
    /// requeued with exponential backoff and jitter under the retry
    /// budget (a replacement, for a quarantined one), or fails for good.
    fn retry_or_fail(&mut self, now: Duration, id: TaskId, why: String, quarantined: bool) -> Step {
        let (attempts, retry) = (self.book[id].attempts, &self.cfg().retry);
        if self.book[id].inflight > 0 {
            self.records[id].state = TaskState::Running;
        } else if !self.stopped() && attempts < retry.max_attempts {
            let delay = retry.backoff_delay(attempts, &mut self.jitter);
            self.book[id].attempts += 1;
            self.retry_queue.push((now + delay, id, attempts));
            (self.records[id].state, self.records[id].outcome) = (TaskState::Pending, None);
            self.sink.note(now, Event::Requeued(id, attempts, delay, quarantined));
        } else {
            self.book[id].resolved = true;
            self.records[id].outcome = Some(TaskOutcome::Failed(why));
            if let Some((ck, _)) = &self.journal {
                ck.record_failed(id, attempts as i32)?;
            }
            self.sink.note(now, Event::Lost(id, attempts, quarantined));
        }
        Ok(())
    }

    /// Decompose the ensemble, test convergence against the previous
    /// estimate, and publish the estimate: covariance files first, the
    /// journal record as commit point.
    fn svd_round(&mut self) -> Step {
        self.since_svd = 0;
        let (started, members) = (self.clock(), self.acc.count());
        let mut update = None;
        if let Some(u) = self.acc.estimate()? {
            self.svd_rounds += 1;
            update = Some((u.kind, u.defect, u.error_bound));
            let mut rho = f64::NAN;
            if let Some(prev) = &self.previous {
                rho = similarity(prev, &u.subspace);
                self.sink.note(self.clock(), Event::ConvergenceCheck(rho, members));
                if self.conv.check(rho) {
                    self.stop(self.clock(), Stop::Converged(rho))?;
                }
            }
            if let Some((ck, cov)) = &self.journal {
                self.svd_version += 1;
                cov.publish(&encode_subspace_blob(&u.subspace), self.svd_version)?;
                ck.record_svd(members, self.svd_version, rho)?;
                if self.converged_at.is_some() {
                    ck.record_converged(members, rho)?;
                }
            }
            self.previous = Some(u.subspace);
        }
        self.sink.note(self.clock(), Event::SvdRound(members, started, update));
        Ok(())
    }

    /// Pool growth: a complete but unconverged stage moves the run to the
    /// next one and tops the pool up before the pipeline drains (§4.1).
    fn advance_stage(&mut self) -> bool {
        let next = self.stage + 1;
        if self.stopped() || next == self.stages.len() || self.acc.count() < self.stages[self.stage]
        {
            return false;
        }
        self.stage = next;
        self.sink.note(self.clock(), Event::StageAdvance(self.stages[next]));
        self.enqueue_to(self.pool_target(self.stages[next]));
        true
    }

    /// The one stop path — convergence, the Tmax deadline, or the death of
    /// the whole pool. Idle workers exit, backoff-pending retries are
    /// cancelled and queued attempts drained. When the pool died nobody
    /// will ever run them: the retries fail and the drained members are
    /// lost.
    fn stop(&mut self, now: Duration, cause: Stop) -> Step {
        match cause {
            Stop::Converged(rho) => {
                self.converged_at = Some(now);
                self.sink.note(now, Event::Converged(rho, self.acc.count()));
            }
            Stop::Deadline => {
                self.deadline_expired = true;
                let tmax = self.cfg().deadline.unwrap_or_default();
                self.sink.note(now, Event::DeadlineExpired(tmax));
            }
            Stop::PoolDied => {}
        }
        self.pool.cancel.store(true, Ordering::Relaxed);
        let died = matches!(cause, Stop::PoolDied);
        for (_, id, _) in std::mem::take(&mut self.retry_queue) {
            if died {
                self.retry_or_fail(now, id, "worker pool died".into(), false)?;
            } else {
                self.cancelled(now, id, false);
            }
        }
        while let Ok(Attempt { id, .. }) = crate::lock(&self.pool.queue).try_recv() {
            self.got += 1;
            self.book[id].inflight = self.book[id].inflight.saturating_sub(1);
            if !self.book[id].resolved {
                self.cancelled(now, id, died);
            }
        }
        Ok(())
    }

    fn cancelled(&mut self, now: Duration, id: TaskId, abandoned: bool) {
        self.book[id].resolved = true;
        self.records[id].state = TaskState::Cancelled;
        self.sink.note(now, Event::Cancelled(id, abandoned));
    }

    /// Wind down: the final decomposition, the health verdict, the
    /// outcome.
    fn finish(mut self, central: Vec<f64>) -> Result<MtcOutcome, EsseError> {
        for (rec, m) in self.records.iter_mut().zip(&self.book) {
            rec.attempts = m.attempts;
        }
        let (done, planned) = (self.acc.count(), self.records.len());
        if self.deadline_expired && done < 2 {
            let budget = self.cfg().deadline.unwrap_or_default();
            return Err(EsseError::Deadline { elapsed: self.clock(), budget });
        }
        // Completion policy: a final SVD over everything that arrived.
        let mut decomposed = None;
        if !matches!(self.cfg().completion, CompletionPolicy::CancelImmediately)
            || self.previous.is_none()
        {
            let started = self.clock();
            decomposed = self.acc.estimate()?.map(|u| u.subspace);
            self.svd_rounds += usize::from(decomposed.is_some());
            self.sink.note(self.clock(), Event::Span("svd", "svd_final", started, Some(done)));
        }
        let subspace = decomposed
            .or(self.previous.take())
            .ok_or(EsseError::NotEnoughMembers { have: done, need: 2 })?;

        let now = self.clock();
        let succeeded: Vec<bool> =
            self.records.iter().map(|r| matches!(r.outcome, Some(TaskOutcome::Success))).collect();
        // Quarantined members that a later attempt healed.
        let healed = self.book.iter().zip(&succeeded).filter(|(m, ok)| m.quarantined && **ok);
        for _ in 0..healed.count() {
            self.sink.note(now, Event::Replaced);
        }
        // Statistical health: permanent losses, deadline truncation and
        // members a dead pool never ran are reported explicitly, never
        // silently. A quarantined member whose replacement budget ran
        // out is its own degradation class, distinct from crash-shaped
        // losses.
        let cancelled = self.records.iter().filter(|r| r.state == TaskState::Cancelled).count();
        let (converged, s) = (self.converged_at.is_some(), &self.sink);
        let truncated = self.deadline_expired && !converged;
        let lost = s.failed + if truncated { cancelled + s.wasted } else { s.abandoned };
        let (quarantined, replaced) = (s.lost_quarantine, s.faults.replaced);
        let health = if lost == 0 && quarantined == 0 {
            RunHealth::Full
        } else {
            let coverage =
                succeeded.iter().filter(|ok| **ok).count() as f64 / planned.max(1) as f64;
            self.sink.note(now, Event::Degraded(coverage, lost, quarantined, replaced));
            RunHealth::Degraded { coverage, lost_members: lost, quarantined, replaced }
        };
        self.sink.note(now, Event::Progress(done, planned, None));
        Ok(MtcOutcome {
            central,
            subspace,
            converged,
            rho_history: self.conv.history().to_vec(),
            makespan: self.clock(),
            members_used: done,
            members_failed: self.sink.failed,
            members_wasted: self.sink.wasted,
            members_cancelled: cancelled,
            svd_rounds: self.svd_rounds,
            deadline_expired: self.deadline_expired,
            health,
            faults: self.sink.faults,
            records: self.records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esse_core::model::LinearGaussianModel;

    fn setup() -> (LinearGaussianModel, ErrorSubspace, Vec<f64>) {
        let rates = [0.98, 0.95, 0.3, 0.3, 0.2, 0.1];
        let model = LinearGaussianModel::diagonal(&rates, 0.05, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let prior = ErrorSubspace::isotropic(&mut rng, 6, 6, 1.0);
        (model, prior, vec![0.0; 6])
    }

    fn config(workers: usize) -> MtcConfig {
        MtcConfig {
            workers,
            schedule: EnsembleSchedule::new(16, 256),
            tolerance: 0.05,
            duration: 10.0,
            max_rank: 6,
            svd_stride: 8,
            ..Default::default()
        }
    }

    fn validator6(mean: &[f64]) -> ForecastValidator {
        use esse_core::validate::{ValidatorConfig, VarBounds};
        ForecastValidator::new(
            vec![VarBounds { name: "x", range: 0..6, lo: -1e3, hi: 1e3 }],
            mean.to_vec(),
            ValidatorConfig::default(),
        )
    }

    #[test]
    fn quarantined_members_are_replaced_under_the_retry_budget() {
        let (model, prior, mean) = setup();
        let mut cfg = config(3);
        cfg.faults = Some(FaultPlan::seeded(11).with_corruption(0.3));
        cfg.retry = RetryPolicy::retries(6);
        // Drain the whole plan so replacements are never cancelled by
        // early convergence — healing is what is under test here.
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(24, 24);
        cfg.pool_factor = 1.0;
        let engine = MtcEsse::new(&model, cfg).with_validator(validator6(&mean));
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        assert!(out.faults.quarantined > 0, "no corruption was ever caught");
        assert!(out.faults.replaced > 0, "no quarantined member was healed");
        assert!(out.faults.replaced <= out.faults.quarantined);
        // Every caught member healed within the budget: full health.
        assert_eq!(out.health, RunHealth::Full, "faults: {:?}", out.faults);
        assert_eq!(out.members_failed, 0);
    }

    #[test]
    fn exhausted_replacement_budget_lands_degraded_with_a_quarantine_breakdown() {
        let (model, prior, mean) = setup();
        let mut cfg = config(2);
        cfg.faults = Some(FaultPlan::seeded(3).with_corruption(0.45));
        cfg.retry = RetryPolicy::disabled();
        cfg.tolerance = 1e-12; // never converge: drain the full plan
        cfg.schedule = EnsembleSchedule::new(16, 16);
        cfg.pool_factor = 1.0;
        let engine = MtcEsse::new(&model, cfg).with_validator(validator6(&mean));
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        match out.health {
            RunHealth::Degraded { quarantined, replaced, lost_members, coverage } => {
                assert!(quarantined > 0, "faults: {:?}", out.faults);
                assert_eq!(replaced, 0, "no retries were allowed");
                assert_eq!(lost_members, 0, "quarantine is not a crash-shaped loss");
                assert!(coverage < 1.0);
                assert!(out.faults.quarantined >= quarantined);
            }
            h => panic!("expected a degraded quarantine verdict, got {h:?}"),
        }
    }

    #[test]
    fn mtc_workflow_converges() {
        let (model, prior, mean) = setup();
        let engine = MtcEsse::new(&model, config(4));
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        assert!(out.converged, "rho: {:?}", out.rho_history);
        assert!(out.members_used >= 16);
        assert!(out.svd_rounds >= 2);
        assert_eq!(out.health, RunHealth::Full);
        assert!(out.faults.is_clean());
        // Dominant subspace captures the slow axes.
        let lead = out.subspace.modes.col(0);
        assert!(lead[0] * lead[0] + lead[1] * lead[1] > 0.8);
    }

    #[test]
    fn all_tasks_accounted_for() {
        let (model, prior, mean) = setup();
        let engine = MtcEsse::new(&model, config(3));
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        for r in &out.records {
            assert!(
                matches!(r.state, TaskState::Done | TaskState::Cancelled),
                "task {} left in {:?}",
                r.id,
                r.state
            );
            if r.state == TaskState::Done {
                assert!(r.outcome.is_some());
                assert!(r.runtime().is_some());
                assert!(r.attempts >= 1);
            }
        }
    }

    #[test]
    fn single_worker_matches_multi_worker_statistics() {
        // Same member seeds ⇒ same member results regardless of worker
        // count; the subspace from the same member set must agree.
        let (model, prior, mean) = setup();
        let mut cfg = config(1);
        cfg.tolerance = 1e-12; // force full Nmax in both runs
        cfg.schedule = EnsembleSchedule::new(32, 32);
        cfg.pool_factor = 1.0;
        let out1 = MtcEsse::new(&model, cfg.clone()).run(RunInit::new(&mean, &prior)).unwrap();
        let mut cfg4 = cfg;
        cfg4.workers = 4;
        let out4 = MtcEsse::new(&model, cfg4).run(RunInit::new(&mean, &prior)).unwrap();
        assert_eq!(out1.members_used, out4.members_used);
        let rho = similarity(&out1.subspace, &out4.subspace);
        assert!(rho > 0.9999, "subspaces should match, rho = {rho}");
    }

    #[test]
    fn failures_are_tolerated_and_counted() {
        struct Flaky(LinearGaussianModel);
        impl ForecastModel for Flaky {
            fn state_dim(&self) -> usize {
                self.0.state_dim()
            }
            fn forecast(
                &self,
                x0: &[f64],
                t: f64,
                d: f64,
                seed: Option<u64>,
            ) -> Result<Vec<f64>, ForecastError> {
                if let Some(s) = seed {
                    if s % 4 == 0 {
                        return Err(ForecastError::Injected("node crash".into()));
                    }
                }
                self.0.forecast(x0, t, d, seed)
            }
        }
        let (inner, prior, mean) = setup();
        let model = Flaky(inner);
        let engine = MtcEsse::new(&model, config(4));
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        assert!(out.members_failed > 0);
        // Every pool slot resolved one way or the other; the survivors
        // still form a usable ensemble. (How many members fail depends
        // on the rand backend's seed hash, so the split is asserted
        // jointly rather than per side.)
        assert!(
            out.members_used + out.members_failed >= 16,
            "used {} + failed {}",
            out.members_used,
            out.members_failed
        );
        assert!(out.members_used >= 2, "used {}", out.members_used);
        // Deterministic failures survive the (default) single attempt,
        // and the outcome says so out loud.
        assert!(out.health.is_degraded(), "losses must be reported: {:?}", out.health);
    }

    #[test]
    fn cancel_immediately_wastes_inflight_results() {
        let (model, prior, mean) = setup();
        let mut cfg = config(4);
        cfg.completion = CompletionPolicy::CancelImmediately;
        cfg.pool_factor = 2.0; // lots of extra in-flight work
        let engine = MtcEsse::new(&model, cfg);
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        if out.converged {
            // Over-provisioned pool + immediate cancel ⇒ some members
            // were computed in vain or cancelled outright.
            assert!(
                out.members_wasted + out.members_cancelled > 0,
                "wasted {}, cancelled {}",
                out.members_wasted,
                out.members_cancelled
            );
        }
    }

    #[test]
    fn resume_skips_completed_members_and_matches_fresh_run() {
        // Precompute members 0..20 as a previous incarnation would have
        // left them (the bookkeeping files of paper 4.2), then resume.
        let (model, prior, mean) = setup();
        let mut cfg = config(2);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(32, 32);
        cfg.pool_factor = 1.0;
        let gen = esse_core::perturb::PerturbationGenerator::new(&prior, cfg.perturb.clone());
        let previous: Vec<(TaskId, Vec<f64>)> = (0..20)
            .map(|j| {
                let x0 = gen.perturb(&mean, j);
                let xf = model
                    .forecast(&x0, cfg.start_time, cfg.duration, Some(gen.forecast_seed(j)))
                    .unwrap();
                (j, xf)
            })
            .collect();
        let resumed = MtcEsse::new(&model, cfg.clone())
            .run(RunInit::new(&mean, &prior).resuming(&previous))
            .unwrap();
        // Only 12 members actually ran in this incarnation.
        let ran = resumed.records.iter().filter(|r| r.worker.is_some()).count();
        assert_eq!(ran, 12, "resume must not rerun completed members");
        assert_eq!(resumed.members_used, 32);
        // Identical subspace to an uninterrupted run (same member seeds).
        let fresh = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        let rho = similarity(&fresh.subspace, &resumed.subspace);
        assert!(rho > 0.9999, "rho = {rho}");
    }

    #[test]
    fn resume_with_all_members_done_skips_straight_to_svd() {
        let (model, prior, mean) = setup();
        let mut cfg = config(2);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(8, 8);
        cfg.pool_factor = 1.0;
        let gen = esse_core::perturb::PerturbationGenerator::new(&prior, cfg.perturb.clone());
        let previous: Vec<(TaskId, Vec<f64>)> = (0..8)
            .map(|j| {
                let x0 = gen.perturb(&mean, j);
                (j, model.forecast(&x0, 0.0, cfg.duration, Some(gen.forecast_seed(j))).unwrap())
            })
            .collect();
        let out =
            MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior).resuming(&previous)).unwrap();
        assert_eq!(out.members_used, 8);
        assert!(out.records.iter().all(|r| r.worker.is_none()), "nothing re-ran");
        assert!(out.subspace.rank() >= 1);
    }

    #[test]
    fn metrics_registry_counters_match_run_result() {
        let (model, prior, mean) = setup();
        let registry = esse_obs::MetricsRegistry::new();
        let engine = MtcEsse::new(&model, config(4)).with_metrics(&registry);
        let result = engine.run(RunInit::new(&mean, &prior)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("esse_tasks_completed_total"),
            Some(result.members_used as u64),
            "completed counter must match members_used"
        );
        assert_eq!(snap.gauge("esse_members_done"), Some(result.members_used as f64));
        let attempts = snap.counter("esse_task_attempts_total").unwrap();
        assert!(
            attempts >= result.members_used as u64,
            "every used member took at least one attempt ({attempts} < {})",
            result.members_used
        );
        let runtime =
            snap.histogram("esse_member_runtime_ns").expect("member runtime histogram registered");
        assert_eq!(runtime.count(), attempts, "one runtime sample per attempt");
        let waits = snap.histogram("esse_queue_wait_ns").expect("queue wait histogram registered");
        assert!(waits.count() > 0, "queue waits observed");
        let cov = snap.gauge("esse_coverage").unwrap();
        assert!((0.0..=1.0).contains(&cov), "coverage {cov} out of range");
    }

    #[test]
    fn unified_resume_entry_is_deterministic() {
        let (model, prior, mean) = setup();
        let mut cfg = config(1);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(16, 16);
        cfg.pool_factor = 1.0;
        let gen = esse_core::perturb::PerturbationGenerator::new(&prior, cfg.perturb.clone());
        let previous: Vec<(TaskId, Vec<f64>)> = (0..4)
            .map(|j| {
                let x0 = gen.perturb(&mean, j);
                (j, model.forecast(&x0, 0.0, cfg.duration, Some(gen.forecast_seed(j))).unwrap())
            })
            .collect();
        let engine = MtcEsse::new(&model, cfg);
        let first = engine.run(RunInit::new(&mean, &prior).resuming(&previous)).unwrap();
        let second = engine.run(RunInit::new(&mean, &prior).resuming(&previous)).unwrap();
        assert_eq!(first.members_used, second.members_used);
        let rho = similarity(&first.subspace, &second.subspace);
        assert!(rho > 0.9999, "rho = {rho}");
    }

    #[test]
    fn spare_nearly_done_interpolates_between_policies() {
        let (model, prior, mean) = setup();
        let run_with = |completion: CompletionPolicy| {
            let cfg = MtcConfig {
                workers: 4,
                pool_factor: 2.0,
                schedule: EnsembleSchedule::new(16, 256),
                tolerance: 0.05,
                duration: 10.0,
                max_rank: 6,
                svd_stride: 8,
                completion,
                ..Default::default()
            };
            MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap()
        };
        // frac = 0: everything in flight counts as "nearly done" → no
        // wasted results (like UseCompleted).
        let spare_all = run_with(CompletionPolicy::SpareNearlyDone(0.0));
        assert_eq!(spare_all.members_wasted, 0, "frac=0 must spare everything");
        // frac huge: nothing qualifies → in-flight results are wasted,
        // like CancelImmediately (if anything was in flight at all).
        let spare_none = run_with(CompletionPolicy::SpareNearlyDone(1e6));
        let cancel = run_with(CompletionPolicy::CancelImmediately);
        assert_eq!(
            spare_none.members_wasted > 0,
            cancel.members_wasted > 0,
            "frac=inf behaves like cancel-immediately"
        );
    }

    #[test]
    fn deadline_cancels_and_is_reported() {
        // A model slow enough that the deadline fires mid-ensemble.
        struct Slow(LinearGaussianModel);
        impl ForecastModel for Slow {
            fn state_dim(&self) -> usize {
                self.0.state_dim()
            }
            fn forecast(
                &self,
                x0: &[f64],
                t: f64,
                d: f64,
                seed: Option<u64>,
            ) -> Result<Vec<f64>, ForecastError> {
                std::thread::sleep(Duration::from_millis(30));
                self.0.forecast(x0, t, d, seed)
            }
        }
        let (inner, prior, mean) = setup();
        let model = Slow(inner);
        let cfg = MtcConfig {
            workers: 2,
            pool_factor: 1.0,
            schedule: EnsembleSchedule::new(64, 64),
            tolerance: 1e-12,
            duration: 10.0,
            max_rank: 6,
            svd_stride: 8,
            deadline: Some(Duration::from_millis(250)),
            ..Default::default()
        };
        let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        assert!(out.deadline_expired, "deadline should fire");
        assert!(!out.converged);
        // Far fewer than 64 members made it; the rest were cancelled or
        // ignored as late.
        assert!(out.members_used < 64, "used {}", out.members_used);
        assert!(out.members_cancelled + out.members_wasted > 0);
        // Deadline truncation is an explicit degradation, not a silent
        // partial ensemble.
        assert!(out.health.is_degraded());
        // Losses at the tail are contiguous-from-the-end, which the
        // coverage check treats as a (known) systematic truncation.
        let cov = out.coverage();
        assert_eq!(cov.total, out.records.len());
        assert!(cov.missing() > 0);
    }

    #[test]
    fn coverage_clean_on_full_run() {
        let (model, prior, mean) = setup();
        let mut cfg = config(2);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(16, 16);
        cfg.pool_factor = 1.0;
        let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        let cov = out.coverage();
        assert_eq!(cov.missing(), 0);
        assert!(!cov.is_systematic_hole());
        assert_eq!(out.health, RunHealth::Full);
    }

    #[test]
    fn pool_is_overprovisioned() {
        let (model, prior, mean) = setup();
        let mut cfg = config(2);
        cfg.pool_factor = 1.5;
        cfg.tolerance = 1e-12; // never converges; runs to Nmax
        cfg.schedule = EnsembleSchedule::new(8, 16);
        let engine = MtcEsse::new(&model, cfg);
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        // M = 1.5 × 16 = 24 tasks were enqueued in total.
        assert!(out.records.len() >= 24, "records {}", out.records.len());
    }

    #[test]
    fn builder_produces_validated_config() {
        let cfg = MtcConfig::builder()
            .workers(3)
            .pool_factor(1.5)
            .schedule(EnsembleSchedule::new(8, 32))
            .tolerance(0.04)
            .duration(3600.0)
            .retry(RetryPolicy::retries(3))
            .build()
            .unwrap();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.retry.max_attempts, 3);
        assert!(cfg.faults.is_none());
    }

    #[test]
    fn builder_rejects_invalid_fields() {
        assert_eq!(MtcConfig::builder().workers(0).build().unwrap_err().field, "workers");
        assert_eq!(MtcConfig::builder().pool_factor(0.5).build().unwrap_err().field, "pool_factor");
        assert_eq!(MtcConfig::builder().tolerance(0.0).build().unwrap_err().field, "tolerance");
        assert_eq!(MtcConfig::builder().tolerance(1.5).build().unwrap_err().field, "tolerance");
        assert_eq!(MtcConfig::builder().svd_stride(0).build().unwrap_err().field, "svd_stride");
        assert_eq!(MtcConfig::builder().max_rank(0).build().unwrap_err().field, "max_rank");
        assert_eq!(MtcConfig::builder().duration(f64::NAN).build().unwrap_err().field, "duration");
        // Builder validation reaches into the retry policy too.
        let bad_retry = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        assert_eq!(
            MtcConfig::builder().retry(bad_retry).build().unwrap_err().field,
            "retry.max_attempts"
        );
    }

    #[test]
    fn config_error_converts_into_esse_error() {
        let err: EsseError = MtcConfig::builder().workers(0).build().unwrap_err().into();
        assert!(matches!(err, EsseError::Config(_)));
        assert!(err.to_string().contains("workers"));
    }

    #[test]
    fn run_rejects_configs_the_builder_would_reject() {
        let (model, prior, mean) = setup();
        let zero_workers = MtcConfig { workers: 0, ..config(1) };
        let zero_stride = MtcConfig { svd_stride: 0, ..config(1) };
        for (cfg, field) in [(zero_workers, "workers"), (zero_stride, "svd_stride")] {
            match MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)) {
                Err(EsseError::Config(e)) => assert_eq!(e.field, field),
                other => panic!("{field}: expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn injected_crashes_recover_with_retries() {
        let (model, prior, mean) = setup();
        let mut cfg = config(4);
        cfg.tolerance = 1e-12; // run the whole fixed ensemble
        cfg.schedule = EnsembleSchedule::new(24, 24);
        cfg.pool_factor = 1.0;
        cfg.faults = Some(FaultPlan::seeded(11).with_crashes(0.25));
        cfg.retry = RetryPolicy::retries(5);
        let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        assert!(out.faults.retries > 0, "a 25% crash rate must trigger retries");
        assert_eq!(out.members_failed, 0, "retries should recover every member");
        assert_eq!(out.members_used, 24);
        assert_eq!(out.health, RunHealth::Full);
    }

    #[test]
    fn without_retries_injected_crashes_degrade_explicitly() {
        let (model, prior, mean) = setup();
        let mut cfg = config(4);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(24, 24);
        cfg.pool_factor = 1.0;
        cfg.faults = Some(FaultPlan::seeded(11).with_crashes(0.25));
        cfg.retry = RetryPolicy::disabled();
        let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        assert!(out.members_failed > 0);
        match out.health {
            RunHealth::Degraded { coverage, lost_members, .. } => {
                assert!(coverage < 1.0);
                assert_eq!(lost_members, out.members_failed);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    /// Forces the interleaving `worker_death_reassigns_the_task` needs:
    /// the first three member forecasts wait until all three have
    /// started (so each worker holds exactly one task), and every later
    /// one waits until a task has failed. The two live workers then park
    /// in their second forecast, and only the doomed worker is left to
    /// claim — and die on — its second task. As the run's recorder the
    /// gate observes that failure. The waits time out after 10 s, so a
    /// broken engine fails the test instead of hanging it.
    struct DeathGate<'a> {
        model: &'a LinearGaussianModel,
        /// (forecasts started, a task has failed)
        state: Mutex<(usize, bool)>,
        wake: std::sync::Condvar,
    }

    impl ForecastModel for DeathGate<'_> {
        fn state_dim(&self) -> usize {
            self.model.state_dim()
        }

        fn forecast(
            &self,
            x0: &[f64],
            start_time: f64,
            duration: f64,
            seed: Option<u64>,
        ) -> Result<Vec<f64>, ForecastError> {
            // Only member forecasts are gated, not the central one.
            if seed.is_some() {
                let mut st = crate::lock(&self.state);
                st.0 += 1;
                self.wake.notify_all();
                let first_round = st.0 <= 3;
                let timeout = Duration::from_secs(10);
                let wait = |s: &mut (usize, bool)| if first_round { s.0 < 3 } else { !s.1 };
                drop(self.wake.wait_timeout_while(st, timeout, wait).expect("gate lock"));
            }
            self.model.forecast(x0, start_time, duration, seed)
        }
    }

    impl Recorder for DeathGate<'_> {
        fn now_ns(&self) -> u64 {
            0
        }

        fn record(&self, ev: esse_obs::Event) {
            if ev.name == "member_failed" {
                crate::lock(&self.state).1 = true;
                self.wake.notify_all();
            }
        }

        fn observe(&self, _name: &'static str, _latency_ns: u64) {}
    }

    #[test]
    fn worker_death_reassigns_the_task() {
        let (model, prior, mean) = setup();
        let gate =
            DeathGate { model: &model, state: Mutex::new((0, false)), wake: Default::default() };
        let mut cfg = config(3);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(16, 16);
        cfg.pool_factor = 1.0;
        cfg.faults = Some(FaultPlan::seeded(5).with_worker_death(1, 2));
        cfg.retry = RetryPolicy::retries(3);
        let engine = MtcEsse::new(&gate, cfg).with_recorder(&gate);
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        assert_eq!(out.faults.workers_died, 1);
        assert!(out.faults.retries >= 1, "the dying worker's task must be requeued");
        assert_eq!(out.members_failed, 0);
        assert_eq!(out.members_used, 16);
    }
}
