//! The observable behaviour of the in-process `MtcEsse` engine, pinned
//! path by path: one scenario per decision path on a
//! `LinearGaussianModel`, with one worker wherever the path allows.
//!
//! Every scenario checks the set of trace events the engine emits, as
//! `(lane kind, event kind, cat/name, sorted argument keys)`. The
//! deterministic scenarios (one worker, arrival order fixed by the
//! FIFO queue) also check the outcome counts, the `FaultReport`, the
//! `rho_history` bits, and every counter and gauge of a
//! `MetricsRegistry` snapshot; histograms are checked by sample count
//! only. Scenarios whose counts depend on wall-clock timing (task
//! timeout, speculation, worker death, deadline) check the event set
//! plus the counts that do not.

use esse::core::adaptive::EnsembleSchedule;
use esse::core::model::{ForecastError, ForecastModel, LinearGaussianModel};
use esse::core::subspace::ErrorSubspace;
use esse::core::validate::{ForecastValidator, ValidatorConfig, VarBounds};
use esse::mtc::fault::{FaultPlan, FaultReport, RetryPolicy, RunHealth};
use esse::mtc::journal::{decode_subspace_blob, Checkpoint};
use esse::mtc::triple_buffer::DiskTripleBuffer;
use esse::mtc::workflow::{MtcConfig, MtcEsse, MtcOutcome, ReplayState, RunInit};
use esse_core::EsseError;
use esse_obs::{EventKind, Lane, MetricsRegistry, RingRecorder, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

fn model6() -> LinearGaussianModel {
    LinearGaussianModel::diagonal(&[0.98, 0.95, 0.3, 0.3, 0.2, 0.1], 0.05, 1.0)
}

fn prior6() -> ErrorSubspace {
    let mut rng = StdRng::seed_from_u64(7);
    ErrorSubspace::isotropic(&mut rng, 6, 6, 1.0)
}

/// A model that sleeps before every member forecast, so wall-clock
/// paths (deadline, worker interleaving) see tasks of a known length.
struct Sleepy(LinearGaussianModel, Duration);

impl ForecastModel for Sleepy {
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
        if seed.is_some() {
            std::thread::sleep(self.1);
        }
        self.0.forecast(x0, t, d, seed)
    }
}

/// A fixed plan of `n` members: never converges, every member is
/// planned work, one SVD every `stride` arrivals.
fn fixed(n: usize, workers: usize, stride: usize) -> MtcConfig {
    MtcConfig::builder()
        .workers(workers)
        .pool_factor(1.0)
        .schedule(EnsembleSchedule::new(n, n))
        .tolerance(1e-12)
        .duration(10.0)
        .max_rank(6)
        .svd_stride(stride)
        .build()
        .expect("valid config")
}

fn validator6() -> ForecastValidator {
    ForecastValidator::new(
        vec![VarBounds { name: "x", range: 0..6, lo: -1e3, hi: 1e3 }],
        vec![0.0; 6],
        ValidatorConfig::default(),
    )
}

/// One run's observable record.
struct Observed {
    out: Result<MtcOutcome, EsseError>,
    events: BTreeSet<String>,
    metrics: Vec<String>,
}

impl Observed {
    fn outcome(&self) -> &MtcOutcome {
        self.out.as_ref().unwrap_or_else(|e| panic!("run errored: {e}"))
    }
}

/// `(lane kind, event kind, cat/name, sorted argument keys)` per event.
fn signature(trace: &Trace) -> BTreeSet<String> {
    assert_eq!(trace.dropped, 0, "ring recorder overflowed");
    trace
        .events
        .iter()
        .map(|e| {
            let lane = match e.lane {
                Lane::Coordinator => "coordinator",
                Lane::Worker(_) => "worker",
                other => panic!("unexpected lane {other:?}"),
            };
            let kind = match e.kind {
                EventKind::Begin => "begin",
                EventKind::End => "end",
                EventKind::Instant => "instant",
                EventKind::Counter(_) => "counter",
            };
            let mut keys: Vec<&str> = e.args.iter().map(|(k, _)| *k).collect();
            keys.sort_unstable();
            format!("{lane} {kind} {}/{} [{}]", e.cat, e.name, keys.join(","))
        })
        .collect()
}

/// Every counter and gauge by value, every histogram by sample count.
fn metric_lines(reg: &MetricsRegistry) -> Vec<String> {
    let snap = reg.snapshot();
    let mut lines: Vec<String> = Vec::new();
    lines.extend(snap.counters.iter().map(|(n, v)| format!("counter {n} {v}")));
    lines.extend(snap.gauges.iter().map(|(n, v)| format!("gauge {n} {v:?}")));
    lines.extend(snap.histograms.iter().map(|(n, h)| format!("histogram {n} count {}", h.count())));
    lines
}

fn observe<M: ForecastModel>(
    engine: MtcEsse<'_, M>,
    init: RunInit<'_>,
    rec: &RingRecorder,
    reg: &MetricsRegistry,
) -> Observed {
    let out = engine.run(init);
    Observed { out, events: signature(&rec.drain()), metrics: metric_lines(reg) }
}

/// Run `cfg` on `model` with a ring recorder and a fresh registry.
fn run_with<M: ForecastModel>(
    model: &M,
    cfg: MtcConfig,
    validator: Option<ForecastValidator>,
) -> Observed {
    let (rec, reg) = (RingRecorder::new(), MetricsRegistry::new());
    let (mean, prior) = (vec![0.0; 6], prior6());
    let mut engine = MtcEsse::new(model, cfg).with_recorder(&rec).with_metrics(&reg);
    if let Some(v) = validator {
        engine = engine.with_validator(v);
    }
    observe(engine, RunInit::new(&mean, &prior), &rec, &reg)
}

fn set(lines: &[&str]) -> BTreeSet<String> {
    lines.iter().map(|s| s.to_string()).collect()
}

/// The event set equals `always`, give or take any of `maybe` (events
/// whose presence depends on wall-clock timing).
fn assert_events(scenario: &str, got: &BTreeSet<String>, always: &[&str], maybe: &[&str]) {
    let always = set(always);
    let allowed: BTreeSet<String> = always.union(&set(maybe)).cloned().collect();
    let missing: Vec<&String> = always.difference(got).collect();
    let extra: Vec<&String> = got.difference(&allowed).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{scenario}: missing {missing:#?}\nunexpected {extra:#?}\nfull set {got:#?}"
    );
}

fn assert_metrics(scenario: &str, got: &[String], want: &[&str]) {
    let want: Vec<String> = want.iter().map(|s| s.to_string()).collect();
    assert_eq!(got, want.as_slice(), "{scenario}: metrics snapshot");
}

/// The counts of an outcome, in one comparable line.
fn counts(o: &MtcOutcome) -> String {
    format!(
        "used {} failed {} wasted {} cancelled {} svd_rounds {} converged {} deadline {} records {}",
        o.members_used,
        o.members_failed,
        o.members_wasted,
        o.members_cancelled,
        o.svd_rounds,
        o.converged,
        o.deadline_expired,
        o.records.len()
    )
}

/// Events every run emits: the central forecast, first-attempt
/// enqueues, one span per attempt, the progress counters.
const BASE: &[&str] = &[
    "coordinator begin phase/central_forecast []",
    "coordinator counter counter/members_done []",
    "coordinator counter counter/members_failed []",
    "coordinator counter counter/members_wasted []",
    "coordinator end phase/central_forecast []",
    "coordinator instant sched/enqueued [member]",
    "worker begin task/member [attempt,member]",
    "worker end task/member []",
];

/// Events of a run whose loop decomposes at least once and then
/// decomposes everything that arrived (`UseCompleted`).
const SVD: &[&str] = &[
    "coordinator begin svd/subspace_refresh [defect,error_bound]",
    "coordinator begin svd/svd [members]",
    "coordinator begin svd/svd_final [members]",
    "coordinator end svd/subspace_refresh []",
    "coordinator end svd/svd []",
    "coordinator end svd/svd_final []",
];

fn with(parts: &[&[&'static str]]) -> Vec<&'static str> {
    parts.iter().flat_map(|p| p.iter().copied()).collect()
}

/// Counters and gauges of a run with no faults and no recovery.
fn quiet_counters(attempts: u64, completed: u64, failed: u64) -> Vec<String> {
    vec![
        "counter esse_quarantined_total 0".into(),
        "counter esse_replaced_total 0".into(),
        "counter esse_retries_total 0".into(),
        "counter esse_speculative_launches_total 0".into(),
        "counter esse_speculative_losses_total 0".into(),
        "counter esse_speculative_wins_total 0".into(),
        format!("counter esse_task_attempts_total {attempts}"),
        "counter esse_task_timeouts_total 0".into(),
        "counter esse_tasks_cancelled_total 0".into(),
        format!("counter esse_tasks_completed_total {completed}"),
        format!("counter esse_tasks_failed_total {failed}"),
        "counter esse_tasks_wasted_total 0".into(),
        "counter esse_workers_died_total 0".into(),
    ]
}

#[test]
fn clean_converging_run() {
    let cfg = MtcConfig {
        workers: 1,
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(8, 128),
        tolerance: 0.05,
        duration: 10.0,
        max_rank: 6,
        // SVDs only at stage boundaries, where nothing is in flight, so
        // convergence never races a running member.
        svd_stride: 128,
        ..Default::default()
    };
    let obs = run_with(&model6(), cfg, None);
    let out = obs.outcome();
    assert_events(
        "clean",
        &obs.events,
        &with(&[
            BASE,
            SVD,
            &[
                "coordinator instant svd/convergence_check [members,rho]",
                "coordinator instant workflow/converged [members,rho]",
                "coordinator instant workflow/stage_advance [target]",
            ],
        ]),
        &[],
    );
    assert_eq!(
        counts(out),
        "used 16 failed 0 wasted 0 cancelled 0 svd_rounds 3 converged true deadline false records 16"
    );
    assert_eq!(out.health, RunHealth::Full);
    assert_eq!(out.faults, FaultReport::default());
    assert_eq!(out.rho_history, [0.9596877255163954]);
    let mut want = quiet_counters(16, 16, 0);
    want.extend(
        [
            "gauge esse_convergence_rho 0.9596877255163954",
            "gauge esse_coverage 1.0",
            "gauge esse_members_done 16.0",
            "gauge esse_subspace_defect 8.881784197001252e-16",
            "histogram esse_member_runtime_ns count 16",
            "histogram esse_queue_wait_ns count 16",
            "histogram esse_subspace_refresh_ns count 2",
            "histogram esse_subspace_update_ns count 0",
        ]
        .map(String::from),
    );
    assert_eq!(obs.metrics, want, "clean: metrics");
}

#[test]
fn crash_with_retry() {
    let mut cfg = fixed(16, 1, 8);
    cfg.faults = Some(FaultPlan::seeded(11).with_crashes(0.25));
    cfg.retry = RetryPolicy::retries(5);
    let obs = run_with(&model6(), cfg, None);
    let out = obs.outcome();
    assert_events(
        "crash",
        &obs.events,
        &with(&[
            BASE,
            SVD,
            &[
                "coordinator counter counter/retries []",
                "coordinator instant fault/retry_scheduled [attempt,delay_ms,member]",
                "coordinator instant sched/enqueued [attempt,member]",
                "coordinator instant svd/convergence_check [members,rho]",
                "worker instant task/member_failed [attempt,member]",
            ],
        ]),
        &[],
    );
    assert_eq!(
        counts(out),
        "used 16 failed 0 wasted 0 cancelled 0 svd_rounds 3 converged false deadline false records 16"
    );
    assert_eq!(out.health, RunHealth::Full);
    assert_eq!(out.faults, FaultReport { retries: 4, ..FaultReport::default() });
    assert_eq!(out.rho_history, [0.9553935500585098]);
    assert_metrics(
        "crash",
        &obs.metrics,
        &[
            "counter esse_quarantined_total 0",
            "counter esse_replaced_total 0",
            "counter esse_retries_total 4",
            "counter esse_speculative_launches_total 0",
            "counter esse_speculative_losses_total 0",
            "counter esse_speculative_wins_total 0",
            "counter esse_task_attempts_total 20",
            "counter esse_task_timeouts_total 0",
            "counter esse_tasks_cancelled_total 0",
            "counter esse_tasks_completed_total 16",
            "counter esse_tasks_failed_total 0",
            "counter esse_tasks_wasted_total 0",
            "counter esse_workers_died_total 0",
            "gauge esse_convergence_rho 0.9553935500585098",
            "gauge esse_coverage 1.0",
            "gauge esse_members_done 16.0",
            "gauge esse_subspace_defect 8.881784197001252e-16",
            "histogram esse_member_runtime_ns count 20",
            "histogram esse_queue_wait_ns count 20",
            "histogram esse_subspace_refresh_ns count 2",
            "histogram esse_subspace_update_ns count 0",
        ],
    );
}

/// Timing-dependent: an attempt times out when it runs past 10 ms, and
/// only the injected 40 ms stragglers are meant to.
#[test]
fn task_timeout() {
    let mut cfg = fixed(12, 1, 8);
    cfg.faults = Some(FaultPlan::seeded(11).with_stragglers(0.5, Duration::from_millis(40)));
    cfg.retry = RetryPolicy::retries(6).with_timeout(Duration::from_millis(10));
    let obs = run_with(&model6(), cfg, None);
    let out = obs.outcome();
    assert_events(
        "timeout",
        &obs.events,
        &with(&[
            BASE,
            SVD,
            &[
                "coordinator counter counter/retries []",
                "coordinator counter counter/timeouts []",
                "coordinator instant fault/retry_scheduled [attempt,delay_ms,member]",
                "coordinator instant fault/task_timeout [member,runtime_ms]",
                "coordinator instant sched/enqueued [attempt,member]",
                "coordinator instant svd/convergence_check [members,rho]",
            ],
        ]),
        &[],
    );
    assert!(out.faults.timeouts > 0);
    assert_eq!(out.faults.retries, out.faults.timeouts, "every timeout is retried");
    assert_eq!(out.members_used, 12);
    assert_eq!(out.health, RunHealth::Full);
}

/// Speculation needs a free second worker to race the straggler.
#[test]
fn speculation() {
    let mut cfg = fixed(16, 2, 8);
    cfg.faults = Some(FaultPlan::seeded(17).with_stragglers(0.25, Duration::from_millis(120)));
    cfg.retry = RetryPolicy::retries(3).with_speculation(3.0);
    let obs = run_with(&model6(), cfg, None);
    let out = obs.outcome();
    assert_events(
        "speculation",
        &obs.events,
        &with(&[
            BASE,
            SVD,
            &[
                "coordinator instant fault/speculative_launch [attempt,member]",
                "coordinator instant svd/convergence_check [members,rho]",
            ],
        ]),
        // Which copy of a raced member finishes first is up to the clock.
        &[
            "coordinator instant fault/speculative_loss [member]",
            "coordinator instant fault/speculative_win [member]",
        ],
    );
    let f = &out.faults;
    assert!(f.speculative_launches > 0);
    assert_eq!(f.speculative_wins + f.speculative_losses, f.speculative_launches);
    assert_eq!(out.members_used, 16);
    assert_eq!(out.health, RunHealth::Full);
}

#[test]
fn corruption_quarantine_and_replacement() {
    let mut cfg = fixed(16, 1, 8);
    cfg.faults = Some(FaultPlan::seeded(11).with_corruption(0.3));
    cfg.retry = RetryPolicy::retries(6);
    let obs = run_with(&model6(), cfg, Some(validator6()));
    let out = obs.outcome();
    assert_events(
        "quarantine",
        &obs.events,
        &with(&[
            BASE,
            SVD,
            &[
                "coordinator counter counter/retries []",
                "coordinator instant fault/member_quarantined [member,reason]",
                "coordinator instant fault/replacement_scheduled [attempt,member]",
                "coordinator instant sched/enqueued [attempt,member]",
                "coordinator instant svd/convergence_check [members,rho]",
            ],
        ]),
        &[],
    );
    assert_eq!(
        counts(out),
        "used 16 failed 0 wasted 0 cancelled 0 svd_rounds 3 converged false deadline false records 16"
    );
    assert_eq!(out.health, RunHealth::Full);
    assert_eq!(
        out.faults,
        FaultReport { retries: 3, quarantined: 3, replaced: 3, ..FaultReport::default() }
    );
    assert_eq!(out.rho_history, [0.961671015781125]);
    assert_metrics(
        "quarantine",
        &obs.metrics,
        &[
            "counter esse_quarantined_total 3",
            "counter esse_replaced_total 3",
            "counter esse_retries_total 3",
            "counter esse_speculative_launches_total 0",
            "counter esse_speculative_losses_total 0",
            "counter esse_speculative_wins_total 0",
            "counter esse_task_attempts_total 19",
            "counter esse_task_timeouts_total 0",
            "counter esse_tasks_cancelled_total 0",
            "counter esse_tasks_completed_total 16",
            "counter esse_tasks_failed_total 0",
            "counter esse_tasks_wasted_total 0",
            "counter esse_workers_died_total 0",
            "gauge esse_convergence_rho 0.961671015781125",
            "gauge esse_coverage 1.0",
            "gauge esse_members_done 16.0",
            "gauge esse_subspace_defect 1.3322676295501878e-15",
            "histogram esse_member_runtime_ns count 19",
            "histogram esse_queue_wait_ns count 19",
            "histogram esse_subspace_refresh_ns count 2",
            "histogram esse_subspace_update_ns count 0",
        ],
    );
}

#[test]
fn quarantine_budget_exhausted() {
    let mut cfg = fixed(16, 1, 8);
    cfg.faults = Some(FaultPlan::seeded(3).with_corruption(0.45));
    cfg.retry = RetryPolicy::disabled();
    let obs = run_with(&model6(), cfg, Some(validator6()));
    let out = obs.outcome();
    assert_events(
        "exhausted",
        &obs.events,
        &with(&[
            BASE,
            SVD,
            &[
                "coordinator instant fault/member_lost_quarantine [attempts,member]",
                "coordinator instant fault/member_quarantined [member,reason]",
                "coordinator instant workflow/degraded [coverage,lost,quarantined,replaced]",
            ],
        ]),
        &[],
    );
    assert_eq!(
        counts(out),
        "used 12 failed 0 wasted 0 cancelled 0 svd_rounds 2 converged false deadline false records 16"
    );
    assert_eq!(
        out.health,
        RunHealth::Degraded { coverage: 0.75, lost_members: 0, quarantined: 4, replaced: 0 }
    );
    assert_eq!(out.faults, FaultReport { quarantined: 4, ..FaultReport::default() });
    assert_eq!(out.rho_history, Vec::<f64>::new());
    let mut want = quiet_counters(16, 12, 4);
    want[0] = "counter esse_quarantined_total 4".into();
    want.extend(
        [
            "gauge esse_convergence_rho 0.0",
            "gauge esse_coverage 0.75",
            "gauge esse_members_done 12.0",
            "gauge esse_subspace_defect 1.5543122344752192e-15",
            "histogram esse_member_runtime_ns count 16",
            "histogram esse_queue_wait_ns count 16",
            "histogram esse_subspace_refresh_ns count 1",
            "histogram esse_subspace_update_ns count 0",
        ]
        .map(String::from),
    );
    assert_eq!(obs.metrics, want, "exhausted: metrics");
}

/// Two workers: worker 1 dies on its second 5 ms task, the survivor
/// runs the retry.
#[test]
fn worker_death_with_reassignment() {
    let mut cfg = fixed(16, 2, 8);
    cfg.faults = Some(FaultPlan::seeded(5).with_worker_death(1, 2));
    cfg.retry = RetryPolicy::retries(3);
    let obs = run_with(&Sleepy(model6(), Duration::from_millis(5)), cfg, None);
    let out = obs.outcome();
    assert_events(
        "death",
        &obs.events,
        &with(&[
            BASE,
            SVD,
            &[
                "coordinator counter counter/retries []",
                "coordinator instant fault/retry_scheduled [attempt,delay_ms,member]",
                "coordinator instant sched/enqueued [attempt,member]",
                "coordinator instant svd/convergence_check [members,rho]",
                "worker instant fault/worker_died [worker]",
                "worker instant task/member_failed [attempt,member]",
            ],
        ]),
        &[],
    );
    assert_eq!(
        counts(out),
        "used 16 failed 0 wasted 0 cancelled 0 svd_rounds 3 converged false deadline false records 16"
    );
    assert_eq!(out.health, RunHealth::Full);
    assert_eq!(out.faults, FaultReport { retries: 1, workers_died: 1, ..FaultReport::default() });
}

/// Timing-dependent: 10 ms members against a 120 ms deadline.
#[test]
fn deadline() {
    let mut cfg = fixed(64, 1, 32);
    cfg.deadline = Some(Duration::from_millis(120));
    let obs = run_with(&Sleepy(model6(), Duration::from_millis(10)), cfg, None);
    let out = obs.outcome();
    assert_events(
        "deadline",
        &obs.events,
        &with(&[
            BASE,
            &[
                "coordinator begin svd/svd_final [members]",
                "coordinator end svd/svd_final []",
                "coordinator instant task/cancelled [member]",
                "coordinator instant workflow/deadline_expired [tmax_ms]",
                "coordinator instant workflow/degraded [coverage,lost,quarantined,replaced]",
            ],
        ]),
        &[],
    );
    assert!(out.deadline_expired && !out.converged);
    assert!(out.members_cancelled > 0);
    match out.health {
        RunHealth::Degraded { lost_members, .. } => {
            assert_eq!(lost_members, out.members_cancelled + out.members_wasted)
        }
        ref h => panic!("deadline run reported {h:?}"),
    }
}

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("esse-events-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A checkpointed run that parks on a journal write error after two
/// SVD rounds, then a resumed run from the checkpoint.
#[test]
fn checkpoint_then_resume() {
    let model = model6();
    let (mean, prior) = (vec![0.0; 6], prior6());
    let dir = tmp("ck");
    let cfg = fixed(16, 1, 4);

    let ck = Checkpoint::create(&dir, 7).unwrap();
    // Four members, an SVD, four members, an SVD; the ninth member's
    // record fails.
    ck.journal().inject_write_error_after(10);
    let (rec, reg) = (RingRecorder::new(), MetricsRegistry::new());
    let engine = MtcEsse::new(&model, cfg.clone())
        .with_checkpoint(&ck)
        .with_recorder(&rec)
        .with_metrics(&reg);
    let first = observe(engine, RunInit::new(&mean, &prior), &rec, &reg);
    assert!(matches!(first.out, Err(EsseError::Io(_))), "the journal error stops the run");
    assert_events(
        "checkpoint",
        &first.events,
        &with(&[
            BASE,
            &[
                "coordinator begin svd/subspace_refresh [defect,error_bound]",
                "coordinator begin svd/svd [members]",
                "coordinator end svd/subspace_refresh []",
                "coordinator end svd/svd []",
                "coordinator instant svd/convergence_check [members,rho]",
            ],
        ]),
        &[],
    );
    drop(ck);

    let (ck, resume) = Checkpoint::open(&dir, 7).unwrap();
    assert_eq!(resume.completed.len(), 8);
    let safe = DiskTripleBuffer::create(&dir).unwrap().read_safe().unwrap();
    let replay = ReplayState {
        rho_history: resume.state.rho_history(),
        previous: safe.map(|(blob, _)| decode_subspace_blob(&blob).unwrap()),
        last_svd_members: resume.state.last_svd_members() as usize,
        svd_version: resume.state.svd_rounds.last().map_or(0, |r| r.version),
    };
    assert_eq!((replay.last_svd_members, replay.svd_version), (8, 2));
    let (rec, reg) = (RingRecorder::new(), MetricsRegistry::new());
    let engine =
        MtcEsse::new(&model, cfg).with_checkpoint(&ck).with_recorder(&rec).with_metrics(&reg);
    let init = RunInit::new(&mean, &prior).resuming(&resume.completed).rehydrating(&replay);
    let resumed = observe(engine, init, &rec, &reg);
    let out = resumed.outcome();
    assert_events(
        "resume",
        &resumed.events,
        &with(&[
            BASE,
            SVD,
            &[
                "coordinator instant svd/convergence_check [members,rho]",
                "coordinator instant workflow/resumed [members]",
            ],
        ]),
        &[],
    );
    assert_eq!(
        counts(out),
        "used 16 failed 0 wasted 0 cancelled 0 svd_rounds 3 converged false deadline false records 16"
    );
    assert_eq!(out.health, RunHealth::Full);
    assert_eq!(out.faults, FaultReport::default());
    assert_eq!(out.rho_history, [0.9828579067437927, 0.9783313078944483, 0.9961986010847554]);
    let mut want = quiet_counters(8, 8, 0);
    want.extend(
        [
            "gauge esse_convergence_rho 0.9961986010847554",
            "gauge esse_coverage 1.0",
            "gauge esse_members_done 16.0",
            "gauge esse_subspace_defect 8.881784197001252e-16",
            "histogram esse_member_runtime_ns count 8",
            "histogram esse_queue_wait_ns count 8",
            "histogram esse_subspace_refresh_ns count 2",
            "histogram esse_subspace_update_ns count 0",
        ]
        .map(String::from),
    );
    assert_eq!(resumed.metrics, want, "resume: metrics");
    let _ = std::fs::remove_dir_all(&dir);
}
