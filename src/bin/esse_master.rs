//! `esse_master` — the master script of paper §4.2: "a central machine
//! on the home cluster launches singleton jobs that implement the
//! perturb/forecast ensemble calculations. The differ, SVD and
//! convergence check calculations proceed semi-independently".
//!
//! The master runs no forecast itself. It seeds lease-carrying task
//! records into `workdir/pool/pending/`; local `esse_worker` children
//! (`--workers`, alias `--children`), external workers pointed at the
//! workdir and remote workers over `--listen` claim them by atomic
//! rename and publish CRC-framed results. Every decision — fencing,
//! leases, requeue budgets, quarantine, decided-prefix checkpoints,
//! convergence — lives in the pure [`esse::mtc::coordinator`] core,
//! which turns each pool scan into an ordered list of actions. This
//! binary carries them out and owns everything else with a side effect:
//! the CLI (see [`USAGE`]), the workdir lock, the fsynced journal
//! (`--resume` replays it) with its park and crash hooks, the model and
//! central forecast, the local fleet, the TCP listener, traces, metrics
//! and stdout. With `--trace-out`, workers ship span batches back and
//! the master merges every decodable batch of this run into the trace
//! at wind-down; the posterior is bit-identical with tracing on or off.
//!
//! Exit codes: 0 done, 1 run failure, 2 configuration, 3 workdir locked
//! by a live master, 4 journal parked (resume once storage recovers),
//! 101 any other I/O failure.

use esse::cli::{self, files};
use esse::core::perturb::{PerturbConfig, PerturbationGenerator};
use esse::core::subspace::SubspaceStrategy;
use esse::core::validate::{ForecastValidator, ValidatorConfig};
use esse::fileio;
use esse::mtc::bookkeeping::{ExitStatus, StatusDir};
use esse::mtc::coordinator::{Action, Coordinator, CoordinatorConfig, Opening};
use esse::mtc::journal::{config_hash, encode_subspace_blob, Journal, JournalRecord, JournalState};
use esse::mtc::pool::{LeaseState, PoolManifest, TaskPool, TaskSpec};
use esse::mtc::{DiskTripleBuffer, LockError, WorkdirLock};
use esse_obs::event::{ArgValue, Lane};
use esse_obs::fleet::SpanBatch;
use esse_obs::recorder::{Recorder, RecorderExt, NULL};
use esse_obs::registry::MetricsRegistry;
use esse_obs::ring::RingRecorder;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line synopsis.
const USAGE: &str = "esse_master --workdir DIR --domain monterey:NX,NY,NZ --hours H \
                     [--initial N] [--max NMAX] [--tolerance T] [--workers C] \
                     [--lease-ms MS] [--task-attempts A] [--requeue-budget B] \
                     [--white-noise E] [--base-seed S] \
                     [--subspace full|incremental[:REFRESH,TOL]] [--listen ADDR] \
                     [--trace-out PATH] [--trace-capacity N] [--metrics-out PATH] \
                     [--resume | --force]\n\
                     esse_master --workdir DIR --gc [--gc-keep N]";

/// Quarantine subdirectory for forecast files that failed validation.
const QUARANTINE: &str = "quarantine";
/// Per-worker stdio logs and metric snapshots of the local fleet.
const WORKER_LOG_DIR: &str = "logs";
/// Counters registered up front so a zero still shows in the export.
const COUNTERS: [&str; 11] = [
    "esse_pool_lease_granted_total",
    "esse_pool_lease_renewed_total",
    "esse_pool_lease_expired_total",
    "esse_pool_fencing_rejected_total",
    "esse_pool_tasks_seeded_total",
    "esse_pool_results_ingested_total",
    "esse_quarantined_total",
    "esse_replaced_total",
    "esse_fleet_trace_batches_total",
    "esse_fleet_trace_batches_rejected_total",
    "esse_fleet_spans_merged_total",
];

/// Why the master stopped early; each cause has its own exit code.
enum Stop {
    /// Bad invocation, or a workdir/journal that belongs elsewhere (2).
    Config(String),
    /// Another live master holds the workdir lock (3).
    Locked(String),
    /// The journal could not be appended (disk full, failed fsync): the
    /// committed prefix is intact and waits for `--resume` (4).
    Parked(String),
    /// The run itself failed: central forecast, too few members (1).
    Failed(String),
    /// Any other I/O failure (101).
    Io(String),
}

/// Attach what was being done to an I/O error.
trait Context<T> {
    fn ctx(self, what: &str) -> Result<T, Stop>;
}

impl<T> Context<T> for io::Result<T> {
    fn ctx(self, what: &str) -> Result<T, Stop> {
        self.map_err(|e| Stop::Io(format!("{what}: {e}")))
    }
}

/// The workdir journal plus the crash-injection counter used by the
/// recovery harness (`--crash-after-appends N` aborts the process the
/// instant the N-th append of this incarnation is durable, simulating
/// a power loss at a chosen journal offset).
struct MasterJournal {
    journal: Journal,
    appends: u64,
    crash_after: Option<u64>,
}

impl MasterJournal {
    fn append(&mut self, rec: &JournalRecord) -> Result<(), Stop> {
        // The journal is the run's source of truth: once an append
        // fails no further transition can be made durable, so the run
        // parks and workers ride out the outage on their parking grace.
        self.journal.append(rec).map_err(|e| {
            Stop::Parked(format!(
                "journal append failed ({e}); parking run — resume with --resume once storage recovers"
            ))
        })?;
        self.appends += 1;
        if self.crash_after.is_some_and(|n| self.appends >= n) {
            // No destructors, no buffered-writer flush: the closest a
            // process can get to losing power.
            std::process::abort();
        }
        Ok(())
    }
}

/// Everything an action may touch, and the mapping of each action onto
/// pool files, journal records, trace instants, counters and stdout.
struct Executor<'a> {
    workdir: &'a Path,
    pool: &'a TaskPool,
    journal: MasterJournal,
    status: StatusDir,
    covariance: DiskTripleBuffer,
    gen: PerturbationGenerator<'a>,
    metrics: &'a MetricsRegistry,
    rec: &'a dyn Recorder,
    trace_run: u64,
    incarnation: u64,
    tolerance: f64,
    cancelled: usize,
}

/// The `(member, epoch)` arguments most pool instants carry.
fn task_args(member: u64, epoch: u32) -> Vec<(&'static str, ArgValue)> {
    vec![("member", member.into()), ("epoch", (epoch as u64).into())]
}

impl Executor<'_> {
    fn instant(&self, cat: &'static str, name: &'static str, args: Vec<(&'static str, ArgValue)>) {
        self.rec.instant_at(self.rec.now_ns(), Lane::Coordinator, cat, name, args);
    }

    fn count(&self, name: &str) {
        self.metrics.counter(name).inc();
    }

    /// The parent span id of task `(member, epoch)`: pure in the trace
    /// run, so every incarnation derives the same one (0 untraced).
    fn span_for(&self, member: u64, epoch: u32) -> u64 {
        if self.trace_run == 0 {
            return 0;
        }
        esse_obs::fleet::span_id(self.trace_run, member, epoch)
    }

    fn seeded_instant(&self, member: u64, epoch: u32) {
        let mut args = task_args(member, epoch);
        args.push(("span", self.span_for(member, epoch).into()));
        args.push(("incarnation", self.incarnation.into()));
        self.instant("pool", "task_seeded", args);
    }

    fn run(&mut self, actions: Vec<Action>) -> Result<(), Stop> {
        actions.into_iter().try_for_each(|a| self.apply(a))
    }

    fn apply(&mut self, action: Action) -> Result<(), Stop> {
        let pool = self.pool;
        match action {
            Action::Journal(rec) => {
                self.journal.append(&rec)?;
                if let JournalRecord::SvdPublished { members, version, .. } = rec {
                    let args = vec![("members", members.into()), ("version", version.into())];
                    self.instant("svd", "svd_published", args);
                }
            }
            Action::Seed(member, epoch, replaces) => {
                let seed = self.gen.forecast_seed(member as usize);
                let parent_span = self.span_for(member, epoch);
                pool.seed(&TaskSpec { member, epoch, seed, parent_span }).ctx("seed task")?;
                self.count("esse_pool_tasks_seeded_total");
                if let Some(reason) = replaces {
                    let mut args = task_args(member, epoch);
                    args.push(("reason", (reason as u64).into()));
                    self.instant("pool", "replacement_scheduled", args);
                }
                self.seeded_instant(member, epoch);
            }
            Action::Fence(result, current) => {
                let (m, epoch) = (result.member, result.epoch);
                self.count("esse_pool_fencing_rejected_total");
                let mut args = task_args(m, epoch);
                args.push(("current", (current as u64).into()));
                self.instant("pool", "fencing_rejected", args);
                eprintln!(
                    "esse_master: fenced stale result for member {m} (epoch {epoch} != current {current})"
                );
                pool.fence_result(&result).ctx("fence result")?;
            }
            Action::Consume(result) => pool.consume_result(&result).ctx("consume result")?,
            Action::RemoveClaim(member, epoch) => {
                let spec = TaskSpec { member, epoch, seed: 0, parent_span: 0 };
                pool.remove_claim(&spec).ctx("remove claim")?;
            }
            Action::Status(member, code) => {
                let status = if code == 0 { ExitStatus::Success } else { ExitStatus::Failed(code) };
                self.status.record(member as usize, status).ctx("record member status")?;
            }
            Action::Ingested(member, epoch) => {
                self.count("esse_pool_results_ingested_total");
                self.instant("pool", "result_ingested", task_args(member, epoch));
                // Note a shipped span batch live, attributed to its
                // worker; the merge waits for wind-down so a straggler
                // batch still counts.
                let sidecar = (self.trace_run != 0).then(|| pool.trace_sidecar_for(member, epoch));
                let decode = |p: PathBuf| SpanBatch::decode(&fs::read(p).ok()?).ok();
                if let Some(batch) = sidecar.flatten().and_then(decode) {
                    let mut args = task_args(member, epoch);
                    args.push(("worker", (batch.worker_id as u64).into()));
                    self.instant("fleet", "batch", args);
                }
            }
            Action::Quarantine(member, epoch, reason, why) => {
                // Moved aside, never deleted: the offending bytes stay
                // on disk for post-mortem inspection.
                let name = files::fc(member as usize);
                let qdir = self.workdir.join(QUARANTINE);
                fs::create_dir_all(&qdir).ctx("create quarantine dir")?;
                if self.workdir.join(&name).exists() {
                    fs::rename(self.workdir.join(&name), qdir.join(&name)).ctx("quarantine")?;
                }
                eprintln!("esse_master: quarantined member {member}: {why}");
                if let Some(epoch) = epoch {
                    self.count("esse_quarantined_total");
                    let mut args = task_args(member, epoch);
                    args.push(("reason", (reason as u64).into()));
                    self.instant("fault", "member_quarantined", args);
                }
            }
            Action::Lease(member, epoch, state) => match state {
                LeaseState::Granted => {
                    self.count("esse_pool_lease_granted_total");
                    self.instant("pool", "lease_granted", task_args(member, epoch));
                }
                LeaseState::Renewed => self.count("esse_pool_lease_renewed_total"),
                LeaseState::Expired => {
                    self.count("esse_pool_lease_expired_total");
                    self.instant("pool", "lease_expired", task_args(member, epoch));
                    eprintln!("esse_master: lease expired for member {member} (epoch {epoch})");
                }
                LeaseState::Held => {}
            },
            Action::Note(msg) => eprintln!("esse_master: {msg}"),
            Action::Estimate(members, kind, defect) => {
                let args = vec![("members", members.into()), ("defect", defect.into())];
                self.instant("svd", kind.label(), args);
            }
            Action::Rho(members, rho) => {
                println!("esse_master: N={members} rho={rho:.4} (tol {:.3})", self.tolerance);
            }
            Action::PublishCovariance(version, estimate) => {
                let blob = encode_subspace_blob(&estimate);
                self.covariance.publish(&blob, version).ctx("publish covariance")?;
            }
            Action::Cancel(members, rho) => {
                self.cancelled = pool.cancel_pending().ctx("cancel pending")?;
                pool.write_cancel().ctx("write cancel tombstone")?;
                println!("esse_master: converged; cancelled {} queued members", self.cancelled);
                let args = vec![("members", members.into()), ("rho", rho.into())];
                self.instant("convergence", "converged", args);
            }
        }
        Ok(())
    }
}

fn sibling(name: &str) -> Result<PathBuf, Stop> {
    let mut exe = std::env::current_exe().ctx("current exe path")?;
    exe.set_file_name(name);
    Ok(exe)
}

fn spawn_local_worker(workdir: &Path, slot: usize) -> Option<Child> {
    // Capture the worker's stdio into a per-slot log file (respawns of a
    // slot append to it). A regular file fd — unlike an inherited pipe
    // — cannot keep a caller's `output()` on the master blocked while an
    // orphaned worker outlives the master itself.
    let log_dir = workdir.join(WORKER_LOG_DIR);
    let log = fs::create_dir_all(&log_dir).and_then(|()| {
        let log = log_dir.join(format!("worker-{slot:03}.log"));
        let f = fs::OpenOptions::new().create(true).append(true).open(log)?;
        Ok((Stdio::from(f.try_clone()?), Stdio::from(f)))
    });
    let (out, err) = log.unwrap_or_else(|e| {
        eprintln!("esse_master: cannot open worker log for slot {slot}: {e}");
        (Stdio::null(), Stdio::null())
    });
    let mut cmd = Command::new(sibling("esse_worker").ok()?);
    let (slot_id, pid) = (slot.to_string(), std::process::id().to_string());
    cmd.arg("--workdir").arg(workdir);
    cmd.args(["--worker-id", &slot_id, "--parent-pid", &pid, "--poll-ms", "10", "--metrics-out"]);
    cmd.arg(log_dir.join(format!("worker-{slot:03}.metrics"))).stdout(out).stderr(err);
    cli::spawn_with_retry(&mut cmd, "esse_worker", None, 3)
        .map_err(|e| eprintln!("esse_master: {e}"))
        .ok()
}

fn lock_workdir(workdir: &Path, what: &str) -> Result<WorkdirLock, Stop> {
    WorkdirLock::acquire(workdir).map_err(|e| match e {
        // Distinct exit code: two racing `--resume` invocations after a
        // coordinator crash resolve to exactly one live master, and the
        // loser must be distinguishable from a config error.
        LockError::Held { pid } => Stop::Locked(format!(
            "{what} {}: locked by a running master (pid {})",
            workdir.display(),
            pid.map_or_else(|| "unknown".into(), |p| p.to_string())
        )),
        e => Stop::Config(format!("cannot acquire master.lock: {e}")),
    })
}

/// `--gc` mode: prune fenced results, consumed trace sidecars and
/// superseded covariance blobs of a completed (or parked) run, keeping
/// the newest `keep` fenced records. Holds the workdir lock, and never
/// touches anything under an active lease or that `--resume` needs.
fn run_gc(workdir: &Path, keep: usize) -> Result<(), Stop> {
    let _lock = lock_workdir(workdir, "refusing to gc")?;
    let (pool, _) = TaskPool::open(workdir)
        .map_err(|e| Stop::Config(format!("no task pool under {}: {e}", workdir.display())))?;
    let report = pool.gc(keep).ctx("pool gc")?;
    let blobs = DiskTripleBuffer::create(workdir)
        .and_then(|b| b.prune_superseded())
        .ctx("prune covariance blobs")?;
    println!(
        "esse_master: gc removed {} fenced result(s), {} trace sidecar(s), \
         {} superseded covariance blob(s) (kept newest {keep})",
        report.stale_results, report.trace_sidecars, blobs
    );
    Ok(())
}

fn main() {
    let Err(stop) = run() else { return };
    let (code, msg) = match stop {
        Stop::Config(m) => (2, m),
        Stop::Locked(m) => (3, m),
        Stop::Parked(m) => (4, m),
        Stop::Failed(m) => (1, m),
        Stop::Io(m) => (101, m),
    };
    eprintln!("esse_master: {msg}");
    std::process::exit(code);
}

fn run() -> Result<(), Stop> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse_args(&argv);
    let workdir = PathBuf::from(cli::require(&args, "workdir", USAGE));
    if args.contains_key("gc") {
        return run_gc(&workdir, cli::get_or(&args, "gc-keep", 4usize));
    }
    let domain = cli::require(&args, "domain", USAGE).to_string();
    let hours: f64 = cli::get_or(&args, "hours", 6.0);
    let tolerance: f64 = cli::get_or(&args, "tolerance", 0.08);
    // `--children` is the historical spelling from the era when the
    // master forked singletons itself; it now sizes the local worker
    // fleet. `--workers 0` runs a pure coordinator for external workers.
    let workers: usize = args
        .get("workers")
        .or_else(|| args.get("children"))
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let white_noise: f64 = cli::get_or(&args, "white-noise", 0.0);
    let base_seed: u64 = cli::get_or(&args, "base-seed", 0x5EED);
    let lease_ms: u64 = cli::get_or(&args, "lease-ms", 1200u64).max(50);
    let resume = args.contains_key("resume");
    let trace_out = args.get("trace-out").map(PathBuf::from);
    let strategy = match args.get("subspace") {
        None => SubspaceStrategy::FullRecompute,
        Some(v) => SubspaceStrategy::parse(v).ok_or_else(|| {
            Stop::Config(format!(
                "bad --subspace value {v:?} (want full or incremental[:REFRESH,TOL])"
            ))
        })?,
    };
    let cfg = CoordinatorConfig {
        initial: cli::get_or(&args, "initial", 8),
        max: cli::get_or(&args, "max", 32),
        tolerance,
        task_attempts: cli::get_or(&args, "task-attempts", 3u32).max(1),
        requeue_budget: cli::get_or(&args, "requeue-budget", 16u32).max(1),
        lease_ms,
        strategy,
        base_seed,
    };

    // The run identity: only the knobs that change member *content* (a
    // forecast is a pure function of domain, hours, noise and seed).
    // Schedule and execution knobs are excluded — a resume may extend
    // the ensemble, tighten the tolerance or change parallelism.
    let run_hash = config_hash(&[
        ("domain", domain.clone()),
        ("hours", hours.to_string()),
        ("white-noise", white_noise.to_string()),
        ("base-seed", base_seed.to_string()),
    ]);

    // --- Workdir safety: a typo must not clobber a run, and a fresh
    // run must not silently mix with a dead one's files. ---
    if !resume && fs::read_dir(&workdir).is_ok_and(|mut d| d.next().is_some()) {
        if !args.contains_key("force") {
            return Err(Stop::Config(format!(
                "workdir {} is not empty; \
                 pass --resume to continue the run or --force to discard it",
                workdir.display()
            )));
        }
        eprintln!("esse_master: --force: clearing existing workdir");
        fs::remove_dir_all(&workdir).ctx("clear workdir")?;
    }
    fs::create_dir_all(&workdir).ctx("create workdir")?;
    // One live master per workdir; a crashed master's lock names a dead
    // PID and is broken automatically.
    let _lock = lock_workdir(&workdir, "workdir")?;
    let status = StatusDir::open(workdir.join("status")).ctx("status dir")?;

    // --- Journal: create fresh, or replay (truncating any torn tail). ---
    let journal_path = workdir.join("run.journal");
    let (journal, state) = if resume && journal_path.exists() {
        let (journal, replay) = Journal::open(&journal_path).ctx("open journal")?;
        if replay.torn_bytes > 0 {
            eprintln!(
                "esse_master: truncated {} torn byte(s) from the journal tail",
                replay.torn_bytes
            );
        }
        let state = JournalState::replay(&replay.records);
        if let Some(h) = state.config_hash.filter(|&h| h != run_hash) {
            return Err(Stop::Config(format!(
                "journal belongs to a different run \
                 (config hash {h:#018x} != {run_hash:#018x}); refusing to mix results"
            )));
        }
        (journal, state)
    } else {
        (Journal::create(&journal_path).ctx("create journal")?, JournalState::default())
    };
    if let Some(n) = args.get("fail-appends").and_then(|v| v.parse().ok()) {
        // Storage-fault injection: the N-th append of this incarnation
        // (and everything after) fails like a full disk.
        journal.inject_write_error_after(n);
    }
    let crash_after = args.get("crash-after-appends").and_then(|v| v.parse().ok());
    let mut journal = MasterJournal { journal, appends: 0, crash_after };
    let incarnation = match Coordinator::opening(&state, run_hash, &cfg) {
        Opening::Complete(members) => {
            println!("esse_master: run already complete ({members} members); nothing to do");
            return Ok(());
        }
        Opening::Run(records, incarnation) => {
            if state.complete.is_some() {
                println!(
                    "esse_master: completed run falls short of the requested schedule \
                     (max {}, tolerance {tolerance}); extending",
                    cfg.max
                );
            }
            for rec in &records {
                journal.append(rec)?;
            }
            incarnation
        }
    };
    if incarnation > 1 {
        println!("esse_master: coordinator incarnation {incarnation} (resuming a crashed run)");
    }

    // --- Observability: trace ring (shared with esse-net connection
    // threads) and metrics registry. Every span id derives from the
    // trace run id, so a batch from another run can never merge here. ---
    let ring = Arc::new(RingRecorder::with_capacity(cli::get_or(&args, "trace-capacity", 1 << 18)));
    let rec: &dyn Recorder = if trace_out.is_some() { ring.as_ref() } else { &NULL };
    let metrics = MetricsRegistry::new();
    for name in COUNTERS {
        metrics.counter(name);
    }
    metrics.gauge("esse_master_incarnation").set(incarnation as f64);
    let trace_run =
        if trace_out.is_some() { esse_obs::fleet::run_id(run_hash as u32, base_seed) } else { 0 };

    // --- Setup: model, mean, prior, central forecast. ---
    let (model, st0) = cli::build_model(&domain).map_err(Stop::Config)?;
    let mean_path = workdir.join(files::MEAN);
    let prior_path = workdir.join(files::PRIOR);
    if !resume || !mean_path.exists() {
        fileio::write_vector(&mean_path, &st0.pack()).ctx("write mean")?;
    }
    if !resume || !prior_path.exists() {
        let prior =
            esse::core::priors::smooth_temperature_prior(&model.grid, 12, 0.5, 2.5, base_seed);
        fileio::write_subspace(&prior_path, &prior).ctx("write prior")?;
    }
    let prior = fileio::read_subspace(&prior_path).ctx("read prior")?;
    let central_path = workdir.join(files::CENTRAL);
    if !central_path.exists() {
        let mut cmd = Command::new(sibling("pemodel")?);
        cmd.arg("--workdir").arg(&workdir);
        cmd.args(["--domain", &domain, "--hours", &hours.to_string(), "--central"]);
        let mut child = cli::spawn_with_retry(&mut cmd, "central pemodel", None, 3)
            .map_err(|e| Stop::Failed(e.to_string()))?;
        if !child.wait().ctx("wait central pemodel")?.success() {
            return Err(Stop::Failed("central forecast failed".into()));
        }
    }
    let central = fileio::read_vector(&central_path).ctx("read central")?;
    // The same validator the workers run before publishing, rebuilt
    // from the same inputs (never trust the wire).
    let mean = fileio::read_vector(&mean_path).ctx("read mean")?;
    let validator = ForecastValidator::for_scenario(
        &model.grid,
        &[&mean, &central],
        &prior,
        ValidatorConfig::default(),
    );
    let gen = PerturbationGenerator::new(
        &prior,
        PerturbConfig { white_noise, base_seed, frozen_indices: Vec::new() },
    );

    // --- The task pool: the contract every worker reads. ---
    let manifest = PoolManifest {
        domain: domain.clone(),
        hours,
        white_noise,
        base_seed,
        lease_ms,
        config_hash: run_hash,
        trace_run_id: trace_run,
    };
    let pool = TaskPool::create(&workdir, &manifest).ctx("create task pool")?;
    // A previous incarnation may have left CANCEL/SHUTDOWN behind.
    pool.clear_tombstones().ctx("clear tombstones")?;
    // Remote workers claim, renew and publish through per-connection
    // proxy threads against this same pool, so local and remote
    // claimers are arbitrated by one atomic rename.
    let mut net_server = match args.get("listen") {
        None => None,
        Some(addr) => {
            let recorder: Arc<dyn Recorder + Send + Sync> =
                if trace_out.is_some() { ring.clone() } else { Arc::new(NULL) };
            let server = esse::net::NetServer::start(esse::net::ServerConfig {
                pool: pool.clone(),
                manifest: manifest.clone(),
                workdir: workdir.clone(),
                listen: addr.clone(),
                generation: incarnation,
                metrics: esse::net::NetMetrics::from_registry(&metrics),
                recorder,
            })
            .map_err(|e| Stop::Config(format!("cannot listen for remote workers: {e}")))?;
            println!("esse_master: listening for remote workers on {}", server.local_addr());
            Some(server)
        }
    };

    // --- The coordinator core, resumed from the journal. Legacy
    // workdirs (no journal before this run) migrate their §4.2 status
    // records forward. ---
    let legacy: Vec<u64> = if resume && state.config_hash.is_none() && state.completed.is_empty() {
        status.scan().ctx("scan status")?.0.into_iter().map(|m| m as u64).collect()
    } else {
        Vec::new()
    };
    let pool_epochs = pool.epochs().ctx("recover epochs")?;
    // Each forecast file is read and CRC-checked once, when the core asks.
    let mut forecasts = |m: u64| {
        fileio::read_vector_crc(workdir.join(files::fc(m as usize))).map_err(|e| e.to_string())
    };
    let (mut core, opening) =
        Coordinator::start(cfg, &state, pool_epochs, &legacy, central, validator, &mut forecasts);
    let mut exec = Executor {
        workdir: &workdir,
        pool: &pool,
        journal,
        status,
        covariance: DiskTripleBuffer::create(&workdir).ctx("safe/live covariance files")?,
        gen,
        metrics: &metrics,
        rec,
        trace_run,
        incarnation,
        tolerance,
        cancelled: 0,
    };
    if incarnation > 1 {
        exec.instant("coordinator", "restart", vec![("incarnation", incarnation.into())]);
    }
    if trace_run != 0 && incarnation > 1 {
        // Re-emit `task_seeded` for every epoch an earlier incarnation
        // handed out, so span batches published across the crash boundary
        // still find their parent edge.
        let mut inherited: Vec<(u64, u32)> = core.epochs().iter().map(|(&m, &e)| (m, e)).collect();
        inherited.sort_unstable();
        for (m, hw) in inherited {
            (1..=hw).for_each(|ep| exec.seeded_instant(m, ep));
        }
    }
    exec.run(opening)?;
    let ledger = core.ledger();
    println!(
        "esse_master: starting with {} members in the differ (resumed {})",
        ledger.completed, ledger.resumed
    );

    // --- The loop: keep the local fleet at strength, scan, act. ---
    let mut fleet: Vec<Option<Child>> = (0..workers).map(|_| None).collect();
    let mut spawns = 0usize;
    let t0 = Instant::now();
    loop {
        // Bounded respawn: a worker that keeps dying must not fork-bomb
        // the host.
        for (slot, entry) in fleet.iter_mut().enumerate() {
            let alive = match entry {
                Some(child) => child.try_wait().ctx("poll worker")?.is_none(),
                None => false,
            };
            if !alive && !core.converged() && spawns < workers * 8 {
                *entry = spawn_local_worker(&workdir, slot);
                if entry.is_some() {
                    spawns += 1;
                    exec.instant("pool", "worker_spawned", vec![("slot", (slot as u64).into())]);
                }
            }
        }
        let scan = pool.scan().ctx("scan pool")?;
        let now_ms = t0.elapsed().as_millis() as u64;
        let actions = core
            .step(&scan, now_ms, &mut forecasts)
            .map_err(|e| Stop::Failed(format!("incremental subspace update failed: {e}")))?;
        exec.run(actions)?;
        if core.finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(15));
    }

    // --- Wind down: tell every worker the run is over, reap the local
    // fleet (bounded), then drain remote connections. ---
    pool.write_shutdown().ctx("write shutdown tombstone")?;
    let deadline = Instant::now() + Duration::from_secs(10);
    for child in fleet.iter_mut().flatten() {
        while child.try_wait().ctx("reap worker")?.is_none() {
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    // Remote workers learn the run is over only through a `Shutdown`
    // claim reply and ship their last trace batch over the same
    // connection, so keep serving until every connection drains. A
    // never-crashed run skips the linger; on a resumed run 750 ms
    // covers a parked worker's full reconnect-poll interval, so even a
    // worker disconnected the whole time gets `Shutdown`, not a dead port.
    if let Some(server) = net_server.as_mut() {
        let linger = if incarnation > 1 { Duration::from_millis(750) } else { Duration::ZERO };
        server.drain(linger, Duration::from_secs(10));
        server.stop();
    }

    // --- The posterior over the deterministic member set. ---
    let (posterior, members) =
        core.posterior().ok_or_else(|| Stop::Failed("not enough members for an SVD".into()))?;
    fileio::write_subspace(workdir.join(files::POSTERIOR), &posterior).ctx("write posterior")?;
    exec.journal.append(&JournalRecord::RunComplete { members: members as u64 })?;
    let ledger = core.ledger();
    println!(
        "esse_master: done — {members} members ({} failed), converged={}, rank {}, \
         total variance {:.5}",
        ledger.failed,
        core.converged(),
        posterior.rank(),
        posterior.total_variance()
    );
    metrics.counter("esse_replaced_total").add(ledger.replaced as u64);
    let c = |name: &str| metrics.counter(name).get();
    println!(
        "esse_master: pool stats — leases granted {}, renewed {}, expired {}, \
         results fenced {}, tasks seeded {}, ingested {}, cancelled {}",
        c("esse_pool_lease_granted_total"),
        c("esse_pool_lease_renewed_total"),
        c("esse_pool_lease_expired_total"),
        c("esse_pool_fencing_rejected_total"),
        c("esse_pool_tasks_seeded_total"),
        c("esse_pool_results_ingested_total"),
        exec.cancelled
    );
    println!(
        "esse_master: quarantine stats — quarantined {} member(s), replaced {}, lost {}",
        ledger.quarantined, ledger.replaced, ledger.lost
    );
    let log_dir = workdir.join(WORKER_LOG_DIR);
    let is_log = |e: &fs::DirEntry| e.path().extension().is_some_and(|x| x == "log");
    let logs = fs::read_dir(&log_dir).map_or(0, |d| d.flatten().filter(is_log).count());
    if logs > 0 {
        println!("esse_master: {logs} worker log(s) under {}", log_dir.display());
    }

    if let Some(path) = trace_out {
        let mut trace = ring.drain();
        // Merge every decodable span batch of this run (disk sidecars
        // and TCP batches both land as `.trace` files); a SIGKILL'd
        // worker's truncated sidecar is dropped whole, never trusted.
        let mut batches = Vec::new();
        for p in pool.trace_sidecars().unwrap_or_default() {
            match fs::read(&p).map_err(|e| e.to_string()).and_then(|b| SpanBatch::decode(&b)) {
                Ok(b) if b.run_id == trace_run => batches.push(b),
                Ok(_) => {}
                Err(why) => {
                    metrics.counter("esse_fleet_trace_batches_rejected_total").inc();
                    eprintln!(
                        "esse_master: dropping unreadable trace batch {}: {why}",
                        p.display()
                    );
                }
            }
        }
        metrics.counter("esse_fleet_trace_batches_total").add(batches.len() as u64);
        let report = esse_obs::fleet::merge_batches(&mut trace, &batches);
        metrics.counter("esse_fleet_spans_merged_total").add(report.spans_merged as u64);
        if !report.workers.is_empty() {
            println!(
                "esse_master: fleet trace — merged {} span(s) / {} event(s) from {} worker(s), \
                 {} event(s) dropped at the rings",
                report.spans_merged,
                report.events_merged,
                report.workers.len(),
                report.dropped()
            );
        }
        esse_obs::export::save(&trace, &path).ctx("write trace")?;
        println!("esse_master: trace written to {}", path.display());
    }
    if let Some(path) = args.get("metrics-out") {
        fs::write(path, metrics.snapshot().to_prometheus()).ctx("write metrics")?;
        println!("esse_master: metrics written to {path}");
    }
    Ok(())
}
