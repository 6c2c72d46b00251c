//! `engine_pe`: the in-process `MtcEsse` engine with the real PE model,
//! a fixed ensemble and no processes, disk or sockets in the timed run.
//!
//! One invocation is one run in a fresh process, so `VmHWM` is the run's
//! own peak. With `--capture DIR` the run is traced: a `RingRecorder`
//! collects the engine's spans, a timing wrapper around the
//! [`ForecastModel`] records every forecast, and the members are written
//! to `DIR` in the on-disk layout `esse_master` uses (plus a journal of
//! the records a fleet coordinator would append) so `perfbench replay`
//! and `perfbench kernels` can time the coordinator layers on them.

use crate::{die, ms, proc_field, quantile, stat_cpu_s, Args, Out};
use esse::cli::files;
use esse::core::adaptive::EnsembleSchedule;
use esse::core::model::{ForecastError, ForecastModel, PeForecastModel};
use esse::core::perturb::{PerturbConfig, PerturbationGenerator};
use esse::core::priors::smooth_temperature_prior;
use esse::core::subspace::ErrorSubspace;
use esse::core::validate::{ForecastValidator, ValidatorConfig};
use esse::fileio;
use esse::mtc::{Journal, JournalRecord, MtcConfig, MtcEsse, RunInit, TaskOutcome};
use esse_obs::ring::RingRecorder;
use esse_obs::LoadedTrace;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// SVD cadence of the engine (members between rounds).
const SVD_STRIDE: usize = 8;

/// One logged forecast: its seed (`None` for the central run), wall ms
/// and result.
type Logged = (Option<u64>, f64, Vec<f64>);

/// Benchmark-owned timing wrapper: forwards to the model and, when
/// `keep` is set (traced runs only), logs `(seed, ms, forecast)` of
/// every call.
struct Timed<M> {
    inner: M,
    keep: bool,
    log: Mutex<Vec<Logged>>,
}

impl<M: ForecastModel> ForecastModel for Timed<M> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn forecast(
        &self,
        x0: &[f64],
        start_time: f64,
        duration: f64,
        seed: Option<u64>,
    ) -> Result<Vec<f64>, ForecastError> {
        if !self.keep {
            return self.inner.forecast(x0, start_time, duration, seed);
        }
        let t = Instant::now();
        let r = self.inner.forecast(x0, start_time, duration, seed);
        let took = ms(t.elapsed());
        if let Ok(x) = &r {
            self.log.lock().expect("forecast log").push((seed, took, x.clone()));
        }
        r
    }
}

/// Everything the engine needs before `MtcEsse::run`.
struct Setup {
    model: Timed<PeForecastModel>,
    mean: Vec<f64>,
    prior: ErrorSubspace,
    perturb: PerturbConfig,
    validator: ForecastValidator,
    config: MtcConfig,
}

/// Scenario, prior, validator and configuration of one run.
fn setup(args: &Args, keep: bool) -> Setup {
    let seed: u64 = args.num("seed");
    let members: usize = args.num("members");
    let (pe, st0) = esse::cli::build_model(&format!("monterey:{}", args.str("domain")))
        .unwrap_or_else(|e| die(&e));
    let mean = st0.pack();
    let prior = smooth_temperature_prior(&pe.grid, 12, 0.5, 2.5, seed);
    let validator =
        ForecastValidator::for_scenario(&pe.grid, &[&mean], &prior, ValidatorConfig::default());
    let perturb = PerturbConfig { white_noise: 0.0, base_seed: seed, frozen_indices: Vec::new() };
    let config = MtcConfig::builder()
        .workers(args.num("workers"))
        .pool_factor(1.0)
        .schedule(EnsembleSchedule::new(members, members))
        // ρ ≥ 1 − 1e-12 never holds: the ensemble always runs to N.
        .tolerance(1e-12)
        .svd_stride(SVD_STRIDE)
        .perturb(perturb.clone())
        .duration(args.num::<f64>("hours") * 3600.0)
        .build()
        .unwrap_or_else(|e| die(&e.to_string()));
    let model = Timed { inner: PeForecastModel::new(pe), keep, log: Mutex::new(Vec::new()) };
    Setup { model, mean, prior, perturb, validator, config }
}

pub fn run(args: &Args) -> Out {
    let members: usize = args.num("members");
    let capture = args.opt("capture").map(Path::new);

    // --- Set-up: scenario, prior, validator, engine construction. It is
    // short, so it is repeated `--setups` times and the median kept. ---
    let mut setups = Vec::new();
    for _ in 1..args.num_or("setups", 1usize) {
        let t = Instant::now();
        let s = setup(args, false);
        std::hint::black_box(MtcEsse::new(&s.model, s.config.clone()).with_validator(s.validator));
        setups.push(t.elapsed().as_secs_f64());
    }
    let t_setup = Instant::now();
    let Setup { model, mean, prior, perturb, validator, config } = setup(args, capture.is_some());
    let ring = RingRecorder::new();
    let mut esse = MtcEsse::new(&model, config).with_validator(validator);
    if capture.is_some() {
        esse = esse.with_recorder(&ring);
    }
    setups.push(t_setup.elapsed().as_secs_f64());

    // --- The timed run. The calling thread is the engine's coordinator
    // (differ, SVD, convergence); workers are scoped threads. ---
    let cpu0 = stat_cpu_s("/proc/self/stat");
    let coord0 = stat_cpu_s("/proc/thread-self/stat");
    let rchar0 = proc_field("/proc/self/io", "rchar");
    let wchar0 = proc_field("/proc/self/io", "wchar");
    let t_run = Instant::now();
    let outcome = esse.run(RunInit::new(&mean, &prior)).unwrap_or_else(|e| die(&e.to_string()));
    let makespan = t_run.elapsed();
    let coord_cpu = stat_cpu_s("/proc/thread-self/stat") - coord0;
    let run_cpu = stat_cpu_s("/proc/self/stat") - cpu0;
    let read_mb = (proc_field("/proc/self/io", "rchar") - rchar0) / 1e6;
    let write_mb = (proc_field("/proc/self/io", "wchar") - wchar0) / 1e6;
    let peak_rss_mb = proc_field("/proc/self/status", "VmHWM") / 1024.0;

    // First ρ needs two SVD rounds: it is computed on the arrival of the
    // (2·stride)-th successful member.
    let mut finished: Vec<Duration> = outcome
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Some(TaskOutcome::Success)))
        .filter_map(|r| r.finished_at)
        .collect();
    finished.sort();
    let first_estimate = finished.get(2 * SVD_STRIDE - 1).copied().unwrap_or(makespan);
    let waits: Vec<f64> = outcome.records.iter().filter_map(|r| r.queue_wait()).map(ms).collect();
    // In-process claim: a worker thread's gap between finishing one
    // member and starting its next (the channel receive).
    let mut by_worker: Vec<(usize, Duration, Duration)> = outcome
        .records
        .iter()
        .filter_map(|r| Some((r.worker?, r.started_at?, r.finished_at?)))
        .collect();
    by_worker.sort();
    let claims: Vec<f64> = by_worker
        .windows(2)
        .filter(|p| p[0].0 == p[1].0)
        .map(|p| ms(p[1].1.saturating_sub(p[0].2)))
        .collect();

    let mut out = Out::default();
    out.put("setup_s", quantile(&setups, 0.5));
    out.put("makespan_s", makespan.as_secs_f64());
    out.put("first_estimate_s", first_estimate.as_secs_f64());
    out.put("peak_rss_mb", peak_rss_mb);
    out.put("total_variance", outcome.subspace.total_variance());
    out.put("members_used", outcome.members_used as f64);
    out.put("members_failed", outcome.members_failed as f64);
    out.put("members_attempted", outcome.records.len() as f64);
    out.put("quarantined", outcome.faults.quarantined as f64);
    out.put("svd_rounds", outcome.svd_rounds as f64);
    out.put("coordinator_cpu_s", coord_cpu);
    out.put("worker_cpu_s", (run_cpu - coord_cpu).max(0.0));
    out.put("read_mb", read_mb);
    out.put("write_mb", write_mb);
    out.put("queue_wait_ms_p50", quantile(&waits, 0.5));
    out.put("queue_wait_ms_p95", quantile(&waits, 0.95));
    out.put("claim_ms_p50", quantile(&claims, 0.5));

    if let Some(dir) = capture {
        let gen = PerturbationGenerator::new(&prior, perturb);
        let log = model.log.into_inner().expect("forecast log");
        traced_metrics(&mut out, &ring, &log, &gen, &mean, members);
        write_capture(dir, &mean, &prior, &outcome, &log, &gen, members);
    }
    out
}

/// Span and wrapper statistics of a traced engine run.
fn traced_metrics(
    out: &mut Out,
    ring: &RingRecorder,
    log: &[Logged],
    gen: &PerturbationGenerator<'_>,
    mean: &[f64],
    members: usize,
) {
    let trace = LoadedTrace::from_trace(&ring.drain());
    let spans = trace.spans();
    let tasks: Vec<f64> = spans
        .iter()
        .filter(|s| s.cat == "task" && s.name == "member")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let forecasts: Vec<f64> = log.iter().filter(|(s, _, _)| s.is_some()).map(|e| e.1).collect();
    let perts: Vec<f64> = (0..members)
        .map(|j| {
            let t = Instant::now();
            std::hint::black_box(gen.perturb(mean, j));
            ms(t.elapsed())
        })
        .collect();
    let (task_p50, fc_p50, pert_p50) =
        (quantile(&tasks, 0.5), quantile(&forecasts, 0.5), quantile(&perts, 0.5));
    // In process, a task is perturb + forecast + the hand-off back to
    // the coordinator; the hand-off is the time no wrapper claims.
    let handoff = (task_p50 - fc_p50 - pert_p50).max(0.0);
    let cp = trace.analyze().critical_path;
    out.put("task_ms_p50", task_p50);
    out.put("task_ms_p95", quantile(&tasks, 0.95));
    out.put("forecast_ms_p50", fc_p50);
    out.put("pert_ms_p50", pert_p50);
    out.put("handoff_ms_p50", handoff);
    out.put("unattributed_share", handoff / task_p50);
    out.put("critical_busy_ms", cp.busy_ns as f64 / 1e6);
    out.put("critical_wait_ms", cp.wait_ns as f64 / 1e6);
}

/// Write the run's members in `esse_master`'s workdir layout, with a
/// journal of the records a fleet coordinator would have appended for
/// the same arrivals.
#[allow(clippy::too_many_arguments)]
fn write_capture(
    dir: &Path,
    mean: &[f64],
    prior: &esse::core::subspace::ErrorSubspace,
    outcome: &esse::mtc::MtcOutcome,
    log: &[Logged],
    gen: &PerturbationGenerator<'_>,
    members: usize,
) {
    let fail = |e: std::io::Error| -> ! { die(&format!("capture: {e}")) };
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(e));
    fileio::write_vector(dir.join(files::MEAN), mean).unwrap_or_else(|e| fail(e));
    fileio::write_subspace(dir.join(files::PRIOR), prior).unwrap_or_else(|e| fail(e));
    fileio::write_vector(dir.join(files::CENTRAL), &outcome.central).unwrap_or_else(|e| fail(e));
    fileio::write_subspace(dir.join(files::POSTERIOR), &outcome.subspace)
        .unwrap_or_else(|e| fail(e));
    let seeds: Vec<u64> = (0..members).map(|j| gen.forecast_seed(j)).collect();
    for (seed, _, x) in log {
        if let Some(j) = seeds.iter().position(|s| Some(*s) == *seed) {
            fileio::write_vector(dir.join(files::fc(j)), x).unwrap_or_else(|e| fail(e));
        }
    }
    // Arrival order, as the engine's differ saw it.
    let mut arrivals: Vec<(Duration, u64)> = outcome
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Some(TaskOutcome::Success)))
        .filter_map(|r| Some((r.finished_at?, r.id as u64)))
        .collect();
    arrivals.sort();
    let journal = Journal::create(dir.join("run.journal")).unwrap_or_else(|e| fail(e));
    let append = |rec: JournalRecord| journal.append(&rec).unwrap_or_else(|e| fail(e));
    append(JournalRecord::RunStart { config_hash: 0 });
    append(JournalRecord::CoordinatorStarted { incarnation: 1 });
    for j in 0..members as u64 {
        append(JournalRecord::EpochAdvanced { member: j, epoch: 1 });
    }
    let mut rho = outcome.rho_history.iter();
    for (k, (_, m)) in arrivals.iter().enumerate() {
        append(JournalRecord::MemberCompleted { member: *m, attempts: 1 });
        if (k + 1) % SVD_STRIDE == 0 {
            let r = if k + 1 == SVD_STRIDE { f64::NAN } else { *rho.next().unwrap_or(&f64::NAN) };
            append(JournalRecord::SvdPublished {
                members: (k + 1) as u64,
                version: ((k + 1) / SVD_STRIDE) as u64,
                rho: r,
            });
        }
    }
    append(JournalRecord::RunComplete { members: outcome.members_used as u64 });
}
