//! Coordinator layers replayed on a finished run's own files, plus the
//! worker, transport and critical-path figures of its fleet trace.
//!
//! * ingest: `fileio::read_vector` (read + CRC + decode) of every
//!   completed member, then `ForecastValidator::validate_member` in the
//!   coordinator's decided-prefix order;
//! * journal: every record of `run.journal` appended (with fsync) to a
//!   fresh journal;
//! * estimator: `make_estimator(FullRecompute)` over each prefix the
//!   run checkpointed;
//! * covariance: `DiskTripleBuffer::publish` of the posterior blob.
//!
//! It also recomputes the posterior from the member files and compares
//! it with `posterior.sub`: byte for byte for the fleet, by total
//! variance (`--arrival-order`, the in-process engine, whose differ
//! folds members in arrival order).

use crate::{die, median_ms, ms, quantile, Args, Out};
use esse::cli::files;
use esse::core::subspace::{make_estimator, ErrorSubspace, SubspaceStrategy};
use esse::core::validate::{ForecastValidator, ValidatorConfig};
use esse::fileio;
use esse::linalg::LinalgCtx;
use esse::mtc::journal::encode_subspace_blob;
use esse::mtc::{DiskTripleBuffer, Journal, JournalRecord, JournalState};
use esse_obs::analyze::{LoadedKind, LoadedSpan};
use esse_obs::json::Value;
use esse_obs::LoadedTrace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Mode cutoff and rank cap of every estimate `esse_master` makes.
const REL_TOL: f64 = 1e-4;
const MAX_RANK: usize = 64;

fn or_die<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| die(&format!("{what}: {e}")))
}

/// Member ids in the order the coordinator's differ consumes them.
pub fn member_order(records: &[JournalRecord], arrival: bool) -> Vec<u64> {
    if !arrival {
        // The decided prefix: ascending member index.
        return JournalState::replay(records).completed.iter().map(|&(m, _)| m).collect();
    }
    let mut seen = Vec::new();
    for rec in records {
        if let JournalRecord::MemberCompleted { member, .. } = *rec {
            if !seen.contains(&member) {
                seen.push(member);
            }
        }
    }
    seen
}

/// Subspace over `ids` through the strategy factory `MtcEsse` and
/// `esse_master` both use.
pub fn estimate(
    central: &[f64],
    ids: &[u64],
    xs: &BTreeMap<u64, Vec<f64>>,
    rank: usize,
) -> Option<ErrorSubspace> {
    let mut est = make_estimator(
        &SubspaceStrategy::FullRecompute,
        central.to_vec(),
        REL_TOL,
        rank,
        LinalgCtx::default(),
    );
    for m in ids {
        est.add_member(*m as usize, &xs[m]);
    }
    Some(est.estimate().ok()??.subspace)
}

pub fn run(args: &Args) -> Out {
    let workdir = PathBuf::from(args.str("workdir"));
    let scratch = PathBuf::from(args.str("scratch"));
    let arrival = args.flag("arrival-order");
    let rank: usize = args.num_or("max-rank", MAX_RANK);
    let (pe, _) =
        or_die(esse::cli::build_model(&format!("monterey:{}", args.str("domain"))), "domain");
    or_die(std::fs::create_dir_all(&scratch), "scratch dir");

    let records = or_die(Journal::replay(workdir.join("run.journal")), "journal").records;
    let state = JournalState::replay(&records);
    let order = member_order(&records, arrival);
    let n_final = state.complete.map_or(order.len(), |n| n as usize).min(order.len());
    let mean = or_die(fileio::read_vector(workdir.join(files::MEAN)), "mean");
    let central = or_die(fileio::read_vector(workdir.join(files::CENTRAL)), "central");
    let prior = or_die(fileio::read_subspace(workdir.join(files::PRIOR)), "prior");
    let mut out = Out::default();

    // --- Ingest: read + CRC + decode, then the semantic gate. ---
    let mut reads = Vec::new();
    let mut forecast_bytes = 0u64;
    let mut xs = BTreeMap::new();
    for &m in &order {
        let path = workdir.join(files::fc(m as usize));
        forecast_bytes += std::fs::metadata(&path).map_or(0, |md| md.len());
        let t = Instant::now();
        let x = or_die(fileio::read_vector(&path), "forecast");
        reads.push(ms(t.elapsed()));
        xs.insert(m, x);
    }
    let mut validator = ForecastValidator::for_scenario(
        &pe.grid,
        &[&mean, &central],
        &prior,
        ValidatorConfig::default(),
    );
    let mut validations = Vec::new();
    for (&m, x) in &xs {
        let t = Instant::now();
        std::hint::black_box(validator.validate_member(m, x));
        validations.push(ms(t.elapsed()));
        validator.note_decided(m, x);
    }
    out.put("ingest.read_ms_p50", quantile(&reads, 0.5));
    out.put("ingest.validate_ms_p50", quantile(&validations, 0.5));
    out.put("esse_master.forecast_mb", forecast_bytes as f64 / 1e6);

    // --- Journal: the run's records into a fresh, fsynced journal. ---
    let journal = or_die(Journal::create(scratch.join("replay.journal")), "replay journal");
    let appends: Vec<f64> = records
        .iter()
        .map(|rec| {
            let t = Instant::now();
            or_die(journal.append(rec), "append");
            ms(t.elapsed())
        })
        .collect();
    out.put("journal.append_ms_p50", quantile(&appends, 0.5));
    out.put("journal.append_ms_p95", quantile(&appends, 0.95));
    out.put("journal.appends", appends.len() as f64);

    // --- Estimator: every checkpointed prefix, from decoded members. ---
    let checkpoints: Vec<f64> = state
        .svd_rounds
        .iter()
        .map(|r| {
            let c = (r.members as usize).min(order.len());
            let t = Instant::now();
            std::hint::black_box(estimate(&central, &order[..c], &xs, rank));
            ms(t.elapsed())
        })
        .collect();
    out.put("estimator.checkpoint_ms_p50", quantile(&checkpoints, 0.5));
    out.put("estimator.checkpoint_ms_max", quantile(&checkpoints, 1.0));
    out.put("estimator.checkpoints", checkpoints.len() as f64);
    out.put("workflow.svd_rounds", state.svd_rounds.len() as f64);

    // --- The posterior, recomputed independently, and its publish. ---
    let Some(posterior) = estimate(&central, &order[..n_final], &xs, rank) else {
        die("not enough members for a posterior");
    };
    let written = or_die(std::fs::read(workdir.join(files::POSTERIOR)), "posterior");
    let ok = if arrival {
        let want = or_die(fileio::subspace_from_bytes(&written), "posterior").total_variance();
        let err = (posterior.total_variance() - want).abs() / want.abs();
        out.put("posterior_rel_err", err);
        err <= 1e-9
    } else {
        fileio::subspace_to_bytes(&posterior).as_ref() == written.as_slice()
    };
    out.put("posterior_ok", f64::from(u8::from(ok)));
    let buffer = or_die(DiskTripleBuffer::create(scratch.join("cov")), "covariance buffer");
    let blob = encode_subspace_blob(&posterior);
    let mut version = 0u64;
    out.put(
        "covariance.publish_ms",
        median_ms(5, Duration::from_millis(200), || {
            version += 1;
            or_die(buffer.publish(&blob, version), "publish");
        }),
    );

    if let Some(path) = args.opt("trace") {
        let text = or_die(std::fs::read_to_string(path), "trace");
        fleet_trace(&mut out, &or_die(LoadedTrace::from_jsonl(&text), "trace"));
    }
    let _ = std::fs::remove_dir_all(Path::new(&scratch));
    out
}

fn span_ms(s: &LoadedSpan) -> f64 {
    s.duration_ns() as f64 / 1e6
}

/// Worker phases, the enqueue→claim edge and the critical path of a
/// merged fleet trace. Ingest latency is deliberately not read from the
/// trace's publish→ingest edge: the skew estimator anchors each worker's
/// clock on that ordering, so the edge reads ≈ 0 by construction.
fn fleet_trace(out: &mut Out, trace: &LoadedTrace) {
    let spans = trace.spans();
    let on_worker = |s: &&LoadedSpan| s.lane.starts_with("worker-");
    let tasks: Vec<&LoadedSpan> =
        spans.iter().filter(on_worker).filter(|s| s.cat == "task" && s.name == "task").collect();
    let phases: Vec<&LoadedSpan> =
        spans.iter().filter(on_worker).filter(|s| s.cat == "phase").collect();
    let task_ms: Vec<f64> = tasks.iter().map(|s| span_ms(s)).collect();
    out.put("worker.task_ms_p50", quantile(&task_ms, 0.5));
    out.put("worker.task_ms_p95", quantile(&task_ms, 0.95));
    for name in ["claim", "pert", "pemodel", "publish"] {
        let d: Vec<f64> = phases.iter().filter(|s| s.name == name).map(|s| span_ms(s)).collect();
        out.put(&format!("worker.{name}_ms_p50"), quantile(&d, 0.5));
    }
    // Task time that no child phase claims.
    let (mut total, mut claimed) = (0u64, 0u64);
    for t in &tasks {
        total += t.duration_ns();
        claimed += phases
            .iter()
            .filter(|p| p.lane == t.lane && p.start_ns >= t.start_ns && p.end_ns <= t.end_ns)
            .map(|p| p.duration_ns())
            .sum::<u64>();
    }
    out.put(
        "worker.unattributed_share",
        total.saturating_sub(claimed) as f64 / total.max(1) as f64,
    );

    // enqueue→claim: coordinator `task_seeded` to the rebased start of
    // the worker's task span for the same (member, epoch).
    let mut seeded = BTreeMap::new();
    for e in &trace.events {
        if e.kind == LoadedKind::Instant && e.cat == "pool" && e.name == "task_seeded" {
            if let (Some(m), Some(ep)) = (e.arg_u64("member"), e.arg_u64("epoch")) {
                seeded.insert((m, ep), e.ts_ns);
            }
        }
    }
    let arg = |s: &LoadedSpan, k: &str| s.args.get(k).and_then(Value::as_u64);
    let waits: Vec<f64> = tasks
        .iter()
        .filter_map(|s| {
            let t0 = seeded.get(&(arg(s, "member")?, arg(s, "epoch")?))?;
            Some(s.start_ns.saturating_sub(*t0) as f64 / 1e6)
        })
        .collect();
    out.put("transport.queue_wait_ms_p50", quantile(&waits, 0.5));
    out.put("transport.queue_wait_ms_p95", quantile(&waits, 0.95));

    let cp = trace.analyze().critical_path;
    out.put("critical.busy_ms", cp.busy_ns as f64 / 1e6);
    out.put("critical.coordination_wait_ms", cp.wait_ns as f64 / 1e6);
}
