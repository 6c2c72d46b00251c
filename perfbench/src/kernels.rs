//! Kernel ledger at a workload's real sizes, through the same public
//! functions `crates/bench/benches/*` call: `PeModel::step` and the
//! Gram/SVD of the run's own spread matrix
//! (threaded beside a single-threaded `LinalgCtx` baseline). With
//! `--bin-dir` it also times the `pert` and `pemodel` singletons run
//! alone on the same members, process spawn included, as a worker runs
//! them.

use crate::replay::member_order;
use crate::{die, median_ms, quantile, Args, Out};
use esse::cli::files;
use esse::core::covariance::SpreadAccumulator;
use esse::core::perturb::{PerturbConfig, PerturbationGenerator};
use esse::fileio;
use esse::linalg::{LinalgCtx, Svd};
use esse::mtc::Journal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// `pert` + `pemodel` pairs timed per run.
const FORECASTS: usize = 3;
/// Threads of the parallel `LinalgCtx`: the two cores the workloads use.
const THREADS: usize = 2;

/// Wall ms of one singleton run; a failed run is fatal.
fn time_child(cmd: &mut Command) -> f64 {
    let t = Instant::now();
    let status = cmd.status().unwrap_or_else(|e| die(&format!("spawn {cmd:?}: {e}")));
    if !status.success() {
        die(&format!("{cmd:?} failed: {status}"));
    }
    crate::ms(t.elapsed())
}

pub fn run(args: &Args) -> Out {
    let workdir = PathBuf::from(args.str("workdir"));
    let hours: f64 = args.num("hours");
    let base_seed: u64 = args.num("base-seed");
    let (pe, st0) = esse::cli::build_model(&format!("monterey:{}", args.str("domain")))
        .unwrap_or_else(|e| die(&e));
    let read = |name: &str| {
        fileio::read_vector(workdir.join(name)).unwrap_or_else(|e| die(&e.to_string()))
    };
    let mut out = Out::default();

    let mut st = st0.clone();
    let mut rng = StdRng::seed_from_u64(1);
    out.put(
        "ocean.step_ms",
        median_ms(20, Duration::from_millis(300), || pe.step(&mut st, Some(&mut rng)).is_ok()),
    );

    let prior =
        fileio::read_subspace(workdir.join(files::PRIOR)).unwrap_or_else(|e| die(&e.to_string()));
    let gen = PerturbationGenerator::new(
        &prior,
        PerturbConfig { white_noise: 0.0, base_seed, frozen_indices: Vec::new() },
    );
    if let Some(bin) = args.opt("bin-dir").map(Path::new) {
        let scratch = PathBuf::from(args.str("scratch"));
        let copy = |name: &str| {
            std::fs::copy(workdir.join(name), scratch.join(name))
                .unwrap_or_else(|e| die(&format!("stage {name}: {e}")))
        };
        std::fs::create_dir_all(&scratch).unwrap_or_else(|e| die(&e.to_string()));
        copy(files::MEAN);
        copy(files::PRIOR);
        let (mut pert, mut pemodel) = (Vec::new(), Vec::new());
        for j in 0..FORECASTS {
            pert.push(time_child(
                Command::new(bin.join("pert")).arg("--workdir").arg(&scratch).args([
                    "--member",
                    &j.to_string(),
                    "--base-seed",
                    &base_seed.to_string(),
                ]),
            ));
            pemodel.push(time_child(
                Command::new(bin.join("pemodel"))
                    .arg("--workdir")
                    .arg(&scratch)
                    .args(["--domain", &format!("monterey:{}", args.str("domain"))])
                    .args(["--hours", &hours.to_string(), "--member", &j.to_string()])
                    .args(["--seed", &gen.forecast_seed(j).to_string()]),
            ));
        }
        let _ = std::fs::remove_dir_all(&scratch);
        out.put("worker.pert_standalone_ms", quantile(&pert, 0.5));
        out.put("worker.pemodel_standalone_ms", quantile(&pemodel, 0.5));
    }

    // The largest spread of the run: every member of the posterior.
    let records = Journal::replay(workdir.join("run.journal"))
        .unwrap_or_else(|e| die(&e.to_string()))
        .records;
    let order = member_order(&records, args.flag("arrival-order"));
    let mut acc = SpreadAccumulator::new(read(files::CENTRAL));
    for m in &order {
        acc.add_member(*m as usize, &read(&files::fc(*m as usize)));
    }
    let spread = acc.snapshot().matrix;
    let min = Duration::from_millis(300);
    out.put("linalg.gram_ms", median_ms(3, min, || LinalgCtx::with_threads(THREADS).gram(&spread)));
    out.put("linalg.gram_ms_1t", median_ms(3, min, || LinalgCtx::serial().gram(&spread)));
    out.put("linalg.svd_ms", median_ms(3, min, || Svd::compute(&spread).is_ok()));
    out
}
