//! Transport layer at a workload's payload size: `TaskPool` claim,
//! lease renewal and result publish on disk, and the same claim and
//! payload publish through `TcpTransport` against a loopback
//! `NetServer` (the `pool_bench` set-up).

use crate::{die, ms, quantile, Args, Out};
use esse::core::durable::crc32;
use esse::mtc::pool::{Heartbeat, PoolManifest, ResultRecord, TaskPool, TaskSpec};
use esse::mtc::transport::{ClaimOutcome, PoolTransport};
use esse::net::server::{NetMetrics, NetServer, ServerConfig};
use esse::net::{TcpConfig, TcpTransport};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn or_die<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| die(&format!("{what}: {e}")))
}

fn manifest() -> PoolManifest {
    PoolManifest {
        domain: "monterey:6,5,4".into(),
        hours: 1.0,
        white_noise: 0.0,
        base_seed: 0x5EED,
        lease_ms: 60_000,
        config_hash: 0xBE4C,
        trace_run_id: 0,
    }
}

fn fresh_pool(dir: &Path, tasks: u64) -> TaskPool {
    let _ = std::fs::remove_dir_all(dir);
    or_die(std::fs::create_dir_all(dir), "pool dir");
    or_die(std::fs::write(dir.join("mean.vec"), b"perfbench mean"), "mean");
    or_die(std::fs::write(dir.join("prior.sub"), b"perfbench prior"), "prior");
    let pool = or_die(TaskPool::create(dir, &manifest()), "pool");
    for member in 0..tasks {
        let spec = TaskSpec { member, epoch: 1, seed: member ^ 0x5EED, parent_span: 0 };
        or_die(pool.seed(&spec), "seed task");
    }
    pool
}

fn record(spec: &TaskSpec, payload: &[u8]) -> ResultRecord {
    ResultRecord {
        member: spec.member,
        epoch: spec.epoch,
        code: 0,
        pid: std::process::id(),
        fc_crc: crc32(payload),
        reason: 0,
    }
}

pub fn run(args: &Args) -> Out {
    let payload_len: usize = args.num("payload");
    let tasks: u64 = args.num("tasks");
    let scratch = std::path::PathBuf::from(args.str("scratch"));
    let payload: Vec<u8> = (0..payload_len).map(|i| (i * 131) as u8).collect();
    let mut out = Out::default();

    // Disk: claims are atomic renames, renewals and publishes small
    // framed files.
    let pool = fresh_pool(&scratch.join("disk"), tasks);
    let (mut claims, mut renews, mut publishes) = (Vec::new(), Vec::new(), Vec::new());
    for name in or_die(pool.pending_names(), "pending") {
        let t = Instant::now();
        let Some(spec) = or_die(pool.try_claim(&name), "claim") else { continue };
        claims.push(ms(t.elapsed()) * 1e3);
        let t = Instant::now();
        or_die(pool.heartbeat(&spec, &Heartbeat { pid: std::process::id(), counter: 1 }), "renew");
        renews.push(ms(t.elapsed()) * 1e3);
        let rec = record(&spec, &payload);
        let t = Instant::now();
        or_die(pool.publish_result(&rec), "publish");
        publishes.push(ms(t.elapsed()) * 1e3);
        or_die(pool.release_claim(&spec), "release");
    }
    out.put("pool.claim_us", quantile(&claims, 0.5));
    out.put("pool.renew_us", quantile(&renews, 0.5));
    out.put("pool.publish_us", quantile(&publishes, 0.5));

    // TCP: the same claim, and the forecast streamed in DATA chunks.
    let dir = scratch.join("tcp");
    let mut server = or_die(
        NetServer::start(ServerConfig {
            pool: fresh_pool(&dir, tasks),
            manifest: manifest(),
            workdir: dir.clone(),
            listen: "127.0.0.1:0".into(),
            generation: 1,
            metrics: NetMetrics::detached(),
            recorder: Arc::new(esse_obs::NULL),
        }),
        "loopback server",
    );
    let tcp = or_die(
        TcpTransport::connect(TcpConfig::new(server.local_addr().to_string(), 0)),
        "connect",
    );
    let (mut claims, mut publishes) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        let ClaimOutcome::Task(spec) = or_die(tcp.claim_next(), "net claim") else { break };
        claims.push(ms(t.elapsed()) * 1e3);
        let t = Instant::now();
        or_die(tcp.publish(&record(&spec, &payload), Some(&payload)), "net publish");
        publishes.push(ms(t.elapsed()));
        or_die(tcp.release(&spec), "net release");
    }
    drop(tcp);
    server.stop();
    out.put("net.claim_us", quantile(&claims, 0.5));
    out.put("net.publish_ms", quantile(&publishes, 0.5));
    let _ = std::fs::remove_dir_all(&scratch);
    out
}
