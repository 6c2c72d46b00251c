#!/usr/bin/env python3
"""ESSE-MTC benchmark: time to a journalled posterior, and the layer ledger.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the
coordinator, worker and singleton binaries and the `perfbench` layer
probes (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`). The run then repeats the workload until `--seconds`
have passed, checks every posterior, and prints one JSON object as the
last line of standard output: the end-to-end metrics with `--trace 0`,
the per-layer ledger with `--trace 1`. See perfbench/README.md for what
each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import platform
import queue
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

# Each workload maps `--seed` onto one of its vetted base seeds. Every
# vetted seed converges at the same ensemble size with no member
# failed, quarantined or lost, so all seeds do the same work; the value
# is the posterior's SHA-256 (fleet) or total variance (engine), which
# a correct run must reproduce.
WORKLOADS = {
    "small_disk": {
        "kind": "fleet",
        "transport": "disk",
        "domain": "14,14,3",
        "hours": 3,
        "initial": 8,
        "max": 64,
        "tolerance": 0.002,
        "members": 56,
        "expected": {
            1: "01c8256c5e4f6612e9f6f1113069180317d05e6b42161328d94a93251382c1ea",
            2: "61b3263c7575d2ee00f2b45ee1f8ba3190b31c7c06e3d8cdef9618202cc33e50",
            6: "994a1cad294c28637164fe708688697cd2c2a2ad15a38fdf393a9d9e7ef9867d",
            11: "e196e9cff92be46598d1dcfa0d7d44222bcdc16d07abf7f60994e76dd2c55730",
            19: "571e7bf4ab57c1deeb4fc247d561265cbb1bb64ad0d6b67d2a2d961db99327b5",
            42: "4022f1a28467b1f0d4aeb1074b994d2af762a8e3672779073afaf110ca7ec366",
            26: "f8c9898c2c913aae847fdaa9da1dfb14ace33405dde6d3e555a0dd70c18179b6",
            24301: "429037d3649e2400e35c07dac81e33d123da644487b2d1aacd20e0080b0ab662",
        },
    },
    "wide_tcp": {
        "kind": "fleet",
        "transport": "tcp",
        "domain": "32,32,6",
        "hours": 1,
        "initial": 8,
        "max": 96,
        "tolerance": 0.002,
        "members": 72,
        "expected": {
            2: "3bdacf8d7c580725bf7a4cda60b48914dc398b89b664b121230e7d8a3474d51f",
            5: "bdc35169783f13f82420bf941a5de280d0a9eedf6cff0c977cafd11bd2980624",
            8: "f36eac95921780dad8b86e841381bfbc9efa1196f235a5d25fc4659f16187d97",
            13: "d2f84b3d844ee5404c87f8d171ef8f032d788d6b6f09df47e0ad0d74b8ec47f7",
            26: "60f9dbb30e5033f6ba051081ca4b3275df9e9bdf2f47cc3a9e853c5cbd6ed734",
            34: "e6efb2a4384b6261b2a4f4dad01618a04f24c424c8afa5eefda3dca0bc306098",
            44: "2513d071339531a2e329e07867ca29a520bd41aec785137f1d17efcc5228fc76",
            24301: "1a743c044863d1235de473f7f3f09c42885331960a682d858cefce00d310274f",
        },
    },
    "engine_pe": {
        "kind": "engine",
        "domain": "24,24,5",
        "hours": 6,
        "members": 64,
        "workers": 1,
        "expected": {
            1: 96.49726405529525,
            2: 95.21621559164696,
            3: 90.67031753287964,
            4: 99.58021384932226,
            5: 99.50195007140215,
            6: 98.9474995469331,
            7: 90.41413118355965,
            8: 94.33246626901511,
        },
    },
}

# The engine checks its posterior by total variance: members arrive in
# a different order each run, so the last bits of the modes differ,
# while the summed variance agrees to about ten digits.
ENGINE_REL_TOL = 1e-9

END_TO_END = {
    "makespan_s": "s",
    "first_estimate_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "esse_master.cpu_s": "s",
    "esse_master.read_mb": "MB",
    "esse_master.write_mb": "MB",
    "esse_master.forecast_mb": "MB",
    "esse_master.read_ratio": "ratio",
    "ingest.read_ms_p50": "ms",
    "ingest.validate_ms_p50": "ms",
    "journal.append_ms_p50": "ms",
    "journal.append_ms_p95": "ms",
    "journal.appends": "count",
    "estimator.checkpoint_ms_p50": "ms",
    "estimator.checkpoint_ms_max": "ms",
    "estimator.checkpoints": "count",
    "covariance.publish_ms": "ms",
    "pool.claim_us": "us",
    "pool.renew_us": "us",
    "pool.publish_us": "us",
    "net.claim_us": "us",
    "net.publish_ms": "ms",
    "transport.queue_wait_ms_p50": "ms",
    "transport.queue_wait_ms_p95": "ms",
    "worker.task_ms_p50": "ms",
    "worker.task_ms_p95": "ms",
    "worker.claim_ms_p50": "ms",
    "worker.pert_ms_p50": "ms",
    "worker.pemodel_ms_p50": "ms",
    "worker.publish_ms_p50": "ms",
    "worker.unattributed_share": "share",
    "worker.pert_standalone_ms": "ms",
    "worker.pemodel_standalone_ms": "ms",
    "worker.cpu_s": "s",
    "ocean.step_ms": "ms",
    "ocean.forecast_ms_p50": "ms",
    "linalg.gram_ms": "ms",
    "linalg.gram_ms_1t": "ms",
    "linalg.svd_ms": "ms",
    "workflow.svd_rounds": "count",
    "workflow.queue_wait_ms_p50": "ms",
    "critical.busy_ms": "ms",
    "critical.coordination_wait_ms": "ms",
    "obs.trace_overhead_share": "share",
    "failed_share": "share",
}

REP_TIMEOUT_S = 120
# Set-up takes tens of milliseconds and varies from launch to launch, so
# a run measures it this many extra times and reports the median.
SETUPS_PER_RUN = 8
CLK_TCK = os.sysconf("SC_CLK_TCK")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """A run that cannot produce a result (build failure, hung process)."""


def build(root, target):
    """Release-build the binaries the workloads run, offline."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        ("Cargo.toml", ["-p", "esse", "--bins"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "kernel": platform.release(),
        "rustc": rustc,
    }


def settle():
    """Flush the previous run's dirty pages before the next coordinator
    starts, so its set-up fsyncs do not wait behind that writeback."""
    os.sync()


def children_cpu():
    """User + system CPU of every reaped descendant, in seconds."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def proc_counters(pid):
    """CPU seconds and I/O of an exited but not yet reaped process."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    with open(f"/proc/{pid}/io") as f:
        io = dict(l.split(":") for l in f.read().splitlines() if ":" in l)
    return {
        "cpu_s": (int(fields[11]) + int(fields[12])) / CLK_TCK,
        "read_mb": int(io["rchar"]) / 1e6,
        "write_mb": int(io["wchar"]) / 1e6,
    }


def vm_hwm_mb(pid):
    """Peak resident set of a live process, 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as f:
            line = next(l for l in f if l.startswith("VmHWM:"))
        return int(line.split()[1]) / 1024
    except (OSError, StopIteration):
        return 0.0


def reap(procs, grace_s=30):
    for p in procs:
        try:
            p.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


class Bench:
    def __init__(self, root, target, workload, seed, seconds):
        self.bin = os.path.join(target, "release")
        self.name = workload
        self.w = WORKLOADS[workload]
        vetted = sorted(self.w["expected"])
        self.base_seed = vetted[seed % len(vetted)]
        self.seconds = seconds
        self.work = os.path.join(root, ".bench_run", f"{workload}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def exe(self, name):
        return os.path.join(self.bin, name)

    def probe(self, *args):
        """Run a perfbench layer probe; its last stdout line is JSON."""
        out = subprocess.run(
            [self.exe("esse-perfbench")] + [str(a) for a in args],
            capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
        if out.returncode != 0:
            raise BenchError(f"probe {args[0]} failed: {out.stderr.strip()}")
        return json.loads(out.stdout.strip().splitlines()[-1])

    def rep_dir(self, kind):
        """A fresh directory per run kind; the last traced run's is kept
        for the layer probes."""
        work = os.path.join(self.work, kind)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        return work

    def problem(self, msg):
        self.problems.append(msg)
        log(f"INCORRECT: {msg}")

    # --- Fleet workloads: esse_master + esse_worker processes. ---

    def master_cmd(self, wd, local_workers=2):
        w = self.w
        cmd = [
            self.exe("esse_master"), "--workdir", wd,
            "--domain", f"monterey:{w['domain']}", "--hours", str(w["hours"]),
            "--initial", str(w["initial"]), "--max", str(w["max"]),
            "--tolerance", str(w["tolerance"]), "--base-seed", str(self.base_seed),
        ]
        if w["transport"] == "disk":
            return cmd + ["--workers", str(local_workers)]
        return cmd + ["--workers", "0", "--listen", "127.0.0.1:0"]

    def fleet_setup(self):
        """One more coordinator set-up: spawn, wait for the set-up line,
        kill. Local workers are spawned only after that line, so the
        extra launches run without them and leave no children behind."""
        wd = os.path.join(self.rep_dir("setup"), "run")
        settle()
        t0 = time.monotonic()
        master = subprocess.Popen(self.master_cmd(wd, local_workers=0), stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
        watchdog = threading.Timer(REP_TIMEOUT_S, master.kill)
        watchdog.start()
        setup = None
        try:
            for line in master.stdout:
                if "starting with" in line:
                    setup = time.monotonic() - t0
                    break
        finally:
            watchdog.cancel()
            master.kill()
            master.wait()
            master.stdout.close()
        if setup is None:
            raise BenchError("esse_master exited before finishing its set-up")
        return setup

    def fleet_rep(self, traced):
        work = self.rep_dir("traced" if traced else "plain")
        wd = os.path.join(work, "run")
        trace = os.path.join(work, "trace.jsonl")
        cmd = self.master_cmd(wd)
        if traced:
            cmd += ["--trace-out", trace]
        stderr = open(os.path.join(work, "master.err"), "w")
        settle()
        cpu0 = children_cpu()
        t0 = time.monotonic()
        master = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr, text=True)
        lines, rss = queue.Queue(), []

        def reader():
            # Timestamp each line as it arrives, and read the
            # coordinator's high-water RSS while it is alive: each ρ line
            # follows a checkpoint SVD, the summary line the final one.
            for line in master.stdout:
                lines.put((time.monotonic(), line))
                rss.append(vm_hwm_mb(master.pid))
            lines.put(None)

        threading.Thread(target=reader, daemon=True).start()
        workers, rep = [], {"traced": traced, "trace": trace, "workdir": wd}
        summary = ""
        try:
            while True:
                try:
                    item = lines.get(timeout=REP_TIMEOUT_S)
                except queue.Empty:
                    raise BenchError("esse_master produced no output for too long")
                if item is None:
                    break
                now, line = item
                summary += line
                if "listening for remote workers on" in line:
                    addr = line.split(" on ")[-1].strip()
                    for i in (1, 2):
                        workers.append(subprocess.Popen(
                            [self.exe("esse_worker"), "--connect", addr,
                             "--scratch", os.path.join(work, f"scratch-{i}"),
                             "--worker-id", str(i)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                        ))
                elif "starting with" in line:
                    rep.setdefault("setup_s", now - t0)
                elif " rho=" in line:
                    rep.setdefault("first_estimate_s", now - t0)
            # Wait for the exit but leave the coordinator unreaped, so
            # its own CPU and I/O counters can still be read.
            os.waitid(os.P_PID, master.pid, os.WEXITED | os.WNOWAIT)
            rep["makespan_s"] = time.monotonic() - t0
            rep["proc"] = proc_counters(master.pid)
            rep["proc"]["rss_mb"] = max(rss, default=0.0)
            code = master.wait()
        finally:
            if master.poll() is None:
                master.kill()
                master.wait()
            reap(workers)
            stderr.close()
        rep["cpu_s"] = children_cpu() - cpu0
        self.check_fleet(rep, code, summary)
        return rep

    def check_fleet(self, rep, code, summary):
        w = self.w
        seeded = re.search(r"tasks seeded (\d+)", summary)
        attempted = int(seeded.group(1)) if seeded else w["max"]
        self.attempted += attempted
        done = re.search(r"done — (\d+) members \((\d+) failed\)", summary)
        quarantine = re.search(r"quarantined (\d+) member\(s\), replaced \d+, lost (\d+)", summary)
        posterior = os.path.join(rep["workdir"], "posterior.sub")
        digest = None
        if os.path.exists(posterior):
            with open(posterior, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
        rep["digest"] = digest
        want = w["expected"][self.base_seed]
        why = None
        if code != 0:
            why = f"esse_master exited {code}"
        elif digest is None or not done or not quarantine:
            why = "no posterior or no run summary"
        elif "setup_s" not in rep or "first_estimate_s" not in rep:
            why = "no set-up or first-estimate line"
        elif int(done.group(1)) != w["members"]:
            why = f"converged at N={done.group(1)}, expected {w['members']}"
        elif digest != want:
            why = f"posterior digest {digest[:16]} != expected {want[:16]}"
        if why:
            with open(os.path.join(os.path.dirname(rep["workdir"]), "master.err")) as f:
                tail = "".join(f.readlines()[-5:])
            self.problem(f"base seed {self.base_seed}: {why}\n{tail}")
            self.failed += attempted
            return
        self.failed += int(done.group(2)) + int(quarantine.group(1)) + int(quarantine.group(2))

    # --- engine_pe: in-process MtcEsse, one fresh process per run. ---

    def engine_rep(self, traced):
        w = self.w
        capture = os.path.join(self.rep_dir("traced" if traced else "plain"), "capture")
        args = ["engine", "--domain", w["domain"], "--hours", w["hours"],
                "--members", w["members"], "--workers", w["workers"], "--seed", self.base_seed,
                "--setups", SETUPS_PER_RUN]
        if traced:
            args += ["--capture", capture]
        cpu0 = children_cpu()
        rep = self.probe(*args)
        rep["cpu_s"] = children_cpu() - cpu0
        rep["traced"] = traced
        rep["workdir"] = capture
        self.attempted += int(rep["members_attempted"])
        want = w["expected"][self.base_seed]
        why = None
        if rep["members_used"] != w["members"] or rep["quarantined"] or rep["members_failed"]:
            why = f"used {rep['members_used']} members, {rep['members_failed']} failed, " \
                  f"{rep['quarantined']} quarantined"
        elif abs(rep["total_variance"] - want) > ENGINE_REL_TOL * abs(want):
            why = f"total variance {rep['total_variance']!r} != expected {want!r}"
        if why:
            self.problem(f"seed {self.base_seed}: {why}")
            self.failed += int(rep["members_attempted"])
        else:
            self.failed += int(rep["members_failed"] + rep["quarantined"])
        return rep

    def rep(self, traced):
        return (self.fleet_rep if self.w["kind"] == "fleet" else self.engine_rep)(traced)

    # --- Runs. ---

    def repeat(self, pattern):
        """Cycle through `pattern` (traced flags), at least once through,
        while another run would end nearer to `--seconds` than stopping."""
        reps, start = [], time.monotonic()
        while True:
            rep = self.rep(pattern[len(reps) % len(pattern)])
            log(f"run {len(reps) + 1}{' (traced)' if rep['traced'] else ''}: "
                + ", ".join(f"{k} {rep[k]:.4f}" for k in END_TO_END if isinstance(rep.get(k), float)))
            reps.append(rep)
            spent = time.monotonic() - start
            if len(reps) >= len(pattern) and spent + spent / len(reps) / 2 > self.seconds:
                return reps

    def consistent(self, reps):
        if self.w["kind"] == "fleet":
            digests = {r["digest"] for r in reps}
            if len(digests) > 1:
                self.problem(f"posteriors differ between runs of one seed: {sorted(map(str, digests))}")
        else:
            tv = [r["total_variance"] for r in reps]
            if max(tv) - min(tv) > ENGINE_REL_TOL * abs(tv[0]):
                self.problem(f"total variance differs between runs: {tv}")

    def end_to_end(self):
        reps = self.repeat([False])
        self.consistent(reps)
        med = lambda key: statistics.median(key(r) for r in reps)
        setups = [r["setup_s"] for r in reps]
        if self.w["kind"] == "fleet":
            rss = lambda r: r["proc"]["rss_mb"]
            setups += [self.fleet_setup() for _ in range(SETUPS_PER_RUN)]
        else:
            rss = lambda r: r["peak_rss_mb"]
        log(f"{len(reps)} run(s) of {self.name}, base seed {self.base_seed}")
        return {
            "makespan_s": med(lambda r: r["makespan_s"]),
            "first_estimate_s": med(lambda r: r["first_estimate_s"]),
            "setup_s": statistics.median(setups),
            "cpu_s": med(lambda r: r["cpu_s"]),
            "peak_rss_mb": med(rss),
        }

    def per_layer(self):
        reps = self.repeat([False, True])
        self.consistent(reps)
        plain = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        med = lambda rs, key: statistics.median(key(r) for r in rs)
        span = med(plain, lambda r: r["makespan_s"])
        m = {"obs.trace_overhead_share": (med(traced, lambda r: r["makespan_s"]) - span) / span}
        last = traced[-1]
        scratch = os.path.join(self.work, "probe")
        fleet = self.w["kind"] == "fleet"
        order = [] if fleet else ["--arrival-order"]
        replay = self.probe(
            "replay", "--workdir", last["workdir"], "--domain", self.w["domain"],
            "--scratch", scratch, *order,
            *(["--trace", last["trace"]] if fleet else ["--max-rank", 100]),
        )
        if replay["posterior_ok"] != 1:
            self.problem("posterior recomputed from the run's member files does not match")
        kernels = self.probe(
            "kernels", "--workdir", last["workdir"], "--domain", self.w["domain"],
            "--hours", self.w["hours"], "--base-seed", self.base_seed, *order,
            "--bin-dir", self.bin, "--scratch", scratch,
        )
        payload = os.path.getsize(os.path.join(last["workdir"], "fc_0.vec"))
        transport = self.probe("transport", "--payload", payload, "--tasks", 64, "--scratch", scratch)
        for probe in (replay, kernels, transport):
            m.update({k: v for k, v in probe.items() if k in PER_LAYER})
        cpu = med(plain, lambda r: r["cpu_s"])
        if fleet:
            master_cpu = med(plain, lambda r: r["proc"]["cpu_s"])
            m["esse_master.cpu_s"] = master_cpu
            m["esse_master.read_mb"] = med(plain, lambda r: r["proc"]["read_mb"])
            m["esse_master.write_mb"] = med(plain, lambda r: r["proc"]["write_mb"])
            m["worker.cpu_s"] = cpu - master_cpu
            # The in-process engine (`esse-mtc::workflow`) on the same
            # scenario and members, one worker thread, traced with the
            # timing wrapper around `ForecastModel`.
            engine = self.probe(
                "engine", "--domain", self.w["domain"], "--hours", self.w["hours"],
                "--members", self.w["members"], "--workers", 1, "--seed", self.base_seed,
                "--capture", os.path.join(scratch, "engine"),
            )
            if engine["members_used"] != self.w["members"] or engine["quarantined"]:
                self.problem(f"in-process engine used {engine['members_used']} members, "
                             f"quarantined {engine['quarantined']}")
            m["workflow.svd_rounds"] = engine["svd_rounds"]
            m["workflow.queue_wait_ms_p50"] = engine["queue_wait_ms_p50"]
            m["ocean.forecast_ms_p50"] = engine["forecast_ms_p50"]
        else:
            # The engine process is its own coordinator: its calling
            # thread runs the differ/SVD loop, worker threads the members.
            m["esse_master.cpu_s"] = med(plain, lambda r: r["coordinator_cpu_s"])
            m["esse_master.read_mb"] = med(plain, lambda r: r["read_mb"])
            m["esse_master.write_mb"] = med(plain, lambda r: r["write_mb"])
            m["worker.cpu_s"] = med(plain, lambda r: r["worker_cpu_s"])
            m["worker.task_ms_p50"] = last["task_ms_p50"]
            m["worker.task_ms_p95"] = last["task_ms_p95"]
            m["worker.claim_ms_p50"] = last["claim_ms_p50"]
            m["worker.pert_ms_p50"] = last["pert_ms_p50"]
            m["worker.pemodel_ms_p50"] = last["forecast_ms_p50"]
            m["worker.publish_ms_p50"] = last["handoff_ms_p50"]
            m["worker.unattributed_share"] = last["unattributed_share"]
            m["ocean.forecast_ms_p50"] = last["forecast_ms_p50"]
            m["transport.queue_wait_ms_p50"] = last["queue_wait_ms_p50"]
            m["transport.queue_wait_ms_p95"] = last["queue_wait_ms_p95"]
            m["workflow.queue_wait_ms_p50"] = last["queue_wait_ms_p50"]
            m["workflow.svd_rounds"] = last["svd_rounds"]
            m["critical.busy_ms"] = last["critical_busy_ms"]
            m["critical.coordination_wait_ms"] = last["critical_wait_ms"]
        m["esse_master.read_ratio"] = m["esse_master.read_mb"] / m["esse_master.forecast_mb"]
        m["failed_share"] = self.failed / max(self.attempted, 1)
        log(f"{len(plain)} untraced + {len(traced)} traced run(s) of {self.name}, "
            f"base seed {self.base_seed}")
        return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("Cargo.toml", os.path.join("src", "bin", "esse_master.rs"),
                 os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, need)):
            log(f"{need} not found: run from the root of an ESSE-MTC source checkout")
            return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    bench = Bench(root, target, args.workload, args.seed, args.seconds)
    try:
        build(root, target)
        values = bench.per_layer() if args.trace else bench.end_to_end()
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"error: {e}")
        return 3
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    failed_share = bench.failed / max(bench.attempted, 1)
    for k, v in metrics.items():
        log(f"  {k:32s} {v['value']:14.6g} {v['unit']}")
    if not args.trace:
        log(f"  {'failed_share':32s} {failed_share:14.6g} share")
    correct = not bench.problems
    print(json.dumps({"machine": machine(), "workload": args.workload,
                      "base_seed": bench.base_seed, "failed_share": failed_share}))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
