//! Layer probes for the ESSE-MTC benchmark.
//!
//! `run.py` owns the end-to-end clocks (process spawn, stdout lines,
//! `/proc` of the coordinator). This binary times the layers *from
//! outside*: it calls each layer's public functions on a workload's own
//! inputs and analyses the spans the program already emits. It adds no
//! instrumentation to the program itself.
//!
//! ```text
//! perfbench engine    --domain NX,NY,NZ --hours H --members N --workers W \
//!                     --seed S [--setups K] [--capture DIR]
//! perfbench replay    --workdir DIR --domain NX,NY,NZ --scratch DIR \
//!                     [--trace FILE.jsonl] [--arrival-order] [--max-rank R]
//! perfbench kernels   --workdir DIR --domain NX,NY,NZ --hours H --base-seed S \
//!                     [--arrival-order] [--bin-dir DIR --scratch DIR]
//! perfbench transport --payload BYTES --tasks N --scratch DIR
//! ```
//!
//! Every subcommand prints one JSON object of metrics as its last line
//! of standard output.

mod engine;
mod kernels;
mod replay;
mod transport;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// `--key value` pairs plus bare `--flag`s.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i].trim_start_matches("--").to_string();
            match argv.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    map.insert(key, v.clone());
                    i += 2;
                }
                _ => {
                    map.insert(key, String::new());
                    i += 1;
                }
            }
        }
        Args(map)
    }

    pub fn str(&self, key: &str) -> String {
        self.0.get(key).cloned().unwrap_or_else(|| die(&format!("missing --{key}")))
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str) -> T {
        self.str(key).parse().unwrap_or_else(|_| die(&format!("bad --{key}")))
    }

    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.0.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| die(&format!("bad --{key}"))),
            None => default,
        }
    }

    pub fn opt(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

pub fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

/// Metrics in insertion order, printed as one JSON object.
#[derive(Default)]
pub struct Out(Vec<(String, f64)>);

impl Out {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn print(&self) {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| {
                let v = if v.is_finite() { format!("{v}") } else { "null".into() };
                format!("\"{k}\": {v}")
            })
            .collect();
        println!("{{{}}}", body.join(", "));
    }
}

/// Nearest-rank percentile of `samples` (any order), `q` in [0, 1].
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[((q * (s.len() - 1) as f64).round() as usize).min(s.len() - 1)]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time (ms) of `f` over at least `min_reps` calls and at
/// least `min_total` of accumulated time.
pub fn median_ms<T>(min_reps: usize, min_total: Duration, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed() < min_total {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(ms(t.elapsed()));
    }
    quantile(&samples, 0.5)
}

/// `(utime + stime)` seconds from a `/proc/.../stat` line. Fields are
/// counted after the parenthesised command name, which may hold spaces.
pub fn stat_cpu_s(path: &str) -> f64 {
    let raw = std::fs::read_to_string(path).unwrap_or_default();
    let rest = raw.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3, utime 14, stime 15 (1-based, man 5 proc).
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// A `key: value` field of `/proc/self/status` or `/proc/self/io`.
pub fn proc_field(path: &str, key: &str) -> f64 {
    let raw = std::fs::read_to_string(path).unwrap_or_default();
    raw.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        die("usage: perfbench engine|replay|kernels|transport --help");
    };
    let args = Args::parse(&argv[1..]);
    let out = match cmd.as_str() {
        "engine" => engine::run(&args),
        "replay" => replay::run(&args),
        "kernels" => kernels::run(&args),
        "transport" => transport::run(&args),
        other => die(&format!("unknown subcommand {other}")),
    };
    out.print();
}
