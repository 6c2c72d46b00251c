//! Shared helpers for the benchmark harness binaries: table formatting
//! and paper-vs-measured comparison rows.

/// One table row comparing a paper value with a reproduced value.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Row label.
    pub label: String,
    /// Value reported by the paper.
    pub paper: f64,
    /// Value this reproduction computes.
    pub ours: f64,
    /// Unit string.
    pub unit: &'static str,
}

impl CompareRow {
    /// Relative deviation |ours − paper| / |paper|.
    pub fn rel_error(&self) -> f64 {
        if self.paper == 0.0 {
            return 0.0;
        }
        (self.ours - self.paper).abs() / self.paper.abs()
    }
}

/// Render rows as an aligned text table with relative errors.
pub fn render_table(title: &str, rows: &[CompareRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<34} {:>12} {:>12} {:>8}\n",
        "case", "paper", "reproduced", "rel.err"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>9.2} {:<2} {:>9.2} {:<2} {:>7.1}%\n",
            r.label,
            r.paper,
            r.unit,
            r.ours,
            r.unit,
            100.0 * r.rel_error()
        ));
    }
    out
}

/// Helpers the process-level chaos harnesses (`crash_recovery`,
/// `worker_chaos`) share: flag parsing, sibling binaries, a seeded kill
/// stream and the journal and posterior invariants they gate on.
pub mod harness {
    use esse_mtc::journal::{Journal, JournalRecord};
    use std::collections::{HashMap, HashSet};
    use std::path::{Path, PathBuf};

    /// `--key value` / bare `--flag` arguments as a map (flags map to "").
    pub fn parse_args(argv: &[String]) -> HashMap<String, String> {
        let mut map = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                let val = argv.get(i + 1).filter(|v| !v.starts_with("--"));
                map.insert(key.to_string(), val.cloned().unwrap_or_default());
                i += if val.is_some() { 2 } else { 1 };
            } else {
                i += 1;
            }
        }
        map
    }

    /// Parse `key`, falling back to `default` when absent or malformed.
    pub fn get_or<T: std::str::FromStr>(
        args: &HashMap<String, String>,
        key: &str,
        default: T,
    ) -> T {
        args.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// A binary built next to the running one.
    pub fn sibling(name: &str) -> PathBuf {
        let mut exe = std::env::current_exe().expect("current exe path");
        exe.set_file_name(name);
        exe
    }

    /// Deterministic stream for kill schedules.
    pub fn xorshift64(mut x: u64) -> u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }

    /// No member completes twice without a quarantine in between: a
    /// completed member is never re-run and a result never ingested
    /// twice. Returns the journal's record count.
    pub fn assert_no_reruns(journal: &Path) -> Result<usize, String> {
        let replay = Journal::replay(journal).map_err(|e| format!("replay {journal:?}: {e}"))?;
        let mut completed: HashSet<u64> = HashSet::new();
        for rec in &replay.records {
            match rec {
                JournalRecord::MemberCompleted { member, .. } if !completed.insert(*member) => {
                    return Err(format!(
                        "member {member} recorded MemberCompleted twice without quarantine \
                         — a completed member was re-run or a result ingested twice"
                    ));
                }
                JournalRecord::MemberQuarantined { member, .. } => {
                    completed.remove(member);
                }
                _ => {}
            }
        }
        Ok(replay.records.len())
    }

    /// The posterior bytes a run wrote.
    pub fn read_posterior(workdir: &Path) -> Result<Vec<u8>, String> {
        std::fs::read(workdir.join("posterior.sub"))
            .map_err(|e| format!("read {}/posterior.sub: {e}", workdir.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_error_computed() {
        let r = CompareRow { label: "x".into(), paper: 100.0, ours: 110.0, unit: "s" };
        assert!((r.rel_error() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = vec![
            CompareRow { label: "a".into(), paper: 1.0, ours: 1.0, unit: "s" },
            CompareRow { label: "b".into(), paper: 2.0, ours: 2.2, unit: "m" },
        ];
        let t = render_table("T", &rows);
        assert!(t.contains("== T =="));
        assert_eq!(t.lines().count(), 4);
    }
}
