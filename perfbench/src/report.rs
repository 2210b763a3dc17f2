//! Named metrics, provenance and the benchmark's printed output.

use crate::stats::Summary;
use std::fmt::Write as _;
use std::process::Command;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured (a median when sampled).
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered set of named metrics.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    metrics: Vec<Metric>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Sets `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.metrics.push(Metric { name, value, unit }),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Every metric, in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Copies every metric of `other` in, replacing same-named ones.
    pub fn extend(&mut self, other: &Ledger) {
        for m in &other.metrics {
            self.set(m.name.clone(), m.value, m.unit);
        }
    }
}

/// The end-to-end samples of one run.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    /// Work per host second, one sample per timed launch or batch.
    pub throughput: Vec<f64>,
    /// Set-up seconds, one sample per set-up.
    pub setup_s: Vec<f64>,
    /// Peak resident set in MiB, one sample per launch (or per run).
    pub rss_mib: Vec<f64>,
    /// Seconds of the host-speed calibration kernel, one sample after
    /// every timed launch or batch.
    pub calibration_s: Vec<f64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
}

/// Where and on what the numbers were measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git describe`-style revision with a `-dirty` suffix, or
    /// `unknown` outside a git checkout.
    pub revision: String,
    /// Logical cores available to this process.
    pub nproc: usize,
    /// Host CPU model name.
    pub cpu: String,
}

impl Provenance {
    /// Collects the provenance of the current checkout and host.
    pub fn collect() -> Provenance {
        let git = |args: &[&str]| {
            Command::new("git")
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        let revision = match git(&["rev-parse", "--short", "HEAD"]) {
            Some(rev) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
                Some(status) if !status.is_empty() => format!("{rev}-dirty"),
                _ => rev,
            },
            None => "unknown (not a git checkout)".to_string(),
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            revision,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
        }
    }
}

/// Formats one sampled metric as a human-readable line.
pub fn summary_line(name: &str, unit: &str, s: &Summary) -> String {
    format!(
        "  {name:<28} {:>14.6} {unit:<6} (q1 {:.6}, q3 {:.6}, n={}, spread {:.1}%)",
        s.median,
        s.q1,
        s.q3,
        s.n,
        s.spread() * 100.0
    )
}

/// The contract's final output line: one JSON object with exactly
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
