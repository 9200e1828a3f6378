//! Metrics, provenance, and the printed report: a table for people, one
//! JSON record line with provenance and sample counts, and the final JSON
//! result line.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (0 for a count or a derived value).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Where a result was measured. Results are comparable only when these
/// agree.
#[derive(Debug)]
pub struct Provenance {
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub commit: String,
    pub cores: usize,
    pub cpu: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
}

impl Provenance {
    /// Reads the provenance of this process's machine and build.
    pub fn detect() -> Self {
        let commit = Path::new(".git")
            .exists()
            .then(|| {
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .stderr(Stdio::null())
                    .output()
                    .ok()
            })
            .flatten()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            commit,
            cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu,
            rustc: env!("ENGINEBENCH_RUSTC").to_string(),
        }
    }
}

/// Peak resident memory of this process so far, in MiB (Linux).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The metrics as a JSON object, each with its value and unit, and its
/// sample count when `with_samples`.
fn json_metrics(metrics: &[Metric], with_samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// What one run measured.
pub struct Outcome<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub provenance: &'a Provenance,
    /// Every metric, printed in the table and the record.
    pub metrics: Vec<Metric>,
    /// Further lines for the table, e.g. each group's median.
    pub notes: Vec<String>,
    /// The names of the metrics the result line carries.
    pub result_metrics: &'a [&'a str],
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome<'_> {
    /// Prints the table, the record line and, last, the result line.
    pub fn print(&self) {
        let p = self.provenance;
        println!(
            "enginebench {} seed={} seconds={} trace={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace)
        );
        println!(
            "provenance: commit={} cores={} cpu={:?} rustc={:?}",
            p.commit, p.cores, p.cpu, p.rustc
        );
        for m in &self.metrics {
            println!(
                "  {:<30} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "  checked {} calls, {} failed, correct={}",
            self.attempted, self.failed, self.correct
        );
        println!(
            "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"provenance\": {{\"commit\": {}, \"cores\": {}, \"cpu\": {}, \"rustc\": {}}}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}}}",
            json_str(self.workload),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            json_str(&p.commit),
            p.cores,
            json_str(&p.cpu),
            json_str(&p.rustc),
            self.correct,
            self.attempted,
            self.failed,
            json_metrics(&self.metrics, true)
        );
        let result: Vec<Metric> = self
            .result_metrics
            .iter()
            .filter_map(|name| self.metrics.iter().find(|m| m.name == *name).cloned())
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            json_metrics(&result, false)
        );
    }
}
