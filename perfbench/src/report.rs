//! Result records: metric samples and their medians, the host
//! fingerprint, the reference values the correctness gate compares
//! against, and the JSON the benchmark prints and writes.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde::{Deserialize, Serialize};

/// Version of the result-file layout below; bump it when a field
/// changes meaning.
pub const SCHEMA_VERSION: u32 = 1;

/// One metric's value and unit, as printed on the last output line.
#[derive(Clone, Debug, Serialize)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ns`, `1/s`, `count`.
    pub unit: String,
}

/// The last line of standard output: the benchmark's verdict and the
/// metrics of this run.
#[derive(Debug, Serialize)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Cells executed and checked.
    pub attempted: u64,
    /// Cells (or run-level checks) that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), by name.
    pub metrics: BTreeMap<String, Metric>,
}

/// Timing samples of one metric and their summary.
#[derive(Clone, Debug, Serialize)]
pub struct Sampled {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Every sample, in measurement order.
    pub samples: Vec<f64>,
    /// Median of the samples.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Sampled {
    /// Summarizes `samples` (all zero when there are none).
    pub fn new(name: &str, unit: &str, samples: Vec<f64>) -> Self {
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        Sampled {
            name: name.to_string(),
            unit: unit.to_string(),
            median: median(&sorted),
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            samples,
        }
    }
}

/// Median of an ascending slice (mean of the middle pair when even;
/// 0 when empty).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted values.
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median(&sorted)
}

/// A hardware-independent work counter of the traced run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Counter {
    /// Counter name (the per-layer metric it backs, or `engine.*`).
    pub name: String,
    /// Value measured in this run.
    pub value: f64,
}

/// The reference values of one (workload, seed) pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Expected {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// FNV-1a digest (hex) of each cell's serialized output, in plan
    /// order across the workload's plans.
    pub digests: Vec<String>,
    /// Exact work counters of the traced run.
    pub counters: Vec<Counter>,
}

/// Reference values recorded for the default seed and one held-out
/// seed (`expected.json`, regenerated with `--write-expected`).
pub fn expected_for(workload: &str, seed: u64) -> Option<Expected> {
    let all: Vec<Expected> =
        serde_json::from_str(include_str!("../expected.json")).expect("expected.json parses");
    all.into_iter()
        .find(|e| e.workload == workload && e.seed == seed)
}

/// Where and on what this run was measured.
#[derive(Clone, Debug, Serialize)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
}

impl Host {
    /// Fingerprints the current host.
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// Worker threads the sweeps use: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .map(|s| s.lines().next().unwrap_or("").trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run-size parameters of a workload, as recorded in results.
#[derive(Clone, Debug, Serialize)]
pub struct ScaleInfo {
    /// Footprint scale factor.
    pub footprint: f64,
    /// Trace-driven warm-up misses.
    pub trace_warmup: usize,
    /// Trace-driven measured misses.
    pub trace_measured: usize,
    /// Timing-sim warm-up misses per node.
    pub sim_warmup: usize,
    /// Timing-sim measured misses per node.
    pub sim_measured: usize,
    /// Timing-sim repetitions.
    pub sim_runs: usize,
}

/// One recorded span of the traced run: a cell or a run-level phase.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    /// Span name: `plan`, `cell`, `sim` or `replay`.
    pub name: String,
    /// What the span covered (cell summary, protocol label).
    pub detail: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the traced run began.
    pub start_ns: u64,
    /// End, in ns since the traced run began.
    pub end_ns: u64,
}

/// Everything one run measured, written to the benchmark's output
/// directory.
#[derive(Debug, Serialize)]
pub struct RunRecord {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Host fingerprint.
    pub host: Host,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Run size.
    pub scale: ScaleInfo,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Measurement rounds (samples per timed metric).
    pub samples: usize,
    /// Verdict.
    pub correct: bool,
    /// Cells executed and checked.
    pub attempted: u64,
    /// Failed cells and checks.
    pub failed: u64,
    /// `failed / attempted`.
    pub error_rate: f64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Timed metrics with every sample.
    pub timings: Vec<Sampled>,
    /// Reported metrics.
    pub metrics: BTreeMap<String, Metric>,
    /// Exact work counters (traced run).
    pub counters: Vec<Counter>,
    /// Counters that differ from the recorded reference, by name.
    pub changed_counters: Vec<String>,
    /// Per-cell output digests, in plan order.
    pub digests: Vec<String>,
    /// Cell and phase spans (traced run).
    pub spans: Vec<Span>,
}

impl RunRecord {
    /// Writes the record as pretty JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let text = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        std::fs::write(path, text + "\n")
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// 64-bit FNV-1a digest, rendered as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}
