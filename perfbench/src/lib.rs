//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! One command takes a workload name and a seed, builds that workload's
//! inputs from the seed, drives the library through its public entry
//! points, checks every output, and prints each metric by name with its
//! unit. The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `serve_cold` — an in-process daemon ([`dagsched_serve::server`])
//!   answering RGNOS graphs it has no cache entry for (MCP, DSC, MH), so
//!   the cache only inserts and every layer of the request path works.
//! * `serve_hot` — a small fixed suite of 1000-task graphs, sent once
//!   untimed and then replayed, so almost every timed request is a cache
//!   hit and the scheduler is bypassed.
//! * `table6_sweep` — the paper's Table 6 at quick size: all fifteen
//!   algorithms on RGNOS v=50…500 × CCR 0.1/1/10, serial and validated.
//! * `rgbos_quality` — the paper's Table 2 grid: per cell a serial
//!   branch-and-bound optimum plus every UNC algorithm.
//!
//! Only the two serve workloads are in `BENCHMARK.json`
//! ([`Workload::BENCHMARKED`]); the sweeps run by hand with the same
//! command. They are CPU-bound throughout, and on a shared two-vCPU
//! virtual machine their figures moved by 25–40% between runs minutes
//! apart as the host's load changed, past any bound a regression check
//! can use. The serve workloads' traced runs still measure every layer
//! the sweeps reach (the whole roster, validation, branch-and-bound and
//! `ws` through probes).
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! (`--trace 1`) measures the same workload untraced and traced side by
//! side, then replays its inputs through each layer's public entry points
//! under the benchmark's own spans ([`spans`]) and reports the per-layer
//! metrics ([`layers`]).

pub mod layers;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweeps;

use std::path::PathBuf;
use std::time::Instant;

/// Timed samples every percentile needs: with 200 samples at least ten
/// lie beyond the nearest-rank p95.
pub const MIN_SAMPLES: usize = 200;

/// A burst of set-ups repeats the set-up at least this many times, and
/// until [`Opts::setup_min_s`] seconds of set-up have accumulated. Each
/// run makes one burst before its timed region and one after it, and
/// `setup_s` is the mean of all their repetitions: on a shared virtual
/// machine the same set-up runs ~1.5× slower for stretches of 0.1 s to
/// tens of seconds, so the median or minimum of a single burst reads
/// one mode or the other per process.
pub const SETUP_REPS: usize = 3;
pub const SETUP_MIN_S: f64 = 1.0;

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("tasks_per_s", "tasks/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeCold,
    ServeHot,
    Table6Sweep,
    RgbosQuality,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeCold,
        Workload::ServeHot,
        Workload::Table6Sweep,
        Workload::RgbosQuality,
    ];

    /// The workloads `BENCHMARK.json` lists.
    pub const BENCHMARKED: [Workload; 2] = [Workload::ServeCold, Workload::ServeHot];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve_cold",
            Workload::ServeHot => "serve_hot",
            Workload::Table6Sweep => "table6_sweep",
            Workload::RgbosQuality => "rgbos_quality",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{s}` (one of {})", names.join(", "))
            })
    }
}

/// Command-line options.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds per run (split in two halves when traced).
    pub seconds: f64,
    pub trace: bool,
    /// Shrink every input (graph sizes, grid, B&B budget) for self-tests.
    pub tiny: bool,
}

impl Opts {
    /// Seconds of each timed pass: a traced run measures an untraced and
    /// a traced pass of half the run each.
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Set-up seconds to accumulate before the timed region.
    pub fn setup_min_s(&self) -> f64 {
        if self.tiny {
            SETUP_MIN_S / 50.0
        } else {
            SETUP_MIN_S
        }
    }

    /// Where a traced run writes its spans: `perfbench/out/`.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "{}-{}.spans.jsonl",
                self.workload.name(),
                self.seed
            ))
    }
}

/// When a timed loop stops: after `seconds` once [`MIN_SAMPLES`] are in,
/// or at a hard cap regardless.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub hard_cap: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Budget {
        Budget {
            seconds,
            hard_cap: (3.0 * seconds).max(seconds + 30.0),
        }
    }

    pub fn done(&self, elapsed_s: f64, samples: usize) -> bool {
        elapsed_s >= self.hard_cap || (elapsed_s >= self.seconds && samples >= MIN_SAMPLES)
    }
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        }
    }
}

/// What one timed pass of a workload measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// Duration of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed region.
    pub elapsed_s: f64,
    /// Operations completed and checked.
    pub ops: u64,
    /// Tasks in those operations.
    pub tasks: u64,
    /// Per-operation latency.
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Digest of the makespans and served schedule bytes of a fixed
    /// prefix of the run's operations (same seed ⇒ same digest).
    pub digest: u64,
    /// Measured shares of the property that defines the workload.
    pub notes: Vec<String>,
}

impl E2e {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Record one checked operation.
    pub fn ok(&mut self, tasks: usize, lat_ms: f64) {
        self.ops += 1;
        self.tasks += tasks as u64;
        self.lat_ms.push(lat_ms);
    }

    /// Merge the counts and samples of a part of this pass.
    pub fn absorb(&mut self, part: E2e) {
        self.ops += part.ops;
        self.tasks += part.tasks;
        self.lat_ms.extend(part.lat_ms);
        self.attempted += part.attempted;
        self.failed += part.failed;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures.extend(part.failures.into_iter().take(room));
    }

    /// The end-to-end metrics of this pass, in [`END_TO_END`] order.
    pub fn metrics(&self, peak_rss_mb: f64) -> Vec<Metric> {
        let values = [
            stats::ratio(self.ops as f64, self.elapsed_s),
            stats::ratio(self.tasks as f64, self.elapsed_s),
            stats::percentile(&self.lat_ms, 0.50),
            stats::percentile(&self.lat_ms, 0.95),
            stats::ratio(self.setup_s.iter().sum(), self.setup_s.len() as f64),
            peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, unit, v))
            .collect()
    }
}

/// Run a burst of set-ups as [`SETUP_REPS`] and [`Opts::setup_min_s`]
/// ask, recording each duration in `e2e.setup_s`; every result but the
/// last goes to `discard`.
pub fn repeat_setup<T>(
    opts: &Opts,
    e2e: &mut E2e,
    mut make: impl FnMut(&mut E2e) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<T, String> {
    let (mut kept, mut reps, mut spent) = (None, 0, 0.0);
    while reps < SETUP_REPS || spent < opts.setup_min_s() {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t0 = Instant::now();
        let made = make(e2e)?;
        let dt = t0.elapsed().as_secs_f64();
        e2e.setup_s.push(dt);
        (reps, spent) = (reps + 1, spent + dt);
        kept = Some(made);
    }
    Ok(kept.expect("the set-up ran at least once"))
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Report {
    /// The untraced pass (the whole run when untraced).
    pub e2e: E2e,
    /// The traced pass of a traced run.
    pub traced: Option<E2e>,
    /// The metrics of the JSON line: end-to-end when untraced, per-layer
    /// when traced.
    pub metrics: Vec<Metric>,
    /// Checks made by the per-layer replay, and how many failed.
    pub replay_attempted: u64,
    pub replay_failed: u64,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
}

impl Report {
    pub fn new(e2e: E2e) -> Report {
        Report {
            e2e,
            traced: None,
            metrics: Vec::new(),
            replay_attempted: 0,
            replay_failed: 0,
            lines: Vec::new(),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.e2e.attempted + self.traced.as_ref().map_or(0, |t| t.attempted) + self.replay_attempted
    }

    pub fn failed(&self) -> u64 {
        self.e2e.failed + self.traced.as_ref().map_or(0, |t| t.failed) + self.replay_failed
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.attempted() > 0
    }

    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted().max(1),
            self.failed(),
            metrics.join(",")
        )
    }
}

/// Run one workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let t0 = Instant::now();
    let mut report = match opts.workload {
        Workload::ServeCold | Workload::ServeHot => serve::run(opts)?,
        Workload::Table6Sweep => sweeps::run_table6(opts)?,
        Workload::RgbosQuality => sweeps::run_rgbos(opts)?,
    };
    let rss = stats::peak_rss_mb()?;
    let untraced = report.e2e.metrics(rss);
    if !opts.trace {
        report.metrics = untraced.clone();
    }
    let mut lines = vec![format!(
        "workload {} seed {} digest {:016x} ({:.1} s total)",
        opts.workload.name(),
        opts.seed,
        report.e2e.digest,
        t0.elapsed().as_secs_f64()
    )];
    lines.extend(report.e2e.notes.iter().cloned());
    match &report.traced {
        None => {
            lines.push(format!("{:<16} {:>14}  unit", "metric", "untraced"));
            for m in &untraced {
                lines.push(format!("{:<16} {:>14.4}  {}", m.name, m.value, m.unit));
            }
        }
        Some(tr) => {
            let traced = tr.metrics(rss);
            lines.push(format!(
                "{:<16} {:>14} {:>14} {:>9}  unit",
                "metric", "untraced", "traced", "traced/un"
            ));
            for (u, t) in untraced.iter().zip(&traced) {
                lines.push(format!(
                    "{:<16} {:>14.4} {:>14.4} {:>9.3}  {}",
                    u.name,
                    u.value,
                    t.value,
                    stats::ratio(t.value, u.value),
                    u.unit
                ));
            }
        }
    }
    lines.push(format!(
        "samples {} (beyond p95: {})",
        report.e2e.lat_ms.len(),
        stats::beyond(&report.e2e.lat_ms, 0.95)
    ));
    for f in report
        .e2e
        .failures
        .iter()
        .chain(report.traced.iter().flat_map(|t| t.failures.iter()))
    {
        lines.push(format!("FAILED: {f}"));
    }
    lines.append(&mut report.lines);
    report.lines = lines;
    Ok(report)
}
