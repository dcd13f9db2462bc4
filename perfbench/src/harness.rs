//! What every workload shares: run options, metrics and the report a run
//! prints.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::procfs;
use crate::stats::{median, ratio, Samples};
use crate::trace::{totals_by_name, Tracer};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for files a workload creates (journals, stores).
    pub work_dir: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind a percentile or median, if it is one.
    pub samples: Option<usize>,
}

impl Metric {
    /// A plain value.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value,
            samples: None,
        }
    }

    /// A percentile or median over `samples` samples.
    pub fn over(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            unit,
            value,
            samples: Some(samples),
        }
    }
}

/// What one run of a workload reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phase(s).
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Backend the workload ran on.
    pub backend: &'static str,
    /// The gated end-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Every end-to-end metric the workload defines, by its own name.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Self time per span name (traced run).
    pub self_times: BTreeMap<&'static str, SelfTime>,
    /// The traced phase's spans, written out at the end.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Failed over attempted operations.
    pub fn error_rate(&self) -> Metric {
        Metric::new(
            "error_rate",
            "ratio",
            ratio(self.failed as f64, self.attempted as f64),
        )
    }
}

/// The gated end-to-end metrics, identical in name on every workload:
/// set-up time, the median latency and the rate of the workload's client
/// operation, and peak memory at the end of the measured phase. Tail
/// percentiles are printed with the workload's named metrics but not
/// gated: their run-to-run spread on the reference machine exceeds any
/// usable bound.
pub fn end_to_end(setup_s: &[f64], ops: &Samples, wall: Duration, rss_mib: f64) -> Vec<Metric> {
    vec![
        Metric::over("setup_s", "s", median(setup_s), setup_s.len()),
        Metric::over("op_p50_us", "us", ops.p50_us(), ops.len()),
        Metric::over("ops_per_s", "1/s", ops.windowed_rate(wall), ops.len()),
        Metric::new("rss_peak_mib", "MiB", rss_mib),
    ]
}

/// Runs `reps` set-ups one after another, dropping each but the last, and
/// returns the last with every set-up's time in seconds.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut last = None;
    let mut times = Vec::new();
    for rep in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Median, 99th percentile and rate (count / wall) of `samples`, under
/// the given names.
pub fn latency_metrics(names: [&'static str; 3], samples: &Samples, wall: Duration) -> [Metric; 3] {
    let n = samples.len();
    [
        Metric::over(names[0], "us", samples.p50_us(), n),
        Metric::over(names[1], "us", samples.p99_us(), n),
        Metric::over(names[2], "1/s", per_second(n, wall), n),
    ]
}

/// How much faster the untraced phase completed operations than the
/// traced one, percent.
pub fn overhead_pct(
    untraced: usize,
    untraced_wall: Duration,
    traced: usize,
    traced_wall: Duration,
) -> f64 {
    (per_second(untraced, untraced_wall) / per_second(traced, traced_wall).max(1e-9) - 1.0) * 100.0
}

/// `count / wall`.
pub fn per_second(count: usize, wall: Duration) -> f64 {
    count as f64 / wall.as_secs_f64().max(1e-9)
}

/// Span counts and self time per span name: where the traced requests'
/// time went, layer by layer.
pub fn self_times(tracer: &Tracer) -> BTreeMap<&'static str, SelfTime> {
    totals_by_name(tracer.spans())
        .into_iter()
        .map(|(name, t)| {
            let self_us = t.self_ns as f64 / 1e3;
            let per_call = self_us / t.calls.max(1) as f64;
            (
                name,
                SelfTime {
                    calls: t.calls,
                    self_us,
                    per_call_us: per_call,
                },
            )
        })
        .collect()
}

/// Self time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Number of spans.
    pub calls: u64,
    /// Summed self time, microseconds.
    pub self_us: f64,
    /// Mean self time per span, microseconds.
    pub per_call_us: f64,
}

/// Per-process counters around a measured phase.
#[derive(Clone, Copy, Debug)]
pub struct ProcWindow {
    start: procfs::ProcStat,
}

impl ProcWindow {
    /// Starts the window.
    pub fn open() -> Self {
        Self {
            start: procfs::stat(),
        }
    }

    /// Adds the window's per-operation counters to `layer`: minor faults
    /// and CPU time per operation, and the mapping count now. Returns the
    /// peak resident set so far, MiB: sampled here, before verification
    /// and recovery allocate in proportion to the work the phase did.
    pub fn close(&self, ops: usize, layer: &mut BTreeMap<&'static str, f64>) -> f64 {
        let delta = procfs::stat().since(&self.start);
        let ops = ops.max(1) as f64;
        layer.insert("vmem.minflt_per_op", delta.minflt as f64 / ops);
        layer.insert("proc.cpu_us_per_op", delta.cpu_us() as f64 / ops);
        layer.insert("vmem.maps_lines", procfs::maps_lines() as f64);
        procfs::peak_rss_mib()
    }
}
