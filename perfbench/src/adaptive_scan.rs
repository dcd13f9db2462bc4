//! `adaptive-scan`: the paper's Figure 5 set-up, end to end.
//!
//! One `AdaptiveColumn` in multi-view mode on the `mmap` backend answers a
//! long sequence of fixed-selectivity range queries at random positions
//! over a sine-distributed column, from one sequential client. Scans of the
//! column stream from DRAM, as in the paper. Queries create, replace and
//! discard partial views until the view limit stops creation, and then run
//! on the views they built.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use asv_core::{AdaptiveColumn, AdaptiveConfig, RangeQuery, ViewMaintenance};
use asv_util::ValueRange;
use asv_vmem::{MmapBackend, PAGE_SIZE_BYTES, VALUES_PER_PAGE};
use asv_workloads::{Distribution, QueryWorkload};

use crate::harness::{
    end_to_end, latency_metrics, overhead_pct, self_times, timed_setups, Metric, Opts, ProcWindow,
    Report, SETUP_REPS,
};
use crate::procfs;
use crate::reference::{check, range_answers, Mismatch};
use crate::stats::{median, ratio, Samples};
use crate::trace::Tracer;

/// Column size: 48 MiB. On the reference machine (2-vCPU Xeon VM) scan
/// bandwidth falls to the DRAM rate from 32 MiB on, although `lscpu`
/// reports a 300 MiB L3. With the paper's 100-page sine period a 1% view
/// maps about two page runs per period, so even 200 views of this column
/// stay below the kernel's default `vm.max_map_count` of 65530; a column
/// above 300 MiB exhausts it after 33 views and queries start to fail.
const PAGES: usize = 12_288;
/// Query selectivity of the paper's 1% Figure 5 series.
const SELECTIVITY: f64 = 0.01;
/// View limit: half the paper's 200, so that a run reaches the limit
/// (after about 2000 queries, in its first seconds) and keeps querying past
/// it.
const MAX_VIEWS: usize = 100;
/// Queries generated; no run gets through all of them.
const QUERIES: usize = 200_000;
/// Executed queries whose qualifying pages are counted for the precision
/// metric (each costs a pass over the column).
const PRECISION_SAMPLE: usize = 24;

struct Inputs {
    values: Vec<u64>,
    queries: Vec<ValueRange>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let dist = Distribution::sine();
        Self {
            values: dist.generate_pages(PAGES, seed),
            queries: QueryWorkload::new(seed ^ 0x5EED_0FF5).fixed_selectivity(
                QUERIES,
                SELECTIVITY,
                dist.max_value(),
            ),
        }
    }
}

type Column = AdaptiveColumn<MmapBackend>;

fn setup(inputs: &Inputs, tracer: &mut Tracer, request: u64) -> Column {
    let root = tracer.begin("setup", None, request);
    let column = tracer.call("adaptive.from_values", root, request, || {
        AdaptiveColumn::from_values(
            MmapBackend::new(),
            &inputs.values,
            AdaptiveConfig::paper_multi_view(MAX_VIEWS),
        )
        .expect("column materialization")
    });
    tracer.end(root);
    column
}

/// What the measured phase observed, query by query.
#[derive(Default)]
struct Phase {
    wall: Duration,
    latency: Samples,
    answers: Vec<Option<(u64, u128)>>,
    pages: Vec<usize>,
    views: Vec<usize>,
    maintenance: Vec<ViewMaintenance>,
    views_final: usize,
    switches: u64,
    rss_mib: f64,
    layer: BTreeMap<&'static str, f64>,
}

fn measure(inputs: &Inputs, column: &mut Column, seconds: Duration, tracer: &mut Tracer) -> Phase {
    let mut phase = Phase::default();
    let window = ProcWindow::open();
    let switches = procfs::thread_ctx_switches();
    let started = Instant::now();
    for (i, range) in inputs.queries.iter().enumerate() {
        if started.elapsed() >= seconds {
            break;
        }
        let request = i as u64;
        let root = tracer.begin("read", None, request);
        let t = Instant::now();
        let out = tracer.call("adaptive.query", root, request, || {
            column.query(&RangeQuery::from_range(*range))
        });
        phase.latency.record(started, t);
        tracer.end(root);
        match out {
            Ok(out) => {
                phase.answers.push(Some((out.count, out.sum)));
                phase.pages.push(out.scanned_pages);
                phase.views.push(out.num_views_used());
                phase.maintenance.push(out.view_maintenance);
            }
            Err(_) => {
                phase.answers.push(None);
                phase.pages.push(0);
                phase.views.push(0);
                phase.maintenance.push(ViewMaintenance::NotAttempted);
            }
        }
    }
    phase.wall = started.elapsed();
    phase.switches = procfs::thread_ctx_switches().saturating_sub(switches);
    phase.views_final = column.views().num_partial_views();
    phase.rss_mib = window.close(phase.answers.len(), &mut phase.layer);
    phase
}

/// Checks every answer against the reference column.
fn verify(inputs: &Inputs, phase: &Phase) -> Result<(), Mismatch> {
    let ran = &inputs.queries[..phase.answers.len()];
    let want = range_answers(&inputs.values, ran);
    for (i, (got, want)) in phase.answers.iter().zip(want).enumerate() {
        if let Some(got) = got {
            check(&format!("adaptive-scan query {i} {:?}", ran[i]), *got, want)?;
        }
    }
    Ok(())
}

/// Pages holding at least one value of `range`, by a pass over the
/// reference column.
fn qualifying_pages(values: &[u64], range: &ValueRange) -> usize {
    values
        .chunks(VALUES_PER_PAGE)
        .filter(|page| page.iter().any(|&v| range.contains(v)))
        .count()
}

fn per_layer(inputs: &Inputs, phase: &mut Phase, tracer: &Tracer) {
    let n = phase.answers.len().max(1) as f64;
    let layer = &mut phase.layer;
    let pages: usize = phase.pages.iter().sum();
    layer.insert("adaptive.pages_per_query", pages as f64 / n);
    layer.insert(
        "adaptive.views_per_query",
        phase.views.iter().sum::<usize>() as f64 / n,
    );
    let step = (phase.answers.len() / PRECISION_SAMPLE).max(1);
    let (mut qualifying, mut scanned) = (0usize, 0usize);
    for i in (0..phase.answers.len()).step_by(step) {
        qualifying += qualifying_pages(&inputs.values, &inputs.queries[i]);
        scanned += phase.pages[i];
    }
    layer.insert(
        "adaptive.page_precision",
        ratio(qualifying as f64, scanned as f64),
    );
    // One `adaptive.query` span per executed query, in query order.
    let durations = tracer.durations("adaptive.query");
    let (mut create, mut reuse) = (Samples::default(), Samples::default());
    let spans = tracer.spans().iter().filter(|s| s.name == "adaptive.query");
    for (m, span) in phase.maintenance.iter().zip(spans) {
        if m.retained() {
            create.push_ns(span.duration_ns());
        } else {
            reuse.push_ns(span.duration_ns());
        }
    }
    layer.insert("adaptive.create_query_us.p50", create.p50_us());
    layer.insert("adaptive.reuse_query_us.p50", reuse.p50_us());
    let retained = phase.maintenance.iter().filter(|m| m.retained()).count();
    let attempted = phase
        .maintenance
        .iter()
        .filter(|m| **m != ViewMaintenance::NotAttempted)
        .count();
    layer.insert(
        "viewset.retained_ratio",
        ratio(retained as f64, attempted as f64),
    );
    layer.insert("viewset.views_final", phase.views_final as f64);
    let query_s = durations.total_ns() as f64 / 1e9;
    let gib = (pages * PAGE_SIZE_BYTES) as f64 / (1u64 << 30) as f64;
    layer.insert("storage.scan_gib_per_s", ratio(gib, query_s));
    layer.insert("proc.ctx_switches_per_read", phase.switches as f64 / n);
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, Mismatch> {
    let inputs = Inputs::generate(opts.seed);
    let mut report = Report {
        backend: "mmap",
        ..Report::default()
    };
    let mut off = Tracer::new(false);
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let (mut column, setup_s) = timed_setups(reps, |_| setup(&inputs, &mut off, 0));
    let untraced = measure(&inputs, &mut column, opts.seconds, &mut off);
    drop(column);
    verify(&inputs, &untraced)?;
    report.attempted += untraced.answers.len() as u64;
    report.failed += untraced.answers.iter().filter(|a| a.is_none()).count() as u64;
    report.end_to_end = end_to_end(&setup_s, &untraced.latency, untraced.wall, untraced.rss_mib);
    report.named = vec![Metric::over(
        "setup_s",
        "s",
        median(&setup_s),
        setup_s.len(),
    )];
    report.named.extend(latency_metrics(
        ["read_p50_us", "read_p99_us", "reads_per_s"],
        &untraced.latency,
        untraced.wall,
    ));
    report
        .named
        .push(Metric::new("rss_peak_mib", "MiB", untraced.rss_mib));
    report.named.push(report.error_rate());
    if !opts.trace {
        return Ok(report);
    }
    let mut tracer = Tracer::new(true);
    let mut column = setup(&inputs, &mut tracer, 0);
    let mut traced = measure(&inputs, &mut column, opts.seconds, &mut tracer);
    drop(column);
    verify(&inputs, &traced)?;
    report.attempted += traced.answers.len() as u64;
    report.failed += traced.answers.iter().filter(|a| a.is_none()).count() as u64;
    per_layer(&inputs, &mut traced, &tracer);
    traced.layer.insert(
        "trace.overhead_pct",
        overhead_pct(
            untraced.answers.len(),
            untraced.wall,
            traced.answers.len(),
            traced.wall,
        ),
    );
    report.per_layer = traced.layer;
    report.self_times = self_times(&tracer);
    report.tracer = Some(tracer);
    Ok(report)
}
