//! Per-layer metrics of the serving layer (`asv_core::serve`, the planner
//! behind `Snapshot::query_conjunctive`, and alignment), shared by the two
//! workloads that run a `ServeTable`.

use std::collections::BTreeMap;
use std::time::Duration;

use asv_core::ServeTable;
use asv_vmem::Backend;

use crate::stats::{ratio, Samples};
use crate::trace::Tracer;

/// Maxima of the table's epoch and write-queue gauges, sampled after each
/// tick of the traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickSampler {
    enabled: bool,
    live_epochs: usize,
    queued_writes: usize,
}

impl TickSampler {
    /// A sampler that samples only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// Samples the gauges.
    pub fn sample<B: Backend>(&mut self, table: &mut ServeTable<B>) {
        if !self.enabled {
            return;
        }
        self.live_epochs = self.live_epochs.max(table.live_epochs());
        let queued = (0..table.num_columns())
            .map(|col| table.queued_writes(col))
            .sum();
        self.queued_writes = self.queued_writes.max(queued);
    }

    /// Adds the maxima to `layer`.
    pub fn record(&self, layer: &mut BTreeMap<&'static str, f64>) {
        layer.insert("serve.live_epochs.max", self.live_epochs as f64);
        layer.insert("serve.queued_writes.max", self.queued_writes as f64);
    }
}

/// Adds the span percentiles of the serving calls, the tick busy fraction
/// and the table's alignment counters to `layer`.
pub fn serve_metrics<B: Backend>(
    table: &mut ServeTable<B>,
    tracer: &Tracer,
    wall: Duration,
    layer: &mut BTreeMap<&'static str, f64>,
) {
    let pin = tracer.durations("serve.pin");
    layer.insert("serve.pin_ns.p50", pin.quantile_ns(0.5));
    layer.insert("serve.pin_ns.p99", pin.quantile_ns(0.99));
    for (span, p50, p99) in [
        (
            "serve.query_range",
            "serve.query_range_us.p50",
            "serve.query_range_us.p99",
        ),
        (
            "plan.query_conjunctive",
            "plan.query_conjunctive_us.p50",
            "plan.query_conjunctive_us.p99",
        ),
        ("serve.tick", "serve.tick_us.p50", "serve.tick_us.p99"),
    ] {
        let d = tracer.durations(span);
        layer.insert(p50, d.p50_us());
        layer.insert(p99, d.p99_us());
    }
    layer.insert(
        "serve.stage_us.p50",
        tracer.durations("serve.stage").p50_us(),
    );
    layer.insert(
        "serve.tick_busy_frac",
        tracer.total_ns("serve.tick") as f64 / wall.as_nanos().max(1) as f64,
    );
    let activity = table.align_activity();
    layer.insert("align.rounds", activity.rounds as f64);
    layer.insert(
        "align.planned_ratio",
        ratio(
            activity.planned_views as f64,
            activity.candidate_views as f64,
        ),
    );
    layer.insert("align.items", activity.published_items as f64);
    let mut publish = Samples::default();
    for us in table.drain_publish_micros() {
        publish.push_ns(us * 1_000);
    }
    layer.insert("align.publish_us.p50", publish.p50_us());
    layer.insert("align.publish_us.p99", publish.p99_us());
}
