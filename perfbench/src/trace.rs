//! In-memory spans around every call the benchmark makes into a layer.
//!
//! Each thread records into its own [`Tracer`]; the tracers are merged and
//! written out once the run ends. A disabled tracer reads no clock and
//! stores nothing, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// Index of a span within its tracer.
pub type SpanId = usize;

/// One recorded call: which layer function, when, under which parent span
/// and on behalf of which request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer function, `layer.function` (`serve.tick`), or the request kind
    /// for a root span (`read`, `commit`, `setup`, `recover`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that made this call, if any.
    pub parent: Option<SpanId>,
    /// Request identifier shared by all spans of one request.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty recorder for another thread, sharing this one's clock
    /// origin and switch.
    pub fn fork(&self) -> Self {
        Self {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when disabled.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span with no children.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Moves `other`'s spans into this tracer, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans named `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Durations of spans named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            out.push_ns(span.duration_ns());
        }
        out
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children of one span may overlap, e.g. parallel work;
/// covered time is counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per span name: call count, total and self time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Number of spans.
    pub calls: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Aggregates spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    out
}

/// Writes the spans as CSV: `id,parent,request,name,start_ns,end_ns`.
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::from("id,parent,request,name,start_ns,end_ns\n");
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or(String::new(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{id},{parent},{},{},{},{}",
            span.request, span.name, span.start_ns, span.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    /// read [0,100) has children pin [10,20) and scan [30,90); scan has two
    /// overlapping parallel children [40,70) and [60,80) plus one that runs
    /// past its parent's end [85,95).
    fn tree() -> Vec<Span> {
        vec![
            span("read", 0, 100, None),
            span("serve.pin", 10, 20, Some(0)),
            span("serve.query_range", 30, 90, Some(0)),
            span("pool.task", 40, 70, Some(2)),
            span("pool.task", 60, 80, Some(2)),
            span("pool.task", 85, 95, Some(2)),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // read: 100 - (10 + 60); scan: 60 - ([40,80) + [85,90)) = 60 - 45.
        assert_eq!(self_times_ns(&tree()), vec![30, 10, 15, 30, 20, 10]);
    }

    #[test]
    fn totals_group_by_name() {
        let totals = totals_by_name(&tree());
        let pool = &totals["pool.task"];
        assert_eq!((pool.calls, pool.total_ns, pool.self_ns), (3, 60, 60));
        assert_eq!(totals["read"].self_ns, 30);
        let sum_self: u64 = totals.values().map(|t| t.self_ns).sum();
        // Self times of a tree add up to the root's wall time, except where
        // a child runs in parallel with a sibling or past its parent.
        assert_eq!(sum_self, 30 + 10 + 15 + 60);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut main = Tracer::new(true);
        let root = main.begin("commit", None, 7);
        main.end(root);
        let mut worker = main.fork();
        let outer = worker.begin("read", None, 8);
        worker.call("serve.pin", outer, 8, || ());
        worker.end(outer);
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].request, 8);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("read", None, 1);
        assert_eq!(id, None);
        assert_eq!(tracer.call("serve.pin", id, 1, || 5), 5);
        tracer.end(id);
        assert!(tracer.spans().is_empty());
    }
}
