//! In-memory spans for the traced replay, and the self-time arithmetic
//! that turns them into per-layer numbers.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; the program itself is not instrumented. Each span has
//! a name, start and end (ns since the tracer's origin), the index of its
//! parent span and the id of the request it belongs to. A layer's self time
//! is its span's duration minus the part of that interval its children
//! cover; overlapping children are counted once.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers (`"http.parse"`, `"engine"`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory. A disabled tracer runs the wrapped calls and
/// records nothing, which is the "spans off" arm of the overhead figure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// ns since the tracer's origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span. With `name == "request"` the span opens a new request id.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        if self.stack.is_empty() {
            self.request += 1;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records a span whose interval was measured elsewhere (the engine's
    /// service time, reported by the scheduler's completion record), as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the union of its children's intervals, each clipped to the parent.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Self time summed per span name (root `request` spans included: their
/// self time is the replay's own glue between layer calls).
#[must_use]
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.self_ns += self_ns;
    }
    out
}

/// The spans as JSON lines, one object per span.
#[must_use]
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children cover [10,40] ∪ [30,60] ∪ [50,55] = [10,60]: 50 ns.
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 50, 55, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child measured elsewhere may stick out of its parent; only the
        // part inside counts, and self time never goes negative.
        let spans = vec![
            span("batch", 100, 200, None),
            span("engine", 90, 150, Some(0)),
            span("late", 180, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
        let spans = vec![span("batch", 0, 10, None), span("engine", 0, 50, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn nested_self_times_add_back_to_the_root() {
        let spans = vec![
            span("request", 0, 1000, None),
            span("batch", 100, 900, Some(0)),
            span("engine", 200, 850, Some(1)),
            span("json.encode", 900, 950, Some(0)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
        let layers = layer_times(&spans);
        assert_eq!(layers["engine"].self_ns, 650);
        assert_eq!(layers["batch"].self_ns, 150);
        assert_eq!(layers["request"].self_ns, 150);
    }

    #[test]
    fn tracer_nests_spans_and_numbers_requests() {
        let mut tracer = Tracer::new(true);
        for _ in 0..2 {
            tracer.span("request", |t| {
                t.span("http.parse", |_| ());
                t.span("batch", |t| {
                    let now = t.now_ns();
                    t.record("engine", now, now);
                });
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].request, 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(to_json_lines(spans).lines().count(), 8);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("request", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
