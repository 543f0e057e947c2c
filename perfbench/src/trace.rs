//! In-memory span recording and the arithmetic the report is built from.
//!
//! A span is one timed call into a layer: its name, start, end, the span
//! that caused it and the trace (one DP round, or one set-up repetition) it
//! belongs to.  Spans are appended to a [`Trace`] while the run executes
//! and are only read back, or written out, once it has ended.

use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the trace's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub trace_id: u64,
    /// Index of the parent span in the same [`Trace`], if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A growing list of spans sharing one clock epoch.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Trace { epoch, spans: Vec::with_capacity(1 << 16) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id (index) for [`Trace::end`] and children.
    pub fn begin(&mut self, name: &'static str, trace_id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, trace_id, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    /// Close a span opened by [`Trace::begin`].
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn span<R>(&mut self, name: &'static str, trace_id: u64, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, trace_id, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and a
/// child's time outside its parent's interval is not subtracted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(end));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Per span name: (spans, summed duration, summed self time), in ns.
pub fn totals_by_name(spans: &[Span]) -> std::collections::BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out = std::collections::BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_ns;
    }
    out
}

/// Percentiles reported for a tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it; `None` when not even the median does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, trace_id: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [span("round", None, 0, 100), span("a", Some(0), 10, 30), span("b", Some(0), 40, 90)];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children overlap on [20, 30): covered is [10, 50) = 40.
        let spans = [span("round", None, 0, 100), span("a", Some(0), 10, 30), span("b", Some(0), 20, 50)];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn self_time_ignores_child_time_outside_the_parent() {
        let spans = [span("p", None, 50, 100), span("early", Some(0), 0, 60), span("late", Some(0), 90, 200)];
        assert_eq!(self_times(&spans)[0], 50 - 10 - 10);
    }

    #[test]
    fn self_time_only_subtracts_direct_children() {
        let spans = [span("round", None, 0, 100), span("child", Some(0), 0, 80), span("grand", Some(1), 0, 50)];
        assert_eq!(self_times(&spans), vec![20, 30, 50]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("round", None, 0, 10),
            span("enc", Some(0), 0, 4),
            span("round", None, 10, 30),
            span("enc", Some(2), 10, 15),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["round"], (2, 30, 21));
        assert_eq!(t["enc"], (2, 9, 9));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
