//! In-memory spans recorded around calls into the program's layers, and
//! the self times derived from them.
//!
//! A span is one call: its layer name, start and end (nanoseconds from
//! the tracer's origin), the span that caused it, and the request (frame,
//! word or repetition) it served. Spans stay in memory while the traced
//! phase runs and are written out once it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (or phase) name, e.g. `channel`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, nanoseconds since the tracer's origin (`start` while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request this span served.
    pub request: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// between the tracers of a run so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now();
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Summed self time (nanoseconds) and span count per name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(s.name).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    out
}

/// Durations in milliseconds of the spans named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e6)
        .collect()
}

/// Share of the root spans' (spans without a parent) wall time that no
/// child span covers.
pub fn uncovered_frac(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut uncovered, mut wall) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.parent.is_none() {
            uncovered += own;
            wall += s.duration();
        }
    }
    if wall == 0 {
        return 0.0;
    }
    uncovered as f64 / wall as f64
}

/// Tab-separated dump: one span per line (index, name, start, end,
/// parent or `-`, request).
pub fn render_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\trequest\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start, s.end, s.request
        );
    }
    out
}

/// Concatenates the spans of several tracers, renumbering parents.
pub fn merge(tracers: &[Tracer]) -> Vec<Span> {
    let mut out = Vec::new();
    for t in tracers {
        let base = out.len();
        out.extend(t.spans().iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_child_time() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("channel", 10, 30, Some(0)),
            span("decoder", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["decoder"], (40, 1));
        assert!((uncovered_frac(&spans) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("conn", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 120, 160, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100, 160) and [190, 200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn merge_renumbers_parents_and_tracer_records_nesting() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.open("rep", None, 1);
        a.span("decoder", Some(root), 1, || std::hint::black_box(3 + 4));
        a.close(root);
        let mut b = Tracer::new(origin);
        let root = b.open("rep", None, 2);
        b.span("channel", Some(root), 2, || ());
        b.close(root);
        let merged = merge(&[a, b]);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[3].parent, Some(2));
        assert!(merged.iter().all(|s| s.end >= s.start));
        assert!(render_tsv(&merged).lines().count() == 5);
    }
}
