//! In-memory spans recorded around calls into each layer, written out
//! when the benchmark ends. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// The cell the call served, when it served one.
    pub cell: Option<u32>,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Per-name totals: calls, summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (open spans still close normally).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, cell: Option<u32>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
        if let Some(at) = self.open.iter().rposition(|&open| open == id) {
            self.open.truncate(at);
        }
    }

    /// Records an already finished span (such as a cell the daemon
    /// timed) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, cell: Option<u32>) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            cell,
        };
        self.spans.push(span);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name. Self time subtracts the union of the
    /// children's intervals, so overlapping children (cells run by
    /// parallel workers) are not counted twice.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(covered);
        }
        totals
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cell\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.cell.map_or("null".to_string(), |c| c.to_string()),
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_overlapping_children_once() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: None,
        };
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("sweep", 0, 100, None),
            span("cell", 10, 30, Some(0)),
            span("cell", 20, 50, Some(0)),
        ];
        let totals = t.totals();
        assert_eq!(
            totals["cell"],
            SpanTotals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(
            totals["sweep"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
    }

    #[test]
    fn nested_spans_get_their_parent() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", None);
        let inner = t.begin("inner", Some(7));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].cell, Some(7));
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None);
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
