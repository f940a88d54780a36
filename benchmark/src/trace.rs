//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Every call the driver times goes through [`Tracer::enter`] /
//! [`Tracer::exit`]. `exit` always returns the elapsed time, which is what
//! the metrics are computed from; only a traced run also keeps the span.
//! Spans nest: the innermost open span is the parent of the next one
//! entered, and a span's self time is its duration minus the part of it
//! covered by its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// The workload epoch (or cycle group / checkpoint interval) the span
    /// was recorded in.
    pub epoch: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle for a span that has been entered and not yet closed.
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    epoch: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            epoch: 0,
        }
    }

    /// Label the spans recorded from now on with `epoch`.
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            let at = (start - self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
                epoch: self.epoch,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, slot }
    }

    /// Close `open` and return how long it was open. Spans must be closed
    /// innermost first.
    pub fn exit(&mut self, open: Open) -> Duration {
        let elapsed = open.start.elapsed();
        if let Some(slot) = open.slot {
            let top = self.stack.pop();
            assert_eq!(top, Some(slot), "spans must close innermost first");
            self.spans[slot].end_ns = self.spans[slot].start_ns + elapsed.as_nanos() as u64;
        }
        elapsed
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forget everything recorded so far (the end of warm-up).
    pub fn clear(&mut self) {
        assert!(self.stack.is_empty(), "clear() inside an open span");
        self.spans.clear();
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    out
}

/// Render the trace file: the spans plus per-name totals.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"totals\":{{"
    );
    for (i, (name, t)) in totals_by_name(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    out.push_str("},\"spans\":[\n");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"epoch\":{}}}",
            span.name, span.start_ns, span.end_ns, span.epoch
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("drain", 10, 40, Some(0)),
            span("inner", 15, 25, Some(1)),
            span("inject", 50, 70, Some(0)),
        ];
        // epoch: 100 - 30 - 20; drain: 30 - 10; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["epoch"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(totals["drain"].self_ns, 20);
    }

    #[test]
    fn tracer_nests_spans_and_always_reports_elapsed_time() {
        let mut on = Tracer::new(true);
        on.set_epoch(3);
        let outer = on.enter("outer");
        let inner = on.enter("inner");
        on.exit(inner);
        on.exit(outer);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[0].parent, None);
        assert_eq!(on.spans()[1].epoch, 3);
        assert!(on.spans()[0].duration_ns() >= on.spans()[1].duration_ns());

        let mut off = Tracer::new(false);
        let open = off.enter("x");
        std::thread::sleep(Duration::from_millis(1));
        assert!(off.exit(open) >= Duration::from_millis(1));
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_file_lists_every_span_with_its_parent() {
        let spans = vec![span("epoch", 0, 9, None), span("drain", 1, 4, Some(0))];
        let json = to_json("w", 7, &spans);
        assert!(json.contains("\"workload\":\"w\",\"seed\":7"));
        assert!(json.contains("\"name\":\"drain\",\"start_ns\":1,\"end_ns\":4,\"parent\":0"));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"drain\":{\"count\":1,\"total_ns\":3,\"self_ns\":3}"));
    }
}
