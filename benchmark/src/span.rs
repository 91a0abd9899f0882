//! In-memory spans around the calls the harness makes into the repo's
//! public functions.
//!
//! A span has a name (`<layer>.<what>`), a start and an end on the host
//! clock, the span that was open when it started (its parent) and the
//! identifier of the op it belongs to. A span's *self time* is its duration
//! minus the part its child spans cover. Totals per name are kept for every
//! span; the spans themselves are kept up to [`Tracer::KEEP`] so the trace
//! file stays readable, and the rest only count.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the parent span among the kept spans, if it was kept.
    pub parent: Option<u32>,
    /// The op (kernel, call or serve) this span belongs to.
    pub op: u64,
}

/// Per-name totals over every span recorded, kept or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus children), ns.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    kept: Option<u32>,
    op: u64,
}

/// Records spans on one thread. Spans must close in LIFO order, which the
/// closure-taking [`Tracer::span`] guarantees.
pub struct Tracer {
    origin: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, NameTotals>,
    recorded: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Spans kept verbatim for the trace file; later ones only count.
    pub const KEEP: usize = 20_000;

    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            // Room for every kept span up front, so recording one never
            // allocates inside a repetition's timer.
            open: Vec::with_capacity(16),
            spans: Vec::with_capacity(Self::KEEP),
            totals: BTreeMap::new(),
            recorded: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span named `name` for op `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, work: impl FnOnce(&mut Self) -> T) -> T {
        let kept = (self.spans.len() < Self::KEEP).then(|| {
            let parent = self.open.last().and_then(|open| open.kept);
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
            });
            (self.spans.len() - 1) as u32
        });
        let start_ns = self.now_ns();
        self.open.push(Open {
            name,
            start_ns,
            children_ns: 0,
            kept,
            op,
        });
        let result = work(self);
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("span closes what it opened");
        self.close(open, end_ns);
        result
    }

    /// Records a child of the currently open span whose duration was
    /// measured elsewhere — how a serve's [`ProfileStats`] rows become its
    /// children. Synthetic children are laid end to end from the parent's
    /// start.
    ///
    /// [`ProfileStats`]: tm_overlay::ProfileStats
    pub fn child(&mut self, name: &'static str, duration_ns: u64) {
        let (start_ns, kept_parent, op) = match self.open.last() {
            Some(parent) => (parent.start_ns + parent.children_ns, parent.kept, parent.op),
            None => (self.now_ns(), None, 0),
        };
        let kept = (self.spans.len() < Self::KEEP).then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + duration_ns,
                parent: kept_parent,
                op,
            });
            (self.spans.len() - 1) as u32
        });
        let open = Open {
            name,
            start_ns,
            children_ns: 0,
            kept,
            op,
        };
        self.close(open, start_ns + duration_ns);
    }

    fn close(&mut self, open: Open, end_ns: u64) {
        let duration = end_ns.saturating_sub(open.start_ns);
        if let Some(index) = open.kept {
            let span = &mut self.spans[index as usize];
            span.start_ns = open.start_ns;
            span.end_ns = end_ns;
        }
        let totals = self.totals.entry(open.name).or_default();
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(open.children_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.children_ns += duration;
        }
        self.recorded += 1;
    }

    /// Totals for `name` (zero when it never ran).
    pub fn totals(&self, name: &str) -> NameTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// The kept spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time summed over every span whose name starts with `layer.`.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.totals
            .iter()
            .filter(|(name, _)| {
                name.strip_prefix(layer)
                    .is_some_and(|rest| rest.starts_with('.'))
            })
            .map(|(_, totals)| totals.self_ns)
            .sum()
    }

    /// The trace file: per-name totals for every span, then the first
    /// [`Tracer::KEEP`] spans verbatim.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since tracer start\",\
             \"spans_recorded\":{},\"spans_kept\":{},\n\"totals\":[",
            self.recorded,
            self.spans.len()
        );
        for (index, (name, totals)) in self.totals.iter().enumerate() {
            let sep = if index == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                totals.count, totals.total_ns, totals.self_ns
            );
        }
        out.push_str("],\n\"spans\":[");
        for (index, span) in self.spans.iter().enumerate() {
            let sep = if index == 0 { "" } else { "," };
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |parent| parent.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
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
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new();
        tracer.span("core.compile", 7, |tracer| {
            tracer.child("frontend.lex", 300);
            tracer.child("scheduler.asap", 200);
        });
        let parent = tracer.totals("core.compile");
        assert_eq!(parent.count, 1);
        assert_eq!(parent.self_ns, parent.total_ns.saturating_sub(500));
        assert_eq!(tracer.totals("frontend.lex").self_ns, 300);
        assert_eq!(tracer.layer_self_ns("frontend"), 300);
        assert_eq!(tracer.layer_self_ns("front"), 0, "prefix must end at a dot");

        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(
            spans[2].start_ns, spans[1].end_ns,
            "children laid end to end"
        );
        assert!(spans.iter().all(|span| span.op == 7));
    }

    #[test]
    fn nested_spans_attribute_to_the_innermost() {
        let mut tracer = Tracer::new();
        tracer.span("a.outer", 0, |tracer| {
            tracer.span("b.inner", 0, |_| std::hint::black_box(1 + 1));
        });
        let outer = tracer.totals("a.outer");
        let inner = tracer.totals("b.inner");
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(tm_overlay::runtime::obs::parse_json(&tracer.to_json("w", 1)).is_ok());
    }
}
