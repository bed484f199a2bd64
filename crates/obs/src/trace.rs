//! Span/event tracing core, keyed on simulated time.
//!
//! A [`Trace`] is a grow-only arena of [`Span`]s (work with extent on the
//! simulated timeline) and [`Event`]s (instants), both carrying typed
//! [`AttrValue`] attributes. Nothing in here reads the host clock — every
//! timestamp is a [`SimTime`] handed in by the caller, which is what makes
//! two same-seed runs produce byte-identical traces (the
//! `no-wallclock-in-sim` lint enforces the other half of that contract).
//!
//! Nesting is explicit: the arena keeps a stack of open spans, and a new
//! span or event parents onto whatever is on top. Closing happens in LIFO
//! order; closing a span that is not the innermost open one closes the
//! ones opened after it first (they cannot outlive their parent's extent
//! on a single simulated timeline).

use autolearn_util::SimTime;

/// Index of a span in its [`Trace`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub usize);

/// A typed attribute value. Numbers are kept in their native width so a
/// round trip through the trace (e.g. the `RunLog` view in
/// `autolearn-core`) is exact, not a string re-parse.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer attribute (epoch numbers, attempt counters).
    Int(i64),
    /// Unsigned integer attribute (byte counts, parameter counts).
    UInt(u64),
    /// Floating-point attribute (losses, durations in seconds).
    F64(f64),
    /// String attribute (stage names, fault descriptions).
    Str(String),
    /// Boolean attribute.
    Bool(bool),
}

impl AttrValue {
    /// The value as `f64`, when it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Int(v) => Some(*v as f64),
            AttrValue::UInt(v) => Some(*v as f64),
            AttrValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `i64`, when it is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(v) => Some(*v),
            AttrValue::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }
}

/// A named `(key, value)` attribute list, in insertion order. Keys are
/// `&'static str`: every instrumentation site names its attributes with a
/// literal, so a record carries a pointer instead of a heap copy.
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// One span: named work with a start and (once closed) an end instant.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span covers (stage or operation name).
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// When the work began, on the simulated timeline.
    pub start: SimTime,
    /// When the work ended; `None` while the span is still open.
    pub end: Option<SimTime>,
    /// Typed attributes, in the order they were attached.
    pub attrs: Attrs,
    /// Global sequence number (spans and events share one counter), used
    /// by the exporters to keep same-timestamp records in emission order.
    pub seq: u64,
}

/// One instant event.
#[derive(Debug, Clone)]
pub struct Event {
    /// What happened.
    pub name: &'static str,
    /// The span it happened inside, if any.
    pub parent: Option<SpanId>,
    /// When it happened.
    pub at: SimTime,
    /// Typed attributes, in the order they were attached.
    pub attrs: Attrs,
    /// Global sequence number shared with spans.
    pub seq: u64,
}

/// Grow-only per-run trace arena.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<Span>,
    events: Vec<Event>,
    open: Vec<SpanId>,
    seq: u64,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Open a span named `name` starting `at`, nested under the innermost
    /// open span.
    pub fn begin_span(&mut self, name: &'static str, at: SimTime) -> SpanId {
        let id = SpanId(self.spans.len());
        let seq = self.next_seq();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: at,
            end: None,
            attrs: Vec::new(),
            seq,
        });
        self.open.push(id);
        id
    }

    /// Close `id` at `at`. Any spans opened after `id` and still open are
    /// closed at the same instant first (children cannot outlive their
    /// parent on one timeline). Closing a span that is already closed is a
    /// no-op.
    pub fn end_span(&mut self, id: SpanId, at: SimTime) {
        if !self.open.contains(&id) {
            return;
        }
        while let Some(&top) = self.open.last() {
            self.open.pop();
            if let Some(span) = self.spans.get_mut(top.0) {
                if span.end.is_none() {
                    span.end = Some(at);
                }
            }
            if top == id {
                return;
            }
        }
    }

    /// Attach an attribute to `id`. Unknown ids are ignored (the arena
    /// never panics mid-run).
    pub fn span_attr(&mut self, id: SpanId, key: &'static str, value: AttrValue) {
        if let Some(span) = self.spans.get_mut(id.0) {
            span.attrs.push((key, value));
        }
    }

    /// Record an instant event `at`, parented on the innermost open span.
    pub fn event(&mut self, name: &'static str, at: SimTime, attrs: Attrs) {
        let parent = self.open.last().copied();
        let seq = self.next_seq();
        self.events.push(Event {
            name,
            parent,
            at,
            attrs,
            seq,
        });
    }

    /// All spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The innermost currently-open span.
    pub fn current_span(&self) -> Option<SpanId> {
        self.open.last().copied()
    }

    /// Spans named `name`, in creation order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Events named `name`, in emission order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Depth of `id` in the span tree (root spans are depth 0).
    pub fn depth(&self, id: SpanId) -> usize {
        let mut depth = 0;
        let mut cur = self.spans.get(id.0).and_then(|s| s.parent);
        while let Some(p) = cur {
            depth += 1;
            cur = self.spans.get(p.0).and_then(|s| s.parent);
        }
        depth
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

/// Attribute lookup by key (first match), shared by the trace views.
pub fn attr<'a>(attrs: &'a Attrs, key: &str) -> Option<&'a AttrValue> {
    attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn spans_nest_under_the_open_stack() {
        let mut trace = Trace::new();
        let root = trace.begin_span("pipeline", t(0.0));
        let child = trace.begin_span("collect", t(0.0));
        trace.event("sample", t(1.0), vec![]);
        trace.end_span(child, t(2.0));
        let sibling = trace.begin_span("train", t(2.0));
        trace.end_span(sibling, t(5.0));
        trace.end_span(root, t(5.0));

        assert_eq!(trace.spans().len(), 3);
        assert_eq!(trace.spans()[1].parent, Some(root));
        assert_eq!(trace.spans()[2].parent, Some(root));
        assert_eq!(trace.events()[0].parent, Some(child));
        assert_eq!(trace.depth(child), 1);
        assert_eq!(trace.depth(root), 0);
        assert_eq!(trace.spans()[1].end, Some(t(2.0)));
    }

    #[test]
    fn ending_a_parent_closes_open_children() {
        let mut trace = Trace::new();
        let root = trace.begin_span("outer", t(0.0));
        let _leaked = trace.begin_span("inner", t(1.0));
        trace.end_span(root, t(3.0));
        assert!(trace.spans().iter().all(|s| s.end == Some(t(3.0))));
        assert_eq!(trace.current_span(), None);
    }

    #[test]
    fn attrs_round_trip_exact() {
        let mut trace = Trace::new();
        let id = trace.begin_span("attempt", t(0.0));
        trace.span_attr(id, "charged_s", AttrValue::F64(0.1 + 0.2));
        trace.span_attr(id, "attempt", AttrValue::Int(3));
        trace.span_attr(id, "outcome", AttrValue::Str("ok".into()));
        trace.end_span(id, t(1.0));
        let span = &trace.spans()[0];
        assert_eq!(
            attr(&span.attrs, "charged_s").unwrap().as_f64(),
            Some(0.1 + 0.2)
        );
        assert_eq!(attr(&span.attrs, "attempt").unwrap().as_int(), Some(3));
        assert_eq!(attr(&span.attrs, "outcome").unwrap().as_str(), Some("ok"));
        assert_eq!(attr(&span.attrs, "missing"), None);
    }

    #[test]
    fn named_iterators_filter() {
        let mut trace = Trace::new();
        let a = trace.begin_span("attempt", t(0.0));
        trace.end_span(a, t(1.0));
        let b = trace.begin_span("attempt", t(1.0));
        trace.end_span(b, t(2.0));
        trace.event("fault", t(0.5), vec![]);
        assert_eq!(trace.spans_named("attempt").count(), 2);
        assert_eq!(trace.events_named("fault").count(), 1);
        assert_eq!(trace.spans_named("nope").count(), 0);
    }
}
