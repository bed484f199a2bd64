//! The benchmark's own wall-clock tracer.
//!
//! Spans are recorded around the benchmark's calls into the program's
//! crates — never inside them — and kept in memory until the run ends,
//! when [`Tracer::write_chrome`] writes them out. A disabled tracer records
//! nothing, so the untraced run pays one branch per boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Nanoseconds elapsed since `origin`.
pub fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One closed span: a call boundary with its start, end and parent.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanHandle(Option<usize>);

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Open a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanHandle {
        if !self.enabled {
            return SpanHandle(None);
        }
        let id = self.spans.len();
        let now = ns_since(self.origin);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanHandle(Some(id))
    }

    /// Close `handle`, and any span opened inside it that is still open.
    pub fn end(&mut self, handle: SpanHandle) {
        let Some(id) = handle.0 else { return };
        let now = ns_since(self.origin);
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let h = self.begin(name);
        let out = f();
        self.end(h);
        out
    }

    /// Record intervals a timing wrapper captured on its own (wrappers
    /// cannot hold the tracer: the program takes them by value or as
    /// `Send` trait objects). They nest under the innermost open span.
    pub fn record(&mut self, name: &'static str, intervals: &[(u64, u64)]) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.spans
            .extend(intervals.iter().map(|&(start_ns, end_ns)| Span {
                name,
                start_ns,
                end_ns,
                parent,
            }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover, summed, in milliseconds.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns().saturating_sub(*c) as f64 / 1e6;
        }
        out
    }

    /// The spans as chrome://tracing JSON (complete `X` events; the parent
    /// index rides along in `args`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}
