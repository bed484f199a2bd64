//! `autolearn-obs`: deterministic sim-time observability for the continuum.
//!
//! Everything in this crate is keyed on **simulated** time ([`SimTime`]) —
//! never the host clock — so two runs with the same seed and the same
//! fault plan produce byte-identical traces, metrics, and exports. The
//! crate sits just above `autolearn-util` in the dependency graph and
//! below everything else: net, cloud, edge, nn, and core all emit through
//! it, and it depends on none of them.
//!
//! The pieces:
//!
//! * [`trace`] — a grow-only span/event arena with explicit nesting.
//! * [`metrics`] — counters, gauges, and fixed-bucket histograms in a
//!   deterministic insertion-order registry.
//! * [`flight`] — a bounded ring of recent observations, dumped into a
//!   [`PostMortem`] when a run dies.
//! * [`export`] — chrome://tracing JSON (Perfetto-loadable) and a compact
//!   JSON summary, both hand-rolled for byte-stable output.
//! * [`Obs`] — the facade the rest of the workspace threads through: one
//!   object owning the trace, the registry, the flight recorder, and a
//!   simulated-time cursor.

/// Byte-stable exporters: chrome://tracing JSON and the compact summary.
pub mod export;
/// Bounded flight-recorder ring and crash post-mortems.
pub mod flight;
/// Counters, gauges and fixed-bucket histograms in insertion order.
pub mod metrics;
/// Sim-time span/event tracing core and the grow-only trace arena.
pub mod trace;

pub use export::{chrome_trace, summary};
pub use flight::{FlightEntry, FlightRecorder, PostMortem, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{Counter, Gauge, Histogram, Metric, MetricsRegistry};
pub use trace::{attr, AttrValue, Attrs, Event, Span, SpanId, Trace};

use autolearn_util::fault::{FaultSite, InjectedFault};
use autolearn_util::{SimDuration, SimTime};

/// Alias used throughout the instrumentation: all trace math is in
/// simulated seconds.
pub type SimSeconds = SimDuration;

/// The observability facade: one per run.
///
/// `Obs` owns the trace arena, the metrics registry, the flight recorder,
/// and a **simulated-time cursor**. Instrumented code advances the cursor
/// with [`Obs::advance`] as it charges simulated work, and every span,
/// event, and flight-recorder line is stamped from the cursor — so callers
/// never touch the host clock and never pass timestamps by hand.
#[derive(Debug, Clone)]
pub struct Obs {
    trace: Trace,
    metrics: MetricsRegistry,
    flight: FlightRecorder,
    now: SimTime,
    post_mortem: Option<PostMortem>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A fresh observer with the cursor at `t+0` and the default flight
    /// ring capacity.
    pub fn new() -> Obs {
        Obs::with_flight_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A fresh observer keeping the last `capacity` flight entries.
    pub fn with_flight_capacity(capacity: usize) -> Obs {
        Obs {
            trace: Trace::new(),
            metrics: MetricsRegistry::new(),
            flight: FlightRecorder::with_capacity(capacity),
            now: SimTime::default(),
            post_mortem: None,
        }
    }

    /// The cursor: current position on the simulated timeline.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Move the cursor to an absolute instant (used when a run starts at a
    /// caller-chosen `SimTime` rather than `t+0`).
    pub fn set_now(&mut self, at: SimTime) {
        self.now = at;
    }

    /// Advance the cursor by `d` simulated seconds. The single place the
    /// timeline moves — instrumented drivers call it exactly once per unit
    /// of charged work so nothing is double-counted.
    pub fn advance(&mut self, d: SimDuration) {
        self.now = self.now + d;
    }

    /// Open a span at the cursor, nested under the innermost open span.
    pub fn begin_span(&mut self, name: &'static str) -> SpanId {
        let id = self.trace.begin_span(name, self.now);
        self.flight.record(self.now, format!("begin {name}"));
        id
    }

    /// Close `id` at the cursor (children still open close with it).
    pub fn end_span(&mut self, id: SpanId) {
        let name = self.trace.spans().get(id.0).map_or("", |s| s.name);
        self.trace.end_span(id, self.now);
        self.flight.record(self.now, format!("end {name}"));
    }

    /// Attach a typed attribute to a span.
    pub fn span_attr(&mut self, id: SpanId, key: &'static str, value: AttrValue) {
        self.trace.span_attr(id, key, value);
    }

    /// Record an instant event at the cursor, mirrored into the flight
    /// ring as `name key=value ...`.
    pub fn event(&mut self, name: &'static str, attrs: Attrs) {
        let mut line = String::from(name);
        for (k, v) in &attrs {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            match v {
                AttrValue::Int(x) => line.push_str(&x.to_string()),
                AttrValue::UInt(x) => line.push_str(&x.to_string()),
                AttrValue::F64(x) => line.push_str(&format!("{x:?}")),
                AttrValue::Str(s) => line.push_str(s),
                AttrValue::Bool(b) => line.push_str(&b.to_string()),
            }
        }
        self.flight.record(self.now, line);
        self.trace.event(name, self.now, attrs);
    }

    /// Add `delta` to the counter `name` (registered on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.metrics.gauge_set(name, value);
    }

    /// Raise the gauge `name` to `value` if it is higher (peak tracking).
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        self.metrics.gauge_max(name, value);
    }

    /// Observe `value` into the histogram `name` (default seconds
    /// buckets when first registered).
    pub fn observe(&mut self, name: &str, value: f64) {
        self.metrics.observe(name, value);
    }

    /// Observe into a histogram with explicit bucket bounds on first
    /// registration.
    pub fn observe_with(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.metrics
            .observe_with(name, value, || Histogram::with_bounds(bounds));
    }

    /// Record a slice of newly injected faults (the tail of
    /// [`FaultPlan::injected`](autolearn_util::fault::FaultPlan::injected)
    /// since the caller last looked): one `fault` event each, plus a bump
    /// of the per-site `<site>.faults` counter. The bridge between the
    /// fault model and the trace lives here so net, cloud, and edge all
    /// report faults identically.
    pub fn record_injected_faults(&mut self, faults: &[InjectedFault]) {
        for f in faults {
            let counter = match f.site {
                FaultSite::Net => "net.faults",
                FaultSite::Cloud => "cloud.faults",
                FaultSite::Edge => "edge.faults",
            };
            self.counter_add(counter, 1);
            self.event(
                "fault",
                vec![
                    ("site", AttrValue::Str(f.site.name().to_string())),
                    ("op", AttrValue::Str(f.op.clone())),
                    ("kind", AttrValue::Str(f.kind.to_string())),
                ],
            );
        }
    }

    /// Capture a post-mortem at the cursor: the rendered error plus the
    /// flight recorder's dump of the moments before it. Only the first
    /// failure of a run is kept.
    pub fn record_failure(&mut self, error: &str) {
        if self.post_mortem.is_some() {
            return;
        }
        self.post_mortem = Some(PostMortem {
            error: error.to_string(),
            at: self.now,
            recent: self.flight.dump(),
        });
    }

    /// The captured post-mortem, if the run failed.
    pub fn post_mortem(&self) -> Option<&PostMortem> {
        self.post_mortem.as_ref()
    }

    /// The underlying trace arena (read-only).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The metrics registry (read-only).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The flight recorder (read-only).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Export the trace in chrome://tracing format.
    pub fn export_chrome_trace(&self) -> String {
        chrome_trace(&self.trace)
    }

    /// Export the compact JSON summary (span totals + metrics).
    pub fn export_summary(&self) -> String {
        summary(&self.trace, &self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_stamps_spans_and_events() {
        let mut obs = Obs::new();
        let root = obs.begin_span("pipeline");
        obs.advance(SimDuration::from_secs(10.0));
        obs.event(
            "checkpoint",
            vec![("stage", AttrValue::Str("collect".into()))],
        );
        obs.advance(SimDuration::from_secs(5.0));
        obs.end_span(root);

        let span = &obs.trace().spans()[0];
        assert_eq!(span.start, SimTime::from_secs(0.0));
        assert_eq!(span.end, Some(SimTime::from_secs(15.0)));
        assert_eq!(obs.trace().events()[0].at, SimTime::from_secs(10.0));
        assert_eq!(obs.now(), SimTime::from_secs(15.0));
    }

    #[test]
    fn flight_ring_mirrors_boundaries_and_events() {
        let mut obs = Obs::new();
        let s = obs.begin_span("train");
        obs.event("epoch", vec![("n", AttrValue::Int(1))]);
        obs.end_span(s);
        let lines: Vec<String> = obs.flight().entries().map(|e| e.line.clone()).collect();
        assert_eq!(lines, vec!["begin train", "epoch n=1", "end train"]);
    }

    #[test]
    fn metrics_route_through_the_facade() {
        let mut obs = Obs::new();
        obs.counter_add("net.faults", 2);
        obs.gauge_max("nn.scratch_peak_bytes", 100.0);
        obs.gauge_max("nn.scratch_peak_bytes", 50.0);
        obs.observe("pipeline.stage_seconds", 3.0);
        assert_eq!(obs.metrics().counter("net.faults"), 2);
        assert_eq!(obs.metrics().gauge("nn.scratch_peak_bytes"), 100.0);
        assert_eq!(
            obs.metrics()
                .histogram("pipeline.stage_seconds")
                .map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn only_first_failure_is_kept() {
        let mut obs = Obs::new();
        obs.event("x", vec![]);
        obs.record_failure("first");
        obs.advance(SimDuration::from_secs(1.0));
        obs.record_failure("second");
        let pm = obs.post_mortem().unwrap();
        assert_eq!(pm.error, "first");
        assert_eq!(pm.at, SimTime::from_secs(0.0));
        assert_eq!(pm.recent.len(), 1);
    }

    #[test]
    fn exports_are_deterministic_via_the_facade() {
        let build = || {
            let mut obs = Obs::new();
            let s = obs.begin_span("run");
            obs.advance(SimDuration::from_secs(2.5));
            obs.counter_add("retries", 1);
            obs.end_span(s);
            obs
        };
        let (a, b) = (build(), build());
        assert_eq!(a.export_chrome_trace(), b.export_chrome_trace());
        assert_eq!(a.export_summary(), b.export_summary());
    }
}
