//! Trace and metrics exporters.
//!
//! Two formats, both hand-rolled so the output is byte-identical across
//! same-seed replays (no dependency on a serializer's key ordering):
//!
//! * [`chrome_trace`] — the Chrome Trace Event JSON format (`ph: "X"`
//!   complete events for spans, `ph: "i"` instants for events), loadable
//!   directly in Perfetto / `chrome://tracing`. Simulated seconds become
//!   trace microseconds.
//! * [`summary`] — a compact JSON digest: span totals by name plus every
//!   registered metric, for experiment reports and CI assertions.

use crate::metrics::{Metric, MetricsRegistry};
use crate::trace::{AttrValue, Trace};

/// Escape `s` into a JSON string body (no surrounding quotes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number. Rust's `{:?}` is the shortest
/// round-trip representation, which is deterministic for identical bits;
/// non-finite values (not representable in JSON) become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_attr(value: &AttrValue) -> String {
    match value {
        AttrValue::Int(v) => v.to_string(),
        AttrValue::UInt(v) => v.to_string(),
        AttrValue::F64(v) => json_f64(*v),
        AttrValue::Str(s) => format!("\"{}\"", escape(s)),
        AttrValue::Bool(b) => b.to_string(),
    }
}

fn json_args(attrs: &[(&str, AttrValue)]) -> String {
    let body: Vec<String> = attrs
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), json_attr(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Simulated seconds → trace microseconds (the unit the Trace Event
/// format expects).
fn to_us(secs: f64) -> String {
    json_f64(secs * 1e6)
}

/// Export `trace` in the Chrome Trace Event format. Spans become `ph:"X"`
/// complete events (with their simulated duration), trace events become
/// `ph:"i"` thread-scoped instants; everything lives on one pid/tid since
/// the simulation is single-timeline. Open spans are exported with zero
/// duration. Load the result in Perfetto or `chrome://tracing` as-is.
pub fn chrome_trace(trace: &Trace) -> String {
    // Interleave spans and instants in their global emission order so the
    // file is stable and human-diffable; viewers sort by ts themselves.
    let mut records: Vec<(u64, String)> = Vec::new();
    for span in trace.spans() {
        let start = span.start.as_secs();
        let dur = span.end.map(|e| (e - span.start).as_secs()).unwrap_or(0.0);
        records.push((
            span.seq,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{}}}",
                escape(span.name),
                to_us(start),
                to_us(dur),
                json_args(&span.attrs)
            ),
        ));
    }
    for event in trace.events() {
        records.push((
            event.seq,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"sim\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\"pid\":1,\"tid\":1,\"args\":{}}}",
                escape(event.name),
                to_us(event.at.as_secs()),
                json_args(&event.attrs)
            ),
        ));
    }
    records.sort_by_key(|(seq, _)| *seq);
    let body: Vec<String> = records.into_iter().map(|(_, r)| r).collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        body.join(",\n")
    )
}

fn json_metric(metric: &Metric) -> String {
    match metric {
        Metric::Counter(c) => format!("{{\"type\":\"counter\",\"value\":{}}}", c.value),
        Metric::Gauge(g) => {
            format!("{{\"type\":\"gauge\",\"value\":{}}}", json_f64(g.value))
        }
        Metric::Histogram(h) => {
            let bounds: Vec<String> = h.bounds.iter().map(|b| json_f64(*b)).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
            format!(
                "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"bounds\":[{}],\"counts\":[{}]}}",
                h.count,
                json_f64(h.sum),
                json_f64(h.mean()),
                json_f64(h.percentile(50.0)),
                json_f64(h.percentile(95.0)),
                bounds.join(","),
                counts.join(",")
            )
        }
    }
}

/// Export a compact JSON digest of `trace` + `metrics`: per-name span
/// totals (count + summed simulated seconds, in first-appearance order)
/// and every registered metric in insertion order.
pub fn summary(trace: &Trace, metrics: &MetricsRegistry) -> String {
    // Span totals by name, first-appearance order.
    let mut names: Vec<&str> = Vec::new();
    let mut totals: Vec<(u64, f64)> = Vec::new();
    for span in trace.spans() {
        let dur = span.end.map(|e| (e - span.start).as_secs()).unwrap_or(0.0);
        match names.iter().position(|n| *n == span.name) {
            Some(i) => {
                totals[i].0 += 1;
                totals[i].1 += dur;
            }
            None => {
                names.push(span.name);
                totals.push((1, dur));
            }
        }
    }
    let span_rows: Vec<String> = names
        .iter()
        .zip(&totals)
        .map(|(name, (count, secs))| {
            format!(
                "    {{\"name\":\"{}\",\"count\":{},\"total_s\":{}}}",
                escape(name),
                count,
                json_f64(*secs)
            )
        })
        .collect();
    let metric_rows: Vec<String> = metrics
        .iter()
        .map(|(name, metric)| format!("    \"{}\": {}", escape(name), json_metric(metric)))
        .collect();
    format!(
        "{{\n  \"spans\": {},\n  \"events\": {},\n  \"span_totals\": [\n{}\n  ],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        trace.spans().len(),
        trace.events().len(),
        span_rows.join(",\n"),
        metric_rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use autolearn_util::SimTime;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample_trace() -> Trace {
        let mut trace = Trace::new();
        let root = trace.begin_span("pipeline", t(0.0));
        let stage = trace.begin_span("collect", t(0.0));
        trace.event(
            "fault",
            t(1.5),
            vec![("kind", AttrValue::Str("link \"flap\"".to_string()))],
        );
        trace.end_span(stage, t(2.0));
        trace.end_span(root, t(2.0));
        trace
    }

    #[test]
    fn chrome_trace_has_the_expected_shape() {
        let json = chrome_trace(&sample_trace());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"pipeline\""));
        // 2 s span → 2e6 us.
        assert!(json.contains("\"dur\":2000000.0"));
        // Quotes inside attribute strings are escaped.
        assert!(json.contains("link \\\"flap\\\""));
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace(&sample_trace());
        let b = chrome_trace(&sample_trace());
        assert_eq!(a, b);
    }

    #[test]
    fn summary_totals_spans_by_name() {
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add("pipeline.retries", 2);
        metrics.gauge_set("nn.scratch_peak_bytes", 1024.0);
        metrics.observe("stage_seconds", 2.0);
        let json = summary(&sample_trace(), &metrics);
        assert!(json.contains("\"spans\": 2"));
        assert!(json.contains("\"events\": 1"));
        assert!(json.contains("\"name\":\"collect\",\"count\":1,\"total_s\":2.0"));
        assert!(json.contains("\"pipeline.retries\": {\"type\":\"counter\",\"value\":2}"));
        assert!(json.contains("\"type\":\"histogram\",\"count\":1"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn control_chars_are_escaped() {
        assert_eq!(escape("a\nb\t\"c\"\\"), "a\\nb\\t\\\"c\\\"\\\\");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
