//! Golden-trace determinism: the telemetry layer must be as replayable as
//! the simulation it observes.
//!
//! Properties checked:
//! * the same seed and the same fault plan export a byte-identical
//!   chrome-trace AND a byte-identical metrics summary — across many
//!   seeds, faulty and calm;
//! * the exported trace of one pipeline run nests all seven stages under
//!   a single root span, with injected faults and retried attempts as
//!   children of the stage they hit;
//! * a failing run leaves a post-mortem carrying the flight-recorder tail;
//! * histogram buckets and percentiles behave at the edges.

use autolearn::pipeline::{Pipeline, PipelineConfig};
use autolearn_obs::{attr, AttrValue, Histogram, Obs};
use autolearn_track::circle_track;
use autolearn_util::fault::{FaultConfig, FaultPlan};
use autolearn_util::RetryPolicy;

fn tiny_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::lesson_default(77);
    cfg.collection.duration_s = 20.0;
    cfg.train.epochs = 2;
    cfg.eval_laps = 1;
    cfg.eval_max_duration_s = 10.0;
    cfg
}

/// Run one observed pipeline under `plan_seed`, return both exports.
fn observed_run(plan_seed: u64) -> (String, String) {
    let mut plan = FaultPlan::from_seed(plan_seed, FaultConfig::chaos(0.35));
    let mut obs = Obs::new();
    Pipeline::new(circle_track(3.0, 0.8), tiny_config())
        .run_observed(&mut plan, &RetryPolicy::default(), &mut obs)
        .expect("default policy out-lasts the per-site fault cap");
    (obs.export_chrome_trace(), obs.export_summary())
}

#[test]
fn same_seed_same_plan_exports_are_byte_identical() {
    for plan_seed in [0u64, 3, 7, 11, 23, 42] {
        let (trace_a, summary_a) = observed_run(plan_seed);
        let (trace_b, summary_b) = observed_run(plan_seed);
        assert_eq!(
            trace_a, trace_b,
            "plan seed {plan_seed}: chrome-trace drifted between replays"
        );
        assert_eq!(
            summary_a, summary_b,
            "plan seed {plan_seed}: metrics summary drifted between replays"
        );
    }
}

#[test]
fn trace_nests_seven_stages_with_faults_and_retries_as_children() {
    // Seed 7 injects multiple faults at chaos(0.35) and still recovers.
    let mut plan = FaultPlan::from_seed(7, FaultConfig::chaos(0.35));
    let mut obs = Obs::new();
    Pipeline::new(circle_track(3.0, 0.8), tiny_config())
        .run_observed(&mut plan, &RetryPolicy::default(), &mut obs)
        .expect("seed 7 recovers");
    assert!(!plan.injected().is_empty(), "seed 7 should inject faults");

    let trace = obs.trace();
    let root = trace.spans_named("pipeline").next().expect("root span");
    let root_id = autolearn_obs::SpanId(0);
    assert!(root.end.is_some(), "root span must be closed");

    // All seven stages, nested directly under the root, in stage order.
    let stage_names = [
        "collect",
        "clean",
        "reserve",
        "provision+upload",
        "train",
        "deploy-model",
        "evaluate",
    ];
    let mut last_seq = 0u64;
    for name in stage_names {
        let span = trace
            .spans_named(name)
            .next()
            .unwrap_or_else(|| panic!("missing stage span `{name}`"));
        assert_eq!(span.parent, Some(root_id), "`{name}` must nest under root");
        assert!(span.end.is_some(), "`{name}` must be closed");
        assert!(
            span.seq > last_seq || name == "collect",
            "stages out of order at `{name}`"
        );
        last_seq = span.seq;
    }

    // Every fault event is a child of some stage's attempt machinery, not
    // a root-level orphan: its parent span exists and is not the root.
    let fault_events: Vec<_> = trace.events_named("fault").collect();
    assert_eq!(
        fault_events.len(),
        plan.injected().len(),
        "one fault event per injected fault"
    );
    for ev in &fault_events {
        let parent = ev.parent.expect("fault events attach to a span");
        assert_ne!(
            parent, root_id,
            "fault events nest inside a stage, not the root"
        );
        assert!(
            attr(&trace.spans()[parent.0].attrs, "stage").is_some()
                || !trace.spans()[parent.0].name.is_empty()
        );
    }

    // Retried attempts: more attempt spans than stages that retry once.
    let attempts: Vec<_> = trace.spans_named("attempt").collect();
    assert!(
        attempts.len() > 4,
        "faulty run must retry: {}",
        attempts.len()
    );
    for a in &attempts {
        assert!(a.parent.is_some(), "attempt spans nest under their stage");
        let stage = attr(&a.attrs, "stage").and_then(AttrValue::as_str);
        assert!(stage.is_some(), "attempt spans carry their stage name");
    }
}

#[test]
fn failing_run_dumps_a_post_mortem_with_flight_tail() {
    // No retries: the first injected fault kills the run.
    let mut plan = FaultPlan::from_seed(7, FaultConfig::chaos(0.35));
    let mut obs = Obs::new();
    let result = Pipeline::new(circle_track(3.0, 0.8), tiny_config()).run_observed(
        &mut plan,
        &RetryPolicy::no_retries(),
        &mut obs,
    );
    let err = match result {
        Err(e) => e,
        Ok(_) => panic!("seed 7 without retries must fail"),
    };

    let pm = obs.post_mortem().expect("failure leaves a post-mortem");
    assert!(pm.error.contains(&err.to_string()) || !pm.error.is_empty());
    assert!(
        !pm.recent.is_empty(),
        "flight recorder tail must not be empty"
    );
    // The tail ends near the failure: its last entries mention the
    // attempt machinery that died.
    let tail = pm.recent.join("\n");
    assert!(
        tail.contains("attempt"),
        "tail shows the dying attempt: {tail}"
    );
    // The root span is closed even on the error path.
    let root = obs
        .trace()
        .spans_named("pipeline")
        .next()
        .expect("root span");
    assert!(root.end.is_some(), "root span closed on failure");
}

#[test]
fn calm_plan_trace_matches_run_chaos_bookkeeping() {
    // The RunLog view over the trace must agree with the report the
    // un-traced entry points produce for the same inputs.
    let report_plain = Pipeline::new(circle_track(3.0, 0.8), tiny_config())
        .run()
        .expect("fault-free run succeeds");
    let mut obs = Obs::new();
    let report_traced = Pipeline::new(circle_track(3.0, 0.8), tiny_config())
        .run_observed(&mut FaultPlan::none(), &RetryPolicy::default(), &mut obs)
        .expect("fault-free observed run succeeds");
    assert_eq!(
        serde_json::to_string(&report_plain.run_log).unwrap(),
        serde_json::to_string(&report_traced.run_log).unwrap(),
        "run log must not depend on whether the caller kept the trace"
    );
    assert_eq!(
        serde_json::to_string(&report_plain.stages).unwrap(),
        serde_json::to_string(&report_traced.stages).unwrap(),
    );
}

#[test]
fn histogram_buckets_and_percentiles_hold_at_the_edges() {
    let mut h = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
    // Exactly-on-bound values land in the bucket whose bound they equal
    // (upper-inclusive), the overflow bucket catches the rest.
    for v in [0.5, 1.0, 10.0, 99.9, 100.0, 1e9] {
        h.observe(v);
    }
    assert_eq!(h.count, 6);
    assert_eq!(h.counts, vec![2, 1, 2, 1]);
    assert_eq!(h.min, 0.5);
    assert_eq!(h.max, 1e9);

    // Percentiles: p0 ≈ min bucket bound, p100 clamps to observed max.
    assert!(h.percentile(0.0) <= 1.0);
    assert_eq!(h.percentile(100.0), 1e9);
    // p50 lands in a real bucket, never above the max.
    let p50 = h.percentile(50.0);
    assert!(p50 > 0.0 && p50 <= h.max, "{p50}");

    // Empty histogram: percentile of nothing is 0, not NaN or a panic.
    let empty = Histogram::with_bounds(&[1.0]);
    assert_eq!(empty.percentile(50.0), 0.0);
    assert_eq!(empty.count, 0);

    // Deterministic seconds buckets are sorted and strictly increasing.
    let s = Histogram::seconds_buckets();
    for w in s.bounds.windows(2) {
        assert!(w[0] < w[1], "bounds must strictly increase");
    }
}
