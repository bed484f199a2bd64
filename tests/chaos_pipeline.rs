//! Chaos property suite: the fallible pipeline under seeded fault plans.
//!
//! Properties checked across ~100 seeded plans:
//! * no plan panics — every outcome is `Ok` or a typed `PipelineError`,
//! * the same seed yields a byte-identical outcome (run log + timings),
//! * a run that recovered from injected faults costs strictly more
//!   simulated time than the fault-free baseline,
//! * with retries disabled, faulty plans die with a typed error naming the
//!   stage that failed,
//! * across the suite, every fault site (net, cloud, edge) gets exercised.

use autolearn::pipeline::{Pipeline, PipelineConfig, PipelineError, PipelineReport};
use autolearn_track::circle_track;
use autolearn_util::fault::{FaultConfig, FaultPlan, FaultSite};
use autolearn_util::RetryPolicy;

/// The smallest lesson that still trains and evaluates: keeps ~150 chaos
/// runs affordable in the test suite.
fn tiny_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::lesson_default(77);
    cfg.collection.duration_s = 20.0;
    cfg.train.epochs = 2;
    cfg.eval_laps = 1;
    cfg.eval_max_duration_s = 10.0;
    cfg
}

fn run_with(plan: &mut FaultPlan, policy: &RetryPolicy) -> Result<PipelineReport, PipelineError> {
    Pipeline::new(circle_track(3.0, 0.8), tiny_config()).run_chaos(plan, policy)
}

/// Serialize the deterministic outcome surface of a run: the complete
/// attempt/fault log plus every stage timing.
fn outcome_bytes(report: &PipelineReport) -> String {
    let stages = serde_json::to_string(&report.stages).expect("stages serialize");
    let log = serde_json::to_string(&report.run_log).expect("run log serializes");
    format!("{stages}|{log}")
}

const KNOWN_STAGES: &[&str] = &[
    "reserve",
    "provision+upload",
    "train",
    "deploy-model",
    "deploy-container",
];

#[test]
fn hundred_seeded_plans_never_panic_and_recovery_costs_time() {
    let baseline = run_with(&mut FaultPlan::none(), &RetryPolicy::default())
        .expect("fault-free baseline runs");
    let base_total = baseline.total_time();
    let base_bytes = outcome_bytes(&baseline);

    let mut recovered = 0usize;
    let mut sites_seen = [false; 3];
    for plan_seed in 0..100u64 {
        let mut plan = FaultPlan::from_seed(plan_seed, FaultConfig::chaos(0.35));
        // Default policy (4 attempts) always out-lasts the per-site fault
        // cap (2), so every plan must recover.
        let report = run_with(&mut plan, &RetryPolicy::default())
            .unwrap_or_else(|e| panic!("plan seed {plan_seed} unrecoverable: {e}"));
        for fault in &report.run_log.faults {
            sites_seen[match fault.site {
                FaultSite::Net => 0,
                FaultSite::Cloud => 1,
                FaultSite::Edge => 2,
            }] = true;
        }
        if report.run_log.faults.is_empty() {
            // No injection: the run is indistinguishable from the baseline.
            assert_eq!(
                outcome_bytes(&report),
                base_bytes,
                "calm plan seed {plan_seed} drifted from the baseline"
            );
        } else {
            recovered += 1;
            assert!(
                report.total_time().as_secs() > base_total.as_secs(),
                "plan seed {plan_seed} recovered from {:?} in {} — not more than fault-free {}",
                report.run_log.faults,
                report.total_time(),
                base_total
            );
        }
        // The checkpoint trail always ends at evaluation and never repeats.
        let stages = &report.run_log.completed_stages;
        assert_eq!(stages.last().map(String::as_str), Some("evaluate"));
        let mut dedup = stages.clone();
        dedup.dedup();
        assert_eq!(&dedup, stages, "a completed stage was re-entered");
    }
    assert!(
        recovered >= 30,
        "only {recovered}/100 plans injected anything at rate 0.35"
    );
    assert!(
        sites_seen.iter().all(|s| *s),
        "fault sites exercised: net={} cloud={} edge={}",
        sites_seen[0],
        sites_seen[1],
        sites_seen[2]
    );
}

#[test]
fn same_seed_gives_byte_identical_outcome() {
    for plan_seed in [3u64, 17, 42, 71] {
        let outcomes: Vec<String> = (0..2)
            .map(|_| {
                let mut plan = FaultPlan::from_seed(plan_seed, FaultConfig::chaos(0.6));
                let report = run_with(&mut plan, &RetryPolicy::default())
                    .expect("recoverable under default policy");
                outcome_bytes(&report)
            })
            .collect();
        assert_eq!(
            outcomes[0], outcomes[1],
            "plan seed {plan_seed} not reproducible"
        );
    }
}

#[test]
fn without_retries_faulty_plans_fail_with_typed_stage_errors() {
    let mut failures = 0usize;
    for plan_seed in 0..20u64 {
        let mut plan = FaultPlan::from_seed(plan_seed, FaultConfig::chaos(0.8));
        match run_with(&mut plan, &RetryPolicy::no_retries()) {
            Ok(report) => {
                // Survivable without retries only if nothing failing was
                // injected (degradations and preemptions recover in-stage).
                assert_eq!(report.run_log.failed_attempts(), 0);
            }
            Err(err) => {
                failures += 1;
                let stage = err
                    .stage()
                    .unwrap_or_else(|| panic!("error without a stage: {err}"));
                assert!(
                    KNOWN_STAGES.contains(&stage),
                    "unknown failing stage '{stage}'"
                );
                assert!(
                    err.to_string().contains(stage),
                    "'{err}' does not name its stage"
                );
            }
        }
    }
    assert!(
        failures >= 5,
        "only {failures}/20 no-retry chaos plans failed at rate 0.8"
    );
}

#[test]
fn tight_deadline_surfaces_as_deadline_exceeded() {
    let policy = RetryPolicy::default().with_deadline(autolearn_util::SimDuration::from_secs(1.0));
    for plan_seed in 0..50u64 {
        let mut plan = FaultPlan::from_seed(plan_seed, FaultConfig::chaos(1.0));
        if let Err(PipelineError::DeadlineExceeded {
            stage,
            elapsed,
            deadline,
        }) = run_with(&mut plan, &policy)
        {
            assert!(KNOWN_STAGES.contains(&stage.as_str()));
            assert!(elapsed.as_secs() >= deadline.as_secs());
            return;
        }
    }
    panic!("no plan in 50 seeds blew a 1s stage deadline at rate 1.0");
}
