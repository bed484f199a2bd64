//! Property tests: the reservation calendar's capacity invariant, its
//! agreement with a brute-force calendar, and the performance model's
//! monotonicity.

use autolearn_cloud::hardware::{ComputeDevice, GpuKind, NodeType, Site};
use autolearn_cloud::perf::{inference_latency, training_time, TrainingCostModel};
use autolearn_cloud::reservation::{
    Lease, LeaseId, LeaseState, ReservationError, ReservationSystem,
};
use autolearn_util::{SimDuration, SimTime};
use proptest::prelude::*;

fn site(capacity: u32) -> Site {
    Site {
        name: "prop".to_string(),
        inventory: vec![(NodeType::gpu_node(GpuKind::V100, 4), capacity)],
    }
}

/// Worst-case free nodes by brute force: usage evaluated at the window
/// start and at every overlapping lease start inside it, scanning every
/// lease ever admitted.
fn scan_min_free(leases: &[Lease], capacity: u32, start: f64, end: f64) -> u32 {
    let holds = |l: &&Lease| l.state != LeaseState::Ended;
    let mut points = vec![start];
    points.extend(
        leases
            .iter()
            .filter(holds)
            .filter(|l| l.start.0 < end && start < l.end.0 && l.start.0 > start)
            .map(|l| l.start.0),
    );
    points
        .into_iter()
        .map(|t| {
            let used: u32 = leases
                .iter()
                .filter(holds)
                .filter(|l| l.start.0 <= t && t < l.end.0)
                .map(|l| l.nodes)
                .sum();
            capacity.saturating_sub(used)
        })
        .min()
        .unwrap_or(capacity)
}

/// The lease states `advance_time(now)` must produce, from the states
/// before it.
fn scan_advance(leases: &[Lease], now: f64) -> Vec<LeaseState> {
    leases
        .iter()
        .map(|l| match l.state {
            LeaseState::Ended => LeaseState::Ended,
            _ if now >= l.end.0 => LeaseState::Ended,
            _ if now >= l.start.0 => LeaseState::Active,
            s => s,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of reserve / on_demand / advance_time /
    /// terminate agree with a brute-force scan over `leases()`: every
    /// admission decision, lease states, `lease(id)`, and after each
    /// operation `min_free` on windows across the timeline. Times sit on a
    /// 5 s grid so lease boundaries coincide often.
    #[test]
    fn live_index_matches_full_scan(
        capacity in 1u32..5,
        ops in prop::collection::vec((0usize..4, 0u32..40, 1u32..12, 1u32..4), 1..80),
    ) {
        let mut rs = ReservationSystem::new(site(capacity));
        let mut now = 0.0;
        for &(op, a, b, nodes) in &ops {
            let len = f64::from(b) * 5.0;
            let before = rs.leases().len();
            match op {
                0 | 1 => {
                    let start = if op == 0 { f64::from(a) * 5.0 } else { now };
                    let free = scan_min_free(rs.leases(), capacity, start, start + len);
                    let r = if op == 0 {
                        rs.reserve(
                            "p", "gpu_v100", nodes,
                            SimTime::from_secs(start), SimTime::from_secs(start + len),
                        )
                    } else {
                        rs.on_demand(
                            "p", "gpu_v100", nodes,
                            SimTime::from_secs(now), SimDuration::from_secs(len),
                        )
                    };
                    match r {
                        Ok(id) => {
                            prop_assert!(free >= nodes);
                            prop_assert_eq!(id, LeaseId(before as u64 + 1));
                            let state = if op == 1 || start <= 0.0 {
                                LeaseState::Active
                            } else {
                                LeaseState::Pending
                            };
                            prop_assert_eq!(
                                rs.lease(id).map(|l| (l.start.0, l.state)),
                                Some((start, state))
                            );
                        }
                        Err(e) => {
                            prop_assert_eq!(
                                e,
                                ReservationError::InsufficientCapacity { free, requested: nodes }
                            );
                            prop_assert_eq!(rs.leases().len(), before);
                        }
                    }
                }
                2 => {
                    // Not monotone: callers may also replay an earlier instant.
                    now = f64::from(a) * 5.0;
                    let expected = scan_advance(rs.leases(), now);
                    rs.advance_time(SimTime::from_secs(now));
                    let got: Vec<LeaseState> = rs.leases().iter().map(|l| l.state).collect();
                    prop_assert_eq!(got, expected);
                }
                _ => {
                    let id = LeaseId(u64::from(a % 45));
                    let old_end = rs.leases().iter().find(|l| l.id == id).map(|l| l.end.0);
                    rs.terminate(id, SimTime::from_secs(now));
                    prop_assert_eq!(
                        rs.lease(id).map(|l| (l.state, l.end.0)),
                        old_end.map(|end| (LeaseState::Ended, end.min(now)))
                    );
                }
            }
            for k in 0..12 {
                let (s, e) = (f64::from(k) * 10.0, f64::from(k) * 10.0 + len);
                prop_assert_eq!(
                    rs.min_free("gpu_v100", SimTime::from_secs(s), SimTime::from_secs(e)),
                    scan_min_free(rs.leases(), capacity, s, e)
                );
            }
            for probe in 0..=(rs.leases().len() as u64 + 1) {
                let id = LeaseId(probe);
                let scanned = rs.leases().iter().find(|l| l.id == id).map(|l| l.id);
                prop_assert_eq!(rs.lease(id).map(|l| l.id), scanned);
            }
        }
    }

    /// However leases are requested, at no instant does the sum of admitted
    /// overlapping leases exceed capacity.
    #[test]
    fn capacity_never_exceeded(
        capacity in 1u32..6,
        requests in prop::collection::vec((0.0f64..100.0, 1.0f64..50.0, 1u32..4), 1..40),
    ) {
        let mut rs = ReservationSystem::new(site(capacity));
        for (start, len, nodes) in &requests {
            let _ = rs.reserve(
                "p",
                "gpu_v100",
                *nodes,
                SimTime::from_secs(*start),
                SimTime::from_secs(start + len),
            );
        }
        // Check the invariant at every lease boundary instant.
        let mut instants: Vec<f64> = rs
            .leases()
            .iter()
            .flat_map(|l| [l.start.as_secs(), l.end.as_secs() - 1e-9])
            .collect();
        instants.push(0.0);
        for t in instants {
            let used: u32 = rs
                .leases()
                .iter()
                .filter(|l| {
                    l.state != LeaseState::Ended
                        && l.start.as_secs() <= t
                        && t < l.end.as_secs()
                })
                .map(|l| l.nodes)
                .sum();
            prop_assert!(used <= capacity, "at t={t}: used {used} > capacity {capacity}");
        }
    }

    /// min_free is consistent with a subsequent admission decision.
    #[test]
    fn min_free_predicts_admission(
        existing in prop::collection::vec((0.0f64..50.0, 1.0f64..30.0), 0..10),
        start in 0.0f64..60.0,
        len in 1.0f64..20.0,
        want in 1u32..4,
    ) {
        let mut rs = ReservationSystem::new(site(3));
        for (s, l) in &existing {
            let _ = rs.reserve("bg", "gpu_v100", 1, SimTime::from_secs(*s), SimTime::from_secs(s + l));
        }
        let free = rs.min_free("gpu_v100", SimTime::from_secs(start), SimTime::from_secs(start + len));
        let admitted = rs
            .reserve("p", "gpu_v100", want, SimTime::from_secs(start), SimTime::from_secs(start + len))
            .is_ok();
        prop_assert_eq!(admitted, free >= want);
    }

    /// Training time grows with examples and shrinks with device speed.
    /// (Model sizes start at 1 MFLOP: below that, per-batch launch overhead
    /// legitimately lets the overhead-free Pi "win", which is the crossover
    /// exp_t3 measures, not a bug.)
    #[test]
    fn perf_model_monotone(flops in 1_000_000u64..100_000_000, examples in 100u64..1_000_000) {
        let slow = ComputeDevice::raspberry_pi4();
        let fast = ComputeDevice::of_gpu(GpuKind::A100);
        let m1 = TrainingCostModel::new(flops, examples, 32);
        let m2 = TrainingCostModel::new(flops, examples * 2, 32);
        prop_assert!(training_time(&m1, &fast).as_secs() <= training_time(&m1, &slow).as_secs());
        prop_assert!(training_time(&m2, &fast).as_secs() >= training_time(&m1, &fast).as_secs());
        // Inference latency is monotone in flops on any one device. (Across
        // devices the GPU's call overhead beats the Pi only above ~20 MFLOP
        // — the crossover exp_t3 exists to measure.)
        for dev in [&fast, &slow] {
            prop_assert!(
                inference_latency(flops * 2, dev).as_secs()
                    >= inference_latency(flops, dev).as_secs()
            );
            prop_assert!(inference_latency(flops, dev).as_secs() > 0.0);
        }
        prop_assert!(
            inference_latency(100_000_000, &fast).as_secs()
                < inference_latency(100_000_000, &slow).as_secs()
        );
    }
}
