//! T11 — §3.2: "All hardware is available either on-demand or via advance
//! reservations ... to manage resource scarcity or to guarantee resource
//! availability at a specific time slot for a class."
//!
//! Monte-Carlo: a class of N students needs GPU nodes during a 2-hour slot
//! while background research jobs arrive all week. Compare the class's
//! blocking probability with and without an advance reservation.
//!
//! Shape target: with the advance reservation the class never blocks; on
//! demand it blocks increasingly often as background load grows.

use autolearn_bench::{f, print_table};
use autolearn_cloud::hardware::{GpuKind, NodeType, Site};
use autolearn_cloud::reservation::ReservationSystem;
use autolearn_util::rng::derive_rng;
use autolearn_util::{SimDuration, SimTime};
use rand::Rng;

fn small_site() -> Site {
    // A contended resource: the paper's 4-node V100 pool.
    Site {
        name: "CHI@UC-v100".to_string(),
        inventory: vec![(NodeType::gpu_node(GpuKind::V100, 4), 4)],
    }
}

/// One simulated week; returns whether the class got its 3 nodes.
fn trial(bg_jobs: usize, advance: bool, seed: u64) -> bool {
    let mut rng = derive_rng(seed, "resv-trial");
    let mut rs = ReservationSystem::new(small_site());
    let class_start = 3.5 * 86_400.0; // mid-week slot
    let class_len = 2.0 * 3600.0;

    if advance {
        // The instructor reserves at the start of the week.
        rs.reserve(
            "class",
            "gpu_v100",
            3,
            SimTime::from_secs(class_start),
            SimTime::from_secs(class_start + class_len),
        )
        .expect("empty calendar at booking time");
    }

    // Background research jobs trickle in over the week, each takes 1-3
    // nodes for 2-24 h, requested on demand at a random time.
    for _ in 0..bg_jobs {
        let t = rng.gen_range(0.0..7.0 * 86_400.0);
        let nodes = rng.gen_range(1..=3);
        let dur = rng.gen_range(2.0..24.0) * 3600.0;
        let _ = rs.on_demand(
            "research",
            "gpu_v100",
            nodes,
            SimTime::from_secs(t),
            SimDuration::from_secs(dur),
        );
    }

    if advance {
        true // the lease was already granted and cannot be displaced
    } else {
        rs.on_demand(
            "class",
            "gpu_v100",
            3,
            SimTime::from_secs(class_start),
            SimDuration::from_secs(class_len),
        )
        .is_ok()
    }
}

fn main() {
    println!("== T11: advance reservations vs on-demand for a class slot ==\n");
    let trials = 200;
    let mut rows = Vec::new();
    for bg_jobs in [5, 10, 20, 40, 80] {
        let ok_adv = (0..trials).filter(|&s| trial(bg_jobs, true, s)).count();
        let ok_dem = (0..trials).filter(|&s| trial(bg_jobs, false, s)).count();
        rows.push(vec![
            bg_jobs.to_string(),
            f(100.0 * (1.0 - ok_adv as f64 / trials as f64), 1),
            f(100.0 * (1.0 - ok_dem as f64 / trials as f64), 1),
        ]);
    }
    print_table(
        &[
            "background jobs/week",
            "advance blocked (%)",
            "on-demand blocked (%)",
        ],
        &rows,
    );
    println!("\nshape check: the advance column stays at 0% — the guarantee the");
    println!("paper's classroom deployment relies on; on-demand degrades with load.");
}
