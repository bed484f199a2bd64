//! T3b — the closed-loop companion to T3: instead of modelling placement
//! latency analytically, run the *actual* remote-inference dataflow inside
//! the 20 Hz drive loop (in-flight requests, reply arrival, stale-reply
//! fallback) via `RemoteInferencePilot`.
//!
//! Shape targets: on a fast managed link the cloud drives nearly every
//! tick; as the link slows the hybrid's edge fallback takes over (cloud
//! fraction → 0) with no loss of driving quality, while pure cloud decays
//! into stale-command driving.

use autolearn::remotepilot::RemoteInferencePilot;
use autolearn_bench::{f, print_table, simulator_records, train_model};
use autolearn_cloud::hardware::{ComputeDevice, GpuKind};
use autolearn_net::{Link, Path};
use autolearn_nn::models::{ModelKind, SavedModel};
use autolearn_sim::{CameraConfig, CarConfig, DriveConfig, Simulation};
use autolearn_track::paper_oval;

fn main() {
    println!("== T3b: closed-loop remote inference ==\n");
    let track = paper_oval();
    let records = simulator_records(&track, 150.0, 7);
    let (mut model, _) = train_model(ModelKind::Linear, &records, 10, 7);
    let snapshot = SavedModel::capture(&mut model);

    let gpu = ComputeDevice::of_gpu(GpuKind::V100);
    let pi = ComputeDevice::raspberry_pi4();

    let mut rows = Vec::new();
    for rtt_ms in [4.0, 20.0, 60.0, 150.0, 400.0] {
        let path = Path::new(vec![Link::fabric_with_latency(rtt_ms / 2.0 / 1e3)]);
        for mode in ["hybrid", "cloud"] {
            let mut pilot = match mode {
                "hybrid" => RemoteInferencePilot::hybrid(
                    snapshot.restore(),
                    snapshot.restore(),
                    &path,
                    &gpu,
                    &pi,
                    9,
                ),
                _ => RemoteInferencePilot::cloud_only(snapshot.restore(), &path, &gpu, 9),
            };
            let mut sim = Simulation::new(
                track.clone(),
                CarConfig::default(),
                CameraConfig::small(),
                DriveConfig {
                    store_images: false,
                    ..Default::default()
                },
            );
            let session = sim.run(&mut pilot, 45.0);
            let stats = pilot.stats;
            rows.push(vec![
                f(rtt_ms, 0),
                mode.to_string(),
                f(stats.cloud_fraction(), 2),
                stats.stale_ticks.to_string(),
                format!("{:.1}%", session.autonomy() * 100.0),
                f(session.mean_speed(), 2),
                session.crashes.to_string(),
            ]);
        }
    }
    print_table(
        &[
            "rtt (ms)",
            "mode",
            "cloud frac",
            "stale ticks",
            "autonomy",
            "v (m/s)",
            "crashes",
        ],
        &rows,
    );

    println!("\nshape checks:");
    println!("  - hybrid: cloud fraction ~1.0 on fast links, → 0.0 on slow ones, with");
    println!("    driving quality held flat by the on-board fallback");
    println!("  - pure cloud: stale ticks appear as the link slows; quality decays");
}
