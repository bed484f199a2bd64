//! T3 — §3.3 evaluation extensions / Zheng SC'23 poster: in-situ (edge) vs
//! in-the-cloud vs hybrid inference, swept over network RTT.
//!
//! Shape targets:
//! * edge latency is flat in RTT; cloud latency grows with RTT;
//! * a crossover RTT exists below which cloud inference is competitive;
//! * hybrid tracks the better of the two at every RTT;
//! * measured driving quality (autonomy/speed) degrades as the placement's
//!   latency grows — the closed-loop cost of remote inference.

use autolearn::placement::{max_safe_speed, InferencePlacement};
use autolearn_bench::{evaluate_model, f, print_table, simulator_records, train_model};
use autolearn_cloud::hardware::{ComputeDevice, GpuKind};
use autolearn_net::{Link, Path};
use autolearn_nn::models::{DonkeyModel, ModelKind, SavedModel};
use autolearn_track::paper_oval;

fn main() {
    println!("== T3: inference placement (edge / cloud / hybrid) ==\n");
    let track = paper_oval();
    let records = simulator_records(&track, 150.0, 7);
    // The *inferred* model: it drives near 2 m/s, where perceive→act
    // latency genuinely costs lane-keeping (a slow model hides latency).
    let (mut model, _) = train_model(ModelKind::Inferred, &records, 12, 7);
    let snapshot = SavedModel::capture(&mut model);
    let flops = model.flops_per_inference();

    let pi = ComputeDevice::raspberry_pi4();
    let v100 = ComputeDevice::of_gpu(GpuKind::V100);
    let frame_bytes = 40 * 30 + 200u64;
    let k_max = track.max_abs_curvature();

    let mut rows = Vec::new();
    let mut edge_baseline: Option<(f64, usize)> = None;
    let mut quality_crossover: Option<f64> = None;
    for rtt_ms in [2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0] {
        let path = Path::new(vec![Link::fabric_with_latency(rtt_ms / 2.0 / 1e3)]);
        let placements = [
            InferencePlacement::Edge { device: pi.clone() },
            InferencePlacement::Cloud {
                gpu: v100.clone(),
                path: path.clone(),
                frame_bytes,
            },
            InferencePlacement::Hybrid {
                edge_device: pi.clone(),
                gpu: v100.clone(),
                path,
                frame_bytes,
                deadline_s: 0.045,
            },
        ];
        for p in placements {
            let lat = p.latency(flops, flops, 500, 3);
            let safe_v = max_safe_speed(lat.mean_s, 0.05, k_max, 0.2, 3.5);
            let session = evaluate_model(snapshot.restore(), &track, 100, 45.0, lat.mean_s);
            if p.name() == "edge" && edge_baseline.is_none() {
                edge_baseline = Some((session.autonomy(), session.crashes));
            }
            if p.name() == "cloud" && quality_crossover.is_none() {
                if let Some((edge_auto, edge_crashes)) = edge_baseline {
                    if session.autonomy() < edge_auto - 0.02 || session.crashes > edge_crashes + 2 {
                        quality_crossover = Some(rtt_ms);
                    }
                }
            }
            rows.push(vec![
                f(rtt_ms, 0),
                p.name().to_string(),
                f(lat.mean_s * 1e3, 1),
                f(lat.p95_s * 1e3, 1),
                f(lat.cloud_hit_rate, 2),
                f(safe_v, 2),
                format!("{:.1}%", session.autonomy() * 100.0),
                f(session.mean_speed(), 2),
                session.crashes.to_string(),
            ]);
        }
    }
    print_table(
        &[
            "rtt (ms)",
            "placement",
            "lat mean",
            "lat p95",
            "cloud hit",
            "safe v",
            "autonomy",
            "v (m/s)",
            "crashes",
        ],
        &rows,
    );

    println!(
        "\nshape checks (model forward pass: {:.0} kFLOP — the Pi runs it in ~0.2 ms,\n\
         so pure latency always favours edge at this size):",
        flops as f64 / 1e3
    );
    match quality_crossover {
        Some(rtt) => println!(
            "  - cloud driving quality visibly degrades from RTT ≈ {rtt} ms \
             (more crashes / lower autonomy than edge)"
        ),
        None => println!("  - cloud quality never dropped below edge in the sweep (UNEXPECTED)"),
    }
    println!("  - hybrid's hit-rate column: ~1.0 while the deadline holds, 0.0 beyond,");
    println!("    where its latency (and driving) falls back to the edge numbers —");
    println!("    the Zheng poster's trade-off: cloud when close, edge insurance always.");
}
