//! In-situ vs in-the-cloud vs hybrid inference (§3.3's evaluation
//! extension; the Zheng SC'23 poster experiment).
//!
//! Trains a linear model, then drives it with the perceive→act latency each
//! placement implies, sweeping the network's managed latency — showing
//! where on-board (edge) inference stops mattering and where the cloud
//! becomes unusable.
//!
//! ```sh
//! cargo run --release --example edge_cloud_inference
//! ```

use autolearn::collect::{collect_session, CollectConfig, CollectionPath};
use autolearn::dataset::records_to_dataset;
use autolearn::modelpilot::ModelPilot;
use autolearn::placement::{max_safe_speed, InferencePlacement};
use autolearn_cloud::hardware::{ComputeDevice, GpuKind};
use autolearn_net::{Link, Path};
use autolearn_nn::models::{
    prepare_dataset, CarModel, DonkeyModel, ModelConfig, ModelKind, SavedModel,
};
use autolearn_nn::{format_errors, TrainConfig, Trainer};
use autolearn_sim::{CameraConfig, CarConfig, DriveConfig, Simulation};
use autolearn_track::paper_oval;

fn main() {
    let track = paper_oval();
    let model_cfg = ModelConfig {
        height: 30,
        width: 40,
        channels: 1,
        seed: 7,
        ..Default::default()
    };

    // Train once.
    println!("training the on-board model...");
    let mut model = CarModel::build(ModelKind::Linear, &model_cfg);
    let collected = collect_session(
        &track,
        &CollectConfig::new(CollectionPath::Simulator, 150.0, 7),
    );
    let data = prepare_dataset(
        &records_to_dataset(&collected.records, &model_cfg),
        model.input_spec(),
    );
    let trained = Trainer::new(TrainConfig {
        epochs: 10,
        seed: 7,
        ..Default::default()
    })
    .fit(&mut model, &data);
    if let Err(errs) = trained {
        eprintln!("model rejected before training:\n{}", format_errors(&errs));
        std::process::exit(1);
    }
    let snapshot = SavedModel::capture(&mut model);
    let flops = model.flops_per_inference();

    let pi = ComputeDevice::raspberry_pi4();
    let v100 = ComputeDevice::of_gpu(GpuKind::V100);
    let frame_bytes = (40 * 30) as u64 + 200;
    let k_max = track.max_abs_curvature();

    println!(
        "\n{:<10} {:>9} {:>11} {:>11} {:>10} {:>9} {:>8}",
        "placement", "rtt(ms)", "latency(ms)", "safe v(m/s)", "autonomy", "v(m/s)", "crashes"
    );

    for rtt_ms in [2.0, 10.0, 30.0, 60.0, 120.0] {
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
                path: path.clone(),
                frame_bytes,
                deadline_s: 0.045,
            },
        ];
        for p in placements {
            let lat = p.latency(flops, flops, 400, 11);
            let safe_v = max_safe_speed(lat.mean_s, 0.05, k_max, 0.2, 3.5);

            // Drive with that latency injected into the loop.
            let mut sim = Simulation::new(
                track.clone(),
                CarConfig::default(),
                CameraConfig::small(),
                DriveConfig {
                    control_latency: lat.mean_s,
                    store_images: false,
                    ..Default::default()
                },
            );
            let mut pilot = ModelPilot::new(snapshot.restore());
            let session = sim.run(&mut pilot, 60.0);

            println!(
                "{:<10} {:>9.0} {:>11.1} {:>11.2} {:>9.1}% {:>9.2} {:>8}",
                p.name(),
                rtt_ms,
                lat.mean_s * 1e3,
                safe_v,
                session.autonomy() * 100.0,
                session.mean_speed(),
                session.crashes
            );
        }
        println!();
    }
    println!("edge inference is flat across RTT; cloud degrades as the");
    println!("network slows; hybrid tracks the better of the two.");
}
