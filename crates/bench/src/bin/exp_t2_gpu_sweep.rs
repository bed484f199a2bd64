//! T2 — §3.3/§3.5: training time across the GPU nodes the paper tested
//! ("A100, V100, v100NVLINK, RTX6000, and P100"; "a v100 GPU ... allowed us
//! to train a model in reasonable amount of time").
//!
//! Shape target: A100 fastest, P100 slowest among the tested five, the Pi
//! hopeless in comparison; all GPUs land in "reasonable" single-digit
//! minutes for a 20k-record tub.

use autolearn_bench::print_table;
use autolearn_cloud::hardware::{ComputeDevice, GpuKind};
use autolearn_cloud::perf::{training_time, TrainingCostModel};
use autolearn_nn::models::{CarModel, DonkeyModel, ModelConfig, ModelKind};
use autolearn_util::SimDuration;

fn main() {
    println!("== T2: GPU training-time sweep (analytic device model) ==\n");
    // A paper-scale job: 20k records x 20 epochs, batch 32, at DonkeyCar's
    // full 160x120 RGB camera resolution (the resolution the paper's
    // students train at; the rest of the reproduction uses 40x30 for
    // speed, which only rescales this table).
    let examples = 20_000u64 * 20;
    let cfg = ModelConfig {
        height: 120,
        width: 160,
        channels: 3,
        ..Default::default()
    };

    let kinds = [
        ModelKind::Linear,
        ModelKind::Categorical,
        ModelKind::Rnn,
        ModelKind::ThreeD,
    ];
    let mut devices: Vec<ComputeDevice> = GpuKind::paper_tested()
        .iter()
        .map(|&g| ComputeDevice::of_gpu(g))
        .collect();
    devices.push(ComputeDevice::raspberry_pi4());
    devices.push(ComputeDevice::laptop());

    // Pure-compute time (what distinguishes the GPUs) and end-to-end time
    // (compute + per-batch launch/data overheads, the student experience).
    let mut rows = Vec::new();
    for device in &devices {
        let mut row = vec![device.name.clone()];
        for kind in kinds {
            let model = CarModel::build(kind, &cfg);
            let cost = TrainingCostModel::new(model.flops_per_inference(), examples, 32);
            let compute =
                SimDuration::from_secs(cost.total_train_flops() / (device.sustained_gflops * 1e9));
            let total = training_time(&cost, device);
            row.push(format!("{compute} / {total}"));
        }
        rows.push(row);
    }
    print_table(
        &[
            "device",
            "linear (compute/total)",
            "categorical",
            "rnn",
            "3d",
        ],
        &rows,
    );

    println!("\nshape checks (20k records x 20 epochs, 160x120x3 frames):");
    println!("  - compute ordering A100 < V100-NVLink < V100 < RTX6000 < P100, strict");
    println!("  - end-to-end time on every tested GPU is 'reasonable' (< 30 min), and");
    println!("    largely launch/data-bound for models this small — the honest reason");
    println!("    the paper's GPU choice 'would work as well' across the whole range");
    println!("  - the Pi needs ~an hour of pure compute for the sequence models,");
    println!("    which is why training happens in the cloud");
}
