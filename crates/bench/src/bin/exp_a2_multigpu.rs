//! A2 (ablation) — multi-GPU scaling on the paper's 4-GPU nodes, and why
//! the inventory distinguishes "v100" from "v100NVLINK".
//!
//! Shape targets: data-parallel speedup is sub-linear; NVLink beats PCIe
//! once gradients are big enough; AutoLearn's small models don't benefit
//! at all (the honest reason the notebooks use a single GPU).

use autolearn_bench::{f, print_table};
use autolearn_cloud::hardware::{ComputeDevice, GpuKind};
use autolearn_cloud::perf::{multi_gpu_training_time, MultiGpuConfig, TrainingCostModel};

fn main() {
    println!("== A2: multi-GPU scaling (V100 vs V100-NVLink nodes) ==\n");
    let dev = ComputeDevice::of_gpu(GpuKind::V100);

    // Two workloads: AutoLearn's small model, and a research-scale one.
    let workloads = [
        (
            "autolearn-linear (300 kFLOP, 18k params)",
            TrainingCostModel::new(300_000, 400_000, 32),
            18_500u64,
        ),
        (
            "research CNN (500 MFLOP, 25M params)",
            TrainingCostModel::new(500_000_000, 400_000, 64),
            25_000_000u64,
        ),
    ];

    for (name, model, params) in &workloads {
        println!("{name}:");
        let mut rows = Vec::new();
        let base = multi_gpu_training_time(
            model,
            &dev,
            *params,
            &MultiGpuConfig {
                gpus: 1,
                nvlink: true,
            },
        );
        for gpus in [1u32, 2, 4] {
            for nvlink in [false, true] {
                let t =
                    multi_gpu_training_time(model, &dev, *params, &MultiGpuConfig { gpus, nvlink });
                rows.push(vec![
                    gpus.to_string(),
                    if nvlink { "NVLink" } else { "PCIe" }.to_string(),
                    format!("{t}"),
                    f(base.as_secs() / t.as_secs(), 2),
                ]);
            }
        }
        print_table(&["gpus", "fabric", "time", "speedup"], &rows);
        println!();
    }

    println!("shape checks:");
    println!("  - the research CNN scales (sub-linearly), and NVLink pulls ahead of");
    println!("    PCIe at 4 GPUs — the reason Chameleon stocks both node types");
    println!("  - AutoLearn's small models gain nothing from 4 GPUs: allreduce +");
    println!("    launch overhead eat the divided compute, so the notebooks");
    println!("    rightly reserve a single GPU");
}
