//! Analytic device-time model.
//!
//! The substitution at the heart of the reproduction (DESIGN.md): training
//! math runs on the host CPU, but *attributed* wall-clock time comes from
//! this model — FLOPs divided by the device's sustained throughput plus
//! per-batch overheads. The model is deliberately simple; what the paper's
//! experiments need is the *ordering and rough ratios* between an A100, a
//! P100 and a Raspberry Pi, all of which survive this level of modelling.

use crate::hardware::ComputeDevice;
use autolearn_util::units::{Bytes, BytesPerSec};
use autolearn_util::SimDuration;
use serde::{Deserialize, Serialize};

/// Cost model for a full training job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingCostModel {
    /// Forward-pass FLOPs for one example.
    pub flops_per_example: u64,
    /// Total examples processed over the run (epochs x dataset).
    pub examples: u64,
    pub batch_size: u64,
    /// backward ≈ 2x forward → train step ≈ 3x forward FLOPs.
    pub backward_multiplier: f64,
    /// Data-loading / augmentation time per batch on the host, s
    /// (overlapped poorly at small batch sizes, as in real Keras loops).
    pub host_per_batch_s: f64,
}

impl TrainingCostModel {
    pub fn new(flops_per_example: u64, examples: u64, batch_size: u64) -> TrainingCostModel {
        TrainingCostModel {
            flops_per_example,
            examples,
            batch_size: batch_size.max(1),
            backward_multiplier: 3.0,
            host_per_batch_s: 0.0015,
        }
    }

    pub fn total_train_flops(&self) -> f64 {
        self.flops_per_example as f64 * self.examples as f64 * self.backward_multiplier
    }

    pub fn batches(&self) -> u64 {
        self.examples.div_ceil(self.batch_size)
    }
}

/// Wall-clock training time on `device`.
pub fn training_time(model: &TrainingCostModel, device: &ComputeDevice) -> SimDuration {
    let compute_s = model.total_train_flops() / (device.sustained_gflops * 1e9);
    let overhead_s = model.batches() as f64 * (device.call_overhead_s + model.host_per_batch_s);
    SimDuration::from_secs(compute_s + overhead_s)
}

/// Single-example inference latency on `device`.
pub fn inference_latency(flops_per_example: u64, device: &ComputeDevice) -> SimDuration {
    SimDuration::from_secs(
        flops_per_example as f64 / (device.sustained_gflops * 1e9) + device.call_overhead_s,
    )
}

/// Multi-GPU data-parallel configuration. The paper's inventory
/// distinguishes plain V100 nodes from "v100NVLINK" nodes: same chips,
/// different gradient-allreduce fabric.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MultiGpuConfig {
    pub gpus: u32,
    /// NVLink (≈150 GB/s effective) vs PCIe (≈12 GB/s) for allreduce.
    pub nvlink: bool,
}

impl MultiGpuConfig {
    /// Effective allreduce fabric bandwidth.
    fn fabric(&self) -> BytesPerSec {
        BytesPerSec::new(if self.nvlink { 150e9 } else { 12e9 })
    }

    /// fp32 gradient buffer for `param_count` parameters.
    fn gradient_bytes(param_count: u64) -> Bytes {
        Bytes::new(param_count) * 4
    }

    /// Ring-allreduce time for `param_count` fp32 gradients, in seconds.
    pub fn allreduce_s(&self, param_count: u64) -> f64 {
        if self.gpus <= 1 {
            return 0.0;
        }
        let n = self.gpus as f64;
        // Ring allreduce moves 2(n-1)/n of the buffer per GPU, plus a
        // per-step fabric latency. `Bytes / BytesPerSec` gives the full
        // buffer's fabric time; the ring factor scales it.
        let full_pass = Self::gradient_bytes(param_count) / self.fabric();
        (full_pass * (2.0 * (n - 1.0) / n)).as_secs() + 30e-6 * (n - 1.0)
    }
}

/// Wall-clock training time with `cfg.gpus` data-parallel devices:
/// compute divides across GPUs, per-batch overhead does not, and every
/// batch pays a gradient allreduce over the node's fabric.
pub fn multi_gpu_training_time(
    model: &TrainingCostModel,
    device: &ComputeDevice,
    param_count: u64,
    cfg: &MultiGpuConfig,
) -> SimDuration {
    let compute_s =
        model.total_train_flops() / (device.sustained_gflops * 1e9) / cfg.gpus.max(1) as f64;
    let per_batch = device.call_overhead_s + model.host_per_batch_s + cfg.allreduce_s(param_count);
    SimDuration::from_secs(compute_s + model.batches() as f64 * per_batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::GpuKind;

    /// Roughly the reproduction's Linear model on 40x30 frames.
    fn linear_like() -> TrainingCostModel {
        TrainingCostModel::new(2_000_000, 20_000 * 20, 32) // 20k records, 20 epochs
    }

    #[test]
    fn gpu_sweep_preserves_paper_ordering() {
        let m = linear_like();
        let times: Vec<(GpuKind, f64)> = GpuKind::paper_tested()
            .iter()
            .map(|&g| (g, training_time(&m, &ComputeDevice::of_gpu(g)).as_secs()))
            .collect();
        // A100 fastest, P100 slowest of the tested five.
        let of = |kind: GpuKind| {
            times
                .iter()
                .find(|(g, _)| *g == kind)
                .map(|(_, t)| *t)
                .expect("kind is in paper_tested")
        };
        let a100 = of(GpuKind::A100);
        let p100 = of(GpuKind::P100);
        for (g, t) in &times {
            assert!(a100 <= *t + 1e-12, "A100 beaten by {g}");
            assert!(p100 >= *t - 1e-12, "P100 beats {g}");
        }
    }

    #[test]
    fn v100_trains_in_reasonable_time() {
        // §3.5: "reserve a bare-metal node with a v100 GPU ... train a model
        // in reasonable amount of time". Our small models should land in
        // single-digit minutes.
        let m = linear_like();
        let t = training_time(&m, &ComputeDevice::of_gpu(GpuKind::V100));
        assert!(
            t.as_mins() > 0.05 && t.as_mins() < 30.0,
            "V100 training took {t}"
        );
    }

    #[test]
    fn pi_training_is_much_slower_than_gpu() {
        // At these model sizes the GPU run is host/launch-overhead bound,
        // so the end-to-end gap is "several x", while the pure-compute gap
        // is hundreds of x — both checked.
        let m = linear_like();
        let pi = training_time(&m, &ComputeDevice::raspberry_pi4());
        let gpu = training_time(&m, &ComputeDevice::of_gpu(GpuKind::V100));
        assert!(pi.as_secs() > 3.0 * gpu.as_secs(), "pi {pi} vs gpu {gpu}");
        let compute_ratio = ComputeDevice::of_gpu(GpuKind::V100).sustained_gflops
            / ComputeDevice::raspberry_pi4().sustained_gflops;
        assert!(compute_ratio > 100.0, "compute ratio {compute_ratio}");
    }

    #[test]
    fn inference_on_pi_meets_20hz_for_small_models() {
        // The on-board loop must close at 20 Hz (50 ms) for the linear
        // model's ~2 MFLOP forward pass.
        let lat = inference_latency(2_000_000, &ComputeDevice::raspberry_pi4());
        assert!(lat.as_millis() < 50.0, "Pi inference {lat}");
        // But a 100x bigger model would not make it.
        let big = inference_latency(600_000_000, &ComputeDevice::raspberry_pi4());
        assert!(big.as_millis() > 40.0);
    }

    #[test]
    fn overheads_dominate_tiny_batches() {
        // Same total examples, smaller batches → more overhead → slower.
        let big_batches = TrainingCostModel::new(1_000_000, 10_000, 128);
        let small_batches = TrainingCostModel::new(1_000_000, 10_000, 8);
        let dev = ComputeDevice::of_gpu(GpuKind::A100);
        assert!(
            training_time(&small_batches, &dev).as_secs()
                > training_time(&big_batches, &dev).as_secs()
        );
    }

    #[test]
    fn batches_round_up() {
        let m = TrainingCostModel::new(1, 100, 32);
        assert_eq!(m.batches(), 4);
    }

    #[test]
    fn multi_gpu_speedup_is_sublinear() {
        // A compute-heavy job so parallelism matters.
        let m = TrainingCostModel::new(500_000_000, 400_000, 64);
        let dev = ComputeDevice::of_gpu(GpuKind::V100);
        let params = 2_000_000u64;
        let one = multi_gpu_training_time(
            &m,
            &dev,
            params,
            &MultiGpuConfig {
                gpus: 1,
                nvlink: true,
            },
        );
        let four = multi_gpu_training_time(
            &m,
            &dev,
            params,
            &MultiGpuConfig {
                gpus: 4,
                nvlink: true,
            },
        );
        let speedup = one.as_secs() / four.as_secs();
        assert!(speedup > 2.0, "speedup {speedup}");
        assert!(speedup < 4.0, "speedup {speedup} cannot be superlinear");
    }

    #[test]
    fn nvlink_beats_pcie_at_four_gpus() {
        // The paper's v100 vs v100NVLINK distinction: same chip, faster
        // allreduce fabric.
        let m = TrainingCostModel::new(100_000_000, 400_000, 64);
        let dev = ComputeDevice::of_gpu(GpuKind::V100);
        let params = 10_000_000u64;
        let nv = multi_gpu_training_time(
            &m,
            &dev,
            params,
            &MultiGpuConfig {
                gpus: 4,
                nvlink: true,
            },
        );
        let pcie = multi_gpu_training_time(
            &m,
            &dev,
            params,
            &MultiGpuConfig {
                gpus: 4,
                nvlink: false,
            },
        );
        assert!(
            nv.as_secs() < pcie.as_secs() * 0.9,
            "nvlink {nv} vs pcie {pcie}"
        );
    }

    #[test]
    fn single_gpu_pays_no_allreduce() {
        let cfg = MultiGpuConfig {
            gpus: 1,
            nvlink: false,
        };
        assert_eq!(cfg.allreduce_s(10_000_000), 0.0);
        let m = TrainingCostModel::new(1_000_000, 10_000, 32);
        let dev = ComputeDevice::of_gpu(GpuKind::A100);
        let single = multi_gpu_training_time(&m, &dev, 1_000_000, &cfg);
        let plain = training_time(&m, &dev);
        assert!((single.as_secs() - plain.as_secs()).abs() < 1e-9);
    }

    #[test]
    fn tiny_models_do_not_scale() {
        // Our 18k-param linear model: allreduce + overhead swamp the
        // divided compute, so 4 GPUs buy nothing (an honest ablation).
        let m = TrainingCostModel::new(300_000, 72_000, 32);
        let dev = ComputeDevice::of_gpu(GpuKind::V100);
        let one = multi_gpu_training_time(
            &m,
            &dev,
            18_500,
            &MultiGpuConfig {
                gpus: 1,
                nvlink: true,
            },
        );
        let four = multi_gpu_training_time(
            &m,
            &dev,
            18_500,
            &MultiGpuConfig {
                gpus: 4,
                nvlink: true,
            },
        );
        assert!(four.as_secs() > one.as_secs() * 0.95, "{four} vs {one}");
    }
}
