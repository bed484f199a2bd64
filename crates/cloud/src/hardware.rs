//! The hardware catalog.

use serde::{Deserialize, Serialize};

/// GPU models named in §3.2/§3.3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuKind {
    A100,
    V100,
    /// The paper's "v100NVLINK" nodes: same chip, faster interconnect, so
    /// slightly better sustained throughput in multi-GPU training.
    V100NvLink,
    P100,
    Rtx6000,
    M40,
    K80,
    /// AMD MI100 ("other architectures round out a variety of choices").
    Mi100,
}

impl GpuKind {
    /// Peak fp32 TFLOP/s (published figures).
    pub fn peak_tflops(self) -> f64 {
        match self {
            GpuKind::A100 => 19.5,
            GpuKind::V100 => 15.7,
            GpuKind::V100NvLink => 15.7,
            GpuKind::P100 => 10.6,
            GpuKind::Rtx6000 => 16.3,
            GpuKind::M40 => 6.8,
            GpuKind::K80 => 5.6, // per-board (two GK210)
            GpuKind::Mi100 => 23.1,
        }
    }

    /// Fraction of peak a small-model training loop actually sustains
    /// (kernel-launch bound at these model sizes; newer parts with better
    /// schedulers and NVLink-fed parts do better).
    pub fn sustained_fraction(self) -> f64 {
        match self {
            GpuKind::A100 => 0.32,
            GpuKind::V100 => 0.26,
            GpuKind::V100NvLink => 0.29,
            GpuKind::P100 => 0.22,
            GpuKind::Rtx6000 => 0.25,
            GpuKind::M40 => 0.18,
            GpuKind::K80 => 0.14,
            GpuKind::Mi100 => 0.20, // software stack maturity tax
        }
    }

    /// Memory, GiB.
    pub fn memory_gib(self) -> u32 {
        match self {
            GpuKind::A100 => 40,
            GpuKind::V100 | GpuKind::V100NvLink => 32,
            GpuKind::P100 => 16,
            GpuKind::Rtx6000 => 24,
            GpuKind::M40 => 24,
            GpuKind::K80 => 24,
            GpuKind::Mi100 => 32,
        }
    }

    /// Per-batch fixed overhead, s (kernel launches, host sync).
    pub fn batch_overhead_s(self) -> f64 {
        match self {
            GpuKind::A100 => 0.0018,
            GpuKind::V100 | GpuKind::V100NvLink => 0.0022,
            GpuKind::Rtx6000 => 0.0022,
            GpuKind::P100 => 0.0028,
            GpuKind::M40 => 0.0035,
            GpuKind::K80 => 0.0045,
            GpuKind::Mi100 => 0.0030,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            GpuKind::A100 => "A100",
            GpuKind::V100 => "V100",
            GpuKind::V100NvLink => "V100-NVLink",
            GpuKind::P100 => "P100",
            GpuKind::Rtx6000 => "RTX6000",
            GpuKind::M40 => "M40",
            GpuKind::K80 => "K80",
            GpuKind::Mi100 => "MI100",
        }
    }

    /// The GPUs the paper says the training notebook was tested on (§3.3).
    pub fn paper_tested() -> [GpuKind; 5] {
        [
            GpuKind::A100,
            GpuKind::V100,
            GpuKind::V100NvLink,
            GpuKind::Rtx6000,
            GpuKind::P100,
        ]
    }
}

impl std::fmt::Display for GpuKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Anything that can run model math — GPUs, but also the car's Raspberry
/// Pi (for on-board inference) and a laptop (the simulator host).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeDevice {
    pub name: String,
    /// Sustained GFLOP/s for small-model fp32 work.
    pub sustained_gflops: f64,
    /// Fixed per-call overhead, s.
    pub call_overhead_s: f64,
}

impl ComputeDevice {
    pub fn of_gpu(gpu: GpuKind) -> ComputeDevice {
        ComputeDevice {
            name: gpu.name().to_string(),
            sustained_gflops: gpu.peak_tflops() * gpu.sustained_fraction() * 1e3,
            call_overhead_s: gpu.batch_overhead_s(),
        }
    }

    /// Raspberry Pi 4B (the car's brain): ~13.5 GFLOP/s NEON fp32
    /// sustained, tiny call overhead (no PCIe hop).
    pub fn raspberry_pi4() -> ComputeDevice {
        ComputeDevice {
            name: "RasPi4".to_string(),
            sustained_gflops: 13.5,
            call_overhead_s: 0.0002,
        }
    }

    /// A student laptop running the simulator (§3.3: "can be installed on
    /// various OS ... students' laptops").
    pub fn laptop() -> ComputeDevice {
        ComputeDevice {
            name: "laptop".to_string(),
            sustained_gflops: 80.0,
            call_overhead_s: 0.0001,
        }
    }
}

/// A reservable bare-metal node type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeType {
    pub name: String,
    pub gpu: Option<GpuKind>,
    pub gpus_per_node: u32,
}

impl NodeType {
    pub fn gpu_node(gpu: GpuKind, gpus_per_node: u32) -> NodeType {
        NodeType {
            name: format!("gpu_{}", gpu.name().to_lowercase()),
            gpu: Some(gpu),
            gpus_per_node,
        }
    }

    pub fn compute_node() -> NodeType {
        NodeType {
            name: "compute_skylake".to_string(),
            gpu: None,
            gpus_per_node: 0,
        }
    }
}

/// A testbed site with an inventory of node types.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Site {
    pub name: String,
    /// (node type, how many nodes exist).
    pub inventory: Vec<(NodeType, u32)>,
}

impl Site {
    /// The paper's description of Chameleon's accelerator investment
    /// (§3.2): 40x single-RTX6000 nodes, 4 nodes each with 4x V100 / P100 /
    /// A100, smaller numbers of M40, K80, MI100, plus plain compute.
    pub fn chameleon() -> Site {
        Site {
            name: "CHI@UC".to_string(),
            inventory: vec![
                (NodeType::gpu_node(GpuKind::Rtx6000, 1), 40),
                (NodeType::gpu_node(GpuKind::V100, 4), 4),
                (NodeType::gpu_node(GpuKind::V100NvLink, 4), 4),
                (NodeType::gpu_node(GpuKind::P100, 4), 4),
                (NodeType::gpu_node(GpuKind::A100, 4), 4),
                (NodeType::gpu_node(GpuKind::M40, 2), 2),
                (NodeType::gpu_node(GpuKind::K80, 2), 2),
                (NodeType::gpu_node(GpuKind::Mi100, 2), 2),
                (NodeType::compute_node(), 100),
            ],
        }
    }

    /// Register a BYOD edge device as a reservable single-unit node type
    /// (§3.3: once added, a car is allocated "via the standard Chameleon
    /// methods" — the same reservation calendar as the datacenter nodes).
    pub fn register_byod_device(&mut self, device_name: &str) -> String {
        let type_name = format!("byod_{device_name}");
        if self.node_type(&type_name).is_none() {
            self.inventory.push((
                NodeType {
                    name: type_name.clone(),
                    gpu: None,
                    gpus_per_node: 0,
                },
                1,
            ));
        }
        type_name
    }

    pub fn capacity_of(&self, node_type_name: &str) -> u32 {
        self.inventory
            .iter()
            .find(|(nt, _)| nt.name == node_type_name)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    pub fn node_type(&self, name: &str) -> Option<&NodeType> {
        self.inventory
            .iter()
            .map(|(nt, _)| nt)
            .find(|nt| nt.name == name)
    }

    pub fn total_gpus(&self) -> u32 {
        self.inventory
            .iter()
            .map(|(nt, n)| nt.gpus_per_node * n)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_throughput_ordering_matches_generations() {
        // Effective (sustained) throughput ordering drives the training-time
        // sweep: A100 > V100-NVLink > V100 > RTX6000 > P100 > M40 > K80.
        let eff = |g: GpuKind| g.peak_tflops() * g.sustained_fraction();
        assert!(eff(GpuKind::A100) > eff(GpuKind::V100NvLink));
        assert!(eff(GpuKind::V100NvLink) > eff(GpuKind::V100));
        assert!(eff(GpuKind::V100) > eff(GpuKind::Rtx6000));
        assert!(eff(GpuKind::Rtx6000) > eff(GpuKind::P100));
        assert!(eff(GpuKind::P100) > eff(GpuKind::M40));
        assert!(eff(GpuKind::M40) > eff(GpuKind::K80));
    }

    #[test]
    fn any_gpu_dwarfs_the_pi() {
        let pi = ComputeDevice::raspberry_pi4();
        for g in GpuKind::paper_tested() {
            let dev = ComputeDevice::of_gpu(g);
            assert!(
                dev.sustained_gflops > 50.0 * pi.sustained_gflops,
                "{g} not >> Pi"
            );
        }
    }

    #[test]
    fn chameleon_inventory_matches_paper() {
        let site = Site::chameleon();
        assert_eq!(site.capacity_of("gpu_rtx6000"), 40);
        assert_eq!(site.capacity_of("gpu_v100"), 4);
        assert_eq!(site.capacity_of("gpu_a100"), 4);
        assert_eq!(site.capacity_of("gpu_p100"), 4);
        assert_eq!(site.capacity_of("nonexistent"), 0);
        // 40 + 4*16 + ... GPUs total.
        assert!(site.total_gpus() > 100);
    }

    #[test]
    fn node_type_names_stable() {
        assert_eq!(
            NodeType::gpu_node(GpuKind::V100NvLink, 4).name,
            "gpu_v100-nvlink"
        );
        assert_eq!(NodeType::compute_node().gpu, None);
    }

    #[test]
    fn paper_tested_list() {
        assert_eq!(GpuKind::paper_tested().len(), 5);
        assert!(GpuKind::paper_tested().contains(&GpuKind::Rtx6000));
    }

    #[test]
    fn byod_devices_become_single_unit_node_types() {
        let mut site = Site::chameleon();
        let t = site.register_byod_device("car-07");
        assert_eq!(t, "byod_car-07");
        assert_eq!(site.capacity_of(&t), 1);
        // Idempotent.
        site.register_byod_device("car-07");
        assert_eq!(site.capacity_of(&t), 1);
    }
}
