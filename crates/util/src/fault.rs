//! Deterministic, seeded fault injection for the edge-to-cloud continuum.
//!
//! The paper's deployment is anything but a happy path: student cars sit on
//! flaky campus WiFi, Chameleon leases run out of capacity mid-class, and
//! CHI@Edge containers die in the middle of a lesson. A [`FaultPlan`] turns
//! those scenarios into a *replayable schedule*: it is derived from a single
//! `u64` seed, and every fault it injects is drawn from per-site RNG streams
//! so that the same seed always produces the same faults at the same
//! operations — byte-identical chaos runs.
//!
//! Consumers (the net, cloud and edge crates) call [`FaultPlan::draw`] at
//! each fallible operation. The plan answers with `None` (no fault) or a
//! concrete [`FaultKind`] whose magnitudes were drawn from the same stream.
//! Every injected fault is recorded in the plan's log so a pipeline run can
//! attach the complete fault history to its report.

use crate::rng::derive_rng;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Where in the continuum a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultSite {
    /// The network between car and cloud (link flaps, stalls, degradation).
    Net,
    /// The Chameleon testbed (launch failures, capacity windows, preemption).
    Cloud,
    /// The car-side device and container runtime (disconnects, crashes).
    Edge,
}

impl FaultSite {
    /// Stable human-readable name (also the RNG stream label suffix).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Net => "net",
            FaultSite::Cloud => "cloud",
            FaultSite::Edge => "edge",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::Net => 0,
            FaultSite::Cloud => 1,
            FaultSite::Edge => 2,
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete injected failure, with deterministic magnitudes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The link drops mid-transfer: the attempt dies after `at_fraction` of
    /// the remaining bytes, then the link stays down for `downtime_s`.
    LinkFlap { at_fraction: f64, downtime_s: f64 },
    /// The link survives but bandwidth collapses to `bandwidth_factor` of
    /// nominal for the rest of the attempt (rain on the 2.4 GHz band).
    LinkDegraded { bandwidth_factor: f64 },
    /// The transfer freezes after `at_fraction` of the remaining bytes and
    /// the application gives up after a `stall_s` timeout.
    TransferStall { at_fraction: f64, stall_s: f64 },
    /// The bare-metal launch fails (PXE timeout, image write error) after
    /// `wasted_s` of lease time.
    LaunchFailure { wasted_s: f64 },
    /// The requested node type reports `InsufficientCapacity` for a window
    /// of `window_s`; the caller can wait it out or fall back to another
    /// node type.
    CapacityWindow { window_s: f64 },
    /// The lease is revoked after `at_fraction` of the work scheduled on it
    /// has completed (shared-testbed preemption).
    Preemption { at_fraction: f64 },
    /// The CHI@Edge daemon loses contact with the device for `outage_s`.
    DeviceDisconnect { outage_s: f64 },
    /// The container exits right after starting, wasting `wasted_s`.
    ContainerCrash { wasted_s: f64 },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::LinkFlap {
                at_fraction,
                downtime_s,
            } => write!(
                f,
                "link flap at {:.0}% ({downtime_s:.1}s down)",
                at_fraction * 100.0
            ),
            FaultKind::LinkDegraded { bandwidth_factor } => {
                write!(
                    f,
                    "link degraded to {:.0}% bandwidth",
                    bandwidth_factor * 100.0
                )
            }
            FaultKind::TransferStall {
                at_fraction,
                stall_s,
            } => {
                write!(
                    f,
                    "transfer stall at {:.0}% ({stall_s:.1}s timeout)",
                    at_fraction * 100.0
                )
            }
            FaultKind::LaunchFailure { wasted_s } => {
                write!(f, "lease launch failure ({wasted_s:.1}s wasted)")
            }
            FaultKind::CapacityWindow { window_s } => {
                write!(f, "insufficient capacity for {window_s:.0}s")
            }
            FaultKind::Preemption { at_fraction } => {
                write!(f, "preempted at {:.0}% of the work", at_fraction * 100.0)
            }
            FaultKind::DeviceDisconnect { outage_s } => {
                write!(f, "device disconnect ({outage_s:.1}s outage)")
            }
            FaultKind::ContainerCrash { wasted_s } => {
                write!(f, "container crash ({wasted_s:.1}s wasted)")
            }
        }
    }
}

/// One injected fault, as recorded in the plan's log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// Which substrate the fault struck.
    pub site: FaultSite,
    /// The operation label the consumer passed to [`FaultPlan::draw`].
    pub op: String,
    /// What was injected.
    pub kind: FaultKind,
}

/// Per-site injection rates and caps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a network operation draws a fault.
    pub net_rate: f64,
    /// Probability that a cloud operation draws a fault.
    pub cloud_rate: f64,
    /// Probability that an edge operation draws a fault.
    pub edge_rate: f64,
    /// Hard cap on injected faults per site — keeps most plans recoverable
    /// under a bounded retry policy.
    pub max_per_site: u32,
}

impl FaultConfig {
    /// No faults, ever — the happy path.
    pub fn calm() -> FaultConfig {
        FaultConfig {
            net_rate: 0.0,
            cloud_rate: 0.0,
            edge_rate: 0.0,
            max_per_site: 0,
        }
    }

    /// Uniform chaos at `rate` (clamped to `[0, 1]`) across all sites, at
    /// most two injections per site.
    pub fn chaos(rate: f64) -> FaultConfig {
        let r = rate.clamp(0.0, 1.0);
        FaultConfig {
            net_rate: r,
            cloud_rate: r,
            edge_rate: r,
            max_per_site: 2,
        }
    }

    fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::Net => self.net_rate,
            FaultSite::Cloud => self.cloud_rate,
            FaultSite::Edge => self.edge_rate,
        }
    }
}

/// A seeded, deterministic fault schedule plus the log of what it injected.
pub struct FaultPlan {
    config: FaultConfig,
    streams: [StdRng; 3],
    counts: [u32; 3],
    log: Vec<InjectedFault>,
}

impl FaultPlan {
    /// Derive a plan from a master seed. Identical `(seed, config)` pairs
    /// produce identical draw sequences for identical call sequences.
    pub fn from_seed(seed: u64, config: FaultConfig) -> FaultPlan {
        FaultPlan {
            config,
            streams: [
                derive_rng(seed, "fault-net"),
                derive_rng(seed, "fault-cloud"),
                derive_rng(seed, "fault-edge"),
            ],
            counts: [0; 3],
            log: Vec::new(),
        }
    }

    /// A plan that never injects anything (the fault-free baseline).
    pub fn none() -> FaultPlan {
        FaultPlan::from_seed(0, FaultConfig::calm())
    }

    /// Consult the plan at a fallible operation. Returns the fault to
    /// inject, if any; the draw (and its magnitudes) come from the site's
    /// dedicated RNG stream and are recorded in [`FaultPlan::injected`].
    pub fn draw(&mut self, site: FaultSite, op: &str) -> Option<FaultKind> {
        let i = site.index();
        if self.counts[i] >= self.config.max_per_site {
            return None;
        }
        let rate = self.config.rate(site);
        if rate <= 0.0 {
            return None;
        }
        let rng = &mut self.streams[i];
        if rng.gen::<f64>() >= rate {
            return None;
        }
        let kind = match site {
            FaultSite::Net => match rng.gen_range(0u32..3) {
                0 => FaultKind::LinkFlap {
                    at_fraction: rng.gen_range(0.1..0.9),
                    downtime_s: rng.gen_range(2.0..20.0),
                },
                1 => FaultKind::LinkDegraded {
                    bandwidth_factor: rng.gen_range(0.25..0.75),
                },
                _ => FaultKind::TransferStall {
                    at_fraction: rng.gen_range(0.1..0.9),
                    stall_s: rng.gen_range(5.0..30.0),
                },
            },
            FaultSite::Cloud => match rng.gen_range(0u32..3) {
                0 => FaultKind::LaunchFailure {
                    wasted_s: rng.gen_range(20.0..90.0),
                },
                1 => FaultKind::CapacityWindow {
                    window_s: rng.gen_range(60.0..600.0),
                },
                _ => FaultKind::Preemption {
                    at_fraction: rng.gen_range(0.1..0.9),
                },
            },
            FaultSite::Edge => match rng.gen_range(0u32..2) {
                0 => FaultKind::DeviceDisconnect {
                    outage_s: rng.gen_range(5.0..60.0),
                },
                _ => FaultKind::ContainerCrash {
                    wasted_s: rng.gen_range(5.0..20.0),
                },
            },
        };
        self.counts[i] += 1;
        self.log.push(InjectedFault {
            site,
            op: op.to_string(),
            kind: kind.clone(),
        });
        Some(kind)
    }

    /// Everything this plan injected so far, in injection order.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.log
    }

    /// The distinct sites this plan has struck so far.
    pub fn sites_hit(&self) -> Vec<FaultSite> {
        let mut sites = Vec::new();
        for f in &self.log {
            if !sites.contains(&f.site) {
                sites.push(f.site);
            }
        }
        sites
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(plan: &mut FaultPlan, n: usize) -> Vec<Option<FaultKind>> {
        (0..n)
            .map(|i| plan.draw(FaultSite::Net, &format!("op-{i}")))
            .collect()
    }

    #[test]
    fn calm_plan_never_injects() {
        let mut plan = FaultPlan::none();
        for site in [FaultSite::Net, FaultSite::Cloud, FaultSite::Edge] {
            for _ in 0..50 {
                assert_eq!(plan.draw(site, "x"), None);
            }
        }
        assert!(plan.injected().is_empty());
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::from_seed(42, FaultConfig::chaos(0.7));
        let mut b = FaultPlan::from_seed(42, FaultConfig::chaos(0.7));
        assert_eq!(drain(&mut a, 20), drain(&mut b, 20));
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlan::from_seed(1, FaultConfig::chaos(0.9));
        let mut b = FaultPlan::from_seed(2, FaultConfig::chaos(0.9));
        assert_ne!(drain(&mut a, 30), drain(&mut b, 30));
    }

    #[test]
    fn per_site_cap_is_enforced() {
        let mut plan = FaultPlan::from_seed(7, FaultConfig::chaos(1.0));
        let injected = drain(&mut plan, 20).into_iter().flatten().count();
        assert_eq!(injected, 2, "chaos cap is 2 per site");
        // Other sites still have headroom.
        assert!(plan.draw(FaultSite::Cloud, "launch").is_some());
    }

    #[test]
    fn sites_draw_site_appropriate_kinds() {
        let mut plan = FaultPlan::from_seed(
            3,
            FaultConfig {
                net_rate: 1.0,
                cloud_rate: 1.0,
                edge_rate: 1.0,
                max_per_site: 100,
            },
        );
        for _ in 0..30 {
            if let Some(k) = plan.draw(FaultSite::Cloud, "c") {
                assert!(matches!(
                    k,
                    FaultKind::LaunchFailure { .. }
                        | FaultKind::CapacityWindow { .. }
                        | FaultKind::Preemption { .. }
                ));
            }
            if let Some(k) = plan.draw(FaultSite::Edge, "e") {
                assert!(matches!(
                    k,
                    FaultKind::DeviceDisconnect { .. } | FaultKind::ContainerCrash { .. }
                ));
            }
        }
        let sites = plan.sites_hit();
        assert!(sites.contains(&FaultSite::Cloud) && sites.contains(&FaultSite::Edge));
    }

    #[test]
    fn log_records_op_labels() {
        let mut plan = FaultPlan::from_seed(5, FaultConfig::chaos(1.0));
        plan.draw(FaultSite::Net, "tub-upload");
        assert_eq!(plan.injected()[0].op, "tub-upload");
        assert_eq!(plan.injected()[0].site, FaultSite::Net);
    }

    #[test]
    fn injected_faults_serialize() {
        let mut plan = FaultPlan::from_seed(9, FaultConfig::chaos(1.0));
        plan.draw(FaultSite::Edge, "container");
        let json = serde_json::to_string(plan.injected()).unwrap();
        let back: Vec<InjectedFault> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan.injected());
    }
}
