//! Bare-metal provisioning.
//!
//! §3.3: the training notebook "reserves Chameleon hardware, deploys Ubuntu
//! 20.04 CUDA image with accelerator support, and then installs and
//! configures all the required dependencies including Donkey, Tensorflow,
//! and CUDNN drivers". Bare-metal deploys are the slow part of the student
//! experience; this state machine models the steps with realistic
//! durations so the pipeline experiments account for them.

use autolearn_util::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Where a node is in its deploy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProvisionState {
    Queued,
    /// PXE boot + image write to disk.
    DeployingImage,
    /// Cloud-init, driver install (CUDNN), pip installs (donkey, TF).
    ConfiguringSoftware,
    /// rsync of training data (duration supplied by the network model).
    SyncingData,
    Ready,
}

/// The steps and their durations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProvisioningPlan {
    /// (state entered, time spent in it).
    pub steps: Vec<(ProvisionState, SimDuration)>,
}

impl ProvisioningPlan {
    /// The paper's CUDA-image pathway. `data_sync` comes from
    /// `autolearn_net::transfer_time` for the tub being shipped.
    pub fn cuda_image(data_sync: SimDuration) -> ProvisioningPlan {
        ProvisioningPlan {
            steps: vec![
                (ProvisionState::Queued, SimDuration::from_mins(0.5)),
                (ProvisionState::DeployingImage, SimDuration::from_mins(9.0)),
                (
                    ProvisionState::ConfiguringSoftware,
                    SimDuration::from_mins(6.5),
                ),
                (ProvisionState::SyncingData, data_sync),
            ],
        }
    }

    /// A pre-baked appliance image (everything installed) — the ablation
    /// showing why Chameleon's appliance catalog matters.
    pub fn appliance_image(data_sync: SimDuration) -> ProvisioningPlan {
        ProvisioningPlan {
            steps: vec![
                (ProvisionState::Queued, SimDuration::from_mins(0.5)),
                (ProvisionState::DeployingImage, SimDuration::from_mins(9.0)),
                (
                    ProvisionState::ConfiguringSoftware,
                    SimDuration::from_mins(0.7),
                ),
                (ProvisionState::SyncingData, data_sync),
            ],
        }
    }

    pub fn total(&self) -> SimDuration {
        self.steps
            .iter()
            .fold(SimDuration::ZERO, |acc, (_, d)| acc + *d)
    }
}

/// Executes a plan against simulated time.
pub struct Provisioner {
    plan: ProvisioningPlan,
    started_at: SimTime,
}

impl Provisioner {
    pub fn start(plan: ProvisioningPlan, now: SimTime) -> Provisioner {
        Provisioner {
            plan,
            started_at: now,
        }
    }

    /// State at time `now`.
    pub fn state_at(&self, now: SimTime) -> ProvisionState {
        let mut elapsed = now.since(self.started_at);
        for (state, dur) in &self.plan.steps {
            if elapsed.as_secs() < dur.as_secs() {
                return *state;
            }
            elapsed -= *dur;
        }
        ProvisionState::Ready
    }

    /// When the node becomes Ready.
    pub fn ready_at(&self) -> SimTime {
        self.started_at + self.plan.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuda_plan_takes_tens_of_minutes() {
        let plan = ProvisioningPlan::cuda_image(SimDuration::from_mins(2.0));
        let total = plan.total().as_mins();
        assert!(total > 10.0 && total < 30.0, "total {total} min");
    }

    #[test]
    fn appliance_is_faster_than_diy() {
        let sync = SimDuration::from_mins(2.0);
        let diy = ProvisioningPlan::cuda_image(sync).total();
        let app = ProvisioningPlan::appliance_image(sync).total();
        assert!(app.as_secs() < diy.as_secs() - 300.0);
    }

    #[test]
    fn state_machine_progresses_in_order() {
        let plan = ProvisioningPlan::cuda_image(SimDuration::from_mins(1.0));
        let p = Provisioner::start(plan, SimTime::from_secs(100.0));
        assert_eq!(
            p.state_at(SimTime::from_secs(100.0)),
            ProvisionState::Queued
        );
        assert_eq!(
            p.state_at(SimTime::from_secs(100.0 + 60.0)),
            ProvisionState::DeployingImage
        );
        assert_eq!(
            p.state_at(SimTime::from_secs(100.0 + 60.0 * 10.5)),
            ProvisionState::ConfiguringSoftware
        );
        assert_eq!(p.state_at(p.ready_at()), ProvisionState::Ready);
        assert_eq!(p.state_at(SimTime::from_secs(1e9)), ProvisionState::Ready);
    }

    #[test]
    fn syncing_state_reached_before_ready() {
        let plan = ProvisioningPlan::cuda_image(SimDuration::from_mins(3.0));
        let p = Provisioner::start(plan, SimTime::ZERO);
        // Just before ready: syncing data.
        let just_before = p.ready_at() - SimDuration::from_secs(10.0);
        assert_eq!(p.state_at(just_before), ProvisionState::SyncingData);
    }

    #[test]
    fn zero_sync_still_passes_through_states() {
        let plan = ProvisioningPlan::cuda_image(SimDuration::ZERO);
        let p = Provisioner::start(plan, SimTime::ZERO);
        assert_eq!(p.state_at(p.ready_at()), ProvisionState::Ready);
    }

    #[test]
    fn ready_time_is_start_plus_total() {
        let plan = ProvisioningPlan::appliance_image(SimDuration::ZERO);
        let total = plan.total();
        let p = Provisioner::start(plan, SimTime::from_secs(50.0));
        assert_eq!(p.ready_at().as_secs(), 50.0 + total.as_secs());
    }
}
