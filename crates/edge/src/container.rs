//! The container runtime on an edge device.
//!
//! CHI@Edge reconfigures BYOD devices "by deploying a Docker container
//! rather than bare-metal reconfiguration" (§3.2), and AutoLearn ships a
//! Docker image "which pre-installs all DonkeyCar dependencies" plus the
//! Basic Jupyter Server Appliance, with "a built-in console in Jupyter for
//! running commands on the Raspberry Pi" (§3.5).

use autolearn_net::{transfer_time, Path, TransferSpec};
use autolearn_obs::{AttrValue, Obs};
use autolearn_util::fault::{FaultKind, FaultPlan, FaultSite};
use autolearn_util::{Bytes, SimDuration};
use serde::{Deserialize, Serialize};

/// A container image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageSpec {
    pub name: String,
    pub bytes: Bytes,
}

impl ImageSpec {
    /// The AutoLearn image: DonkeyCar deps + Jupyter server (§3.5), arm64.
    pub fn autolearn() -> ImageSpec {
        ImageSpec {
            name: "autolearn/donkeycar-jupyter:latest".to_string(),
            bytes: Bytes::new(850_000_000),
        }
    }
}

/// Container lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContainerState {
    Pulling,
    Starting,
    Running,
    Exited,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    NotRunning,
    /// §3.5: "text editing is not supported in the console at the present
    /// time" — the workaround the authors mention.
    TextEditingUnsupported,
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::NotRunning => write!(f, "container is not running"),
            ContainerError::TextEditingUnsupported => {
                write!(f, "text editing is not supported in the console")
            }
        }
    }
}

impl std::error::Error for ContainerError {}

/// A launched container.
#[derive(Debug, Clone)]
pub struct Container {
    pub image: ImageSpec,
    pub state: ContainerState,
    /// Console command log (what students typed through Jupyter).
    pub console_log: Vec<String>,
}

impl Container {
    /// Execute a command via the built-in Jupyter console. Interactive
    /// editors are refused, mirroring the limitation the paper reports.
    pub fn console_exec(&mut self, command: &str) -> Result<String, ContainerError> {
        if self.state != ContainerState::Running {
            return Err(ContainerError::NotRunning);
        }
        let binary = command.split_whitespace().next().unwrap_or("");
        if ["vi", "vim", "nano", "emacs"].contains(&binary) {
            return Err(ContainerError::TextEditingUnsupported);
        }
        self.console_log.push(command.to_string());
        Ok(format!("$ {command}\nok"))
    }

    pub fn stop(&mut self) {
        self.state = ContainerState::Exited;
    }
}

/// Why a fault-aware container launch failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EdgeLaunchError {
    /// The device dropped off the testbed mid-launch and stays unreachable
    /// for `outage`.
    DeviceDisconnected {
        outage: SimDuration,
        wasted: SimDuration,
    },
    /// The container crashed during start-up.
    ContainerCrashed { wasted: SimDuration },
}

impl std::fmt::Display for EdgeLaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeLaunchError::DeviceDisconnected { outage, .. } => {
                write!(f, "edge device disconnected ({outage} outage)")
            }
            EdgeLaunchError::ContainerCrashed { wasted } => {
                write!(f, "container crashed during start ({wasted} wasted)")
            }
        }
    }
}

impl std::error::Error for EdgeLaunchError {}

/// Per-device container runtime with an image cache.
pub struct ContainerRuntime {
    cached_images: Vec<String>,
    /// Time to unpack + start a container on the Pi.
    start_time: SimDuration,
}

impl Default for ContainerRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl ContainerRuntime {
    pub fn new() -> ContainerRuntime {
        ContainerRuntime {
            cached_images: Vec::new(),
            start_time: SimDuration::from_secs(18.0),
        }
    }

    pub fn image_cached(&self, image: &ImageSpec) -> bool {
        self.cached_images.contains(&image.name)
    }

    /// Launch a container, returning it plus the launch latency (pull over
    /// `net_path` if uncached, then start).
    pub fn launch(&mut self, image: &ImageSpec, net_path: &Path) -> (Container, SimDuration) {
        let pull = if self.image_cached(image) {
            SimDuration::ZERO
        } else {
            self.cached_images.push(image.name.clone());
            transfer_time(net_path, &TransferSpec::object_store(image.bytes))
        };
        (
            Container {
                image: image.clone(),
                state: ContainerState::Running,
                console_log: Vec::new(),
            },
            pull + self.start_time,
        )
    }

    /// Pull `image` into the cache without starting a container; returns the
    /// pull time (zero when already cached). Useful for warming a device
    /// before a fault-prone launch window.
    pub fn preload(&mut self, image: &ImageSpec, net_path: &Path) -> SimDuration {
        if self.image_cached(image) {
            SimDuration::ZERO
        } else {
            self.cached_images.push(image.name.clone());
            transfer_time(net_path, &TransferSpec::object_store(image.bytes))
        }
    }

    /// Launch under fault injection. A device disconnect or container crash
    /// aborts the attempt, but the image pull that completed before the
    /// fault stays cached — a retry starts warm, the way Docker behaves on a
    /// real Pi.
    pub fn launch_with_faults(
        &mut self,
        image: &ImageSpec,
        net_path: &Path,
        plan: &mut FaultPlan,
    ) -> Result<(Container, SimDuration), EdgeLaunchError> {
        let pull = self.preload(image, net_path);
        match plan.draw(FaultSite::Edge, &image.name) {
            Some(FaultKind::DeviceDisconnect { outage_s }) => {
                Err(EdgeLaunchError::DeviceDisconnected {
                    outage: SimDuration::from_secs(outage_s),
                    wasted: pull + SimDuration::from_secs(outage_s),
                })
            }
            Some(FaultKind::ContainerCrash { wasted_s }) => Err(EdgeLaunchError::ContainerCrashed {
                wasted: pull + SimDuration::from_secs(wasted_s),
            }),
            _ => Ok((
                Container {
                    image: image.clone(),
                    state: ContainerState::Running,
                    console_log: Vec::new(),
                },
                pull + self.start_time,
            )),
        }
    }

    /// [`ContainerRuntime::launch_with_faults`] with telemetry: bumps
    /// `edge.launch_attempts`, records freshly injected faults as `fault`
    /// events, and emits `container-started` (with whether the image was
    /// already warm) or `edge-launch-failed`. The launch outcome is
    /// identical to the unobserved call.
    pub fn launch_with_faults_observed(
        &mut self,
        image: &ImageSpec,
        net_path: &Path,
        plan: &mut FaultPlan,
        obs: &mut Obs,
    ) -> Result<(Container, SimDuration), EdgeLaunchError> {
        let faults_before = plan.injected().len();
        let warm = self.image_cached(image);
        let result = self.launch_with_faults(image, net_path, plan);
        obs.counter_add("edge.launch_attempts", 1);
        obs.record_injected_faults(&plan.injected()[faults_before..]);
        match &result {
            Ok((_, launch_time)) => {
                obs.event(
                    "container-started",
                    vec![
                        ("image", AttrValue::Str(image.name.clone())),
                        ("warm", AttrValue::Bool(warm)),
                        ("launch_s", AttrValue::F64(launch_time.as_secs())),
                    ],
                );
            }
            Err(err) => {
                obs.event(
                    "edge-launch-failed",
                    vec![
                        ("image", AttrValue::Str(image.name.clone())),
                        ("error", AttrValue::Str(err.to_string())),
                    ],
                );
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wifi() -> Path {
        Path::car_to_cloud()
    }

    #[test]
    fn first_launch_pulls_then_cache_hits() {
        let mut rt = ContainerRuntime::new();
        let img = ImageSpec::autolearn();
        let (_, cold) = rt.launch(&img, &wifi());
        assert!(rt.image_cached(&img));
        let (_, warm) = rt.launch(&img, &wifi());
        assert!(
            cold.as_secs() > warm.as_secs() + 60.0,
            "cold {cold} vs warm {warm}"
        );
        assert_eq!(warm.as_secs(), 18.0);
    }

    #[test]
    fn cold_pull_of_850mb_over_wifi_is_minutes() {
        let mut rt = ContainerRuntime::new();
        let (_, cold) = rt.launch(&ImageSpec::autolearn(), &wifi());
        assert!(
            cold.as_mins() > 2.0 && cold.as_mins() < 15.0,
            "cold launch {cold}"
        );
    }

    #[test]
    fn console_runs_commands_but_not_editors() {
        let mut rt = ContainerRuntime::new();
        let (mut c, _) = rt.launch(&ImageSpec::autolearn(), &wifi());
        let out = c.console_exec("python manage.py drive").unwrap();
        assert!(out.contains("manage.py"));
        assert_eq!(
            c.console_exec("vim config.py").unwrap_err(),
            ContainerError::TextEditingUnsupported
        );
        assert_eq!(c.console_log.len(), 1);
    }

    #[test]
    fn faulty_launch_keeps_image_cached_for_warm_retry() {
        use autolearn_util::fault::FaultConfig;
        // Find a seed whose first edge draw is a fault.
        for seed in 0..64 {
            let mut plan = FaultPlan::from_seed(seed, FaultConfig::chaos(1.0));
            let mut rt = ContainerRuntime::new();
            let img = ImageSpec::autolearn();
            if let Err(err) = rt.launch_with_faults(&img, &wifi(), &mut plan) {
                let wasted = match &err {
                    EdgeLaunchError::DeviceDisconnected { wasted, .. } => *wasted,
                    EdgeLaunchError::ContainerCrashed { wasted } => *wasted,
                };
                assert!(wasted.as_secs() > 0.0, "{err}: nothing charged");
                // The pull survived the fault: the retry is warm.
                assert!(rt.image_cached(&img));
                let (c, warm) = rt
                    .launch_with_faults(&img, &wifi(), &mut FaultPlan::none())
                    .unwrap();
                assert_eq!(c.state, ContainerState::Running);
                assert_eq!(warm.as_secs(), 18.0);
                return;
            }
        }
        panic!("no edge fault found in 64 seeds");
    }

    #[test]
    fn observed_launch_reports_cold_and_warm_starts() {
        let mut rt = ContainerRuntime::new();
        let img = ImageSpec::autolearn();
        let mut obs = Obs::new();
        rt.launch_with_faults_observed(&img, &wifi(), &mut FaultPlan::none(), &mut obs)
            .unwrap();
        rt.launch_with_faults_observed(&img, &wifi(), &mut FaultPlan::none(), &mut obs)
            .unwrap();
        assert_eq!(obs.metrics().counter("edge.launch_attempts"), 2);
        let warm_flags: Vec<bool> = obs
            .trace()
            .events_named("container-started")
            .map(|e| {
                autolearn_obs::attr(&e.attrs, "warm")
                    .and_then(|v| match v {
                        AttrValue::Bool(b) => Some(*b),
                        _ => None,
                    })
                    .unwrap()
            })
            .collect();
        assert_eq!(warm_flags, vec![false, true]);
    }

    #[test]
    fn observed_faulty_launch_emits_fault_and_failure_events() {
        use autolearn_util::fault::FaultConfig;
        for seed in 0..64 {
            let mut plan = FaultPlan::from_seed(seed, FaultConfig::chaos(1.0));
            let mut rt = ContainerRuntime::new();
            let mut obs = Obs::new();
            let img = ImageSpec::autolearn();
            if rt
                .launch_with_faults_observed(&img, &wifi(), &mut plan, &mut obs)
                .is_err()
            {
                assert_eq!(obs.metrics().counter("edge.faults"), 1);
                assert_eq!(obs.trace().events_named("fault").count(), 1);
                assert_eq!(obs.trace().events_named("edge-launch-failed").count(), 1);
                return;
            }
        }
        panic!("no edge fault found in 64 seeds");
    }

    #[test]
    fn preload_then_faultless_launch_is_warm() {
        let mut rt = ContainerRuntime::new();
        let img = ImageSpec::autolearn();
        let pull = rt.preload(&img, &wifi());
        assert!(pull.as_mins() > 1.0);
        assert_eq!(rt.preload(&img, &wifi()), SimDuration::ZERO);
        let (_, launch) = rt
            .launch_with_faults(&img, &wifi(), &mut FaultPlan::none())
            .unwrap();
        assert_eq!(launch.as_secs(), 18.0);
    }

    #[test]
    fn stopped_container_refuses_exec() {
        let mut rt = ContainerRuntime::new();
        let (mut c, _) = rt.launch(&ImageSpec::autolearn(), &wifi());
        c.stop();
        assert_eq!(
            c.console_exec("ls").unwrap_err(),
            ContainerError::NotRunning
        );
    }
}
