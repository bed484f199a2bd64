//! Closed-loop remote inference: the actual mechanism behind the
//! edge/cloud/hybrid placements of [`crate::placement`].
//!
//! [`RemoteInferencePilot`] runs inside the 20 Hz drive loop and models the
//! real dataflow: every frame is (optionally) answered immediately by the
//! on-board model *and* dispatched to a cloud model whose reply arrives
//! after a sampled network round-trip plus GPU inference time. At each
//! tick the pilot acts on the freshest answer available — a sufficiently
//! recent cloud reply if one has arrived, otherwise the edge answer
//! (hybrid), or the last cloud reply however stale (pure cloud).

use crate::dataset::image_to_input;
use autolearn_cloud::hardware::ComputeDevice;
use autolearn_cloud::perf::inference_latency;
use autolearn_net::link::RttSampler;
use autolearn_net::Path;
use autolearn_nn::models::{CarModel, DonkeyModel};
use autolearn_nn::Tensor;
use autolearn_sim::{Controls, Observation, Pilot};
use std::collections::VecDeque;

/// Statistics the pilot gathers about who actually drove.
#[derive(Debug, Clone, Copy, Default)]
pub struct RemoteStats {
    pub ticks: usize,
    /// Ticks decided by a fresh cloud reply.
    pub cloud_ticks: usize,
    /// Ticks decided by the edge model (hybrid fallback).
    pub edge_ticks: usize,
    /// Ticks that had to reuse a stale command (pure cloud, reply late).
    pub stale_ticks: usize,
}

impl RemoteStats {
    pub fn cloud_fraction(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.cloud_ticks as f64 / self.ticks as f64
        }
    }
}

/// A pilot whose decisions may cross the network.
pub struct RemoteInferencePilot {
    /// On-board model; `None` = pure cloud placement.
    edge_model: Option<CarModel>,
    cloud_model: CarModel,
    rtts: RttSampler,
    cloud_infer_s: f64,
    edge_infer_s: f64,
    /// A cloud reply whose *frame* is older than this is ignored in favour
    /// of the edge answer (hybrid mode). Pure-cloud mode reuses stale
    /// replies anyway.
    pub staleness_limit_s: f64,
    /// (reply arrival time, frame capture time, controls).
    pending: VecDeque<(f64, f64, Controls)>,
    /// (frame capture time, controls) of the newest arrived reply.
    last_cloud: Option<(f64, Controls)>,
    pub stats: RemoteStats,
}

impl RemoteInferencePilot {
    /// Hybrid placement: edge model always answers; cloud refines when the
    /// network allows.
    pub fn hybrid(
        edge_model: CarModel,
        cloud_model: CarModel,
        path: &Path,
        gpu: &ComputeDevice,
        edge_device: &ComputeDevice,
        seed: u64,
    ) -> RemoteInferencePilot {
        let cloud_infer = inference_latency(cloud_model.flops_per_inference(), gpu).as_secs();
        let edge_infer = inference_latency(edge_model.flops_per_inference(), edge_device).as_secs();
        RemoteInferencePilot {
            edge_model: Some(edge_model),
            cloud_model,
            rtts: path.rtt_sampler(seed),
            cloud_infer_s: cloud_infer,
            edge_infer_s: edge_infer,
            staleness_limit_s: 0.1,
            pending: VecDeque::new(),
            last_cloud: None,
            stats: RemoteStats::default(),
        }
    }

    /// Pure cloud placement: every decision crosses the network; late
    /// replies mean acting on stale commands.
    pub fn cloud_only(
        cloud_model: CarModel,
        path: &Path,
        gpu: &ComputeDevice,
        seed: u64,
    ) -> RemoteInferencePilot {
        let cloud_infer = inference_latency(cloud_model.flops_per_inference(), gpu).as_secs();
        RemoteInferencePilot {
            edge_model: None,
            cloud_model,
            rtts: path.rtt_sampler(seed),
            cloud_infer_s: cloud_infer,
            edge_infer_s: 0.0,
            staleness_limit_s: 0.1,
            pending: VecDeque::new(),
            last_cloud: None,
            stats: RemoteStats::default(),
        }
    }

    fn predict(model: &mut CarModel, frame: &Tensor) -> Controls {
        let input = Tensor::stack(std::slice::from_ref(frame));
        let (s, t) = model.predict(&[input])[0];
        Controls::new(f64::from(s), f64::from(t))
    }
}

impl Pilot for RemoteInferencePilot {
    fn control(&mut self, obs: &Observation<'_>) -> Controls {
        self.stats.ticks += 1;
        let t = obs.t;
        let frame = image_to_input(obs.image, self.cloud_model.config());

        // Dispatch this frame to the cloud; reply lands after RTT + GPU.
        let reply_at = t + self.rtts.sample().as_secs() + self.cloud_infer_s;
        let cloud_answer = Self::predict(&mut self.cloud_model, &frame);
        self.pending.push_back((reply_at, t, cloud_answer));

        // Collect any replies that have arrived by now.
        while let Some(&(ready, frame_t, c)) = self.pending.front() {
            if ready <= t {
                self.last_cloud = Some((frame_t, c));
                self.pending.pop_front();
            } else {
                break;
            }
        }

        // Freshness is the age of the *frame* the reply answers, not the
        // reply's arrival time: a slow network delivers a steady stream of
        // replies that are all about the distant past.
        let fresh_cloud = self
            .last_cloud
            .filter(|(frame_t, _)| t - frame_t <= self.staleness_limit_s);

        match (&mut self.edge_model, fresh_cloud) {
            // Fresh cloud reply wins (it may come from a bigger model).
            (_, Some((_, c))) => {
                self.stats.cloud_ticks += 1;
                c
            }
            // Hybrid fallback: the edge model answers within the tick as
            // long as its compute fits the 50 ms budget.
            (Some(edge), None) if self.edge_infer_s < 0.05 => {
                self.stats.edge_ticks += 1;
                Self::predict(edge, &frame)
            }
            // Pure cloud with nothing fresh: reuse the last command, stale
            // or not — the car does *something* every tick.
            _ => {
                self.stats.stale_ticks += 1;
                self.last_cloud.map(|(_, c)| c).unwrap_or(Controls::COAST)
            }
        }
    }

    fn notify_reset(&mut self) {
        self.pending.clear();
        self.last_cloud = None;
    }

    fn name(&self) -> String {
        if self.edge_model.is_some() {
            "remote-hybrid".to_string()
        } else {
            "remote-cloud".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_session, CollectConfig, CollectionPath};
    use crate::dataset::records_to_dataset;
    use autolearn_cloud::hardware::GpuKind;
    use autolearn_net::Link;
    use autolearn_nn::models::{prepare_dataset, ModelConfig, ModelKind};
    use autolearn_nn::{TrainConfig, Trainer};
    use autolearn_sim::{CameraConfig, CarConfig, DriveConfig, Simulation};
    use autolearn_track::circle_track;

    fn trained(seed: u64) -> CarModel {
        let track = circle_track(3.0, 0.8);
        let cfg = ModelConfig {
            height: 30,
            width: 40,
            channels: 1,
            seed,
            ..Default::default()
        };
        let mut model = CarModel::build(ModelKind::Linear, &cfg);
        let collected = collect_session(
            &track,
            &CollectConfig::new(CollectionPath::Simulator, 60.0, seed),
        );
        let data = prepare_dataset(
            &records_to_dataset(&collected.records, &cfg),
            model.input_spec(),
        );
        Trainer::new(TrainConfig {
            epochs: 6,
            seed,
            ..Default::default()
        })
        .fit(&mut model, &data)
        .expect("zoo graph validates");
        model
    }

    fn drive(pilot: &mut RemoteInferencePilot) -> (f64, RemoteStats) {
        let mut sim = Simulation::new(
            circle_track(3.0, 0.8),
            CarConfig::default(),
            CameraConfig::small(),
            DriveConfig {
                store_images: false,
                ..Default::default()
            },
        );
        let session = sim.run(pilot, 20.0);
        (session.autonomy(), pilot.stats)
    }

    fn fast_path() -> Path {
        Path::new(vec![Link::fabric_with_latency(0.002)])
    }

    fn slow_path() -> Path {
        Path::new(vec![Link::fabric_with_latency(0.15)])
    }

    #[test]
    fn hybrid_uses_cloud_on_fast_network() {
        let gpu = ComputeDevice::of_gpu(GpuKind::V100);
        let pi = ComputeDevice::raspberry_pi4();
        let mut pilot =
            RemoteInferencePilot::hybrid(trained(1), trained(1), &fast_path(), &gpu, &pi, 1);
        let (autonomy, stats) = drive(&mut pilot);
        assert!(autonomy > 0.9, "autonomy {autonomy}");
        assert!(
            stats.cloud_fraction() > 0.8,
            "cloud fraction {}",
            stats.cloud_fraction()
        );
    }

    #[test]
    fn hybrid_falls_back_to_edge_on_slow_network() {
        let gpu = ComputeDevice::of_gpu(GpuKind::V100);
        let pi = ComputeDevice::raspberry_pi4();
        let mut pilot =
            RemoteInferencePilot::hybrid(trained(2), trained(2), &slow_path(), &gpu, &pi, 2);
        pilot.staleness_limit_s = 0.05;
        let (autonomy, stats) = drive(&mut pilot);
        // Replies take 300+ ms: almost every tick is the edge model, and
        // driving stays good because the edge model is competent.
        assert!(stats.edge_ticks > stats.cloud_ticks * 3, "{stats:?}");
        assert!(autonomy > 0.9, "autonomy {autonomy}");
    }

    #[test]
    fn cloud_only_on_fast_network_drives_fine() {
        let gpu = ComputeDevice::of_gpu(GpuKind::V100);
        let mut pilot = RemoteInferencePilot::cloud_only(trained(1), &fast_path(), &gpu, 3);
        let (autonomy, stats) = drive(&mut pilot);
        // Remote control always lags one tick behind on-board inference; a
        // fast network keeps driving close to the on-board baseline.
        assert!(autonomy > 0.85, "autonomy {autonomy}");
        assert!(stats.cloud_fraction() > 0.8);
    }

    #[test]
    fn cloud_only_goes_stale_on_slow_network() {
        let gpu = ComputeDevice::of_gpu(GpuKind::V100);
        let mut fast = RemoteInferencePilot::cloud_only(trained(4), &fast_path(), &gpu, 4);
        let (auto_fast, _) = drive(&mut fast);
        let mut slow = RemoteInferencePilot::cloud_only(trained(4), &slow_path(), &gpu, 4);
        let (auto_slow, stats) = drive(&mut slow);
        assert!(stats.stale_ticks > 0, "{stats:?}");
        assert!(
            auto_slow <= auto_fast + 1e-9,
            "stale commands cannot improve driving: {auto_slow} vs {auto_fast}"
        );
    }

    #[test]
    fn reset_clears_in_flight_requests() {
        let gpu = ComputeDevice::of_gpu(GpuKind::V100);
        let pi = ComputeDevice::raspberry_pi4();
        let mut pilot =
            RemoteInferencePilot::hybrid(trained(5), trained(5), &slow_path(), &gpu, &pi, 5);
        let img = autolearn_util::Image::new(40, 30, 1);
        let obs = Observation {
            image: &img,
            measured_speed: 1.0,
            last_controls: Controls::COAST,
            ground_truth: None,
            t: 0.0,
        };
        let _ = pilot.control(&obs);
        assert!(!pilot.pending.is_empty());
        pilot.notify_reset();
        assert!(pilot.pending.is_empty());
        assert!(pilot.last_cloud.is_none());
    }
}
