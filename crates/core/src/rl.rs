//! Reinforcement-learning extension (§3.3/§3.4: "experiment with
//! reinforcement learning providing the opportunity for more advanced
//! assignments").
//!
//! A REINFORCE policy gradient on the simulator: the policy is a small
//! network over oracle track features (lateral offset, heading error,
//! curvature, speed) emitting a Gaussian steering mean; throttle is fixed.
//! Reward per tick is forward progress minus off-track/crash penalties.

use autolearn_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use autolearn_nn::{Adam, Optimizer, Sequential, Tensor};
use autolearn_sim::{
    CameraConfig, CarConfig, Controls, DriveConfig, Observation, Pilot, Simulation,
};
use autolearn_track::Track;
use autolearn_util::rng::derive_rng;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// RL hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RlConfig {
    pub episodes: usize,
    pub episode_s: f64,
    pub learning_rate: f32,
    /// Exploration std-dev of the Gaussian steering policy.
    pub sigma: f32,
    /// Reward discount.
    pub gamma: f64,
    pub throttle: f64,
    pub seed: u64,
}

impl Default for RlConfig {
    fn default() -> Self {
        RlConfig {
            episodes: 30,
            episode_s: 20.0,
            learning_rate: 3e-3,
            sigma: 0.25,
            gamma: 0.98,
            throttle: 0.45,
            seed: 0,
        }
    }
}

/// The steering policy network: 4 features → tanh mean in [-1, 1].
pub struct Policy {
    net: Sequential,
}

impl Policy {
    pub fn new(seed: u64) -> Policy {
        let mut rng = derive_rng(seed, "rl-policy");
        let net = Sequential::new()
            .push(Dense::new(4, 16, &mut rng))
            .push(ActivationLayer::new(Activation::Tanh))
            .push(Dense::new(16, 1, &mut rng))
            .push(ActivationLayer::new(Activation::Tanh));
        Policy { net }
    }

    fn features(obs: &Observation<'_>) -> Tensor {
        let p = obs.ground_truth.expect("RL uses oracle features");
        Tensor::from_vec(
            &[1, 4],
            vec![
                p.lateral as f32,
                p.heading as f32, // pre-subtracted heading error
                p.curvature as f32,
                obs.measured_speed as f32 / 3.5,
            ],
        )
    }

    pub fn mean(&mut self, features: &Tensor) -> f32 {
        self.net.forward(features, false).data()[0]
    }
}

/// One step of an episode trace.
struct Step {
    features: Tensor,
    action: f32,
    reward: f64,
}

/// A pilot that samples from the policy and records the trace.
struct RlPilot<'a> {
    policy: &'a mut Policy,
    sigma: f32,
    throttle: f64,
    rng: StdRng,
    trace: Vec<Step>,
    last_off: bool,
}

impl Pilot for RlPilot<'_> {
    fn control(&mut self, obs: &Observation<'_>) -> Controls {
        let features = Policy::features(obs);
        let mean = self.policy.mean(&features);
        // Box–Muller sample around the mean.
        let u1: f32 = self.rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.rng.gen_range(0.0..1.0);
        let noise = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        let action = (mean + self.sigma * noise).clamp(-1.0, 1.0);

        // Reward for the *previous* action lands one tick late; the runner
        // fixes rewards up from the session result instead, so here we only
        // store the decision.
        self.trace.push(Step {
            features,
            action,
            reward: 0.0,
        });
        self.last_off = obs.ground_truth.map(|p| !p.on_track).unwrap_or(false);
        Controls::new(f64::from(action), self.throttle)
    }

    fn name(&self) -> String {
        "reinforce".to_string()
    }
}

/// Training report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RlReport {
    /// Undiscounted return per episode.
    pub returns: Vec<f64>,
    pub crashes_per_episode: Vec<usize>,
}

impl RlReport {
    pub fn mean_return_first(&self, n: usize) -> f64 {
        mean(&self.returns[..n.min(self.returns.len())])
    }

    pub fn mean_return_last(&self, n: usize) -> f64 {
        let len = self.returns.len();
        mean(&self.returns[len.saturating_sub(n)..])
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Train a steering policy with REINFORCE on `track`.
pub fn train_reinforce(track: &Track, cfg: &RlConfig, policy: &mut Policy) -> RlReport {
    let mut opt = Adam::new(cfg.learning_rate);
    let mut returns = Vec::with_capacity(cfg.episodes);
    let mut crashes = Vec::with_capacity(cfg.episodes);
    let dt = 1.0 / 20.0;

    for episode in 0..cfg.episodes {
        let mut sim = Simulation::new(
            track.clone(),
            CarConfig::default(),
            CameraConfig::small(),
            DriveConfig {
                store_images: false,
                ..Default::default()
            },
        );
        let mut pilot = RlPilot {
            policy,
            sigma: cfg.sigma,
            throttle: cfg.throttle,
            rng: derive_rng(cfg.seed, &format!("episode-{episode}")),
            trace: Vec::new(),
            last_off: false,
        };
        let session = sim.run(&mut pilot, cfg.episode_s);
        let mut trace = pilot.trace;

        // Per-tick rewards from the session: progress minus penalties.
        for (step, frame) in trace.iter_mut().zip(&session.frames) {
            let mut r = frame.state.speed * dt;
            if frame.off_track {
                r -= 0.25;
            }
            if frame.crashed {
                r -= 3.0;
            }
            step.reward = r;
        }
        let ep_return: f64 = trace.iter().map(|s| s.reward).sum();
        returns.push(ep_return);
        crashes.push(session.crashes);

        // Reward-to-go with baseline.
        let mut g = 0.0f64;
        let mut togo = vec![0.0f64; trace.len()];
        for i in (0..trace.len()).rev() {
            g = trace[i].reward + cfg.gamma * g;
            togo[i] = g;
        }
        let baseline = mean(&togo);
        let std = (togo.iter().map(|v| (v - baseline).powi(2)).sum::<f64>()
            / togo.len().max(1) as f64)
            .sqrt()
            .max(1e-6);

        // Policy-gradient step: dlogπ/dmean = (a - mean)/σ²; ascend.
        let sigma_sq = cfg.sigma * cfg.sigma;
        let scale = 1.0 / trace.len().max(1) as f32;
        for (i, step) in trace.iter().enumerate() {
            let advantage = ((togo[i] - baseline) / std) as f32;
            let mean_out = policy.net.forward(&step.features, true);
            let dmean = -(step.action - mean_out.data()[0]) / sigma_sq * advantage * scale;
            let grad = Tensor::from_vec(&[1, 1], vec![dmean]);
            let _ = policy.net.backward(&grad);
        }
        let mut params = policy.net.params_mut();
        opt.step(&mut params);
    }

    RlReport {
        returns,
        crashes_per_episode: crashes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolearn_track::circle_track;

    #[test]
    fn reinforce_improves_over_random_policy() {
        let track = circle_track(2.5, 0.8);
        let cfg = RlConfig {
            episodes: 24,
            episode_s: 15.0,
            seed: 5,
            ..Default::default()
        };
        let mut policy = Policy::new(5);
        let report = train_reinforce(&track, &cfg, &mut policy);
        assert_eq!(report.returns.len(), 24);
        let first = report.mean_return_first(6);
        let last = report.mean_return_last(6);
        assert!(
            last > first,
            "no improvement: first {first:.2} vs last {last:.2}"
        );
    }

    #[test]
    fn trained_policy_steers_sensibly() {
        // After training, left-of-center features should command
        // right steering and vice versa.
        let track = circle_track(2.5, 0.8);
        let cfg = RlConfig {
            episodes: 32,
            episode_s: 15.0,
            seed: 6,
            ..Default::default()
        };
        let mut policy = Policy::new(6);
        let _ = train_reinforce(&track, &cfg, &mut policy);
        let left = Tensor::from_vec(&[1, 4], vec![0.3, 0.0, 0.4, 0.3]);
        let right = Tensor::from_vec(&[1, 4], vec![-0.3, 0.0, 0.4, 0.3]);
        let ml = policy.mean(&left);
        let mr = policy.mean(&right);
        assert!(
            ml < mr,
            "policy must steer right ({ml}) when left of line vs ({mr})"
        );
    }

    #[test]
    fn features_shape() {
        use autolearn_track::TrackProjection;
        use autolearn_util::Image;
        let img = Image::new(2, 2, 1);
        let obs = Observation {
            image: &img,
            measured_speed: 1.0,
            last_controls: Controls::COAST,
            ground_truth: Some(TrackProjection {
                s: 0.0,
                lateral: 0.1,
                heading: -0.05,
                curvature: 0.3,
                on_track: true,
            }),
            t: 0.0,
        };
        let f = Policy::features(&obs);
        assert_eq!(f.shape(), &[1, 4]);
        assert!((f.data()[0] - 0.1).abs() < 1e-6);
    }
}
