//! Driving interfaces.
//!
//! The paper's data-collection step offers a physical joystick, the
//! DonkeyCar web controller, and a constant-throttle race mode (§3.3). For
//! the reproduction, "manual driving" is a human-like PID line follower
//! with configurable imperfection: it sees the ground truth (a human sees
//! the track), reacts with delay and noise, and occasionally drifts — which
//! is exactly what produces the "bad data" tubclean exists to remove.

use autolearn_track::TrackProjection;
use autolearn_util::rng::derive_rng;
use autolearn_util::Image;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One control command.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Controls {
    /// [-1, 1], positive = left.
    pub steering: f64,
    /// [0, 1].
    pub throttle: f64,
}

impl Controls {
    pub fn new(steering: f64, throttle: f64) -> Controls {
        Controls {
            steering: steering.clamp(-1.0, 1.0),
            throttle: throttle.clamp(0.0, 1.0),
        }
    }

    pub const COAST: Controls = Controls {
        steering: 0.0,
        throttle: 0.0,
    };
}

/// What a pilot can sense at each tick.
pub struct Observation<'a> {
    /// Camera frame (always available — it's what the models consume).
    pub image: &'a Image,
    /// Noisy measured speed, m/s.
    pub measured_speed: f64,
    /// Previous tick's controls.
    pub last_controls: Controls,
    /// Ground-truth track projection. Available to human-like pilots (a
    /// human sees where the car is); `None` for camera-only model pilots.
    pub ground_truth: Option<TrackProjection>,
    /// Seconds since session start.
    pub t: f64,
}

/// A driving policy.
pub trait Pilot: Send {
    fn control(&mut self, obs: &Observation<'_>) -> Controls;

    /// Called when the car is reset after a crash.
    fn notify_reset(&mut self) {}

    fn name(&self) -> String {
        "pilot".to_string()
    }
}

/// Configuration for the human-like line-following driver.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinePilotConfig {
    /// Proportional gain on lateral offset (per meter).
    pub k_lateral: f64,
    /// Gain on heading error (per rad).
    pub k_heading: f64,
    /// Feed-forward gain on track curvature.
    pub k_curvature: f64,
    /// Base throttle on straights.
    pub base_throttle: f64,
    /// Throttle reduction per unit |curvature|.
    pub curvature_slowdown: f64,
    /// Minimum throttle in bends.
    pub min_throttle: f64,
    /// Std-dev of steering noise (human hand jitter).
    pub steering_jitter: f64,
    /// Probability per tick of starting a distracted episode (drifting
    /// steering for a few ticks — the source of "bad data").
    pub mistake_rate: f64,
    /// Ticks a distracted episode lasts.
    pub mistake_duration: u32,
    /// Constant-throttle race mode: ignore curvature slowdown.
    pub constant_throttle: Option<f64>,
    pub seed: u64,
}

impl Default for LinePilotConfig {
    fn default() -> Self {
        LinePilotConfig {
            k_lateral: 3.0,
            k_heading: 1.8,
            k_curvature: 0.35,
            base_throttle: 0.55,
            curvature_slowdown: 0.35,
            min_throttle: 0.18,
            steering_jitter: 0.02,
            mistake_rate: 0.0,
            mistake_duration: 10,
            constant_throttle: None,
            seed: 0,
        }
    }
}

impl LinePilotConfig {
    /// A sloppier student driver that occasionally drifts off line hard
    /// enough to leave the lane — the raw material for tubclean.
    pub fn sloppy(seed: u64) -> LinePilotConfig {
        LinePilotConfig {
            steering_jitter: 0.06,
            mistake_rate: 0.015,
            mistake_duration: 15,
            seed,
            ..Default::default()
        }
    }
}

/// Human-like PID line follower (the "manual driving" data collector).
pub struct LinePilot {
    pub config: LinePilotConfig,
    rng: StdRng,
    mistake_ticks_left: u32,
    mistake_bias: f64,
}

impl LinePilot {
    pub fn new(config: LinePilotConfig) -> LinePilot {
        let rng = derive_rng(config.seed, "line-pilot");
        LinePilot {
            config,
            rng,
            mistake_ticks_left: 0,
            mistake_bias: 0.0,
        }
    }
}

impl Pilot for LinePilot {
    fn control(&mut self, obs: &Observation<'_>) -> Controls {
        let proj = obs
            .ground_truth
            .expect("LinePilot needs ground truth (a human sees the track)");
        let c = &self.config;

        // `proj.heading` here is the *heading error* (track tangent minus
        // car heading — the drive loop pre-subtracts before calling).
        // Positive lateral = car left of the centerline → steer right
        // (negative); align with the tangent; feed curvature forward.
        let heading_err = proj.heading;
        let mut steering = -c.k_lateral * proj.lateral
            + c.k_heading * heading_err
            + c.k_curvature * proj.curvature;

        // Human imperfections.
        if c.steering_jitter > 0.0 {
            steering += self.rng.gen_range(-1.0..1.0) * c.steering_jitter * 1.7;
        }
        if self.mistake_ticks_left > 0 {
            // A distracted driver stops correcting entirely: the wheel sits
            // wherever their hand drifted. This is what produces genuinely
            // off-side frames rather than a mild wobble.
            self.mistake_ticks_left -= 1;
            steering = self.mistake_bias;
        } else if c.mistake_rate > 0.0 && self.rng.gen::<f64>() < c.mistake_rate {
            self.mistake_ticks_left = c.mistake_duration;
            self.mistake_bias = self.rng.gen_range(-1.0..1.0);
        }

        let throttle = match c.constant_throttle {
            Some(t) => t,
            None => {
                (c.base_throttle - c.curvature_slowdown * proj.curvature.abs()).max(c.min_throttle)
            }
        };

        Controls::new(steering, throttle)
    }

    fn notify_reset(&mut self) {
        self.mistake_ticks_left = 0;
        self.mistake_bias = 0.0;
    }

    fn name(&self) -> String {
        if self.config.mistake_rate > 0.0 {
            "line-pilot-sloppy".to_string()
        } else {
            "line-pilot".to_string()
        }
    }
}

/// Fixed controls (e.g. the paper's constant-throttle race pilot, or a
/// do-nothing baseline).
pub struct ConstantPilot(pub Controls);

impl Pilot for ConstantPilot {
    fn control(&mut self, _obs: &Observation<'_>) -> Controls {
        self.0
    }

    fn name(&self) -> String {
        "constant".to_string()
    }
}

/// Replays a fixed command script, one entry per tick, holding the last
/// entry afterwards — models a recorded joystick/web-controller session.
pub struct ScriptedPilot {
    script: Vec<Controls>,
    tick: usize,
}

impl ScriptedPilot {
    pub fn new(script: Vec<Controls>) -> ScriptedPilot {
        assert!(!script.is_empty());
        ScriptedPilot { script, tick: 0 }
    }
}

impl Pilot for ScriptedPilot {
    fn control(&mut self, _obs: &Observation<'_>) -> Controls {
        let c = self.script[self.tick.min(self.script.len() - 1)];
        self.tick += 1;
        c
    }

    fn name(&self) -> String {
        "scripted".to_string()
    }
}

/// Wraps any pilot and replaces its throttle with a PI speed controller
/// holding `target_speed` using the measured (noisy) speed — the Fowler
/// SC'23 poster's "real-time speed data" consistency optimisation.
pub struct SpeedController<P: Pilot> {
    pub inner: P,
    pub target_speed: f64,
    kp: f64,
    ki: f64,
    integral: f64,
}

impl<P: Pilot> SpeedController<P> {
    pub fn new(inner: P, target_speed: f64) -> SpeedController<P> {
        SpeedController {
            inner,
            target_speed,
            kp: 0.5,
            ki: 0.08,
            integral: 0.0,
        }
    }
}

impl<P: Pilot> Pilot for SpeedController<P> {
    fn control(&mut self, obs: &Observation<'_>) -> Controls {
        let base = self.inner.control(obs);
        let err = self.target_speed - obs.measured_speed;
        self.integral = (self.integral + err).clamp(-8.0, 8.0);
        let throttle = self.kp * err + self.ki * self.integral;
        Controls::new(base.steering, throttle)
    }

    fn notify_reset(&mut self) {
        self.integral = 0.0;
        self.inner.notify_reset();
    }

    fn name(&self) -> String {
        format!(
            "speed-pid({:.1} m/s, {})",
            self.target_speed,
            self.inner.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_with(proj: TrackProjection, speed: f64) -> (Image, TrackProjection, f64) {
        (Image::new(2, 2, 1), proj, speed)
    }

    fn proj(lateral: f64, heading: f64, curvature: f64) -> TrackProjection {
        TrackProjection {
            s: 0.0,
            lateral,
            heading,
            curvature,
            on_track: true,
        }
    }

    fn observe<'a>(img: &'a Image, p: TrackProjection, speed: f64) -> Observation<'a> {
        Observation {
            image: img,
            measured_speed: speed,
            last_controls: Controls::COAST,
            ground_truth: Some(p),
            t: 0.0,
        }
    }

    #[test]
    fn steers_back_toward_centerline() {
        let mut pilot = LinePilot::new(LinePilotConfig {
            steering_jitter: 0.0,
            ..Default::default()
        });
        let (img, p, v) = obs_with(proj(0.3, 0.0, 0.0), 1.0);
        // Left of line (positive lateral) → steer right (negative).
        let c = pilot.control(&observe(&img, p, v));
        assert!(c.steering < -0.1, "steering {}", c.steering);
        let (img, p, v) = obs_with(proj(-0.3, 0.0, 0.0), 1.0);
        let c = pilot.control(&observe(&img, p, v));
        assert!(c.steering > 0.1);
    }

    #[test]
    fn slows_for_curvature() {
        let mut pilot = LinePilot::new(LinePilotConfig {
            steering_jitter: 0.0,
            ..Default::default()
        });
        let (img, p_straight, v) = obs_with(proj(0.0, 0.0, 0.0), 1.0);
        let straight = pilot.control(&observe(&img, p_straight, v));
        let (img, p_bend, v) = obs_with(proj(0.0, 0.0, 1.0), 1.0);
        let bend = pilot.control(&observe(&img, p_bend, v));
        assert!(bend.throttle < straight.throttle);
        // And feeds curvature forward into steering.
        assert!(bend.steering > straight.steering);
    }

    #[test]
    fn constant_throttle_mode_ignores_curvature() {
        let mut pilot = LinePilot::new(LinePilotConfig {
            steering_jitter: 0.0,
            constant_throttle: Some(0.4),
            ..Default::default()
        });
        let (img, p, v) = obs_with(proj(0.0, 0.0, 2.0), 1.0);
        let c = pilot.control(&observe(&img, p, v));
        assert_eq!(c.throttle, 0.4);
    }

    #[test]
    fn sloppy_pilot_makes_mistakes_eventually() {
        let mut clean = LinePilot::new(LinePilotConfig {
            steering_jitter: 0.0,
            ..Default::default()
        });
        let mut sloppy = LinePilot::new(LinePilotConfig {
            steering_jitter: 0.0,
            mistake_rate: 0.2,
            mistake_duration: 5,
            seed: 3,
            ..Default::default()
        });
        let img = Image::new(2, 2, 1);
        let p = proj(0.0, 0.0, 0.0);
        let mut diverged = false;
        for _ in 0..200 {
            let a = clean.control(&observe(&img, p, 1.0));
            let b = sloppy.control(&observe(&img, p, 1.0));
            if (a.steering - b.steering).abs() > 0.05 {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "sloppy pilot never drifted in 200 ticks");
    }

    #[test]
    fn scripted_pilot_replays_and_holds() {
        let mut pilot = ScriptedPilot::new(vec![Controls::new(0.1, 0.5), Controls::new(-0.2, 0.6)]);
        let img = Image::new(2, 2, 1);
        let o = observe(&img, proj(0.0, 0.0, 0.0), 0.0);
        assert_eq!(pilot.control(&o).steering, 0.1);
        assert_eq!(pilot.control(&o).steering, -0.2);
        assert_eq!(pilot.control(&o).steering, -0.2); // holds last
    }

    #[test]
    fn speed_controller_raises_throttle_when_slow() {
        let mut pilot = SpeedController::new(ConstantPilot(Controls::new(0.0, 0.9)), 2.0);
        let img = Image::new(2, 2, 1);
        let slow = pilot.control(&observe(&img, proj(0.0, 0.0, 0.0), 0.5));
        assert!(slow.throttle > 0.5);
        let mut pilot2 = SpeedController::new(ConstantPilot(Controls::new(0.0, 0.9)), 2.0);
        let fast = pilot2.control(&observe(&img, proj(0.0, 0.0, 0.0), 3.5));
        assert!(fast.throttle < slow.throttle);
    }

    #[test]
    fn controls_clamp() {
        let c = Controls::new(-3.0, 7.0);
        assert_eq!(c.steering, -1.0);
        assert_eq!(c.throttle, 1.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut sc = SpeedController::new(ConstantPilot(Controls::COAST), 2.0);
        let img = Image::new(2, 2, 1);
        for _ in 0..20 {
            let _ = sc.control(&observe(&img, proj(0.0, 0.0, 0.0), 0.0));
        }
        assert!(sc.integral.abs() > 1.0);
        sc.notify_reset();
        assert_eq!(sc.integral, 0.0);
    }
}
