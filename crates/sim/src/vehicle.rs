//! Kinematic bicycle model of the 1/16-scale car.

use autolearn_track::geometry::wrap_angle;
use autolearn_track::Vec2;
use autolearn_util::rng::derive_rng;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Physical parameters. Defaults approximate the Waveshare PiRacer / typical
/// DonkeyCar chassis the paper recommends (~$200 kit, §3.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CarConfig {
    /// Axle-to-axle distance, m.
    pub wheelbase: f64,
    /// Maximum front-wheel steering angle, rad (~25°).
    pub max_steer: f64,
    /// Top speed at full throttle, m/s.
    pub max_speed: f64,
    /// Steering servo time constant, s.
    pub steer_tau: f64,
    /// Drivetrain speed time constant, s.
    pub speed_tau: f64,
    /// Std-dev of steering actuation noise, rad ("real car" imperfection).
    pub steer_noise: f64,
    /// Std-dev of multiplicative speed noise per step.
    pub speed_noise: f64,
    /// Std-dev of the *measured* speed (encoder noise), m/s.
    pub speed_sensor_noise: f64,
    /// RNG seed for the noise streams.
    pub seed: u64,
}

impl Default for CarConfig {
    fn default() -> Self {
        CarConfig {
            wheelbase: 0.26,
            max_steer: 25.0_f64.to_radians(),
            max_speed: 3.5,
            steer_tau: 0.08,
            speed_tau: 0.35,
            steer_noise: 0.0,
            speed_noise: 0.0,
            speed_sensor_noise: 0.0,
            seed: 0,
        }
    }
}

impl CarConfig {
    /// The "physical car" variant: same chassis, realistic imperfections.
    /// The clean default models the DonkeyCar Unity simulator; the noisy
    /// variant models the real tape-track car — the pair is the paper's
    /// digital-twin axis.
    pub fn real_car(seed: u64) -> CarConfig {
        CarConfig {
            steer_noise: 0.02,
            speed_noise: 0.03,
            speed_sensor_noise: 0.05,
            seed,
            ..Default::default()
        }
    }
}

/// Instantaneous vehicle state in world coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VehicleState {
    pub pos: Vec2,
    /// Heading, rad.
    pub heading: f64,
    /// Forward speed, m/s.
    pub speed: f64,
    /// Actual (lagged) front-wheel angle, rad.
    pub steer_angle: f64,
}

impl VehicleState {
    pub fn at(pos: Vec2, heading: f64) -> VehicleState {
        VehicleState {
            pos,
            heading,
            speed: 0.0,
            steer_angle: 0.0,
        }
    }
}

/// The simulated car.
pub struct Vehicle {
    pub config: CarConfig,
    pub state: VehicleState,
    rng: StdRng,
}

impl Vehicle {
    pub fn new(config: CarConfig, initial: VehicleState) -> Vehicle {
        let rng = derive_rng(config.seed, "vehicle");
        Vehicle {
            config,
            state: initial,
            rng,
        }
    }

    /// Advance `dt` seconds under the commanded controls (steering in
    /// `-1..=1`, throttle in `0..=1`). Positive steering turns left
    /// (counter-clockwise), matching the track's lateral convention.
    pub fn step(&mut self, steering_cmd: f64, throttle_cmd: f64, dt: f64) {
        let c = &self.config;
        let steering_cmd = steering_cmd.clamp(-1.0, 1.0);
        let throttle_cmd = throttle_cmd.clamp(0.0, 1.0);

        // First-order servo lag toward the commanded wheel angle.
        let target_angle = steering_cmd * c.max_steer;
        let alpha_s = (dt / c.steer_tau).min(1.0);
        self.state.steer_angle += (target_angle - self.state.steer_angle) * alpha_s;
        if c.steer_noise > 0.0 {
            self.state.steer_angle += gaussian(&mut self.rng) * c.steer_noise;
        }
        self.state.steer_angle = self.state.steer_angle.clamp(-c.max_steer, c.max_steer);

        // First-order speed response toward throttle * max_speed.
        let target_speed = throttle_cmd * c.max_speed;
        let alpha_v = (dt / c.speed_tau).min(1.0);
        self.state.speed += (target_speed - self.state.speed) * alpha_v;
        if c.speed_noise > 0.0 {
            self.state.speed *= 1.0 + gaussian(&mut self.rng) * c.speed_noise;
        }
        self.state.speed = self.state.speed.clamp(0.0, c.max_speed * 1.05);

        // Kinematic bicycle update.
        let yaw_rate = self.state.speed / c.wheelbase * self.state.steer_angle.tan();
        self.state.heading = wrap_angle(self.state.heading + yaw_rate * dt);
        self.state.pos += Vec2::from_angle(self.state.heading) * (self.state.speed * dt);
    }

    /// Measured speed: ground truth plus encoder noise.
    pub fn measured_speed(&mut self) -> f64 {
        let noise = if self.config.speed_sensor_noise > 0.0 {
            gaussian(&mut self.rng) * self.config.speed_sensor_noise
        } else {
            0.0
        };
        (self.state.speed + noise).max(0.0)
    }

    /// Teleport back to a pose (the "human picks the crashed car up and
    /// puts it back on the track" reset).
    pub fn reset_to(&mut self, pos: Vec2, heading: f64) {
        self.state = VehicleState::at(pos, heading);
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    // Box–Muller.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn car() -> Vehicle {
        Vehicle::new(CarConfig::default(), VehicleState::at(Vec2::ZERO, 0.0))
    }

    #[test]
    fn accelerates_toward_target_speed() {
        let mut v = car();
        for _ in 0..200 {
            v.step(0.0, 1.0, 0.05);
        }
        assert!(
            (v.state.speed - v.config.max_speed).abs() < 0.05,
            "speed {}",
            v.state.speed
        );
    }

    #[test]
    fn coasts_to_stop_without_throttle() {
        let mut v = car();
        for _ in 0..100 {
            v.step(0.0, 1.0, 0.05);
        }
        for _ in 0..300 {
            v.step(0.0, 0.0, 0.05);
        }
        assert!(v.state.speed < 0.05, "speed {}", v.state.speed);
    }

    #[test]
    fn straight_driving_stays_straight() {
        let mut v = car();
        for _ in 0..100 {
            v.step(0.0, 0.5, 0.05);
        }
        assert!(v.state.heading.abs() < 1e-9);
        assert!(v.state.pos.y.abs() < 1e-9);
        assert!(v.state.pos.x > 1.0);
    }

    #[test]
    fn positive_steering_turns_left() {
        let mut v = car();
        for _ in 0..100 {
            v.step(0.5, 0.5, 0.05);
        }
        assert!(v.state.heading > 0.1, "heading {}", v.state.heading);
        assert!(v.state.pos.y > 0.0);
    }

    #[test]
    fn turning_radius_matches_bicycle_model() {
        let mut v = car();
        // Full steering at steady speed: R = L / tan(max_steer).
        let expected_r = v.config.wheelbase / v.config.max_steer.tan();
        // Warm up to steady state.
        for _ in 0..400 {
            v.step(1.0, 0.3, 0.01);
        }
        let yaw_rate = v.state.speed / v.config.wheelbase * v.state.steer_angle.tan();
        let r = v.state.speed / yaw_rate;
        assert!(
            (r - expected_r).abs() < 0.05 * expected_r,
            "radius {r} vs {expected_r}"
        );
    }

    #[test]
    fn servo_lag_delays_steering() {
        let mut v = car();
        v.step(1.0, 0.0, 0.01);
        // After 10 ms (tau = 80 ms) the wheel has moved only a fraction.
        assert!(v.state.steer_angle < 0.5 * v.config.max_steer);
        for _ in 0..100 {
            v.step(1.0, 0.0, 0.01);
        }
        assert!((v.state.steer_angle - v.config.max_steer).abs() < 0.01);
    }

    #[test]
    fn noise_is_deterministic_by_seed() {
        let mk = |seed| {
            let mut v = Vehicle::new(CarConfig::real_car(seed), VehicleState::at(Vec2::ZERO, 0.0));
            for _ in 0..50 {
                v.step(0.3, 0.6, 0.05);
            }
            (v.state.pos, v.state.speed)
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7).0, mk(8).0);
    }

    #[test]
    fn real_car_diverges_from_clean_sim() {
        let drive = |cfg: CarConfig| {
            let mut v = Vehicle::new(cfg, VehicleState::at(Vec2::ZERO, 0.0));
            for _ in 0..200 {
                v.step(0.2, 0.5, 0.05);
            }
            v.state.pos
        };
        let clean = drive(CarConfig::default());
        let real = drive(CarConfig::real_car(3));
        assert!(clean.dist(real) > 1e-3, "noise must perturb the trajectory");
    }

    #[test]
    fn measured_speed_clean_when_no_sensor_noise() {
        let mut v = car();
        for _ in 0..40 {
            v.step(0.0, 0.7, 0.05);
        }
        assert_eq!(v.measured_speed(), v.state.speed);
    }

    #[test]
    fn reset_restores_pose() {
        let mut v = car();
        for _ in 0..50 {
            v.step(0.5, 0.8, 0.05);
        }
        v.reset_to(Vec2::new(1.0, 2.0), 0.5);
        assert_eq!(v.state.pos, Vec2::new(1.0, 2.0));
        assert_eq!(v.state.speed, 0.0);
        assert_eq!(v.state.steer_angle, 0.0);
    }
}
