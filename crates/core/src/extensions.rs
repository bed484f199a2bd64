//! The extension assignments of §3.3 "Training Additional Models":
//! colour-based stop/go classification, edge-detection line following, and
//! GPS path following.

use autolearn_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use autolearn_nn::loss::{one_hot, softmax_rows, Loss};
use autolearn_nn::{Adam, Optimizer, Sequential, Tensor};
use autolearn_sim::{Controls, Observation, Pilot};
use autolearn_track::{Track, Vec2};
use autolearn_util::rng::derive_rng;
use autolearn_util::Image;
use rand::Rng;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Colour stop/go ("camera identifies color of object placed in front of it;
// red means stop, green means go").
// ---------------------------------------------------------------------------

/// Class labels for the traffic-signal exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Signal {
    Stop,
    Go,
    None,
}

impl Signal {
    pub fn index(self) -> usize {
        match self {
            Signal::Stop => 0,
            Signal::Go => 1,
            Signal::None => 2,
        }
    }

    pub fn from_index(i: usize) -> Signal {
        match i {
            0 => Signal::Stop,
            1 => Signal::Go,
            _ => Signal::None,
        }
    }
}

/// Synthesise a camera frame with a coloured object in front of the car.
pub fn signal_scene(signal: Signal, seed: u64) -> Image {
    let mut rng = derive_rng(seed, "signal-scene");
    let mut img = Image::new(32, 24, 3);
    // Grey floor background with noise.
    for px in img.data.iter_mut() {
        *px = 90 + rng.gen_range(0..30u8);
    }
    // Coloured blob for stop/go scenes.
    if signal != Signal::None {
        let (cx, cy) = (rng.gen_range(8..24i32), rng.gen_range(6..18i32));
        let r = rng.gen_range(3..6i32);
        let color = match signal {
            Signal::Stop => [200 + rng.gen_range(0..40u8), 20, 30],
            Signal::Go => [20, 180 + rng.gen_range(0..50u8), 40],
            Signal::None => unreachable!(),
        };
        for y in 0..24i32 {
            for x in 0..32i32 {
                if (x - cx).pow(2) + (y - cy).pow(2) <= r * r {
                    img.set_pixel(x as usize, y as usize, color);
                }
            }
        }
    }
    img
}

/// Colour features of a frame: per-channel mean and max. The max channel
/// separates a small saturated blob from the grey background even when the
/// blob barely moves the mean.
fn rgb_features(img: &Image) -> Tensor {
    let mut sums = [0.0f32; 3];
    let mut maxs = [0.0f32; 3];
    let px_count = (img.width * img.height) as f32;
    for y in 0..img.height {
        for x in 0..img.width {
            for c in 0..3 {
                let v = f32::from(img.get(x, y, c)) / 255.0;
                sums[c] += v;
                maxs[c] = maxs[c].max(v);
            }
        }
    }
    let mut features = Vec::with_capacity(6);
    features.extend(sums.map(|s| s / px_count));
    features.extend(maxs);
    Tensor::from_vec(&[1, 6], features)
}

/// A tiny colour classifier (colour features → 3 classes).
pub struct ColorClassifier {
    net: Sequential,
}

impl ColorClassifier {
    pub fn new(seed: u64) -> ColorClassifier {
        let mut rng = derive_rng(seed, "color-clf");
        ColorClassifier {
            net: Sequential::new()
                .push(Dense::new(6, 16, &mut rng))
                .push(ActivationLayer::new(Activation::Relu))
                .push(Dense::new(16, 3, &mut rng)),
        }
    }

    /// Train on synthetic scenes; returns final training accuracy.
    pub fn train(&mut self, samples: usize, epochs: usize, seed: u64) -> f64 {
        let mut rng = derive_rng(seed, "color-data");
        let scenes: Vec<(Tensor, usize)> = (0..samples)
            .map(|i| {
                let signal = Signal::from_index(rng.gen_range(0..3));
                (
                    rgb_features(&signal_scene(signal, seed ^ i as u64)),
                    signal.index(),
                )
            })
            .collect();
        let mut opt = Adam::new(5e-3);
        for _ in 0..epochs {
            for (x, label) in &scenes {
                let logits = self.net.forward(x, true);
                let target = one_hot(&[*label], 3);
                let (_, grad) = Loss::SoftmaxCrossEntropy.compute(&logits, &target);
                let _ = self.net.backward(&grad);
                let mut params = self.net.params_mut();
                opt.step(&mut params);
            }
        }
        let correct = scenes
            .iter()
            .filter(|(x, label)| self.classify_features(x).index() == *label)
            .count();
        correct as f64 / scenes.len() as f64
    }

    fn classify_features(&mut self, features: &Tensor) -> Signal {
        let logits = self.net.forward(features, false);
        Signal::from_index(softmax_rows(&logits).argmax_per_example()[0])
    }

    pub fn classify(&mut self, img: &Image) -> Signal {
        self.classify_features(&rgb_features(img))
    }

    /// The lesson's control rule: red stop, green go.
    pub fn controls_for(&mut self, img: &Image, cruise: Controls) -> Controls {
        match self.classify(img) {
            Signal::Stop => Controls::new(cruise.steering, 0.0),
            _ => cruise,
        }
    }
}

// ---------------------------------------------------------------------------
// Edge-detection line following ("camera used to identify the edge of the
// track or a center line and keep the car following that").
// ---------------------------------------------------------------------------

/// A purely visual pilot: no ground truth, classic CV. In the synthetic
/// camera's grayscale, asphalt (~70) is much darker than both the
/// off-track floor (~150) and the tape (~148), so the drivable region is
/// the dark band; steer toward its centroid in the lower half of the frame.
pub struct VisionLinePilot {
    pub steering_gain: f64,
    pub throttle: f64,
    /// Intensity threshold separating asphalt from everything else.
    pub dark_threshold: u8,
}

impl Default for VisionLinePilot {
    fn default() -> Self {
        VisionLinePilot {
            steering_gain: 2.2,
            throttle: 0.35,
            dark_threshold: 110,
        }
    }
}

impl Pilot for VisionLinePilot {
    fn control(&mut self, obs: &Observation<'_>) -> Controls {
        let img = obs.image;
        let gray = img.to_grayscale();
        let mut weighted = 0.0f64;
        let mut count = 0.0f64;
        // Lower half of the frame: the road immediately ahead.
        for y in gray.height / 2..gray.height {
            for x in 0..gray.width {
                if gray.get(x, y, 0) < self.dark_threshold {
                    weighted += x as f64;
                    count += 1.0;
                }
            }
        }
        if count < 4.0 {
            // Lost the road: slow straight creep (a student would stop).
            return Controls::new(0.0, 0.15);
        }
        let centroid = weighted / count / (gray.width as f64 - 1.0); // 0..1
                                                                     // Centroid right of centre (image x grows right) → steer right
                                                                     // (negative steering, since positive steering is left).
        let err = centroid - 0.5;
        Controls::new(-self.steering_gain * err, self.throttle)
    }

    fn name(&self) -> String {
        "vision-line".to_string()
    }
}

// ---------------------------------------------------------------------------
// Obstacle detection (§3.3: "obstacle detection" among the extension
// exercises): watch the road ahead for obstacle-coloured pixels and brake.
// ---------------------------------------------------------------------------

/// Wraps any pilot with a vision-based emergency brake: if the fraction of
/// obstacle-coloured pixels in the centre-bottom of the frame exceeds the
/// threshold, throttle goes to zero (and steering nudges around the
/// blockage).
pub struct ObstacleBrake<P: Pilot> {
    pub inner: P,
    /// Fraction of watched pixels that triggers the brake.
    pub trigger: f64,
    /// Steer offset applied while braking (swerve direction).
    pub swerve: f64,
}

impl<P: Pilot> ObstacleBrake<P> {
    pub fn new(inner: P) -> ObstacleBrake<P> {
        ObstacleBrake {
            inner,
            trigger: 0.02,
            swerve: 0.5,
        }
    }

    /// Fraction of obstacle-red pixels in the centre watch box.
    ///
    /// The watch box is the *vertical middle band* of the frame: with the
    /// camera's 20° down-pitch, the bottom rows only see ~0.1-0.3 m ahead
    /// (too late to brake), while the middle band covers ~0.3 m to a few
    /// meters — the braking-distance window.
    pub fn obstacle_fraction(img: &Image) -> f64 {
        let (y0, y1) = (img.height / 4, 3 * img.height / 4);
        let (x0, x1) = (img.width / 4, 3 * img.width / 4);
        let mut hits = 0usize;
        let mut total = 0usize;
        for y in y0..y1 {
            for x in x0..x1 {
                let hit = if img.channels == 3 {
                    let r = img.get(x, y, 0);
                    let g = img.get(x, y, 1);
                    let b = img.get(x, y, 2);
                    r > 150 && g < 90 && b < 90
                } else {
                    // Grayscale fallback: obstacle red ≈ 86 sits between
                    // asphalt (~70) and tape/off (~148).
                    (80..=95).contains(&img.get(x, y, 0))
                };
                if hit {
                    hits += 1;
                }
                total += 1;
            }
        }
        hits as f64 / total.max(1) as f64
    }
}

impl<P: Pilot> Pilot for ObstacleBrake<P> {
    fn control(&mut self, obs: &Observation<'_>) -> Controls {
        let base = self.inner.control(obs);
        let frac = Self::obstacle_fraction(obs.image);
        if frac > self.trigger {
            // Brake hard and begin to steer around.
            Controls::new(base.steering + self.swerve, 0.0)
        } else {
            base
        }
    }

    fn notify_reset(&mut self) {
        self.inner.notify_reset();
    }

    fn name(&self) -> String {
        format!("obstacle-brake({})", self.inner.name())
    }
}

// ---------------------------------------------------------------------------
// GPS path following ("record a path with GPS and have the car follow it").
// ---------------------------------------------------------------------------

/// Pure-pursuit follower over a recorded waypoint path. Ground truth plays
/// the role of the GPS fix (same information a GPS+IMU would give).
pub struct PurePursuitPilot {
    path: Vec<Vec2>,
    pub lookahead_m: f64,
    pub throttle: f64,
    track: Track,
}

impl PurePursuitPilot {
    /// `path` is the recorded GPS trace (must be a loop around `track`,
    /// which is used only to get the car's position fix from the ground
    /// truth station).
    pub fn new(path: Vec<Vec2>, track: Track) -> PurePursuitPilot {
        assert!(path.len() >= 8, "need a recorded path");
        PurePursuitPilot {
            path,
            lookahead_m: 0.6,
            throttle: 0.4,
            track,
        }
    }

    fn position_fix(&self, obs: &Observation<'_>) -> (Vec2, f64) {
        // GPS fix: reconstruct world pose from the ground-truth projection.
        let p = obs.ground_truth.expect("pure pursuit needs a GPS fix");
        let pos = self.track.offset_point(p.s, p.lateral);
        // Car heading = track tangent at s minus the reported error.
        let heading = self.track.heading_at(p.s) - p.heading;
        (pos, heading)
    }
}

impl Pilot for PurePursuitPilot {
    fn control(&mut self, obs: &Observation<'_>) -> Controls {
        let (pos, heading) = self.position_fix(obs);
        // Nearest path point, then walk forward to the lookahead.
        let mut idx = self
            .path
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.dist_sq(pos)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(0, |(i, _)| i);
        let mut travelled = 0.0;
        while travelled < self.lookahead_m {
            let next = (idx + 1) % self.path.len();
            travelled += self.path[idx].dist(self.path[next]);
            idx = next;
        }
        let target = self.path[idx];
        // Pure pursuit: steer proportional to the heading to the target.
        let to_target = target - pos;
        let angle_err = autolearn_track::geometry::wrap_angle(to_target.angle() - heading);
        Controls::new(1.8 * angle_err, self.throttle)
    }

    fn name(&self) -> String {
        "pure-pursuit".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolearn_sim::{CameraConfig, CarConfig, DriveConfig, Simulation};
    use autolearn_track::circle_track;

    #[test]
    fn color_classifier_learns_stop_go() {
        let mut clf = ColorClassifier::new(3);
        let acc = clf.train(150, 30, 3);
        assert!(acc > 0.9, "training accuracy {acc}");
        // Fresh unseen scenes.
        let mut correct = 0;
        for i in 0..30 {
            let sig = Signal::from_index(i % 3);
            if clf.classify(&signal_scene(sig, 10_000 + i as u64)) == sig {
                correct += 1;
            }
        }
        assert!(correct >= 25, "held-out accuracy {correct}/30");
    }

    #[test]
    fn stop_signal_cuts_throttle() {
        let mut clf = ColorClassifier::new(4);
        clf.train(150, 30, 4);
        let cruise = Controls::new(0.1, 0.5);
        let stop = clf.controls_for(&signal_scene(Signal::Stop, 77), cruise);
        let go = clf.controls_for(&signal_scene(Signal::Go, 78), cruise);
        assert_eq!(stop.throttle, 0.0);
        assert_eq!(go.throttle, 0.5);
    }

    #[test]
    fn vision_pilot_follows_track_without_ground_truth() {
        let track = circle_track(3.0, 0.8);
        let mut sim = Simulation::new(
            track,
            CarConfig::default(),
            CameraConfig::small(),
            DriveConfig {
                store_images: false,
                ..Default::default()
            },
        );
        let mut pilot = VisionLinePilot::default();
        let session = sim.run(&mut pilot, 30.0);
        assert!(
            session.autonomy() > 0.85,
            "vision autonomy {}",
            session.autonomy()
        );
        assert!(session.distance_m > 8.0, "moved {}", session.distance_m);
    }

    #[test]
    fn pure_pursuit_follows_recorded_path() {
        let track = circle_track(3.0, 0.8);
        // "Record a GPS path": the centerline sampled every ~0.3 m.
        let mut path = Vec::new();
        let mut s = 0.0;
        while s < track.length() {
            path.push(track.point_at(s));
            s += 0.3;
        }
        let mut sim = Simulation::new(
            track.clone(),
            CarConfig::default(),
            CameraConfig::small(),
            DriveConfig {
                store_images: false,
                ..Default::default()
            },
        );
        let mut pilot = PurePursuitPilot::new(path, track);
        let session = sim.run(&mut pilot, 30.0);
        assert_eq!(session.crashes, 0);
        assert!(session.autonomy() > 0.95, "autonomy {}", session.autonomy());
        // Stays close to the recorded line.
        let mean_abs_lateral: f64 = session
            .frames
            .iter()
            .map(|f| f.proj.lateral.abs())
            .sum::<f64>()
            / session.frames.len() as f64;
        assert!(mean_abs_lateral < 0.15, "lateral {mean_abs_lateral}");
    }

    #[test]
    fn obstacle_brake_reduces_collisions() {
        use autolearn_sim::LinePilot;
        // RGB camera so the red obstacle is chromatically detectable.
        let cam = CameraConfig {
            width: 40,
            height: 30,
            channels: 3,
            ..Default::default()
        };
        let run = |braked: bool| {
            let track = circle_track(3.0, 0.8);
            let mut sim = Simulation::new(
                track,
                CarConfig::default(),
                cam.clone(),
                DriveConfig {
                    store_images: false,
                    ..Default::default()
                },
            );
            let start_s = sim.track.project(sim.vehicle.state.pos).s;
            sim.add_obstacle(sim.track.wrap_station(start_s + 4.0), 0.0, 0.15);
            let inner = LinePilot::new(autolearn_sim::LinePilotConfig {
                steering_jitter: 0.0,
                ..Default::default()
            });
            if braked {
                let mut pilot = ObstacleBrake::new(inner);
                sim.run(&mut pilot, 25.0).crashes
            } else {
                let mut pilot = inner;
                sim.run(&mut pilot, 25.0).crashes
            }
        };
        let blind = run(false);
        let sighted = run(true);
        assert!(blind > 0, "baseline must hit the obstacle");
        assert!(
            sighted < blind,
            "obstacle brake must help: {sighted} vs {blind} collisions"
        );
    }

    #[test]
    fn obstacle_fraction_detects_red_blob() {
        let mut img = Image::new(20, 20, 3);
        // Grey background.
        for px in img.data.iter_mut() {
            *px = 100;
        }
        assert_eq!(
            ObstacleBrake::<VisionLinePilot>::obstacle_fraction(&img),
            0.0
        );
        // Red patch dead ahead (middle band of the frame).
        for y in 8..14 {
            for x in 8..12 {
                img.set_pixel(x, y, [210, 40, 30]);
            }
        }
        assert!(ObstacleBrake::<VisionLinePilot>::obstacle_fraction(&img) > 0.05);
    }

    #[test]
    fn signal_scenes_have_distinct_colors() {
        let stop = signal_scene(Signal::Stop, 1);
        let go = signal_scene(Signal::Go, 1);
        let none = signal_scene(Signal::None, 1);
        let red = |img: &Image| rgb_features(img).data()[0];
        let green = |img: &Image| rgb_features(img).data()[1];
        assert!(red(&stop) > red(&none));
        assert!(green(&go) > green(&none));
    }
}
