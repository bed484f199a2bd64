//! Synthetic front camera.
//!
//! A pinhole camera mounted near the front of the car, pitched down at the
//! track. Each below-horizon pixel is inverse-projected onto the ground
//! plane and coloured by [`autolearn_track::Track::surface_at`], so the tape
//! lines the paper's oval is made of appear in the frames exactly where
//! physics puts them. Above-horizon pixels get a flat background.
//!
//! DonkeyCar records 160x120 RGB; the default mirrors that, and
//! [`CameraConfig::small`] gives the 40x30 grayscale variant the training
//! pipeline actually feeds the networks (and that tests use for speed).

use crate::vehicle::VehicleState;
use autolearn_track::{Track, Vec2};
use autolearn_util::rng::derive_rng;
use autolearn_util::Image;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Camera intrinsics + mounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CameraConfig {
    pub width: usize,
    pub height: usize,
    /// 1 (grayscale) or 3 (RGB).
    pub channels: usize,
    /// Horizontal field of view, rad (~100° wide-angle lens).
    pub hfov: f64,
    /// Mount height above ground, m.
    pub mount_height: f64,
    /// Downward pitch, rad.
    pub pitch: f64,
    /// Forward offset of the camera from the rear axle, m.
    pub mount_forward: f64,
    /// Per-pixel gaussian noise std (0-255 scale); 0 for the clean sim.
    pub pixel_noise: f64,
    /// Farthest ground distance rendered; beyond it pixels get background.
    pub max_distance: f64,
    pub seed: u64,
}

impl Default for CameraConfig {
    fn default() -> Self {
        CameraConfig {
            width: 160,
            height: 120,
            channels: 3,
            hfov: 100.0_f64.to_radians(),
            mount_height: 0.12,
            pitch: 20.0_f64.to_radians(),
            mount_forward: 0.15,
            pixel_noise: 0.0,
            max_distance: 6.0,
            seed: 0,
        }
    }
}

impl CameraConfig {
    /// The low-resolution grayscale variant used for fast training/tests.
    pub fn small() -> CameraConfig {
        CameraConfig {
            width: 40,
            height: 30,
            channels: 1,
            ..Default::default()
        }
    }

    /// A noisy "real camera" version of any config.
    pub fn with_noise(mut self, sigma: f64, seed: u64) -> CameraConfig {
        self.pixel_noise = sigma;
        self.seed = seed;
        self
    }
}

const BACKGROUND: [u8; 3] = [190, 195, 200]; // walls/sky beyond the floor

/// The camera: precomputes where each pixel's ray meets the ground.
pub struct Camera {
    pub config: CameraConfig,
    /// Per column, the normalised image-plane coordinate.
    xn: Vec<f64>,
    /// Per row, the ground distance ahead of the camera its rays reach and
    /// the ray parameter there, or `None` for rows above the horizon or
    /// beyond `max_distance`.
    rows: Vec<Option<(f64, f64)>>,
    rng: StdRng,
}

impl Camera {
    pub fn new(config: CameraConfig) -> Camera {
        let f = (config.width as f64 / 2.0) / (config.hfov / 2.0).tan();
        let cx = (config.width as f64 - 1.0) / 2.0;
        let cy = (config.height as f64 - 1.0) / 2.0;
        let (sin_p, cos_p) = config.pitch.sin_cos();
        let xn = (0..config.width).map(|u| (u as f64 - cx) / f).collect();
        let rows = (0..config.height)
            .map(|v| {
                let yn = (v as f64 - cy) / f;
                // Vertical ray component (positive = downward-looking).
                let down = yn * cos_p + sin_p;
                let t = config.mount_height / down;
                let ahead = t * (cos_p - yn * sin_p);
                (down > 1e-6 && ahead > 0.0 && ahead <= config.max_distance).then_some((ahead, t))
            })
            .collect();
        let rng = derive_rng(config.seed, "camera");
        Camera {
            config,
            xn,
            rows,
            rng,
        }
    }

    /// Render the view from `state` on `track` (no obstacles).
    pub fn render(&mut self, track: &Track, state: &VehicleState) -> Image {
        self.render_scene(track, &[], state)
    }

    /// Render the view including obstacles (drawn as coloured ground
    /// disks — adequate at these resolutions for the obstacle-detection
    /// exercises).
    ///
    /// Each row's ground distance and ray parameter are precomputed, so a
    /// ground pixel costs a few multiply-adds to place it in the world and
    /// one [`Track::surface_at`] lookup in the track's surface raster.
    pub fn render_scene(
        &mut self,
        track: &Track,
        obstacles: &[crate::world::Obstacle],
        state: &VehicleState,
    ) -> Image {
        let cfg = &self.config;
        let mut img = Image::new(cfg.width, cfg.height, cfg.channels);
        let fwd = Vec2::from_angle(state.heading);
        let left = fwd.perp();
        let cam_pos = state.pos + fwd * cfg.mount_forward;

        // Rows are independent, but the vendored rayon shim runs them in
        // order (shims/README.md).
        use rayon::prelude::*;
        let (width, channels) = (cfg.width, cfg.channels);
        let (xn, rows) = (&self.xn, &self.rows);
        img.data
            .par_chunks_mut(width * channels)
            .enumerate()
            .for_each(|(v, row)| {
                let ground = rows[v].map(|(d, t)| (cam_pos + fwd * d, t));
                for u in 0..width {
                    let color = match ground {
                        None => BACKGROUND,
                        Some((ahead, t)) => {
                            let p = ahead + left * (-t * xn[u]);
                            match obstacles.iter().find(|o| p.dist(o.pos) <= o.radius) {
                                Some(o) => o.color,
                                None => track.surface_at(p).color(),
                            }
                        }
                    };
                    for c in 0..channels {
                        row[u * channels + c] = color[c.min(2)];
                    }
                }
            });

        if cfg.pixel_noise > 0.0 {
            for px in img.data.iter_mut() {
                let n: f64 = self.rng.gen_range(-1.0..1.0) * cfg.pixel_noise * 1.7;
                *px = (f64::from(*px) + n).clamp(0.0, 255.0) as u8;
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Obstacle;
    use autolearn_track::{circle_track, paper_oval, Surface};

    fn on_track_state(track: &Track) -> VehicleState {
        let (pos, heading) = track.start_pose();
        VehicleState::at(pos, heading)
    }

    /// The frame as the renderer drew it before the per-row ray table and
    /// the surface raster: ray arithmetic per pixel, exact classifier.
    fn render_exact(
        cfg: &CameraConfig,
        track: &Track,
        obstacles: &[Obstacle],
        state: &VehicleState,
    ) -> Image {
        let mut img = Image::new(cfg.width, cfg.height, cfg.channels);
        let f = (cfg.width as f64 / 2.0) / (cfg.hfov / 2.0).tan();
        let cx = (cfg.width as f64 - 1.0) / 2.0;
        let cy = (cfg.height as f64 - 1.0) / 2.0;
        let (sin_p, cos_p) = cfg.pitch.sin_cos();
        let fwd = Vec2::from_angle(state.heading);
        let left = fwd.perp();
        let cam_pos = state.pos + fwd * cfg.mount_forward;
        for v in 0..cfg.height {
            let yn_v = (v as f64 - cy) / f;
            let down = yn_v * cos_p + sin_p;
            for u in 0..cfg.width {
                let color = if down <= 1e-6 {
                    BACKGROUND
                } else {
                    let t = cfg.mount_height / down;
                    let forward_dist = t * (cos_p - yn_v * sin_p);
                    if forward_dist <= 0.0 || forward_dist > cfg.max_distance {
                        BACKGROUND
                    } else {
                        let left_dist = -t * ((u as f64 - cx) / f);
                        let p = cam_pos + fwd * forward_dist + left * left_dist;
                        match obstacles.iter().find(|o| p.dist(o.pos) <= o.radius) {
                            Some(o) => o.color,
                            None => track.surface_at_exact(p).color(),
                        }
                    }
                };
                for c in 0..cfg.channels {
                    img.data[(v * cfg.width + u) * cfg.channels + c] = color[c.min(2)];
                }
            }
        }
        img
    }

    #[test]
    fn render_matches_exact_classifier_byte_for_byte() {
        for cfg in [CameraConfig::default(), CameraConfig::small()] {
            let mut cam = Camera::new(cfg.clone());
            for track in [paper_oval(), circle_track(3.0, 0.8)] {
                let obstacles = [
                    Obstacle::new(track.offset_point(0.6, 0.1), 0.08),
                    Obstacle::new(track.offset_point(1.5, -0.3), 0.15),
                ];
                for k in 0..6 {
                    let s = track.length() * k as f64 / 6.0;
                    // Centred, near the right tape, and well off the track.
                    for (lateral, twist) in [(0.0, 0.0), (-0.3, 0.4), (1.2, -2.0)] {
                        let heading = track.heading_at(s) + twist;
                        let state = VehicleState::at(track.offset_point(s, lateral), heading);
                        let frame = cam.render_scene(&track, &obstacles, &state);
                        let exact = render_exact(&cfg, &track, &obstacles, &state);
                        assert!(frame == exact, "{} frame differs at s={s:.2}", track.name());
                    }
                }
            }
        }
    }

    #[test]
    fn frame_has_requested_shape() {
        let track = circle_track(4.0, 0.8);
        let mut cam = Camera::new(CameraConfig::small());
        let img = cam.render(&track, &on_track_state(&track));
        assert_eq!(img.width, 40);
        assert_eq!(img.height, 30);
        assert_eq!(img.channels, 1);
    }

    #[test]
    fn top_rows_are_background() {
        let track = paper_oval();
        let mut cam = Camera::new(CameraConfig::default());
        let img = cam.render(&track, &on_track_state(&track));
        // The very top row looks above the horizon.
        for u in 0..img.width {
            assert_eq!(
                [img.get(u, 0, 0), img.get(u, 0, 1), img.get(u, 0, 2)],
                BACKGROUND
            );
        }
    }

    #[test]
    fn bottom_center_sees_asphalt_when_centered() {
        let track = paper_oval();
        let mut cam = Camera::new(CameraConfig::default());
        let img = cam.render(&track, &on_track_state(&track));
        let (u, v) = (img.width / 2, img.height - 1);
        let px = [img.get(u, v, 0), img.get(u, v, 1), img.get(u, v, 2)];
        assert_eq!(px, Surface::Asphalt.color());
    }

    #[test]
    fn tape_lines_visible_in_frame() {
        let track = paper_oval();
        let mut cam = Camera::new(CameraConfig::default());
        let img = cam.render(&track, &on_track_state(&track));
        let tape = Surface::Line.color();
        let count = (0..img.height)
            .flat_map(|v| (0..img.width).map(move |u| (u, v)))
            .filter(|&(u, v)| [img.get(u, v, 0), img.get(u, v, 1), img.get(u, v, 2)] == tape)
            .count();
        assert!(count > 20, "only {count} tape pixels visible");
    }

    #[test]
    fn view_shifts_with_lateral_offset() {
        // Move the car toward the left edge: the left-side tape line should
        // occupy more of the frame's left half.
        let track = paper_oval();
        let mut cam = Camera::new(CameraConfig::default());
        let centre = cam.render(&track, &on_track_state(&track));
        let (pos0, heading) = track.start_pose();
        let left_pos = track.offset_point(0.0, 0.25);
        let shifted = cam.render(&track, &VehicleState::at(left_pos, heading));
        let tape = Surface::Line.color();
        let left_tape = |img: &Image| {
            (0..img.height)
                .flat_map(|v| (0..img.width / 2).map(move |u| (u, v)))
                .filter(|&(u, v)| [img.get(u, v, 0), img.get(u, v, 1), img.get(u, v, 2)] == tape)
                .count() as i64
        };
        assert_ne!(
            left_tape(&centre),
            left_tape(&shifted),
            "offset {pos0:?} -> {left_pos:?} must change the view"
        );
    }

    #[test]
    fn noise_perturbs_but_preserves_structure() {
        let track = paper_oval();
        let state = on_track_state(&track);
        let mut clean_cam = Camera::new(CameraConfig::small());
        let mut noisy_cam = Camera::new(CameraConfig::small().with_noise(8.0, 5));
        let clean = clean_cam.render(&track, &state);
        let noisy = noisy_cam.render(&track, &state);
        assert_ne!(clean.data, noisy.data);
        // But the mean intensity stays close.
        assert!((clean.mean_intensity() - noisy.mean_intensity()).abs() < 6.0);
    }

    #[test]
    fn render_is_deterministic() {
        let track = circle_track(3.0, 0.7);
        let state = on_track_state(&track);
        let a = Camera::new(CameraConfig::small()).render(&track, &state);
        let b = Camera::new(CameraConfig::small()).render(&track, &state);
        assert_eq!(a, b);
    }

    #[test]
    fn off_track_view_differs_from_on_track() {
        let track = circle_track(3.0, 0.7);
        let (_, heading) = track.start_pose();
        let mut cam = Camera::new(CameraConfig::small());
        let on = cam.render(&track, &on_track_state(&track));
        let off = cam.render(
            &track,
            &VehicleState::at(track.offset_point(0.0, 2.5), heading),
        );
        assert_ne!(on.data, off.data);
    }
}
