//! Data collection: the three paths of Fig. 2.
//!
//! *"AutoLearn provides three different data collection paths. Sample
//! datasets, data collected through the Unity game platform via simulation,
//! and through the real physical car."* All three produce the same thing —
//! an ordered list of tub [`Record`]s — which is the point of the module's
//! "mix and match" design.

use autolearn_sim::{
    CameraConfig, CarConfig, DriveConfig, LinePilot, LinePilotConfig, SessionResult, Simulation,
};
use autolearn_track::Track;
use autolearn_tub::{DriveMode, Record};
use serde::{Deserialize, Serialize};

/// Which of the paper's three collection paths to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectionPath {
    /// Pre-packaged sample dataset (the beginner path: no car needed).
    SampleDataset,
    /// The DonkeyCar simulator: clean physics, clean camera.
    Simulator,
    /// The physical car on the tape track: actuator noise, camera noise,
    /// and a sloppier human driver.
    PhysicalCar,
}

impl CollectionPath {
    pub fn name(self) -> &'static str {
        match self {
            CollectionPath::SampleDataset => "sample-dataset",
            CollectionPath::Simulator => "simulator",
            CollectionPath::PhysicalCar => "physical-car",
        }
    }

    pub fn all() -> [CollectionPath; 3] {
        [
            CollectionPath::SampleDataset,
            CollectionPath::Simulator,
            CollectionPath::PhysicalCar,
        ]
    }
}

/// Collection session configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectConfig {
    pub path: CollectionPath,
    /// Driving time, seconds of simulated session.
    pub duration_s: f64,
    /// Camera used for recording (defaults to the 40x30 grayscale training
    /// camera; switch to `CameraConfig::default()` for DonkeyCar's 160x120).
    pub camera: CameraConfig,
    /// Fixed-throttle race mode (§3.3's "setting the throttle as constant").
    pub constant_throttle: Option<f64>,
    pub seed: u64,
}

impl CollectConfig {
    pub fn new(path: CollectionPath, duration_s: f64, seed: u64) -> CollectConfig {
        CollectConfig {
            path,
            duration_s,
            camera: CameraConfig::small(),
            constant_throttle: None,
            seed,
        }
    }
}

/// Result of a collection session: records plus the session telemetry.
pub struct Collected {
    pub records: Vec<Record>,
    pub session: SessionResult,
}

/// Run a manual-driving session on `track` and return tub records.
pub fn collect_session(track: &Track, cfg: &CollectConfig) -> Collected {
    let (car, camera, pilot_cfg) = match cfg.path {
        CollectionPath::Simulator | CollectionPath::SampleDataset => (
            CarConfig {
                seed: cfg.seed,
                ..CarConfig::default()
            },
            cfg.camera.clone(),
            LinePilotConfig {
                seed: cfg.seed,
                constant_throttle: cfg.constant_throttle,
                ..Default::default()
            },
        ),
        CollectionPath::PhysicalCar => (
            CarConfig::real_car(cfg.seed),
            cfg.camera.clone().with_noise(6.0, cfg.seed),
            LinePilotConfig {
                constant_throttle: cfg.constant_throttle,
                ..LinePilotConfig::sloppy(cfg.seed)
            },
        ),
    };

    let mut sim = Simulation::new(
        track.clone(),
        car,
        camera,
        DriveConfig {
            store_images: true,
            ..Default::default()
        },
    );
    let mut pilot = LinePilot::new(pilot_cfg);
    let session = sim.run(&mut pilot, cfg.duration_s);
    let records = frames_to_records(&session);
    Collected { records, session }
}

fn frames_to_records(session: &SessionResult) -> Vec<Record> {
    session
        .frames
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut r = Record::new(
                i as u64,
                f.controls.steering as f32,
                f.controls.throttle as f32,
                (f.t * 1000.0).round() as u64,
                f.image.clone().expect("collection stores images"),
            );
            r.mode = DriveMode::User;
            r.off_track = f.off_track;
            r.crashed = f.crashed;
            r
        })
        .collect()
}

/// The packaged sample dataset for a track: a deterministic clean-simulator
/// session sized like the paper's samples ("10-50K records" — default 10k
/// at 20 Hz ≈ 500 s of driving; pass a different `records` count to sweep).
pub fn sample_dataset(track: &Track, records: usize, seed: u64) -> Vec<Record> {
    let duration = records as f64 / 20.0;
    let cfg = CollectConfig::new(CollectionPath::SampleDataset, duration, seed);
    let mut collected = collect_session(track, &cfg);
    collected.records.truncate(records);
    collected.records
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolearn_track::circle_track;
    use autolearn_tub::TubStats;

    fn track() -> Track {
        circle_track(3.0, 0.8)
    }

    #[test]
    fn simulator_collection_produces_clean_records() {
        let cfg = CollectConfig::new(CollectionPath::Simulator, 20.0, 1);
        let c = collect_session(&track(), &cfg);
        assert_eq!(c.records.len(), 400); // 20 s at 20 Hz
        assert_eq!(c.session.crashes, 0);
        let stats = TubStats::compute(&c.records, 15);
        assert_eq!(stats.crash_count, 0);
        // Driving a CCW circle: steering biased left (positive).
        assert!(stats.steering_mean > 0.0);
        // Images present and correctly sized.
        let img = c.records[0].image.as_ref().unwrap();
        assert_eq!((img.width, img.height, img.channels), (40, 30, 1));
    }

    #[test]
    fn physical_car_data_is_noisier() {
        let sim_cfg = CollectConfig::new(CollectionPath::Simulator, 30.0, 2);
        let car_cfg = CollectConfig::new(CollectionPath::PhysicalCar, 30.0, 2);
        let sim = collect_session(&track(), &sim_cfg);
        let car = collect_session(&track(), &car_cfg);
        let s1 = TubStats::compute(&sim.records, 15);
        let s2 = TubStats::compute(&car.records, 15);
        assert!(
            s2.steering_std > s1.steering_std,
            "car steering std {} <= sim {}",
            s2.steering_std,
            s1.steering_std
        );
    }

    #[test]
    fn physical_car_sometimes_leaves_track() {
        // With a sloppy driver on a tight track over enough time, off-track
        // flags appear — the raw material for the tubclean lesson.
        let cfg = CollectConfig::new(CollectionPath::PhysicalCar, 120.0, 7);
        let c = collect_session(&circle_track(1.6, 0.55), &cfg);
        let off = c.records.iter().filter(|r| r.off_track).count();
        assert!(off > 0, "expected some off-track records");
    }

    #[test]
    fn constant_throttle_mode() {
        let mut cfg = CollectConfig::new(CollectionPath::Simulator, 5.0, 3);
        cfg.constant_throttle = Some(0.42);
        let c = collect_session(&track(), &cfg);
        // After warm-up every record carries the fixed throttle.
        assert!(c.records[20..]
            .iter()
            .all(|r| (r.throttle - 0.42).abs() < 1e-6));
    }

    #[test]
    fn sample_dataset_is_deterministic_and_sized() {
        let a = sample_dataset(&track(), 300, 9);
        let b = sample_dataset(&track(), 300, 9);
        assert_eq!(a.len(), 300);
        assert_eq!(a[5].steering, b[5].steering);
        assert_eq!(
            a[250].image.as_ref().unwrap().data,
            b[250].image.as_ref().unwrap().data
        );
    }

    #[test]
    fn paths_have_names() {
        assert_eq!(CollectionPath::all().len(), 3);
        assert_eq!(CollectionPath::PhysicalCar.name(), "physical-car");
    }
}
