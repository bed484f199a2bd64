//! Digital-twin comparison.
//!
//! §3.3/§3.4: *"combining the simulator and real-life validation can lead
//! to interesting exploration of digital twin modeling"* — run the same
//! trained model in the clean simulator and on the noisy "real" car, and
//! quantify how well the twin predicts reality.

use crate::modelpilot::ModelPilot;
use autolearn_nn::models::{CarModel, SavedModel};
use autolearn_sim::{CameraConfig, CarConfig, DriveConfig, SessionResult, Simulation};
use autolearn_track::Track;
use serde::{Deserialize, Serialize};

/// Twin-fidelity metrics for one model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TwinReport {
    pub sim_autonomy: f64,
    pub real_autonomy: f64,
    pub sim_mean_speed: f64,
    pub real_mean_speed: f64,
    pub sim_laps: usize,
    pub real_laps: usize,
    /// Mean absolute difference between the sim and real lateral-offset
    /// traces, sampled by tick (m). The twin gap.
    pub lateral_divergence_m: f64,
}

impl TwinReport {
    /// Relative speed error of the twin's prediction.
    pub fn speed_gap(&self) -> f64 {
        if self.real_mean_speed.abs() < 1e-9 {
            return 0.0;
        }
        (self.sim_mean_speed - self.real_mean_speed).abs() / self.real_mean_speed
    }
}

fn lateral_trace(session: &SessionResult) -> Vec<f64> {
    session.frames.iter().map(|f| f.proj.lateral).collect()
}

/// Run `model` in both worlds on `track` and compare.
pub fn twin_compare(model: &mut CarModel, track: &Track, duration_s: f64, seed: u64) -> TwinReport {
    let snapshot = SavedModel::capture(model);

    let run = |car: CarConfig, camera: CameraConfig| -> SessionResult {
        let mut sim = Simulation::new(
            track.clone(),
            car,
            camera,
            DriveConfig {
                store_images: false,
                ..Default::default()
            },
        );
        let mut pilot = ModelPilot::new(snapshot.restore());
        sim.run(&mut pilot, duration_s)
    };

    let sim_session = run(CarConfig::default(), CameraConfig::small());
    let real_session = run(
        CarConfig::real_car(seed),
        CameraConfig::small().with_noise(6.0, seed),
    );

    let a = lateral_trace(&sim_session);
    let b = lateral_trace(&real_session);
    let n = a.len().min(b.len());
    let lateral_divergence_m = if n == 0 {
        0.0
    } else {
        (0..n).map(|i| (a[i] - b[i]).abs()).sum::<f64>() / n as f64
    };

    TwinReport {
        sim_autonomy: sim_session.autonomy(),
        real_autonomy: real_session.autonomy(),
        sim_mean_speed: sim_session.mean_speed(),
        real_mean_speed: real_session.mean_speed(),
        sim_laps: sim_session.completed_laps(),
        real_laps: real_session.completed_laps(),
        lateral_divergence_m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_session, CollectConfig, CollectionPath};
    use crate::dataset::records_to_dataset;
    use autolearn_nn::models::{prepare_dataset, DonkeyModel, ModelConfig, ModelKind};
    use autolearn_nn::{TrainConfig, Trainer};
    use autolearn_track::circle_track;

    fn trained_model(track: &Track, seed: u64) -> CarModel {
        let cfg = ModelConfig {
            height: 30,
            width: 40,
            channels: 1,
            seed,
            ..Default::default()
        };
        let mut model = CarModel::build(ModelKind::Linear, &cfg);
        let collected = collect_session(
            track,
            &CollectConfig::new(CollectionPath::Simulator, 60.0, seed),
        );
        let data = prepare_dataset(
            &records_to_dataset(&collected.records, &cfg),
            model.input_spec(),
        );
        Trainer::new(TrainConfig {
            epochs: 6,
            batch_size: 32,
            seed,
            ..Default::default()
        })
        .fit(&mut model, &data)
        .expect("zoo graph validates");
        model
    }

    #[test]
    fn twin_runs_and_reports_gap() {
        let track = circle_track(3.0, 0.8);
        let mut model = trained_model(&track, 21);
        let report = twin_compare(&mut model, &track, 30.0, 21);

        // The sim-trained model should drive the clean sim well.
        assert!(
            report.sim_autonomy > 0.9,
            "sim autonomy {}",
            report.sim_autonomy
        );
        // The noisy world is never *better* behaved than the clean twin by
        // a wide margin, and a twin gap exists.
        assert!(report.lateral_divergence_m > 0.0);
        assert!(
            report.lateral_divergence_m < 1.0,
            "divergence {} suspiciously large",
            report.lateral_divergence_m
        );
        assert!(report.speed_gap() < 0.5);
    }

    #[test]
    fn twin_of_identical_worlds_is_exact() {
        // Sanity: comparing the clean sim against itself (seed noise off)
        // would give zero divergence; we approximate by checking the twin
        // gap exceeds the self-gap.
        let track = circle_track(3.0, 0.8);
        let mut model = trained_model(&track, 22);
        let snapshot = SavedModel::capture(&mut model);
        let run = || {
            let mut sim = Simulation::new(
                track.clone(),
                CarConfig::default(),
                CameraConfig::small(),
                DriveConfig {
                    store_images: false,
                    ..Default::default()
                },
            );
            let mut pilot = ModelPilot::new(snapshot.restore());
            lateral_trace(&sim.run(&mut pilot, 10.0))
        };
        let (a, b) = (run(), run());
        let self_gap: f64 =
            a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64;
        assert!(self_gap < 1e-12, "clean sim must be deterministic");
    }
}
