//! A1 (ablation, DESIGN.md §4.2) — does the reproduction need the pixel
//! camera at all? Train the standard conv model on camera frames vs a tiny
//! dense policy on oracle track features (lateral, heading error,
//! curvature, speed), both supervised on the same driving session.
//!
//! Shape target: both drive, the oracle policy is orders of magnitude
//! cheaper — but it needs ground truth a real car doesn't have, which is
//! exactly why the module (and the paper) trains on camera pixels.

use autolearn_bench::{evaluate_model, f, print_table, simulator_records, train_model};
use autolearn_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use autolearn_nn::models::ModelKind;
use autolearn_nn::{Adam, Optimizer, Sequential, Tensor};
use autolearn_sim::{
    CameraConfig, CarConfig, Controls, DriveConfig, LinePilot, LinePilotConfig, Observation, Pilot,
    Simulation,
};
use autolearn_track::paper_oval;
use autolearn_util::rng::derive_rng;

/// A dense steering policy over oracle features.
struct OraclePilot {
    net: Sequential,
}

impl OraclePilot {
    fn features(obs: &Observation<'_>) -> Tensor {
        let p = obs.ground_truth.expect("oracle needs ground truth");
        Tensor::from_vec(
            &[1, 4],
            vec![
                p.lateral as f32,
                p.heading as f32,
                p.curvature as f32,
                obs.measured_speed as f32 / 3.5,
            ],
        )
    }
}

impl Pilot for OraclePilot {
    fn control(&mut self, obs: &Observation<'_>) -> Controls {
        let out = self.net.forward(&Self::features(obs), false);
        Controls::new(f64::from(out.data()[0]), f64::from(out.data()[1]).max(0.0))
    }

    fn name(&self) -> String {
        "oracle-dense".to_string()
    }
}

fn main() {
    println!("== A1: camera pixels vs oracle features (ablation) ==\n");
    let track = paper_oval();

    // --- Camera model: the standard pipeline. ------------------------------
    let records = simulator_records(&track, 150.0, 17);
    let (camera_model, camera_report) = train_model(ModelKind::Linear, &records, 10, 17);
    let camera_params = {
        let mut m = train_model(ModelKind::Linear, &records[..50], 1, 17).0;
        use autolearn_nn::models::DonkeyModel;
        m.param_count()
    };
    let camera_flops = {
        use autolearn_nn::models::DonkeyModel;
        camera_model.flops_per_inference()
    };
    let camera_session = evaluate_model(camera_model, &track, 3, 120.0, 0.0);

    // --- Oracle model: supervised on (features → controls) pairs. ----------
    let mut rng = derive_rng(17, "oracle");
    let mut net = Sequential::new()
        .push(Dense::new(4, 16, &mut rng))
        .push(ActivationLayer::new(Activation::Tanh))
        .push(Dense::new(16, 2, &mut rng));

    // Gather supervision by replaying the teacher with feature logging.
    let mut sim = Simulation::new(
        track.clone(),
        CarConfig::default(),
        CameraConfig::small(),
        DriveConfig {
            store_images: false,
            ..Default::default()
        },
    );
    let mut teacher = LinePilot::new(LinePilotConfig {
        seed: 17,
        ..Default::default()
    });
    let session = sim.run(&mut teacher, 150.0);
    let feats: Vec<f32> = session
        .frames
        .iter()
        .flat_map(|fr| {
            // Reconstruct the heading error the teacher saw: track tangent
            // minus car heading.
            let heading_err =
                autolearn_track::geometry::wrap_angle(fr.proj.heading - fr.state.heading);
            [
                fr.proj.lateral as f32,
                heading_err as f32,
                fr.proj.curvature as f32,
                (fr.state.speed / 3.5) as f32,
            ]
        })
        .collect();
    let targets: Vec<f32> = session
        .frames
        .iter()
        .flat_map(|fr| [fr.controls.steering as f32, fr.controls.throttle as f32])
        .collect();
    let n = session.frames.len();
    let x = Tensor::from_vec(&[n, 4], feats);
    let y = Tensor::from_vec(&[n, 2], targets);
    let mut opt = Adam::new(3e-3);
    for _ in 0..200 {
        let out = net.forward(&x, true);
        let (_, grad) = autolearn_nn::Loss::Mse.compute(&out, &y);
        let _ = net.backward(&grad);
        let mut params = net.params_mut();
        opt.step(&mut params);
    }
    let oracle_params: usize = {
        let mut tmp = net.params_mut();
        tmp.iter_mut().map(|p| p.value.len()).sum()
    };
    let oracle_flops = net.spec().flops(&[1, 4]).unwrap_or(0);

    let mut sim = Simulation::new(
        track.clone(),
        CarConfig::default(),
        CameraConfig::small(),
        DriveConfig {
            store_images: false,
            ..Default::default()
        },
    );
    let mut oracle = OraclePilot { net };
    let oracle_session = sim.run_laps(&mut oracle, 3, 120.0);

    print_table(
        &["policy", "params", "flops", "autonomy", "v (m/s)", "laps"],
        &[
            vec![
                "camera conv (linear)".into(),
                camera_params.to_string(),
                camera_flops.to_string(),
                format!("{:.1}%", camera_session.autonomy() * 100.0),
                f(camera_session.mean_speed(), 2),
                camera_session.completed_laps().to_string(),
            ],
            vec![
                "oracle dense".into(),
                oracle_params.to_string(),
                oracle_flops.to_string(),
                format!("{:.1}%", oracle_session.autonomy() * 100.0),
                f(oracle_session.mean_speed(), 2),
                oracle_session.completed_laps().to_string(),
            ],
        ],
    );
    println!(
        "\ncamera model val loss: {:.4}; flops ratio camera/oracle: {:.0}x",
        camera_report.best_val_loss,
        camera_flops as f64 / oracle_flops as f64
    );
    println!("both drive; the oracle is ~1000x cheaper but needs ground truth no");
    println!("real car has — the reproduction keeps the pixel path for fidelity.");
}
