//! T4 — Fowler SC'23 poster: "Optimizing Self-Driving Consistency With
//! Real-Time Speed Data".
//!
//! Compares constant-throttle driving against a PI speed controller closed
//! over the (noisy) wheel-speed measurement, on the noisy "real" car.
//!
//! Shape target: speed feedback cuts lap-time variance (CV) relative to
//! constant throttle at a comparable mean speed, and reduces errors.

use autolearn_bench::{f, print_table};
use autolearn_sim::{
    CameraConfig, CarConfig, DriveConfig, LinePilot, LinePilotConfig, Pilot, SessionResult,
    Simulation, SpeedController,
};
use autolearn_track::paper_oval;

fn run(pilot: &mut dyn Pilot, seed: u64) -> SessionResult {
    let mut sim = Simulation::new(
        paper_oval(),
        CarConfig::real_car(seed),
        CameraConfig::small(),
        DriveConfig {
            store_images: false,
            ..Default::default()
        },
    );
    sim.run_laps(pilot, 8, 400.0)
}

fn main() {
    println!("== T4: speed consistency (constant throttle vs speed feedback) ==\n");

    let mut rows = Vec::new();
    let mut cv_const_acc = 0.0;
    let mut cv_fb_acc = 0.0;
    let trials = 3;
    for seed in 0..trials {
        // Constant throttle (the paper's race mode).
        let mut constant = LinePilot::new(LinePilotConfig {
            constant_throttle: Some(0.42),
            seed,
            ..Default::default()
        });
        let s1 = run(&mut constant, seed);

        // Speed feedback holding the equivalent mean speed.
        let inner = LinePilot::new(LinePilotConfig {
            seed,
            ..Default::default()
        });
        let mut feedback = SpeedController::new(inner, 1.35);
        let s2 = run(&mut feedback, seed);

        cv_const_acc += s1.lap_time_cv();
        cv_fb_acc += s2.lap_time_cv();
        for (name, s) in [("constant", &s1), ("speed-pid", &s2)] {
            rows.push(vec![
                seed.to_string(),
                name.to_string(),
                s.completed_laps().to_string(),
                f(s.mean_lap_time(), 2),
                f(s.lap_time_cv() * 100.0, 1),
                f(s.mean_speed(), 2),
                f(s.errors_per_lap(), 2),
            ]);
        }
    }
    print_table(
        &[
            "trial",
            "controller",
            "laps",
            "lap time (s)",
            "lap CV (%)",
            "v (m/s)",
            "err/lap",
        ],
        &rows,
    );

    let cv_const = cv_const_acc / trials as f64;
    let cv_fb = cv_fb_acc / trials as f64;
    println!(
        "\nmean lap-time CV: constant {:.1}% vs speed-feedback {:.1}% — {}",
        cv_const * 100.0,
        cv_fb * 100.0,
        if cv_fb < cv_const {
            "feedback is more consistent (poster's claim reproduced)"
        } else {
            "UNEXPECTED"
        }
    );
}
