//! Tour of the §3.3 extension assignments: colour stop/go classification,
//! edge-detection line following, GPS path following, obstacle detection,
//! and reinforcement learning.
//!
//! ```sh
//! cargo run --release --example extensions_showcase
//! ```

use autolearn::extensions::{
    signal_scene, ColorClassifier, ObstacleBrake, PurePursuitPilot, Signal, VisionLinePilot,
};
use autolearn::rl::{train_reinforce, Policy, RlConfig};
use autolearn_sim::{CameraConfig, CarConfig, DriveConfig, LinePilot, LinePilotConfig, Simulation};
use autolearn_track::circle_track;

fn main() {
    let track = circle_track(3.0, 0.8);

    // --- 1. Colour stop/go ("red means stop, green means go") --------------
    println!("1. colour stop/go classifier");
    let mut clf = ColorClassifier::new(1);
    let acc = clf.train(150, 30, 1);
    let mut held_out = 0;
    for i in 0..30 {
        let sig = Signal::from_index(i % 3);
        if clf.classify(&signal_scene(sig, 5000 + i as u64)) == sig {
            held_out += 1;
        }
    }
    println!(
        "   train accuracy {:.0}%, held-out {}/30",
        acc * 100.0,
        held_out
    );

    // --- 2. Edge-detection line following (no ML, no ground truth) ---------
    println!("2. edge-detection line follower (classic CV)");
    let mut sim = Simulation::new(
        track.clone(),
        CarConfig::default(),
        CameraConfig::small(),
        DriveConfig {
            store_images: false,
            ..Default::default()
        },
    );
    let mut pilot = VisionLinePilot::default();
    let s = sim.run(&mut pilot, 30.0);
    println!(
        "   autonomy {:.1}%, {:.1} m covered, {} crashes",
        s.autonomy() * 100.0,
        s.distance_m,
        s.crashes
    );

    // --- 3. GPS path following ---------------------------------------------
    println!("3. GPS path following (pure pursuit on a recorded lap)");
    let mut path = Vec::new();
    let mut station = 0.0;
    while station < track.length() {
        path.push(track.point_at(station));
        station += 0.3;
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
    let mut pilot = PurePursuitPilot::new(path, track.clone());
    let s = sim.run(&mut pilot, 30.0);
    println!(
        "   autonomy {:.1}%, mean |lateral| {:.3} m",
        s.autonomy() * 100.0,
        s.frames.iter().map(|f| f.proj.lateral.abs()).sum::<f64>() / s.frames.len() as f64
    );

    // --- 4. Obstacle detection ----------------------------------------------
    println!("4. obstacle detection (vision emergency brake)");
    let rgb = CameraConfig {
        width: 40,
        height: 30,
        channels: 3,
        ..Default::default()
    };
    let run = |braked: bool| {
        let mut sim = Simulation::new(
            track.clone(),
            CarConfig::default(),
            rgb.clone(),
            DriveConfig {
                store_images: false,
                ..Default::default()
            },
        );
        let start = sim.track.project(sim.vehicle.state.pos).s;
        sim.add_obstacle(sim.track.wrap_station(start + 4.0), 0.0, 0.15);
        let inner = LinePilot::new(LinePilotConfig {
            steering_jitter: 0.0,
            ..Default::default()
        });
        if braked {
            sim.run(&mut ObstacleBrake::new(inner), 25.0).crashes
        } else {
            let mut p = inner;
            sim.run(&mut p, 25.0).crashes
        }
    };
    println!(
        "   collisions without detector: {}, with: {}",
        run(false),
        run(true)
    );

    // --- 5. Reinforcement learning ------------------------------------------
    println!("5. reinforcement learning (REINFORCE, 30 episodes)");
    let cfg = RlConfig {
        episodes: 30,
        episode_s: 15.0,
        seed: 2,
        ..Default::default()
    };
    let mut policy = Policy::new(2);
    let report = train_reinforce(&circle_track(2.5, 0.8), &cfg, &mut policy);
    println!(
        "   mean return first 6 episodes {:.1} → last 6 episodes {:.1}",
        report.mean_return_first(6),
        report.mean_return_last(6)
    );
}
