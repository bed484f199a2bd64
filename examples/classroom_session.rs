//! A classroom session end to end: the instructor reserves the class slot
//! on Chameleon, students BYOD-register their cars, publish the artifact on
//! Trovi, run the race, and score the competition (§3.2, §3.4, §4, §5).
//!
//! ```sh
//! cargo run --release --example classroom_session
//! ```

use autolearn::pathway::{competition_score, LearningPathway};
use autolearn_cloud::hardware::Site;
use autolearn_cloud::identity::IdentityService;
use autolearn_cloud::reservation::ReservationSystem;
use autolearn_edge::{ByodWorkflow, DeviceKind, EdgeDevice};
use autolearn_sim::{
    CameraConfig, CarConfig, DriveConfig, LinePilot, LinePilotConfig, Simulation, SpeedController,
};
use autolearn_track::waveshare_track;
use autolearn_trovi::{Artifact, EventKind, EventLog};
use autolearn_util::SimTime;

fn main() {
    // --- Identity & project -------------------------------------------------
    let mut identity = IdentityService::new();
    identity.federated_login("prof", "missouri.edu");
    identity
        .create_education_project("autolearn-class", "prof", 5000.0)
        .expect("education project approved");
    for s in ["alice", "kyle", "will"] {
        identity.federated_login(s, "missouri.edu");
        identity.add_member("autolearn-class", s).unwrap();
    }
    println!("project 'autolearn-class' with 3 students created");

    // --- Advance reservation for the class slot ----------------------------
    let mut reservations = ReservationSystem::new(Site::chameleon());
    let class_start = SimTime::from_secs(7.0 * 86_400.0); // next week
    let class_end = SimTime::from_secs(7.0 * 86_400.0 + 2.0 * 3600.0);
    let lease = reservations
        .reserve("autolearn-class", "gpu_rtx6000", 3, class_start, class_end)
        .expect("the classroom slot is guaranteed in advance");
    println!(
        "advance reservation {} holds 3 RTX6000 nodes for the class slot",
        lease
    );

    // --- Cars join via BYOD -------------------------------------------------
    let mut total_attended_mins = 0.0;
    for (i, student) in ["alice", "kyle", "will"].iter().enumerate() {
        let mut car = EdgeDevice::new(&format!("car-{i}"), DeviceKind::RaspberryPi4, student);
        let z = ByodWorkflow::onboard(&mut car, "autolearn-class").unwrap();
        total_attended_mins += z.attended.as_mins();
    }
    println!(
        "3 cars BYOD-registered; mean attended setup time {:.0} min each",
        total_attended_mins / 3.0
    );

    // --- The artifact on Trovi ----------------------------------------------
    let artifact = Artifact::autolearn_example();
    let mut events = EventLog::new();
    for s in ["alice", "kyle", "will"] {
        events.record(s, &artifact.slug, EventKind::View, SimTime::ZERO);
        events.record(s, &artifact.slug, EventKind::LaunchClick, SimTime::ZERO);
        events.record(s, &artifact.slug, EventKind::CellExecution, SimTime::ZERO);
    }
    let m = events.metrics_for(&artifact.slug);
    println!(
        "Trovi: {} views, {} launches, {} students executed cells (artifact v{})",
        m.views,
        m.launch_clicks,
        m.users_executed,
        artifact.version_count()
    );

    // --- The race (§3.3: fastest speed with fewest errors) -----------------
    println!("\nrace on the Waveshare track:");
    let track = waveshare_track();
    let mut leaderboard = Vec::new();
    for (student, target_speed) in [("alice", 1.0), ("kyle", 1.4), ("will", 1.8)] {
        let mut sim = Simulation::new(
            track.clone(),
            CarConfig::real_car(student.len() as u64),
            CameraConfig::small(),
            DriveConfig {
                store_images: false,
                ..Default::default()
            },
        );
        let inner = LinePilot::new(LinePilotConfig {
            seed: student.len() as u64,
            ..Default::default()
        });
        let mut pilot = SpeedController::new(inner, target_speed);
        let session = sim.run_laps(&mut pilot, 3, 120.0);
        let score = competition_score(
            session.mean_speed(),
            session.autonomy(),
            session.errors_per_lap(),
        );
        println!(
            "  {:<6} target {:.1} m/s -> {:.2} m/s, autonomy {:>5.1}%, {} crashes, score {:.3}",
            student,
            target_speed,
            session.mean_speed(),
            session.autonomy() * 100.0,
            session.crashes,
            score
        );
        leaderboard.push((student, score));
    }
    leaderboard.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!(
        "\nwinner: {} — pushing speed only pays while control holds",
        leaderboard[0].0
    );

    // --- Pathway summary -----------------------------------------------------
    println!("\npathways available to this class:");
    for p in LearningPathway::all() {
        println!(
            "  {:<10} {} stages, car needed: {}",
            p.name(),
            p.stages().len(),
            p.requires_car()
        );
    }
}
