//! `drive_hires`: DonkeyCar's native 160×120 RGB camera on `paper_oval()`,
//! alternating a recorded collection session on the physical-car path
//! (noisy camera, frames stored) with an autonomous session driven by a
//! `ModelPilot` trained during set-up (frames not stored). The simulator
//! and track do nearly all the work; the network runs one batch-1
//! `predict` per autonomous tick.

use crate::census::{self, probe_predict, probe_render, probe_track};
use crate::outcome::{median, Ctx, Outcome};
use crate::timed::TimedPilot;
use autolearn::dataset::image_to_input;
use autolearn::{collect_session, records_to_dataset, CollectConfig, CollectionPath, ModelPilot};
use autolearn_nn::models::{prepare_dataset, CarModel, DonkeyModel, ModelConfig, ModelKind};
use autolearn_nn::{TrainConfig, Trainer};
use autolearn_sim::{CameraConfig, CarConfig, DriveConfig, SessionResult, Simulation};
use autolearn_track::{paper_oval, Track};
use std::time::Instant;

/// Simulated seconds per session (20 ticks a second).
pub const SESSION_S: f64 = 2.5;
/// The 20 Hz control loop's period: the latency limit of one tick.
pub const TICK_LIMIT_MS: f64 = 50.0;
/// Share of autonomous ticks the trained pilot must keep on-track.
pub const AUTONOMY_FLOOR: f64 = 0.6;
/// Set-up: simulated seconds of 40×30 RGB driving the pilot learns from.
pub const PILOT_COLLECT_S: f64 = 30.0;
pub const PILOT_EPOCHS: usize = 10;

/// The pilot sees the 160×120 frame downscaled to this.
fn pilot_config(seed: u64) -> ModelConfig {
    ModelConfig {
        height: 30,
        width: 40,
        channels: 3,
        seed,
        ..Default::default()
    }
}

fn train_pilot(track: &Track, seed: u64) -> ModelPilot {
    let mut cfg = CollectConfig::new(CollectionPath::Simulator, PILOT_COLLECT_S, seed);
    cfg.camera = CameraConfig {
        width: 40,
        height: 30,
        channels: 3,
        ..Default::default()
    };
    let records = collect_session(track, &cfg).records;
    let mcfg = pilot_config(seed);
    let mut model = CarModel::build(ModelKind::Linear, &mcfg);
    let data = prepare_dataset(&records_to_dataset(&records, &mcfg), model.input_spec());
    let trainer = Trainer::new(TrainConfig {
        epochs: PILOT_EPOCHS,
        batch_size: 32,
        seed,
        ..Default::default()
    });
    if let Err(errs) = trainer.fit(&mut model, &data) {
        panic!("pilot model rejected: {errs:?}");
    }
    ModelPilot::new(model)
}

/// One autonomous session from the start line, frames not stored.
fn autonomous(track: &Track, pilot: &mut TimedPilot<ModelPilot>) -> SessionResult {
    let mut sim = Simulation::new(
        track.clone(),
        CarConfig::default(),
        CameraConfig::default(),
        DriveConfig {
            store_images: false,
            ..Default::default()
        },
    );
    pilot.restart();
    sim.run(pilot, SESSION_S)
}

fn interval_ms(iv: &[(u64, u64)]) -> impl Iterator<Item = f64> + '_ {
    iv.iter().map(|(a, b)| b.saturating_sub(*a) as f64 / 1e6)
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let track = paper_oval();
    let (pilot, setup) =
        ctx.setups(|ctx, _| train_pilot(&track, ctx.unit_seed("drive_hires-pilot", 0)));
    out.setup = setup;
    let camera = CameraConfig::default();
    if ctx.traced() {
        census::census(ctx, &camera);
    }
    let origin = ctx.tracer.origin();
    let mut pilot = TimedPilot::new(pilot, origin);

    let mut budget = ctx.budget(1);
    let (mut frames_total, mut recorded_s) = (0u64, 0.0f64);
    let (mut ticks_total, mut auto_s) = (0u64, 0.0f64);
    let mut autonomy = Vec::new();
    let mut ticks = Vec::new();
    while budget.more() {
        let k = budget.units();
        let t_pair = Instant::now();
        let seed = ctx.unit_seed("drive_hires", k);

        // Recorded session: the physical-car collection path at 160x120.
        let cfg = CollectConfig {
            path: CollectionPath::PhysicalCar,
            duration_s: SESSION_S,
            camera: camera.clone(),
            constant_throttle: None,
            seed,
        };
        let t0 = Instant::now();
        let span = ctx.tracer.begin("drive.recorded_session");
        let collected = collect_session(&track, &cfg);
        ctx.tracer.end(span);
        let rec_s = t0.elapsed().as_secs_f64();
        let frames = collected.records.len();
        let sized = collected.records.iter().all(|r| {
            r.image
                .as_ref()
                .is_some_and(|i| (i.width, i.height, i.channels) == (160, 120, 3))
        });

        // Autonomous session: the trained pilot on the same camera.
        let t1 = Instant::now();
        let session = autonomous(&track, &mut pilot);
        let auto_wall_s = t1.elapsed().as_secs_f64();
        let tick_ms: Vec<f64> = interval_ms(&pilot.ticks).collect();
        out.measured(
            rec_s + auto_wall_s,
            (frames + session.ticks) as f64,
            &tick_ms,
        );
        ticks.extend(tick_ms);

        frames_total += frames as u64;
        recorded_s += rec_s;
        ticks_total += session.ticks as u64;
        auto_s += auto_wall_s;
        autonomy.push(session.autonomy());
        out.counts.push(format!(
            "pair[{k}] seed={seed} frames={frames} recorded_crashes={} recorded_m={:.6} ticks={} driven_m={:.6} autonomy={:.4} laps={} sim_s={:.2}",
            collected.session.crashes,
            collected.session.distance_m,
            session.ticks,
            session.distance_m,
            session.autonomy(),
            session.completed_laps(),
            collected.session.duration_s + session.duration_s,
        ));
        let mut checks = vec![
            (
                "drive_hires.recorded_frames",
                frames == (SESSION_S * 20.0).round() as usize && sized,
                format!("{frames} frames stored, all 160x120x3: {sized}"),
            ),
            (
                "drive_hires.autonomy",
                session.autonomy() >= AUTONOMY_FLOOR,
                format!(
                    "autonomy {:.4} (floor {AUTONOMY_FLOOR})",
                    session.autonomy()
                ),
            ),
        ];

        if ctx.traced() {
            // The autonomous session again, traced: ticks and decisions
            // become spans under a session span.
            let span = ctx.tracer.begin("drive.autonomous_session");
            let t2 = Instant::now();
            let again = autonomous(&track, &mut pilot);
            let traced_s = t2.elapsed().as_secs_f64();
            ctx.tracer.record("sim.tick", &pilot.ticks);
            ctx.tracer.record("core.decide", &pilot.decisions);
            ctx.tracer.end(span);
            out.overhead_pairs.push((auto_wall_s * 1e3, traced_s * 1e3));
            checks.push((
                "drive_hires.replay_matches",
                again.ticks == session.ticks
                    && again.autonomy().to_bits() == session.autonomy().to_bits(),
                format!(
                    "replayed autonomy {:.4} vs {:.4}",
                    again.autonomy(),
                    session.autonomy()
                ),
            ));
            ctx.tally.sim_ticks += (collected.session.ticks + 2 * session.ticks) as u64;
            let states: Vec<_> = collected.session.frames.iter().map(|f| f.state).collect();
            let sampled: Vec<_> = states.iter().step_by(10).copied().collect();
            probe_render(ctx, &track, &camera, &sampled);
            probe_track(ctx, &track, &sampled);
            let mcfg = pilot.inner.model().config().clone();
            let inputs: Vec<_> = collected
                .records
                .iter()
                .step_by(10)
                .filter_map(|r| r.image.as_ref().map(|img| image_to_input(img, &mcfg)))
                .collect();
            probe_predict(ctx, pilot.inner.model_mut(), &inputs);
        }
        out.unit(checks);
        budget.done(t_pair.elapsed().as_secs_f64());
    }

    let over = ticks.iter().filter(|&&t| t > TICK_LIMIT_MS).count();
    out.reference_ms = budget.reference_ms();
    out.report = vec![
        ("drive_tick_p50_ms", median(&ticks), "ms"),
        (
            "drive_tick_p99_ms",
            autolearn_util::percentile(&ticks, 99.0),
            "ms",
        ),
        ("drive_tick_limit_ms", TICK_LIMIT_MS, "ms"),
        ("ticks_over_limit", over as f64, "count"),
        (
            "drive_ticks_per_s",
            ticks_total as f64 / auto_s.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        (
            "collect_frames_per_s",
            frames_total as f64 / recorded_s.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        ("eval_autonomy", median(&autonomy), "ratio"),
        (
            "failed_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    out
}
