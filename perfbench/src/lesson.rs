//! `lesson`: back-to-back fault-free `Pipeline::run` with
//! `PipelineConfig::lesson_default(seed)` on `circle_track(3.0, 0.8)` —
//! the paper's whole afternoon in one call — with the drive scaled down
//! (see [`lesson_config`]) so one run holds enough lessons to be steady.
//!
//! The untraced run times `Pipeline::run` as a black box. The traced run
//! follows each `Pipeline::run` with the same lesson rebuilt from the
//! crates' public calls, a span around each of the seven stages and each
//! call into a layer, and checks that the rebuilt lesson reproduces the
//! pipeline's outputs bit for bit.

use crate::census::{self, probe_export, probe_predict, probe_render, probe_track, timed_fit};
use crate::outcome::{median, ms, Ctx, Outcome};
use crate::timed::TimedPilot;
use autolearn::pipeline::{Pipeline, PipelineConfig};
use autolearn::{collect_session, records_to_dataset, tub_bytes_estimate, ModelPilot};
use autolearn_cloud::chaos::launch_lease_observed;
use autolearn_cloud::perf::{training_time, TrainingCostModel};
use autolearn_cloud::{ComputeDevice, ProvisioningPlan, ReservationSystem, Site};
use autolearn_edge::{ContainerRuntime, ImageSpec};
use autolearn_net::{transfer_time, LinkPreset, Path, ResumableTransfer, TransferSpec};
use autolearn_nn::models::{prepare_dataset, CarModel, DonkeyModel};
use autolearn_nn::Trainer;
use autolearn_obs::Obs;
use autolearn_sim::{CameraConfig, CarConfig, DriveConfig, Simulation};
use autolearn_track::{circle_track, Track};
use autolearn_tub::{CleanConfig, TubCleaner};
use autolearn_util::fault::FaultPlan;
use autolearn_util::{Bytes, SimDuration, SimTime};
use std::time::Instant;

/// The seven stages of Fig. 1, in order.
pub const STAGES: [&str; 7] = [
    "collect",
    "clean",
    "reserve",
    "provision+upload",
    "train",
    "deploy-model",
    "evaluate",
];

/// Share of evaluation ticks the trained Linear pilot must keep on-track
/// in every lesson. A model trained from a minute of driving leaves the
/// track on its one lap now and then (about one lesson in nine scores
/// 0.6–0.7; the rest score 1.0), so a lesson cannot be held to more.
pub const AUTONOMY_FLOOR: f64 = 0.4;

/// Stage spans must cover the traced lesson's wall time to within this
/// share (the `op_p50_ref` bound in `BENCHMARK.json`).
pub const COVERAGE_BOUND: f64 = 0.24;

/// Simulated seconds of collection and evaluation laps per lesson.
pub const COLLECT_S: f64 = 60.0;
pub const EVAL_LAPS: usize = 1;

/// `lesson_default(seed)` with [`COLLECT_S`] of driving instead of 120 s
/// and [`EVAL_LAPS`] evaluation lap instead of 3. Every stage, model and
/// epoch count is unchanged; a lesson takes about 2.5 s instead of 7 s,
/// so one run holds about ten of them.
pub fn lesson_config(seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::lesson_default(seed);
    cfg.collection.duration_s = COLLECT_S;
    cfg.eval_laps = EVAL_LAPS;
    cfg
}

/// What one lesson produced, from either path. Equal seeds must give
/// equal values on both.
#[derive(Debug, PartialEq)]
struct LessonFacts {
    frames: usize,
    kept: usize,
    examples_seen: u64,
    epochs_ran: usize,
    best_val_loss_bits: u32,
    eval_ticks: usize,
    eval_autonomy_bits: u64,
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (track, setup) = ctx.setups(|ctx, i| {
        // Warm-up: a short lesson fills the allocator and code caches.
        let track = circle_track(3.0, 0.8);
        let mut cfg = PipelineConfig::lesson_default(ctx.unit_seed("lesson-warmup", i));
        cfg.collection.duration_s = 10.0;
        cfg.train.epochs = 2;
        cfg.eval_laps = 1;
        cfg.eval_max_duration_s = 10.0;
        if let Err(e) = Pipeline::new(track.clone(), cfg).run() {
            panic!("warm-up lesson failed: {e}");
        }
        track
    });
    out.setup = setup;
    if ctx.traced() {
        census::census(ctx, &CameraConfig::small());
    }

    let mut budget = ctx.budget(1);
    let mut walls_s = Vec::new();
    let mut autonomy = Vec::new();
    let mut val_loss = Vec::new();
    let (mut attempts, mut retries) = (0usize, 0usize);
    let mut stage_rates: Vec<[f64; 3]> = Vec::new();
    while budget.more() {
        let k = budget.units();
        let seed = ctx.unit_seed("lesson", k);
        let t0 = Instant::now();
        let result = Pipeline::new(track.clone(), lesson_config(seed)).run();
        let wall_ms = ms(t0);
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.unit(vec![(
                    "lesson.completes",
                    false,
                    format!("seed {seed}: {e}"),
                )]);
                budget.done(wall_ms / 1e3);
                continue;
            }
        };
        let stages: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
        let eval_s = report.stage("evaluate").map_or(0.0, |d| d.as_secs());
        let facts = LessonFacts {
            frames: report.records_collected,
            kept: report.records_cleaned,
            examples_seen: report.train_report.examples_seen,
            epochs_ran: report.train_report.epochs_ran,
            best_val_loss_bits: report.train_report.best_val_loss.to_bits(),
            eval_ticks: (eval_s * 20.0).round() as usize,
            eval_autonomy_bits: report.eval_autonomy.to_bits(),
        };
        let log = &report.run_log;
        attempts += log.attempts.len();
        retries += log.failed_attempts();
        out.counts.push(format!(
            "lesson[{k}] seed={seed} ticks={} frames={} kept={} examples_seen={} epochs={} autonomy={:.6} sim_s={:.3} attempts={} retries={}",
            facts.frames + facts.eval_ticks,
            facts.frames,
            facts.kept,
            facts.examples_seen,
            facts.epochs_ran,
            report.eval_autonomy,
            report.total_time().as_secs(),
            log.attempts.len(),
            log.failed_attempts(),
        ));
        let mut checks = vec![
            (
                "lesson.stages",
                stages == STAGES && log.completed_stages == STAGES,
                format!("stages {stages:?}, checkpoints {:?}", log.completed_stages),
            ),
            (
                "lesson.autonomy",
                report.eval_autonomy >= AUTONOMY_FLOOR,
                format!(
                    "eval autonomy {:.4} (floor {AUTONOMY_FLOOR})",
                    report.eval_autonomy
                ),
            ),
            (
                "lesson.val_loss",
                report.train_report.best_val_loss.is_finite(),
                format!("best val loss {}", report.train_report.best_val_loss),
            ),
        ];
        walls_s.push(wall_ms / 1e3);
        out.measured(wall_ms / 1e3, facts.frames as f64, &[wall_ms]);
        autonomy.push(report.eval_autonomy);
        val_loss.push(f64::from(report.train_report.best_val_loss));

        if ctx.traced() {
            let rebuilt = rebuilt_lesson(ctx, &track, seed);
            checks.push((
                "lesson.rebuilt_matches_pipeline",
                rebuilt.facts == facts,
                format!("pipeline {facts:?} vs rebuilt {:?}", rebuilt.facts),
            ));
            checks.push((
                "lesson.stage_spans_cover_wall",
                (1.0 - rebuilt.coverage).abs() <= COVERAGE_BOUND,
                format!(
                    "stage spans cover {:.4} of the traced lesson's wall time (bound {COVERAGE_BOUND})",
                    rebuilt.coverage
                ),
            ));
            out.overhead_pairs.push((wall_ms, rebuilt.wall_ms));
            stage_rates.push(rebuilt.stage_rates);
        }
        out.unit(checks);
        budget.done(t0.elapsed().as_secs_f64());
    }

    out.reference_ms = budget.reference_ms();
    out.report = vec![
        ("lesson_wall_s", median(&walls_s), "s"),
        ("eval_autonomy", median(&autonomy), "ratio"),
        ("best_val_loss", median(&val_loss), "mse"),
        (
            "failed_ratio",
            retries as f64 / attempts.max(1) as f64,
            "ratio",
        ),
        ("lessons", walls_s.len() as f64, "count"),
    ];
    if !stage_rates.is_empty() {
        let col = |i: usize| median(&stage_rates.iter().map(|r| r[i]).collect::<Vec<_>>());
        out.report.push(("collect_frames_per_s", col(0), "1/s"));
        out.report.push(("train_samples_per_s", col(1), "1/s"));
        out.report.push(("drive_ticks_per_s", col(2), "1/s"));
    }
    out
}

struct Rebuilt {
    facts: LessonFacts,
    wall_ms: f64,
    /// Sum of the seven stage spans over the lesson span.
    coverage: f64,
    /// Collected frames, trained examples and evaluation ticks per second
    /// of their own stage.
    stage_rates: [f64; 3],
}

/// The fault-free `Pipeline::run` path rebuilt from public calls, traced:
/// a `lesson` span, one `stage.*` span per stage, and a span around every
/// call into a layer. With no faults every retried stage runs exactly one
/// attempt, so the rebuilt lesson does the same work.
fn rebuilt_lesson(ctx: &mut Ctx, track: &Track, seed: u64) -> Rebuilt {
    let cfg = lesson_config(seed);
    let origin = ctx.tracer.origin();
    let mut plan = FaultPlan::none();
    let mut obs = Obs::new();
    let t0 = Instant::now();
    let lesson = ctx.tracer.begin("lesson");
    let obs_root = obs.begin_span("pipeline");
    let pipeline = Pipeline::new(track.clone(), cfg.clone());
    let preflight = ctx.tracer.span("core.preflight", || pipeline.preflight());
    assert!(preflight.is_ok(), "lesson_default must pass preflight");

    let stage = ctx.tracer.begin("stage.collect");
    let collect_t0 = Instant::now();
    let collected = collect_session(track, &cfg.collection);
    let collect_s = collect_t0.elapsed().as_secs_f64();
    ctx.tracer.end(stage);
    let frames = collected.records.len();
    let mut records = collected.records;

    let stage = ctx.tracer.begin("stage.clean");
    let cleaner = TubCleaner::new(CleanConfig::default());
    let flagged = ctx
        .tracer
        .span("tub.analyse", || cleaner.analyse(&records))
        .flagged_ids();
    records.retain(|r| !flagged.contains(&r.id));
    ctx.tracer.end(stage);

    let stage = ctx.tracer.begin("stage.reserve");
    let mut reservations = ReservationSystem::new(Site::chameleon());
    let node_type = format!("gpu_{}", cfg.gpu.name().to_lowercase());
    let launch = ctx.tracer.span("cloud.launch_lease", || {
        launch_lease_observed(
            &mut reservations,
            "autolearn",
            &node_type,
            1,
            SimTime::ZERO,
            SimDuration::from_hours(4.0),
            &mut plan,
            &mut obs,
        )
    });
    ctx.tracer.end(stage);

    let stage = ctx.tracer.begin("stage.provision+upload");
    std::hint::black_box(ProvisioningPlan::cuda_image(SimDuration::ZERO).total());
    let mut upload = ResumableTransfer::new(TransferSpec::rsync(tub_bytes_estimate(&records)));
    let up = ctx.tracer.span("net.attempt", || {
        upload.attempt_observed(&Path::car_to_cloud(), &mut plan, "tub-upload", &mut obs)
    });
    ctx.tracer.end(stage);

    let stage = ctx.tracer.begin("stage.train");
    let train_t0 = Instant::now();
    let mut model = CarModel::build(cfg.model_kind, &cfg.model);
    let dataset = ctx.tracer.span("core.records_to_dataset", || {
        records_to_dataset(&records, &cfg.model)
    });
    let data = prepare_dataset(&dataset, model.input_spec());
    let trainer = Trainer::new(cfg.train.clone());
    let train_report = timed_fit(ctx, &trainer, &mut model, &data, Some(&mut obs));
    let cost = TrainingCostModel::new(
        model.flops_per_inference(),
        train_report.examples_seen,
        cfg.train.batch_size as u64,
    );
    std::hint::black_box(training_time(&cost, &ComputeDevice::of_gpu(cfg.gpu)));
    let train_s = train_t0.elapsed().as_secs_f64();
    ctx.tracer.end(stage);

    let stage = ctx.tracer.begin("stage.deploy-model");
    let model_bytes = Bytes::new((model.param_count() * 4 + 4096) as u64);
    std::hint::black_box(transfer_time(
        &Path::of_presets(&[LinkPreset::Datacenter]),
        &TransferSpec::object_store(model_bytes),
    ));
    let mut get = ResumableTransfer::new(TransferSpec::object_store(model_bytes));
    let down = ctx.tracer.span("net.attempt", || {
        get.attempt_observed(&Path::car_to_cloud(), &mut plan, "model-download", &mut obs)
    });
    let mut runtime = ContainerRuntime::new();
    let image = ImageSpec::autolearn();
    let container = ctx.tracer.span("edge.launch", || {
        runtime.launch_with_faults_observed(&image, &Path::car_to_cloud(), &mut plan, &mut obs)
    });
    ctx.tracer.end(stage);

    let stage = ctx.tracer.begin("stage.evaluate");
    let eval_t0 = Instant::now();
    let mut sim = Simulation::new(
        track.clone(),
        CarConfig::default(),
        cfg.collection.camera.clone(),
        DriveConfig {
            store_images: false,
            ..Default::default()
        },
    );
    let mut pilot = TimedPilot::new(ModelPilot::new(model), origin);
    let eval = sim.run_laps(&mut pilot, cfg.eval_laps, cfg.eval_max_duration_s);
    ctx.tracer.record("sim.tick", &pilot.ticks);
    ctx.tracer.record("core.decide", &pilot.decisions);
    let eval_s = eval_t0.elapsed().as_secs_f64();
    ctx.tracer.end(stage);
    obs.end_span(obs_root);
    ctx.tracer.end(lesson);
    let wall_ms = ms(t0);

    // Tallies and the probes the stages could not time from outside.
    ctx.tally.sim_ticks += (collected.session.ticks + eval.ticks) as u64;
    ctx.tally.tub_collected += frames as u64;
    ctx.tally.tub_kept += records.len() as u64;
    ctx.tally.cloud_launches += 1;
    ctx.tally.cloud_leases_live_max = ctx.tally.cloud_leases_live_max.max(1);
    ctx.tally.cloud_refused += u64::from(launch.is_err());
    ctx.tally.net_attempts += 2;
    ctx.tally.net_failed += u64::from(up.is_err()) + u64::from(down.is_err());
    ctx.tally.edge_launches += 1;
    ctx.tally.edge_failed += u64::from(container.is_err());
    let states: Vec<_> = collected.session.frames.iter().map(|f| f.state).collect();
    let sampled: Vec<_> = states.iter().step_by(40).copied().collect();
    probe_render(ctx, track, &cfg.collection.camera, &sampled);
    probe_track(ctx, track, &sampled);
    let mut model = pilot.inner.into_model();
    probe_predict(ctx, &mut model, &census::dataset_frames(&dataset, 16));
    probe_export(ctx, &obs);

    // This lesson's spans are the last of their names.
    let last_ms = |name: &str| {
        ctx.tracer
            .spans()
            .iter()
            .rev()
            .find(|sp| sp.name == name)
            .map_or(0.0, |sp| sp.dur_ns() as f64 / 1e6)
    };
    let stage_ms: f64 = STAGES.iter().map(|s| last_ms(&format!("stage.{s}"))).sum();
    let lesson_ms = last_ms("lesson");
    Rebuilt {
        facts: LessonFacts {
            frames,
            kept: records.len(),
            examples_seen: train_report.examples_seen,
            epochs_ran: train_report.epochs_ran,
            best_val_loss_bits: train_report.best_val_loss.to_bits(),
            eval_ticks: eval.ticks,
            eval_autonomy_bits: eval.autonomy().to_bits(),
        },
        wall_ms,
        coverage: stage_ms / lesson_ms,
        stage_rates: [
            frames as f64 / collect_s,
            train_report.examples_seen as f64 / train_s,
            eval.ticks as f64 / eval_s,
        ],
    }
}
