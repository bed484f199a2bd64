//! Layer probes, the census, and the per-layer metrics of a traced run.
//!
//! A per-layer metric is the median over every call the workload made into
//! that layer. Workloads time their own calls; the probes here make the
//! calls a workload cannot time from outside (a frame render inside the
//! drive loop, one `Track::project`) by repeating them directly on the
//! states the workload visited. Every traced run also starts with a small
//! census that calls each of the ten layers a few times. Its spans and
//! tallies are kept apart, and a layer's metric comes from the census only
//! when the workload made no call into that layer.

use crate::outcome::{median, Ctx, Outcome, Tally};
use crate::timed::{TimedModel, TimedPilot};
use crate::trace::Span;
use autolearn::{collect_session, records_to_dataset, CollectConfig, CollectionPath, ModelPilot};
use autolearn_cloud::{launch_lease, LaunchError, LeaseState, ReservationSystem, Site};
use autolearn_edge::{ContainerRuntime, ImageSpec};
use autolearn_net::{Path, ResumableTransfer, TransferSpec};
use autolearn_nn::models::{prepare_dataset, CarModel, DonkeyModel, ModelConfig, ModelKind};
use autolearn_nn::{Tensor, TrainConfig, TrainReport, Trainer};
use autolearn_obs::Obs;
use autolearn_sim::{
    Camera, CameraConfig, CarConfig, DriveConfig, LinePilot, LinePilotConfig, Simulation,
    VehicleState,
};
use autolearn_track::{circle_track, Track, Vec2};
use autolearn_trovi::{Artifact, TroviHub};
use autolearn_tub::{CleanConfig, TubCleaner};
use autolearn_util::fault::FaultPlan;
use autolearn_util::{Bytes, SimDuration, SimTime};

/// `Track::surface_at` is too quick to time one call at a time; each span
/// covers this many calls on a grid ahead of the car.
pub const SURFACE_BATCH: usize = 256;

/// Slug of the artifact every Trovi interaction targets.
pub const SLUG: &str = "autolearn-edge-to-cloud";

/// Re-render the camera at `states` with direct `Camera::render_scene`
/// calls, one `sim.render` span each.
pub fn probe_render(ctx: &mut Ctx, track: &Track, camera: &CameraConfig, states: &[VehicleState]) {
    let mut cam = Camera::new(camera.clone());
    for state in states {
        let _frame = ctx
            .tracer
            .span("sim.render", || cam.render_scene(track, &[], state));
    }
}

/// Time `Track::project` at each state, and `Track::surface_at` over a
/// [`SURFACE_BATCH`]-point grid in front of it.
pub fn probe_track(ctx: &mut Ctx, track: &Track, states: &[VehicleState]) {
    let side = (SURFACE_BATCH as f64).sqrt() as usize;
    for state in states {
        let _proj = ctx
            .tracer
            .span("track.project", || track.project(state.pos));
        let fwd = Vec2::from_angle(state.heading);
        let left = fwd.perp();
        let mut lines = 0usize;
        ctx.tracer.span("track.surface_at", || {
            for i in 0..side {
                for j in 0..side {
                    let ahead = 0.1 + 2.0 * i as f64 / side as f64;
                    let across = -1.0 + 2.0 * j as f64 / side as f64;
                    let p = state.pos + fwd * ahead + left * across;
                    lines += usize::from(track.surface_at(p) == autolearn_track::Surface::Line);
                }
            }
        });
        std::hint::black_box(lines);
    }
}

/// Time batch-1 `DonkeyModel::predict` on each frame.
pub fn probe_predict(ctx: &mut Ctx, model: &mut CarModel, frames: &[Tensor]) {
    let origin = ctx.tracer.origin();
    let mut timed = TimedModel::new(model, origin);
    for f in frames {
        let _ = timed.predict(&[Tensor::stack(std::slice::from_ref(f))]);
    }
    ctx.tracer.record("nn.predict", &timed.predict);
}

/// Export the program's own telemetry, timed.
pub fn probe_export(ctx: &mut Ctx, obs: &Obs) {
    ctx.tally.obs_spans += obs.trace().spans().len() as u64;
    let json = ctx.tracer.span("obs.export", || obs.export_chrome_trace());
    std::hint::black_box(json.len());
}

/// Fit `model` through the timing wrapper inside an `nn.fit` span, and
/// tally the report.
pub fn timed_fit(
    ctx: &mut Ctx,
    trainer: &Trainer,
    model: &mut CarModel,
    data: &autolearn_nn::Dataset,
    obs: Option<&mut Obs>,
) -> TrainReport {
    let origin = ctx.tracer.origin();
    let span = ctx.tracer.begin("nn.fit");
    let mut timed = TimedModel::new(model, origin);
    let report = match obs {
        Some(obs) => trainer.fit_observed(&mut timed, data, obs),
        None => trainer.fit(&mut timed, data),
    };
    ctx.tracer.record("nn.train_batch", &timed.train);
    ctx.tracer.record("nn.eval_batch", &timed.eval);
    ctx.tracer.end(span);
    let report = report.unwrap_or_else(|errs| panic!("zoo model rejected: {errs:?}"));
    tally_fit(ctx, &report);
    report
}

pub fn tally_fit(ctx: &mut Ctx, report: &TrainReport) {
    ctx.tally.nn_examples_seen += report.examples_seen;
    ctx.tally.nn_epochs_ran += report.epochs_ran as u64;
    ctx.tally.nn_scratch_peak_bytes = ctx
        .tally
        .nn_scratch_peak_bytes
        .max(report.scratch_peak_bytes);
}

/// Leases of `rs` that hold nodes at `at`.
pub fn live_leases(rs: &ReservationSystem, at: SimTime) -> u64 {
    rs.leases()
        .iter()
        .filter(|l| l.state != LeaseState::Ended && l.start.0 <= at.0 && at.0 < l.end.0)
        .count() as u64
}

/// Poses spread evenly around `track`.
pub fn poses_around(track: &Track, n: usize) -> Vec<VehicleState> {
    (0..n)
        .map(|i| {
            let s = track.length() * i as f64 / n as f64;
            VehicleState::at(track.point_at(s), track.heading_at(s))
        })
        .collect()
}

/// Call every layer a few times under a `census` span. Frames render at
/// the workload's `camera`; everything downstream of the camera runs at
/// the 40×30 training size to keep the census cheap.
pub fn census(ctx: &mut Ctx, camera: &CameraConfig) {
    let workload_tally = std::mem::take(&mut ctx.tally);
    let root = ctx.tracer.begin("census");
    let origin = ctx.tracer.origin();
    let seed = ctx.unit_seed("census", 0);
    let track = circle_track(3.0, 0.8);
    let poses = poses_around(&track, 8);
    probe_render(ctx, &track, camera, &poses[..4]);
    probe_track(ctx, &track, &poses);
    let camera = &CameraConfig::small();

    // sim + core: two seconds of collection, then one of a model pilot.
    let mut collect = CollectConfig::new(CollectionPath::Simulator, 2.0, seed);
    collect.camera = camera.clone();
    let collected = collect_session(&track, &collect);
    ctx.tally.sim_ticks += collected.session.ticks as u64;
    let records = collected.records;
    let report = ctx.tracer.span("tub.analyse", || {
        TubCleaner::new(CleanConfig::default()).analyse(&records)
    });
    ctx.tally.tub_collected += records.len() as u64;
    ctx.tally.tub_kept += (records.len() - report.count()) as u64;
    let mcfg = ModelConfig {
        height: camera.height,
        width: camera.width,
        channels: camera.channels,
        seed,
        ..Default::default()
    };
    let dataset = ctx.tracer.span("core.records_to_dataset", || {
        records_to_dataset(&records, &mcfg)
    });
    let mut model = CarModel::build(ModelKind::Linear, &mcfg);
    let data = prepare_dataset(&dataset, model.input_spec());
    let trainer = Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 16,
        seed,
        ..Default::default()
    });
    let mut obs = Obs::new();
    timed_fit(ctx, &trainer, &mut model, &data, Some(&mut obs));
    probe_predict(ctx, &mut model, &dataset_frames(&dataset, 4));
    let mut sim = Simulation::new(
        track.clone(),
        CarConfig::default(),
        camera.clone(),
        DriveConfig {
            store_images: false,
            ..Default::default()
        },
    );
    let mut pilot = TimedPilot::new(ModelPilot::new(model), origin);
    let session = sim.run(&mut pilot, 1.0);
    ctx.tally.sim_ticks += session.ticks as u64;
    ctx.tracer.record("sim.tick", &pilot.ticks);
    ctx.tracer.record("core.decide", &pilot.decisions);
    let mut sim = Simulation::new(
        track.clone(),
        CarConfig::default(),
        camera.clone(),
        DriveConfig::default(),
    );
    let mut pilot = TimedPilot::new(LinePilot::new(LinePilotConfig::default()), origin);
    let session = sim.run(&mut pilot, 1.0);
    ctx.tally.sim_ticks += session.ticks as u64;
    ctx.tracer.record("sim.tick", &pilot.ticks);

    // cloud, net, edge: fault-free calls on fresh substrates.
    let mut plan = FaultPlan::none();
    let mut rs = ReservationSystem::new(Site::chameleon());
    for i in 0..8 {
        let at = SimTime::from_secs(600.0 * i as f64);
        let r = ctx.tracer.span("cloud.launch_lease", || {
            launch_lease(
                &mut rs,
                "census",
                "gpu_rtx6000",
                1,
                at,
                SimDuration::from_hours(1.0),
                &mut plan,
            )
        });
        ctx.tally.cloud_launches += 1;
        ctx.tally.cloud_refused += u64::from(matches!(r, Err(LaunchError::Refused(_))));
        let live = live_leases(&rs, at);
        ctx.tally.cloud_leases_live_max = ctx.tally.cloud_leases_live_max.max(live);
    }
    for _ in 0..8 {
        let mut t = ResumableTransfer::new(TransferSpec::rsync(Bytes::new(4 << 20)));
        let r = ctx.tracer.span("net.attempt", || {
            t.attempt(&Path::car_to_cloud(), &mut plan, "census")
        });
        ctx.tally.net_attempts += 1;
        ctx.tally.net_failed += u64::from(r.is_err());
        let mut rt = ContainerRuntime::new();
        let image = ImageSpec::autolearn();
        let r = ctx.tracer.span("edge.launch", || {
            rt.launch_with_faults(&image, &Path::car_to_cloud(), &mut plan)
        });
        ctx.tally.edge_launches += 1;
        ctx.tally.edge_failed += u64::from(r.is_err());
    }

    // trovi + obs: a handful of students, a rollup after each.
    let mut hub = TroviHub::new();
    hub.publish(Artifact::autolearn_example());
    for i in 0..8 {
        let user = format!("census-{i}");
        let at = SimTime::from_secs(60.0 * i as f64);
        hub.view(&user, SLUG, at);
        hub.launch(&user, SLUG, at);
        hub.execute_cell(&user, SLUG, 0, 1, at);
        let m = ctx
            .tracer
            .span("trovi.rollup", || hub.events.metrics_for(SLUG));
        std::hint::black_box(m);
    }
    ctx.tally.trovi_events += hub.events.len() as u64;
    probe_export(ctx, &obs);
    ctx.tracer.end(root);
    ctx.census_tally = std::mem::replace(&mut ctx.tally, workload_tally);
    ctx.census_spans = ctx.tracer.spans().len();
}

/// The first `n` frames of a frame dataset, each `[C, H, W]`.
pub fn dataset_frames(dataset: &autolearn_nn::Dataset, n: usize) -> Vec<Tensor> {
    let x = &dataset.inputs()[0];
    let per = x.shape()[1..].iter().product::<usize>();
    (0..n.min(x.shape()[0]))
        .map(|i| Tensor::from_vec(&x.shape()[1..], x.data()[i * per..(i + 1) * per].to_vec()))
        .collect()
}

/// `num / den` from the workload's tallies, or from the census's when the
/// workload made no such call.
fn ratio(ctx: &Ctx, f: impl Fn(&Tally) -> (u64, u64)) -> f64 {
    let (num, den) = match f(&ctx.tally) {
        (_, 0) => f(&ctx.census_tally),
        own => own,
    };
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A count from the workload's tallies, or the census's when it has none.
fn count(ctx: &Ctx, f: impl Fn(&Tally) -> u64) -> f64 {
    match f(&ctx.tally) {
        0 => f(&ctx.census_tally) as f64,
        own => own as f64,
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
pub fn layer_metrics(ctx: &Ctx, outcome: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let (census, workload) = ctx.tracer.spans().split_at(ctx.census_spans);
    let durations_us = |name: &str| {
        let of = |spans: &[Span]| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect()
        };
        let own = of(workload);
        if own.is_empty() {
            of(census)
        } else {
            own
        }
    };
    let med = |name: &str| median(&durations_us(name));
    let p99 = |name: &str| autolearn_util::percentile(&durations_us(name), 99.0);
    let fit_ms = |spans: &[Span]| {
        spans
            .iter()
            .filter(|s| s.name == "nn.fit")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum::<f64>()
    };
    let epoch_ms = if ctx.tally.nn_epochs_ran > 0 {
        fit_ms(workload) / ctx.tally.nn_epochs_ran as f64
    } else {
        fit_ms(census) / ctx.census_tally.nn_epochs_ran.max(1) as f64
    };
    let overhead: Vec<f64> = outcome
        .overhead_pairs
        .iter()
        .map(|(plain, traced)| (traced - plain) / plain * 100.0)
        .collect();
    vec![
        ("sim.render_us", med("sim.render"), "us"),
        ("sim.tick_us_p50", med("sim.tick"), "us"),
        ("sim.ticks", count(ctx, |t| t.sim_ticks), "count"),
        ("track.project_us", med("track.project"), "us"),
        (
            "track.surface_at_us",
            med("track.surface_at") / SURFACE_BATCH as f64,
            "us",
        ),
        (
            "core.dataset_convert_ms",
            med("core.records_to_dataset") / 1e3,
            "ms",
        ),
        ("core.decide_us_p50", med("core.decide"), "us"),
        ("core.decide_us_p99", p99("core.decide"), "us"),
        ("nn.train_batch_us", med("nn.train_batch"), "us"),
        ("nn.eval_batch_us", med("nn.eval_batch"), "us"),
        ("nn.epoch_ms", epoch_ms, "ms"),
        ("nn.predict_us", med("nn.predict"), "us"),
        (
            "nn.examples_seen",
            count(ctx, |t| t.nn_examples_seen),
            "count",
        ),
        ("nn.epochs_ran", count(ctx, |t| t.nn_epochs_ran), "count"),
        (
            "nn.scratch_peak_bytes",
            count(ctx, |t| t.nn_scratch_peak_bytes),
            "bytes",
        ),
        ("tub.clean_ms", med("tub.analyse") / 1e3, "ms"),
        (
            "tub.kept_ratio",
            ratio(ctx, |t| (t.tub_kept, t.tub_collected)),
            "ratio",
        ),
        ("cloud.reserve_us", med("cloud.launch_lease"), "us"),
        (
            "cloud.leases_live",
            count(ctx, |t| t.cloud_leases_live_max),
            "count",
        ),
        (
            "cloud.refused_ratio",
            ratio(ctx, |t| (t.cloud_refused, t.cloud_launches)),
            "ratio",
        ),
        ("net.transfer_attempt_us", med("net.attempt"), "us"),
        (
            "net.retry_ratio",
            ratio(ctx, |t| (t.net_failed, t.net_attempts)),
            "ratio",
        ),
        ("edge.launch_us", med("edge.launch"), "us"),
        (
            "edge.failed_ratio",
            ratio(ctx, |t| (t.edge_failed, t.edge_launches)),
            "ratio",
        ),
        ("trovi.rollup_us", med("trovi.rollup"), "us"),
        ("trovi.events", count(ctx, |t| t.trovi_events), "count"),
        ("obs.spans", count(ctx, |t| t.obs_spans), "count"),
        ("obs.export_ms", med("obs.export") / 1e3, "ms"),
        ("trace.overhead_pct", median(&overhead), "%"),
        ("trace.spans", ctx.tracer.spans().len() as f64, "count"),
    ]
}
