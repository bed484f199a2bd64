//! `fleet`: the control plane for a class of students sharing one
//! `TroviHub` and one `ReservationSystem`. Students arrive one after the
//! other on the simulated clock; each session views, launches and runs
//! the artifact's notebooks, leases a GPU under a seeded chaos fault plan,
//! uploads a tub over the car-to-cloud path with resume, starts the car's
//! container, and reads the hub's rollup. No camera, no training: these
//! are the layers that cost microseconds inside a lesson.
//!
//! A unit of work is one fleet of [`FLEET_SIZE`] sessions on fresh
//! substrates, so every fleet does the same amount of work however fast
//! the program runs (the rollup scans every event, so its cost grows with
//! the fleet).

use crate::census::{self, live_leases, probe_export, SLUG};
use crate::outcome::{median, ms, Ctx, Outcome};
use autolearn::pipeline::PipelineConfig;
use autolearn::{collect_session, tub_bytes_estimate};
use autolearn_cloud::chaos::launch_lease_observed;
use autolearn_cloud::{LaunchError, ReservationSystem, Site};
use autolearn_edge::{ContainerRuntime, ImageSpec};
use autolearn_net::{Path, ResumableTransfer, TransferSpec};
use autolearn_obs::Obs;
use autolearn_sim::CameraConfig;
use autolearn_track::circle_track;
use autolearn_trovi::{Artifact, TroviHub};
use autolearn_util::fault::{FaultConfig, FaultPlan};
use autolearn_util::{Bytes, RetryPolicy, SimDuration, SimTime};
use std::time::Instant;

/// Students per fleet: the size every `fleet` figure is stated at.
pub const FLEET_SIZE: usize = 1000;
/// Per-operation fault probability of each session's chaos plan: the rate
/// the program's trace smoke and golden-trace tests recover from.
pub const FAULT_RATE: f64 = 0.35;
/// The node type every student leases: the site's largest GPU pool.
pub const NODE_TYPE: &str = "gpu_rtx6000";
/// Length of each lease: the one `Pipeline::run` takes for a lesson.
pub const LEASE_HOURS: f64 = 4.0;
/// Code cells in the published artifact's latest version.
pub const CODE_CELLS: usize = 5;

/// One student's arrival, drawn before the fleet starts.
struct Arrival {
    user: String,
    gap_s: f64,
    fault_seed: u64,
}

/// SplitMix64: the benchmark's own input generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Arrival gaps are an assumption, not a measured class: uniform within
/// half either side of `lease / capacity`, so the leases asked for match
/// what the pool can hold on average and the queue's ups and downs refuse
/// some students.
fn arrivals(seed: u64, capacity: u32) -> Vec<Arrival> {
    let mean_gap_s = LEASE_HOURS * 3600.0 / f64::from(capacity);
    let mut s = seed;
    (0..FLEET_SIZE)
        .map(|i| Arrival {
            user: format!("student-{i:04}"),
            gap_s: uniform(&mut s, 0.5 * mean_gap_s, 1.5 * mean_gap_s),
            fault_seed: splitmix(&mut s),
        })
        .collect()
}

/// The tub each student uploads: `tub_bytes_estimate` of the records a
/// `lesson_default` collection stores. Every frame has the same size, so
/// the estimate of the first second scales to the whole drive.
fn lesson_tub_bytes() -> Bytes {
    let mut cfg = PipelineConfig::lesson_default(0).collection;
    let drive_s = cfg.duration_s;
    cfg.duration_s = 1.0;
    let records = collect_session(&circle_track(3.0, 0.8), &cfg).records;
    Bytes::new((tub_bytes_estimate(&records).get() as f64 * drive_s / cfg.duration_s) as u64)
}

/// What one fleet did.
#[derive(Default)]
struct FleetFacts {
    leased: u64,
    refused: u64,
    launch_attempts: u64,
    launch_failed: u64,
    net_attempts: u64,
    net_failed: u64,
    edge_attempts: u64,
    edge_failed: u64,
    faults: u64,
    trovi_events: u64,
    leases_live_max: u64,
    rollup_mismatches: u64,
    over_capacity: u64,
    /// Sessions that ran out of attempts at some step.
    gave_up: u64,
    sim_s: f64,
}

/// Run one fleet. Spans go to the tracer when it is on; `session_ms`
/// receives each session's wall time.
fn fleet(
    ctx: &mut Ctx,
    arrivals: &[Arrival],
    tub: Bytes,
    session_ms: &mut Vec<f64>,
) -> (FleetFacts, Obs) {
    let mut hub = TroviHub::new();
    hub.publish(Artifact::autolearn_example());
    let mut rs = ReservationSystem::new(Site::chameleon());
    let capacity = u64::from(rs.site().capacity_of(NODE_TYPE));
    let attempts = RetryPolicy::default().max_attempts;
    let lease = SimDuration::from_hours(LEASE_HOURS);
    let mut obs = Obs::new();
    let image = ImageSpec::autolearn();
    let path = Path::car_to_cloud();
    let mut f = FleetFacts::default();
    let mut now = SimTime::ZERO;
    let cells: [usize; 3] = [3, 3, 2];
    for (i, a) in arrivals.iter().enumerate() {
        let t0 = Instant::now();
        let session = ctx.tracer.begin("fleet.session");
        let obs_span = obs.begin_span("session");
        let mut plan = FaultPlan::from_seed(a.fault_seed, FaultConfig::chaos(FAULT_RATE));

        ctx.tracer.span("trovi.interact", || {
            hub.view(&a.user, SLUG, now);
            hub.launch(&a.user, SLUG, now);
            for (nb, &n) in cells.iter().enumerate() {
                for cell in 0..n {
                    hub.execute_cell(&a.user, SLUG, nb, cell, now);
                }
            }
        });

        rs.advance_time(now);
        let mut resolved = false;
        for _ in 0..attempts {
            let r = ctx.tracer.span("cloud.launch_lease", || {
                launch_lease_observed(
                    &mut rs, &a.user, NODE_TYPE, 1, now, lease, &mut plan, &mut obs,
                )
            });
            f.launch_attempts += 1;
            match r {
                Ok(_) => {
                    f.leased += 1;
                    resolved = true;
                    break;
                }
                Err(LaunchError::Refused(_)) => {
                    f.refused += 1;
                    resolved = true;
                    break;
                }
                Err(LaunchError::Transient { .. } | LaunchError::CapacityWindow { .. }) => {
                    f.launch_failed += 1;
                }
            }
        }
        let live = live_leases(&rs, now);
        f.leases_live_max = f.leases_live_max.max(live);
        f.over_capacity += u64::from(live > capacity);

        let mut upload = ResumableTransfer::new(TransferSpec::rsync(tub));
        for _ in 0..attempts {
            let r = ctx.tracer.span("net.attempt", || {
                upload.attempt_observed(&path, &mut plan, "tub-upload", &mut obs)
            });
            f.net_attempts += 1;
            if r.is_ok() {
                break;
            }
            f.net_failed += 1;
        }
        resolved &= upload.is_complete();

        let mut runtime = ContainerRuntime::new();
        let mut started = false;
        for _ in 0..attempts {
            let r = ctx.tracer.span("edge.launch", || {
                runtime.launch_with_faults_observed(&image, &path, &mut plan, &mut obs)
            });
            f.edge_attempts += 1;
            started = r.is_ok();
            if started {
                break;
            }
            f.edge_failed += 1;
        }
        f.gave_up += u64::from(!(resolved && started));

        let m = ctx
            .tracer
            .span("trovi.rollup", || hub.events.metrics_for(SLUG));
        let n = i + 1;
        let expected = (n, n, n, n, CODE_CELLS * n);
        let got = (
            m.views,
            m.launch_clicks,
            m.unique_launch_users,
            m.users_executed,
            m.cell_executions,
        );
        f.rollup_mismatches += u64::from(got != expected);
        f.faults += plan.injected().len() as u64;
        obs.end_span(obs_span);
        ctx.tracer.end(session);
        session_ms.push(ms(t0));
        now += SimDuration::from_secs(a.gap_s);
    }
    f.trovi_events = hub.events.len() as u64;
    f.sim_s = now.0;
    (f, obs)
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let capacity = Site::chameleon().capacity_of(NODE_TYPE);
    // Set-up sizes the tub and runs one fleet as a warm-up, so allocator
    // and caches are settled before timing.
    let (tub, setup) = ctx.setups(|ctx, i| {
        let tub = lesson_tub_bytes();
        let warm = arrivals(ctx.unit_seed("fleet-warmup", i), capacity);
        ctx.untraced(|ctx| fleet(ctx, &warm, tub, &mut Vec::new()));
        tub
    });
    out.setup = setup;
    if ctx.traced() {
        census::census(ctx, &CameraConfig::small());
    }

    let mut budget = ctx.budget(2);
    let (mut ops, mut ops_failed, mut gave_up) = (0u64, 0u64, 0u64);
    while budget.more() {
        let k = budget.units();
        let seed = ctx.unit_seed("fleet", k);
        let input = arrivals(seed, capacity);
        let t0 = Instant::now();
        let mut session_ms = Vec::with_capacity(FLEET_SIZE);
        let (facts, obs) = if ctx.traced() {
            // Untraced first for the overhead pair, then traced.
            ctx.untraced(|ctx| fleet(ctx, &input, tub, &mut Vec::new()));
            let plain_ms = ms(t0);
            let t1 = Instant::now();
            let fleet_span = ctx.tracer.begin("fleet");
            let r = fleet(ctx, &input, tub, &mut session_ms);
            ctx.tracer.end(fleet_span);
            out.overhead_pairs.push((plain_ms, ms(t1)));
            r
        } else {
            fleet(ctx, &input, tub, &mut session_ms)
        };
        let fleet_s = session_ms.iter().sum::<f64>() / 1e3;
        out.measured(fleet_s, FLEET_SIZE as f64, &session_ms);
        ops += facts.launch_attempts + facts.net_attempts + facts.edge_attempts;
        ops_failed += facts.refused + facts.launch_failed + facts.net_failed + facts.edge_failed;
        gave_up += facts.gave_up;
        out.counts.push(format!(
            "fleet[{k}] seed={seed} sessions={FLEET_SIZE} leased={} refused={} lease_attempts={} net_attempts={} net_retries={} edge_attempts={} edge_failed={} gave_up={} faults={} trovi_events={} live_max={} sim_s={:.3}",
            facts.leased,
            facts.refused,
            facts.launch_attempts,
            facts.net_attempts,
            facts.net_failed,
            facts.edge_attempts,
            facts.edge_failed,
            facts.gave_up,
            facts.faults,
            facts.trovi_events,
            facts.leases_live_max,
            facts.sim_s,
        ));
        let t = &mut ctx.tally;
        t.cloud_launches += facts.launch_attempts;
        t.cloud_refused += facts.refused;
        t.cloud_leases_live_max = t.cloud_leases_live_max.max(facts.leases_live_max);
        t.net_attempts += facts.net_attempts;
        t.net_failed += facts.net_failed;
        t.edge_launches += facts.edge_attempts;
        t.edge_failed += facts.edge_failed;
        t.trovi_events += facts.trovi_events;
        if ctx.traced() {
            probe_export(ctx, &obs);
        }
        out.unit(vec![
            (
                "fleet.rollup_counts_sessions",
                facts.rollup_mismatches == 0
                    && facts.trovi_events == (FLEET_SIZE * (2 + CODE_CELLS)) as u64,
                format!(
                    "{} of {FLEET_SIZE} rollups disagreed with the sessions run; {} events",
                    facts.rollup_mismatches, facts.trovi_events
                ),
            ),
            (
                "fleet.leases_within_capacity",
                facts.over_capacity == 0 && facts.leased > 0,
                format!(
                    "{} leased; live leases peaked at {} (capacity {capacity})",
                    facts.leased, facts.leases_live_max
                ),
            ),
        ]);
        budget.done(t0.elapsed().as_secs_f64());
    }

    let rates = out.per_unit(|u| u.items / u.wall_s);
    out.reference_ms = budget.reference_ms();
    out.report = vec![
        ("fleet_size", FLEET_SIZE as f64, "sessions"),
        ("fleet_sessions_per_s", median(&rates), "1/s"),
        (
            "fleet_session_p50_ms",
            median(&out.per_unit(|u| u.op_p50_ms)),
            "ms",
        ),
        (
            "fleet_session_p99_ms",
            median(&out.per_unit(|u| u.op_p99_ms)),
            "ms",
        ),
        (
            "failed_ratio",
            ops_failed as f64 / ops.max(1) as f64,
            "ratio",
        ),
        ("sessions_given_up", gave_up as f64, "count"),
        ("fleets", rates.len() as f64, "count"),
    ];
    out
}
