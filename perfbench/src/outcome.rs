//! What a workload hands back, and the shared plumbing every workload
//! uses: the run context, the time budget, seeds and statistics.

use crate::reference::Reference;
use crate::trace::Tracer;
use autolearn_util::percentile;
use std::time::Instant;

/// One output check.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Per-layer tallies that are counts or ratios rather than span timings.
/// The census and the workload keep separate ones; the traced run reports
/// them.
#[derive(Default)]
pub struct Tally {
    pub sim_ticks: u64,
    pub nn_examples_seen: u64,
    pub nn_epochs_ran: u64,
    pub nn_scratch_peak_bytes: u64,
    pub tub_collected: u64,
    pub tub_kept: u64,
    pub cloud_launches: u64,
    pub cloud_refused: u64,
    pub cloud_leases_live_max: u64,
    pub net_attempts: u64,
    pub net_failed: u64,
    pub edge_launches: u64,
    pub edge_failed: u64,
    pub trovi_events: u64,
    pub obs_spans: u64,
}

/// The run context handed to a workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub tally: Tally,
    /// The census's tallies, and how many spans it left in the tracer
    /// (they come first).
    pub census_tally: Tally,
    pub census_spans: usize,
    /// One reference kernel for the whole process: set-up times it, then
    /// the run window takes it over (its buffers are never freed and
    /// re-allocated, which would move the process's peak memory).
    reference: Option<Reference>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, origin: Instant) -> Ctx {
        Ctx {
            seed,
            seconds,
            tracer: Tracer::new(origin, trace),
            tally: Tally::default(),
            census_tally: Tally::default(),
            census_spans: 0,
            reference: None,
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Seed of the `k`-th unit of work: the same run seed always yields
    /// the same sequence of unit seeds.
    pub fn unit_seed(&self, label: &str, k: usize) -> u64 {
        autolearn_util::derive_seed(self.seed, &format!("{label}-{k}"))
    }

    /// Run `f` with tracing off, whatever the run's mode.
    pub fn untraced<T>(&mut self, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let off = Tracer::new(self.tracer.origin(), false);
        let saved = std::mem::replace(&mut self.tracer, off);
        let out = f(self);
        self.tracer = saved;
        out
    }

    /// Run `setup` [`crate::SETUPS`] times, timing each and the reference
    /// kernel after each; keep the last result.
    pub fn setups<T>(&mut self, mut setup: impl FnMut(&mut Ctx, usize) -> T) -> (T, Setup) {
        let reference = self.reference.get_or_insert_with(Reference::new);
        reference.restart();
        let mut wall_s = Vec::new();
        let mut last = None;
        for i in 0..crate::SETUPS {
            drop(last.take());
            let t0 = Instant::now();
            last = Some(setup(self, i));
            wall_s.push(t0.elapsed().as_secs_f64());
            if let Some(r) = self.reference.as_mut() {
                r.sample();
            }
        }
        let setup = Setup {
            wall_s,
            reference_ms: self
                .reference
                .as_ref()
                .map_or(f64::NAN, Reference::median_ms),
        };
        (last.expect("SETUPS is at least one"), setup)
    }

    /// Open the run window; at least `min_units` units always run.
    pub fn budget(&mut self, min_units: usize) -> Budget {
        let mut reference = self.reference.take().unwrap_or_else(Reference::new);
        reference.restart();
        Budget {
            start: Instant::now(),
            seconds: self.seconds,
            min_units,
            unit_s: Vec::new(),
            reference,
        }
    }
}

/// The reference kernel's usual time on the 2-vCPU host the benchmark was
/// tuned on, milliseconds: `setup_s` is stated at this speed.
pub const REFERENCE_USUAL_MS: f64 = 4.0;

/// The set-ups' wall times, and the reference kernel's median time
/// between them.
#[derive(Default)]
pub struct Setup {
    pub wall_s: Vec<f64>,
    pub reference_ms: f64,
}

impl Setup {
    /// The median set-up's wall time, scaled to the host speed at which
    /// the reference kernel takes [`REFERENCE_USUAL_MS`].
    pub fn scaled_s(&self) -> f64 {
        median(&self.wall_s) * REFERENCE_USUAL_MS / self.reference_ms
    }
}

/// The measured window of a run. Units start while the window has room
/// for one more of typical length; at least `min_units` always run so the
/// per-unit counts of a seed can be compared run to run. The reference
/// kernel is timed when the window opens and after every unit.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_units: usize,
    unit_s: Vec<f64>,
    reference: Reference,
}

impl Budget {
    pub fn more(&self) -> bool {
        let done = self.unit_s.len();
        if done < self.min_units {
            return true;
        }
        self.start.elapsed().as_secs_f64() + median(&self.unit_s) <= self.seconds
    }

    /// Record how long one unit took, then time the reference kernel.
    pub fn done(&mut self, unit_s: f64) {
        self.unit_s.push(unit_s);
        let t0 = Instant::now();
        self.reference.sample();
        self.start += t0.elapsed();
    }

    /// Median time of the reference kernel over the window, milliseconds.
    pub fn reference_ms(&self) -> f64 {
        self.reference.median_ms()
    }

    pub fn units(&self) -> usize {
        self.unit_s.len()
    }
}

/// One unit of work as measured: its wall time, the items it processed,
/// and the median and 99th-percentile latency of the operations in it (one
/// op for a lesson; a fit per zoo kind; an autonomous drive tick; a student
/// session). Only the summary is kept, so the benchmark's own memory does
/// not grow with the run.
pub struct Unit {
    pub wall_s: f64,
    pub items: f64,
    pub ops: usize,
    pub op_p50_ms: f64,
    pub op_p99_ms: f64,
}

/// Everything a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub setup: Setup,
    pub units: Vec<Unit>,
    /// Units attempted and units whose output check failed.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Named figures for people reading the log (lesson_wall_s, ...).
    pub report: Vec<(&'static str, f64, &'static str)>,
    /// One line of exact counts per unit of work.
    pub counts: Vec<String>,
    /// Traced runs: untraced and traced wall time of the same unit, paired.
    pub overhead_pairs: Vec<(f64, f64)>,
    /// Median time of the reference kernel over the run, milliseconds.
    pub reference_ms: f64,
}

impl Outcome {
    /// Record one measured unit and its operations' latencies.
    pub fn measured(&mut self, wall_s: f64, items: f64, ops_ms: &[f64]) {
        self.units.push(Unit {
            wall_s,
            items,
            ops: ops_ms.len(),
            op_p50_ms: median(ops_ms),
            op_p99_ms: percentile(ops_ms, 99.0),
        });
    }

    /// Fold one unit's checks into the tallies: the unit fails if any
    /// check fails. Only failing checks are kept, plus the first passing
    /// one of each name, so a long run does not print thousands of lines.
    pub fn unit(&mut self, checks: Vec<(&str, bool, String)>) {
        self.attempted += 1;
        let mut ok_all = true;
        for (name, ok, detail) in checks {
            ok_all &= ok;
            if !ok || !self.checks.iter().any(|c| c.name == name) {
                self.checks.push(Check {
                    name: name.to_string(),
                    ok,
                    detail,
                });
            }
        }
        self.failed += u64::from(!ok_all);
    }

    /// Per-unit values of one figure.
    pub fn per_unit(&self, f: impl Fn(&Unit) -> f64) -> Vec<f64> {
        self.units.iter().map(f).collect()
    }

    /// The run's timed figures: `(op_p50_ms, items_per_s)`, the median
    /// over the units of their median op latency and of their item rate.
    pub fn timed(&self) -> (f64, f64) {
        (
            median(&self.per_unit(|u| u.op_p50_ms)),
            median(&self.per_unit(|u| u.items / u.wall_s)),
        )
    }

    /// The timed figures in reference-kernel runs (see `reference.rs`),
    /// `(op_p50_ref, items_per_ref)`: the median op lasts as long as
    /// `op_p50_ref` kernel runs, and `items_per_ref` items pass in the time
    /// of one.
    pub fn relative(&self) -> (f64, f64) {
        let (op_ms, items_per_s) = self.timed();
        (
            op_ms / self.reference_ms,
            items_per_s * self.reference_ms / 1e3,
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
