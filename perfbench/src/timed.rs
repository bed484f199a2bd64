//! Timing wrappers around the program's two plug-in traits.
//!
//! The drive loop takes a `&mut dyn Pilot` and the trainer a
//! `&mut dyn DonkeyModel`, so wrapping either one times every call the
//! program makes through it without touching the program. Each wrapper
//! keeps `(start, end)` nanosecond intervals relative to a shared origin;
//! the caller hands them to the tracer afterwards.

use crate::trace::ns_since;
use autolearn_nn::models::{CarModel, DonkeyModel, InputSpec, ModelKind, ModelSpec};
use autolearn_nn::{Batch, Optimizer, Tensor};
use autolearn_sim::{Controls, Observation, Pilot};
use std::time::Instant;

/// A [`Pilot`] that times the loop around it. `ticks` holds one interval
/// per drive-loop iteration (from one `control` call to the next, so it
/// spans decide, act, classify, and the next frame's render and
/// projection); `decisions` holds the pilot's own `control` calls.
pub struct TimedPilot<P: Pilot> {
    pub inner: P,
    origin: Instant,
    last_start: Option<u64>,
    pub ticks: Vec<(u64, u64)>,
    pub decisions: Vec<(u64, u64)>,
}

impl<P: Pilot> TimedPilot<P> {
    pub fn new(inner: P, origin: Instant) -> TimedPilot<P> {
        TimedPilot {
            inner,
            origin,
            last_start: None,
            ticks: Vec::new(),
            decisions: Vec::new(),
        }
    }

    /// Forget the previous session: no tick spans the gap between two
    /// sessions driven by the same pilot.
    pub fn restart(&mut self) {
        self.inner.notify_reset();
        self.last_start = None;
        self.ticks.clear();
        self.decisions.clear();
    }
}

impl<P: Pilot> Pilot for TimedPilot<P> {
    fn control(&mut self, obs: &Observation<'_>) -> Controls {
        let start = ns_since(self.origin);
        if let Some(prev) = self.last_start {
            self.ticks.push((prev, start));
        }
        self.last_start = Some(start);
        let c = self.inner.control(obs);
        self.decisions.push((start, ns_since(self.origin)));
        c
    }

    fn notify_reset(&mut self) {
        self.inner.notify_reset();
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// A [`DonkeyModel`] that times `train_batch`, `eval_batch` and `predict`
/// on the model it borrows. Everything else is forwarded untouched, so the
/// trainer's pre-flight validation and weight trajectory are unchanged.
pub struct TimedModel<'a> {
    inner: &'a mut CarModel,
    origin: Instant,
    pub train: Vec<(u64, u64)>,
    pub eval: Vec<(u64, u64)>,
    pub predict: Vec<(u64, u64)>,
}

impl<'a> TimedModel<'a> {
    pub fn new(inner: &'a mut CarModel, origin: Instant) -> TimedModel<'a> {
        TimedModel {
            inner,
            origin,
            train: Vec::new(),
            eval: Vec::new(),
            predict: Vec::new(),
        }
    }
}

impl DonkeyModel for TimedModel<'_> {
    fn kind(&self) -> ModelKind {
        self.inner.kind()
    }

    fn input_spec(&self) -> InputSpec {
        self.inner.input_spec()
    }

    fn train_batch(&mut self, batch: &Batch, opt: &mut dyn Optimizer) -> f32 {
        let start = ns_since(self.origin);
        let loss = self.inner.train_batch(batch, opt);
        self.train.push((start, ns_since(self.origin)));
        loss
    }

    fn eval_batch(&mut self, batch: &Batch) -> f32 {
        let start = ns_since(self.origin);
        let loss = self.inner.eval_batch(batch);
        self.eval.push((start, ns_since(self.origin)));
        loss
    }

    fn predict(&mut self, inputs: &[Tensor]) -> Vec<(f32, f32)> {
        let start = ns_since(self.origin);
        let out = self.inner.predict(inputs);
        self.predict.push((start, ns_since(self.origin)));
        out
    }

    fn flops_per_inference(&self) -> u64 {
        self.inner.flops_per_inference()
    }

    fn param_count(&mut self) -> usize {
        self.inner.param_count()
    }

    fn state_dict(&mut self) -> Vec<Vec<f32>> {
        self.inner.state_dict()
    }

    fn load_state(&mut self, state: &[Vec<f32>]) {
        self.inner.load_state(state)
    }

    fn graph_spec(&self) -> Option<ModelSpec> {
        self.inner.graph_spec()
    }

    fn scratch_bytes(&self) -> usize {
        self.inner.scratch_bytes()
    }
}
