//! Learning-rate schedules.
//!
//! Keras users reach for `ReduceLROnPlateau` and cosine decay; the zoo's
//! training loop supports the same three behaviours.

use serde::{Deserialize, Serialize};

/// A learning-rate schedule: maps (epoch, epochs_total, recent validation
/// behaviour) to a multiplier on the base learning rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// Constant base rate.
    Constant,
    /// Multiply by `gamma` every `every` epochs.
    StepDecay { every: usize, gamma: f32 },
    /// Cosine annealing from the base rate down to `floor` x base.
    Cosine { floor: f32 },
    /// Halve the rate after `patience` epochs without val improvement
    /// (Keras' ReduceLROnPlateau with factor 0.5). A NaN validation loss
    /// (no validation examples) holds the rate.
    ReduceOnPlateau { patience: usize },
}

/// Stateful evaluator for a schedule.
#[derive(Debug, Clone)]
pub struct LrScheduler {
    schedule: LrSchedule,
    base_lr: f32,
    best_val: f32,
    since_best: usize,
    plateau_factor: f32,
}

impl LrScheduler {
    pub fn new(schedule: LrSchedule, base_lr: f32) -> LrScheduler {
        LrScheduler {
            schedule,
            base_lr,
            best_val: f32::INFINITY,
            since_best: 0,
            plateau_factor: 1.0,
        }
    }

    /// Learning rate for `epoch` (0-based) of `total` epochs, given the
    /// last validation loss.
    pub fn lr_for_epoch(&mut self, epoch: usize, total: usize, last_val_loss: f32) -> f32 {
        match self.schedule {
            LrSchedule::Constant => self.base_lr,
            LrSchedule::StepDecay { every, gamma } => {
                let steps = epoch.checked_div(every).unwrap_or(0);
                // analyze::allow(no-unannotated-narrowing): epoch-scale exponent fits i32
                self.base_lr * gamma.powi(steps as i32)
            }
            LrSchedule::Cosine { floor } => {
                let t = if total <= 1 {
                    0.0
                } else {
                    // cast: epoch counters are small, exact in f32.
                    epoch as f32 / (total - 1) as f32
                };
                let cos = 0.5 * (1.0 + (std::f32::consts::PI * t).cos());
                self.base_lr * (floor + (1.0 - floor) * cos)
            }
            LrSchedule::ReduceOnPlateau { patience } => {
                if last_val_loss < self.best_val {
                    self.best_val = last_val_loss;
                    self.since_best = 0;
                } else if !last_val_loss.is_nan() {
                    self.since_best += 1;
                    if self.since_best > patience {
                        self.plateau_factor *= 0.5;
                        self.since_best = 0;
                    }
                }
                self.base_lr * self.plateau_factor
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_never_changes() {
        let mut s = LrScheduler::new(LrSchedule::Constant, 1e-3);
        for e in 0..10 {
            assert_eq!(s.lr_for_epoch(e, 10, 1.0), 1e-3);
        }
    }

    #[test]
    fn step_decay_steps() {
        let mut s = LrScheduler::new(
            LrSchedule::StepDecay {
                every: 3,
                gamma: 0.1,
            },
            1.0,
        );
        assert_eq!(s.lr_for_epoch(0, 10, 1.0), 1.0);
        assert_eq!(s.lr_for_epoch(2, 10, 1.0), 1.0);
        assert!((s.lr_for_epoch(3, 10, 1.0) - 0.1).abs() < 1e-7);
        assert!((s.lr_for_epoch(6, 10, 1.0) - 0.01).abs() < 1e-8);
    }

    #[test]
    fn cosine_descends_to_floor() {
        let mut s = LrScheduler::new(LrSchedule::Cosine { floor: 0.1 }, 1.0);
        let first = s.lr_for_epoch(0, 11, 1.0);
        let mid = s.lr_for_epoch(5, 11, 1.0);
        let last = s.lr_for_epoch(10, 11, 1.0);
        assert!((first - 1.0).abs() < 1e-6);
        assert!(mid < first && mid > last);
        assert!((last - 0.1).abs() < 1e-6);
    }

    #[test]
    fn plateau_halves_after_patience() {
        let mut s = LrScheduler::new(LrSchedule::ReduceOnPlateau { patience: 2 }, 1.0);
        // Improving: full rate.
        assert_eq!(s.lr_for_epoch(0, 10, 1.0), 1.0);
        assert_eq!(s.lr_for_epoch(1, 10, 0.9), 1.0);
        // Stagnating for patience+1 epochs → halved.
        assert_eq!(s.lr_for_epoch(2, 10, 0.95), 1.0);
        assert_eq!(s.lr_for_epoch(3, 10, 0.95), 1.0);
        assert_eq!(s.lr_for_epoch(4, 10, 0.95), 0.5);
        // Improvement resets the counter but keeps the reduced rate.
        assert_eq!(s.lr_for_epoch(5, 10, 0.5), 0.5);
        // No validation loss is no stall: the rate holds.
        for epoch in 6..10 {
            assert_eq!(s.lr_for_epoch(epoch, 10, f32::NAN), 0.5);
        }
    }

    #[test]
    fn single_epoch_cosine_does_not_divide_by_zero() {
        let mut s = LrScheduler::new(LrSchedule::Cosine { floor: 0.2 }, 1.0);
        assert!((s.lr_for_epoch(0, 1, 1.0) - 1.0).abs() < 1e-6);
    }
}
