//! The DonkeyCar model zoo.
//!
//! §3.3 of the paper: *"AutoLearn comes with six tested models, including
//! linear, memory, 3D, categorical, inferred, and RNN"*. All six are
//! reproduced here (scaled to the reproduction's synthetic camera) behind
//! one [`DonkeyModel`] trait:
//!
//! | kind        | input                  | outputs                                |
//! |-------------|------------------------|----------------------------------------|
//! | Linear      | image                  | steering (tanh) + throttle (sigmoid)   |
//! | Categorical | image                  | 15 steering bins + 20 throttle bins    |
//! | Inferred    | image                  | steering only; throttle derived        |
//! | Memory      | image + last M controls| steering + throttle                    |
//! | Rnn         | last T images          | steering + throttle via LSTM           |
//! | ThreeD      | last T images          | steering + throttle via Conv3D         |

mod zoo;

pub use zoo::{CarModel, SavedModel};

use crate::data::{Batch, Dataset};
use crate::optim::Optimizer;
use crate::tensor::Tensor;
pub use autolearn_analyze::graph::ModelSpec;
use serde::{Deserialize, Serialize};

/// Which of the six DonkeyCar architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    Linear,
    Categorical,
    Inferred,
    Memory,
    Rnn,
    ThreeD,
}

impl ModelKind {
    /// All six, in the paper's listing order.
    pub fn all() -> [ModelKind; 6] {
        [
            ModelKind::Linear,
            ModelKind::Memory,
            ModelKind::ThreeD,
            ModelKind::Categorical,
            ModelKind::Inferred,
            ModelKind::Rnn,
        ]
    }

    /// DonkeyCar's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Linear => "linear",
            ModelKind::Categorical => "categorical",
            ModelKind::Inferred => "inferred",
            ModelKind::Memory => "memory",
            ModelKind::Rnn => "rnn",
            ModelKind::ThreeD => "3d",
        }
    }

    pub fn from_name(s: &str) -> Option<ModelKind> {
        Some(match s {
            "linear" => ModelKind::Linear,
            "categorical" => ModelKind::Categorical,
            "inferred" => ModelKind::Inferred,
            "memory" => ModelKind::Memory,
            "rnn" => ModelKind::Rnn,
            "3d" => ModelKind::ThreeD,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What inputs a model expects; drives dataset preparation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputSpec {
    /// Single frames `[N, C, H, W]`.
    Frames,
    /// Sliding windows of T frames `[N, T, C, H, W]`.
    Sequence(usize),
    /// Frames plus the previous M control pairs `[N, 2M]`.
    FramesWithHistory(usize),
}

/// Hyper-parameters shared by the zoo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Camera frame size fed to the network (the tub pipeline downscales
    /// the recorded 160x120 frames to this).
    pub height: usize,
    pub width: usize,
    pub channels: usize,
    /// Sequence length for Rnn/ThreeD.
    pub seq_len: usize,
    /// Control-history length for Memory.
    pub history: usize,
    /// Steering bins for Categorical (DonkeyCar default 15).
    pub steering_bins: usize,
    /// Throttle bins for Categorical (DonkeyCar default 20).
    pub throttle_bins: usize,
    pub dropout: f32,
    /// Weight-init / dropout seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            height: 30,
            width: 40,
            channels: 1,
            seq_len: 3,
            history: 4,
            steering_bins: 15,
            throttle_bins: 20,
            dropout: 0.1,
            seed: 42,
        }
    }
}

/// Throttle-from-steering policy used by the Inferred model at drive time:
/// full base throttle on straights, easing off proportionally to steering
/// magnitude. This is what lets Inferred "speed fast, while still being
/// accurate" (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferredThrottle {
    pub base: f32,
    pub gain: f32,
    pub min: f32,
}

impl Default for InferredThrottle {
    fn default() -> Self {
        InferredThrottle {
            base: 0.8,
            gain: 0.6,
            min: 0.25,
        }
    }
}

impl InferredThrottle {
    pub fn throttle_for(self, steering: f32) -> f32 {
        (self.base - self.gain * steering.abs()).max(self.min)
    }
}

/// A trained (or trainable) self-driving model.
pub trait DonkeyModel: Send {
    fn kind(&self) -> ModelKind;

    fn input_spec(&self) -> InputSpec;

    /// One optimisation step on a minibatch; returns the batch loss.
    fn train_batch(&mut self, batch: &Batch, opt: &mut dyn Optimizer) -> f32;

    /// Forward-only loss on a minibatch (no parameter update).
    fn eval_batch(&mut self, batch: &Batch) -> f32;

    /// Predict (steering, throttle) for each example in `inputs`.
    fn predict(&mut self, inputs: &[Tensor]) -> Vec<(f32, f32)>;

    /// FLOPs for one single-example inference.
    fn flops_per_inference(&self) -> u64;

    /// Trainable parameter count.
    fn param_count(&mut self) -> usize;

    /// Flat weight snapshot, in stable parameter order.
    fn state_dict(&mut self) -> Vec<Vec<f32>>;

    /// Restore a snapshot from [`DonkeyModel::state_dict`].
    fn load_state(&mut self, state: &[Vec<f32>]);

    /// Symbolic graph description for the static validator, if the model
    /// can produce one. The trainer validates it before the first
    /// optimisation step; `None` skips the pre-flight check.
    fn graph_spec(&self) -> Option<ModelSpec> {
        None
    }

    /// Total bytes currently held by the model's grow-only scratch arenas.
    /// The arenas only grow on new (layer, batch-shape) pairs, so after
    /// training this *is* the peak footprint — the trainer surfaces it as
    /// the `nn.scratch_peak_bytes` gauge. Models without arenas report 0.
    fn scratch_bytes(&self) -> usize {
        0
    }
}

/// Transform a raw frame dataset into the layout `spec` requires.
pub fn prepare_dataset(dataset: &Dataset, spec: InputSpec) -> Dataset {
    match spec {
        InputSpec::Frames => dataset.clone(),
        InputSpec::Sequence(t) => dataset.to_sequences(t),
        InputSpec::FramesWithHistory(m) => dataset.with_history(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for kind in ModelKind::all() {
            assert_eq!(ModelKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ModelKind::from_name("bogus"), None);
        assert_eq!(ModelKind::ThreeD.to_string(), "3d");
    }

    #[test]
    fn all_lists_six_distinct() {
        let all = ModelKind::all();
        assert_eq!(all.len(), 6);
        for i in 0..6 {
            for j in 0..i {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn inferred_throttle_policy() {
        let p = InferredThrottle::default();
        // Straight: full base throttle.
        assert_eq!(p.throttle_for(0.0), p.base);
        // Hard turn: clamped at min.
        assert_eq!(p.throttle_for(1.0), p.min);
        // Monotone decreasing in |steering|.
        assert!(p.throttle_for(0.2) > p.throttle_for(0.5));
        // Symmetric.
        assert_eq!(p.throttle_for(-0.4), p.throttle_for(0.4));
    }
}
