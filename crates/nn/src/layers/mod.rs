//! Layer trait and the layer zoo.
//!
//! Each layer owns its parameters and their gradient accumulators, caches
//! whatever it needs during `forward`, and implements an explicit `backward`
//! that (a) accumulates parameter gradients and (b) returns the gradient
//! with respect to its input. There is no tape/autograd: the model graphs in
//! this reproduction are small and static, and explicit backward passes keep
//! the hot loops allocation-light and easy to validate with finite
//! differences.

mod batchnorm;
mod conv;
mod dense;
mod dropout;
mod flatten;
mod lstm;
mod pool;
mod timedistributed;

pub use batchnorm::BatchNorm1d;
pub use conv::{Conv, Conv2D, Conv3D};
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use lstm::Lstm;
pub use pool::MaxPool2D;
pub use timedistributed::TimeDistributed;

use crate::tensor::Tensor;
pub use autolearn_analyze::graph::LayerSpec;
use serde::{Deserialize, Serialize};

/// A trainable parameter: value plus gradient accumulator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    pub value: Tensor,
    pub grad: Tensor,
}

impl Param {
    pub fn new(value: Tensor) -> Param {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }
}

/// A differentiable layer.
pub trait Layer: Send {
    /// Forward pass. `train` enables stochastic behaviour (dropout) and
    /// batch-statistic updates (batch norm).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backward pass for the most recent `forward`. Accumulates parameter
    /// gradients and returns dLoss/dInput.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable access to parameters (empty for stateless layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Zero all gradient accumulators.
    fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.grad.fill(0.0);
        }
    }

    /// Human-readable layer name for summaries.
    fn name(&self) -> String;

    /// Number of trainable scalars.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }

    /// Bytes of reusable scratch storage (im2col buffers, activation
    /// caches, gradient staging) this layer currently holds. Scratch is
    /// grow-only and keyed by batch shape, so in steady-state training the
    /// value is constant — the arena-reuse tests pin exactly that.
    fn scratch_bytes(&self) -> usize {
        0
    }

    /// Symbolic description of this layer for the static graph validator
    /// ([`autolearn_analyze::graph::validate_model`]). Shape and FLOP
    /// arithmetic live on the spec: `spec().output_shape(..)`,
    /// `spec().flops(..)`.
    fn spec(&self) -> LayerSpec;
}

/// Element-wise activation functions as a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    Relu,
    Tanh,
    Sigmoid,
    /// Identity; useful as a placeholder head activation.
    Linear,
}

/// Activation layer with cached output (tanh/sigmoid derivatives are
/// functions of the output; relu keeps a mask via the cached input sign).
pub struct ActivationLayer {
    pub kind: Activation,
    cache: Option<Tensor>,
}

impl ActivationLayer {
    pub fn new(kind: Activation) -> Self {
        ActivationLayer { kind, cache: None }
    }
}

impl Activation {
    /// Lower-case name, as carried by [`LayerSpec::Activation`].
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
            Activation::Linear => "linear",
        }
    }

    /// Inverse of [`Activation::name`].
    pub fn from_name(name: &str) -> Option<Activation> {
        [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Linear,
        ]
        .into_iter()
        .find(|a| a.name() == name)
    }

    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the *output* y = f(x).
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Linear => 1.0,
        }
    }
}

impl Layer for ActivationLayer {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let out = x.map(|v| self.kind.apply(v));
        self.cache = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.cache.as_ref().expect("backward before forward");
        grad_out.zip(y, |g, yv| g * self.kind.derivative_from_output(yv))
    }

    fn name(&self) -> String {
        format!("{:?}", self.kind)
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Activation {
            kind: self.kind.name().to_string(),
        }
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by layer tests.

    use super::*;

    /// Check dLoss/dInput of `layer` at input `x` against central
    /// differences of loss = 0.5 * sum(out^2) (whose upstream gradient is
    /// simply `out`).
    pub fn check_input_grad(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let out = layer.forward(x, true);
        let analytic = layer.backward(&out);

        let eps = 1e-2f32;
        let n = x.len().min(24); // sample the first few elements
        for i in 0..n {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let lp = half_sq(&replay(layer, &xp));
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lm = half_sq(&replay(layer, &xm));
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                "input grad [{i}]: analytic {a} vs numeric {numeric}"
            );
        }
        // Restore caches for any subsequent use.
        let _ = layer.forward(x, true);
    }

    /// Check parameter gradients the same way.
    pub fn check_param_grads(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        layer.zero_grads();
        let out = layer.forward(x, true);
        let _ = layer.backward(&out);
        let analytic: Vec<Vec<f32>> = layer
            .params_mut()
            .iter()
            .map(|p| p.grad.data().to_vec())
            .collect();

        let eps = 1e-2f32;
        let n_params = analytic.len();
        for pi in 0..n_params {
            let plen = layer.params_mut()[pi].value.len();
            for i in 0..plen.min(16) {
                let orig = layer.params_mut()[pi].value.data()[i];
                layer.params_mut()[pi].value.data_mut()[i] = orig + eps;
                let lp = half_sq(&replay(layer, x));
                layer.params_mut()[pi].value.data_mut()[i] = orig - eps;
                let lm = half_sq(&replay(layer, x));
                layer.params_mut()[pi].value.data_mut()[i] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic[pi][i];
                assert!(
                    (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                    "param {pi} grad [{i}]: analytic {a} vs numeric {numeric}"
                );
            }
        }
        let _ = layer.forward(x, true);
    }

    fn replay(layer: &mut dyn Layer, x: &Tensor) -> Tensor {
        layer.forward(x, true)
    }

    fn half_sq(t: &Tensor) -> f32 {
        0.5 * t.data().iter().map(|v| v * v).sum::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_values() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-6);
        assert_eq!(Activation::Linear.apply(3.5), 3.5);
    }

    #[test]
    fn activation_derivatives_match_finite_difference() {
        for kind in [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Linear,
        ] {
            for &x in &[-1.5f32, -0.3, 0.4, 2.0] {
                let eps = 1e-3;
                let numeric = (kind.apply(x + eps) - kind.apply(x - eps)) / (2.0 * eps);
                let y = kind.apply(x);
                let analytic = kind.derivative_from_output(y);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{kind:?} at {x}: {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn activation_layer_backward() {
        let mut layer = ActivationLayer::new(Activation::Tanh);
        let x = Tensor::from_vec(&[2, 3], vec![-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]);
        gradcheck::check_input_grad(&mut layer, &x, 2e-2);
    }

    #[test]
    fn activation_layer_shape_passthrough() {
        let layer = ActivationLayer::new(Activation::Relu);
        assert_eq!(layer.spec().output_shape(&[4, 3, 8, 8]), Ok(vec![4, 3, 8, 8]));
    }

    #[test]
    fn param_grad_starts_zeroed() {
        let p = Param::new(Tensor::full(&[3], 2.0));
        assert_eq!(p.grad.data(), &[0.0, 0.0, 0.0]);
    }
}
