//! Time-distributed wrapper: apply an inner layer independently to every
//! timestep with shared weights, exactly like Keras' `TimeDistributed`.
//!
//! Implemented by folding time into the batch axis — `[B, T, ...]` becomes
//! `[B*T, ...]` — which shares weights and accumulates gradients across
//! timesteps for free.

use super::{Layer, Param};
use crate::tensor::Tensor;

pub struct TimeDistributed {
    inner: Box<dyn Layer>,
    cache_bt: (usize, usize),
}

impl TimeDistributed {
    pub fn new(inner: Box<dyn Layer>) -> TimeDistributed {
        TimeDistributed {
            inner,
            cache_bt: (0, 0),
        }
    }

    /// `grad_out` `[B, T, ...]` of the last forward folded to `[B*T, ...]`.
    fn merge_time(&self, grad_out: &Tensor) -> Tensor {
        let (b, t) = self.cache_bt;
        let mut merged = vec![b * t];
        merged.extend_from_slice(&grad_out.shape()[2..]);
        grad_out.reshape(&merged)
    }
}

impl Layer for TimeDistributed {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert!(x.rank() >= 3, "TimeDistributed expects [batch, time, ...]");
        let (b, t) = (x.shape()[0], x.shape()[1]);
        self.cache_bt = (b, t);
        let mut merged_shape = vec![b * t];
        merged_shape.extend_from_slice(&x.shape()[2..]);
        let y = self.inner.forward(&x.reshape(&merged_shape), train);
        let mut out_shape = vec![b, t];
        out_shape.extend_from_slice(&y.shape()[1..]);
        y.reshape(&out_shape)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (b, t) = self.cache_bt;
        let dx = self.inner.backward(&self.merge_time(grad_out));
        let mut out_shape = vec![b, t];
        out_shape.extend_from_slice(&dx.shape()[1..]);
        dx.reshape(&out_shape)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let merged = self.merge_time(grad_out);
        self.inner.backward_params(&merged);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn scratch_bytes(&self) -> usize {
        self.inner.scratch_bytes()
    }

    fn name(&self) -> String {
        format!("TimeDistributed({})", self.inner.name())
    }

    fn spec(&self) -> crate::layers::LayerSpec {
        crate::layers::LayerSpec::TimeDistributed {
            inner: Box::new(self.inner.spec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{gradcheck, Activation, ActivationLayer, Conv2D, Dense, Flatten};
    use crate::sequential::Sequential;
    use autolearn_util::rng::rng_from_seed;

    #[test]
    fn applies_inner_per_timestep() {
        let mut rng = rng_from_seed(1);
        let inner = Dense::new(2, 3, &mut rng);
        // Clone the weights so we can compare against a direct call.
        let w = inner.w.value.clone();
        let b = inner.b.value.clone();
        let mut td = TimeDistributed::new(Box::new(inner));
        let x = Tensor::randn(&[2, 4, 2], 1.0, &mut rng);
        let y = td.forward(&x, false);
        assert_eq!(y.shape(), &[2, 4, 3]);

        // Timestep (1, 2) equals a manual dense on that slice.
        let xt: Vec<f32> = x.data()[(1 * 4 + 2) * 2..(1 * 4 + 2) * 2 + 2].to_vec();
        let expect: Vec<f32> = (0..3)
            .map(|j| xt[0] * w.data()[j] + xt[1] * w.data()[3 + j] + b.data()[j])
            .collect();
        let got = &y.data()[(1 * 4 + 2) * 3..(1 * 4 + 2) * 3 + 3];
        for (e, g) in expect.iter().zip(got) {
            assert!((e - g).abs() < 1e-5);
        }
    }

    #[test]
    fn gradcheck_through_time() {
        let mut rng = rng_from_seed(2);
        let mut td = TimeDistributed::new(Box::new(Dense::new(3, 2, &mut rng)));
        let x = Tensor::randn(&[2, 3, 3], 1.0, &mut rng);
        gradcheck::check_input_grad(&mut td, &x, 2e-2);
        gradcheck::check_param_grads(&mut td, &x, 2e-2);
    }

    #[test]
    fn backward_params_matches_backward() {
        // A per-frame conv stack, the way the RNN model wraps its trunk.
        let make = || {
            let mut rng = rng_from_seed(4);
            let frame = Sequential::new()
                .push(Conv2D::new(1, 2, 3, 2, &mut rng))
                .push(ActivationLayer::new(Activation::Relu))
                .push(Flatten::new())
                .push(Dense::new(2 * 3 * 3, 4, &mut rng));
            TimeDistributed::new(Box::new(frame))
        };
        let x = Tensor::randn(&[2, 3, 1, 7, 7], 1.0, &mut rng_from_seed(5));
        gradcheck::check_backward_params(make, &x);
    }

    #[test]
    fn shape_and_flops() {
        let mut rng = rng_from_seed(3);
        let td = TimeDistributed::new(Box::new(Dense::new(4, 2, &mut rng)));
        assert_eq!(td.spec().output_shape(&[5, 3, 4]), Ok(vec![5, 3, 2]));
        // 3 timesteps x dense flops.
        assert_eq!(td.spec().flops(&[5, 3, 4]), Ok(3 * (2 * 4 * 2 + 2)));
    }
}
