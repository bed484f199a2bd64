//! 1-D batch normalisation.

use super::{Layer, Param};
use crate::tensor::Tensor;

const EPS: f32 = 1e-5;

/// Batch norm over `[batch, features]`, normalising each feature across the
/// batch at train time and using running statistics at inference.
pub struct BatchNorm1d {
    pub gamma: Param,
    pub beta: Param,
    features: usize,
    momentum: f32,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // Caches for backward.
    cache_xhat: Option<Tensor>,
    cache_inv_std: Vec<f32>,
}

impl BatchNorm1d {
    pub fn new(features: usize) -> BatchNorm1d {
        BatchNorm1d {
            gamma: Param::new(Tensor::full(&[features], 1.0)),
            beta: Param::new(Tensor::zeros(&[features])),
            features,
            momentum: 0.9,
            running_mean: vec![0.0; features],
            running_var: vec![1.0; features],
            cache_xhat: None,
            cache_inv_std: Vec::new(),
        }
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.rank(), 2, "BatchNorm1d expects [batch, features]");
        assert_eq!(x.shape()[1], self.features);
        let (batch, f) = (x.shape()[0], self.features);
        let xd = x.data();

        let (mean, var) = if train {
            let mut mean = vec![0.0f32; f];
            let mut var = vec![0.0f32; f];
            for row in xd.chunks(f) {
                for (m, &v) in mean.iter_mut().zip(row) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= batch as f32; // cast: batch size is small, exact in f32
            }
            for row in xd.chunks(f) {
                for ((vv, &v), &m) in var.iter_mut().zip(row).zip(&mean) {
                    *vv += (v - m) * (v - m);
                }
            }
            for v in &mut var {
                *v /= batch as f32; // cast: batch size is small, exact in f32
            }
            for j in 0..f {
                self.running_mean[j] =
                    self.momentum * self.running_mean[j] + (1.0 - self.momentum) * mean[j];
                self.running_var[j] =
                    self.momentum * self.running_var[j] + (1.0 - self.momentum) * var[j];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let g = self.gamma.value.data();
        let b = self.beta.value.data();
        let mut xhat = vec![0.0f32; batch * f];
        let mut out = vec![0.0f32; batch * f];
        for (i, row) in xd.chunks(f).enumerate() {
            for j in 0..f {
                let h = (row[j] - mean[j]) * inv_std[j];
                xhat[i * f + j] = h;
                out[i * f + j] = g[j] * h + b[j];
            }
        }
        self.cache_xhat = Some(Tensor::from_vec(&[batch, f], xhat));
        self.cache_inv_std = inv_std;
        Tensor::from_vec(&[batch, f], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let xhat = self.cache_xhat.as_ref().expect("backward before forward");
        let (batch, f) = (grad_out.shape()[0], self.features);
        let g = grad_out.data();
        let xh = xhat.data();
        let gamma = self.gamma.value.data();

        // Parameter grads.
        let mut dgamma = vec![0.0f32; f];
        let mut dbeta = vec![0.0f32; f];
        for i in 0..batch {
            for j in 0..f {
                dgamma[j] += g[i * f + j] * xh[i * f + j];
                dbeta[j] += g[i * f + j];
            }
        }
        for (a, b) in self.gamma.grad.data_mut().iter_mut().zip(&dgamma) {
            *a += b;
        }
        for (a, b) in self.beta.grad.data_mut().iter_mut().zip(&dbeta) {
            *a += b;
        }

        // dX via the standard batch-norm backward.
        let n = batch as f32; // cast: batch size is small, exact in f32
        let mut dx = vec![0.0f32; batch * f];
        for j in 0..f {
            let k = gamma[j] * self.cache_inv_std[j] / n;
            for i in 0..batch {
                dx[i * f + j] = k * (n * g[i * f + j] - dbeta[j] - xh[i * f + j] * dgamma[j]);
            }
        }
        Tensor::from_vec(&[batch, f], dx)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn name(&self) -> String {
        format!("BatchNorm1d({})", self.features)
    }

    fn spec(&self) -> crate::layers::LayerSpec {
        crate::layers::LayerSpec::BatchNorm1d {
            features: self.features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolearn_util::rng::rng_from_seed;

    #[test]
    fn normalises_batch_statistics() {
        let mut rng = rng_from_seed(1);
        let mut bn = BatchNorm1d::new(3);
        let x = Tensor::randn(&[64, 3], 5.0, &mut rng).map(|v| v + 10.0);
        let y = bn.forward(&x, true);
        // Per-feature mean ~0, var ~1.
        for j in 0..3 {
            let col: Vec<f32> = (0..64).map(|i| y.data()[i * 3 + j]).collect();
            let mean: f32 = col.iter().sum::<f32>() / 64.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut rng = rng_from_seed(2);
        let mut bn = BatchNorm1d::new(2);
        // Train on shifted data for a while.
        for _ in 0..200 {
            let x = Tensor::randn(&[32, 2], 1.0, &mut rng).map(|v| v + 4.0);
            let _ = bn.forward(&x, true);
        }
        // Inference on the same distribution should be near standard.
        let x = Tensor::randn(&[256, 2], 1.0, &mut rng).map(|v| v + 4.0);
        let y = bn.forward(&x, false);
        assert!(y.mean().abs() < 0.2, "mean {}", y.mean());
    }

    #[test]
    fn gradcheck_batchnorm() {
        use crate::layers::gradcheck;
        let mut rng = rng_from_seed(3);
        let mut bn = BatchNorm1d::new(4);
        let x = Tensor::randn(&[8, 4], 1.0, &mut rng);
        gradcheck::check_input_grad(&mut bn, &x, 5e-2);
        gradcheck::check_param_grads(&mut bn, &x, 5e-2);
    }
}
