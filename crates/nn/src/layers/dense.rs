//! Fully-connected layer.

use super::{Layer, Param};
use crate::init::glorot_uniform;
use crate::tensor::Tensor;
use rand::Rng;

/// `y = x W + b`, input `[batch, in]`, output `[batch, out]`.
pub struct Dense {
    pub w: Param,
    pub b: Param,
    in_dim: usize,
    out_dim: usize,
    cache_x: Option<Tensor>,
}

impl Dense {
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Dense {
        Dense {
            w: Param::new(glorot_uniform(&[in_dim, out_dim], in_dim, out_dim, rng)),
            b: Param::new(Tensor::zeros(&[out_dim])),
            in_dim,
            out_dim,
            cache_x: None,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(x.rank(), 2, "Dense expects [batch, features]");
        assert_eq!(x.shape()[1], self.in_dim, "Dense input width");
        let batch = x.shape()[0];
        let mut y = Tensor::zeros(&[batch, self.out_dim]);
        // The backward cache reuses its buffer: allocated on the first
        // forward, a plain copy every step after.
        match &mut self.cache_x {
            Some(c) => c.copy_from(x),
            None => self.cache_x = Some(x.clone()),
        }
        let b = self.b.value.data();
        // hot-kernel: begin (dense forward GEMM + bias, alloc-free)
        crate::kernels::matmul_into(
            y.data_mut(),
            x.data(),
            self.w.value.data(),
            batch,
            self.in_dim,
            self.out_dim,
        );
        for row in y.data_mut().chunks_mut(self.out_dim) {
            for (v, &bb) in row.iter_mut().zip(b) {
                *v += bb;
            }
        }
        // hot-kernel: end
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache_x.as_ref().expect("backward before forward");
        let batch = x.shape()[0];
        let mut dx = Tensor::zeros(&[batch, self.in_dim]);
        // hot-kernel: begin (dense backward GEMMs, alloc-free)
        // dW += xᵀ · dY, accumulated straight into the grad buffer.
        crate::kernels::gemm(
            self.w.grad.data_mut(),
            true,
            x.data(),
            true,
            grad_out.data(),
            false,
            self.in_dim,
            batch,
            self.out_dim,
        );
        // db += column sums of dY
        let db = self.b.grad.data_mut();
        for row in grad_out.data().chunks(self.out_dim) {
            for (g, &r) in db.iter_mut().zip(row) {
                *g += r;
            }
        }
        // dX = dY · Wᵀ
        crate::kernels::gemm(
            dx.data_mut(),
            false,
            grad_out.data(),
            false,
            self.w.value.data(),
            true,
            batch,
            self.out_dim,
            self.in_dim,
        );
        // hot-kernel: end
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn scratch_bytes(&self) -> usize {
        self.cache_x
            .as_ref()
            .map_or(0, |c| c.len() * std::mem::size_of::<f32>())
    }

    fn name(&self) -> String {
        format!("Dense({}→{})", self.in_dim, self.out_dim)
    }

    fn spec(&self) -> crate::layers::LayerSpec {
        crate::layers::LayerSpec::Dense {
            input: self.in_dim,
            output: self.out_dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use autolearn_util::rng::rng_from_seed;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = rng_from_seed(1);
        let mut d = Dense::new(3, 2, &mut rng);
        d.w.value.fill(0.0);
        d.b.value = Tensor::from_vec(&[2], vec![1.0, -1.0]);
        let x = Tensor::zeros(&[4, 3]);
        let y = d.forward(&x, false);
        assert_eq!(y.shape(), &[4, 2]);
        for row in y.data().chunks(2) {
            assert_eq!(row, &[1.0, -1.0]);
        }
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = rng_from_seed(2);
        let mut d = Dense::new(4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        gradcheck::check_input_grad(&mut d, &x, 2e-2);
        gradcheck::check_param_grads(&mut d, &x, 2e-2);
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = rng_from_seed(3);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::randn(&[1, 2], 1.0, &mut rng);
        let y = d.forward(&x, true);
        let _ = d.backward(&y);
        let g1 = d.w.grad.clone();
        let y = d.forward(&x, true);
        let _ = d.backward(&y);
        // Second backward doubles the accumulator.
        for (a, b) in d.w.grad.data().iter().zip(g1.data()) {
            assert!((a - 2.0 * b).abs() < 1e-4);
        }
        d.zero_grads();
        assert!(d.w.grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn flops_and_params() {
        let mut rng = rng_from_seed(4);
        let mut d = Dense::new(10, 5, &mut rng);
        assert_eq!(d.param_count(), 10 * 5 + 5);
        assert_eq!(d.spec().flops(&[1, 10]), Ok(2 * 10 * 5 + 5));
        assert_eq!(d.spec().output_shape(&[7, 10]), Ok(vec![7, 5]));
    }

    #[test]
    #[should_panic(expected = "Dense input width")]
    fn rejects_wrong_width() {
        let mut rng = rng_from_seed(5);
        let mut d = Dense::new(3, 2, &mut rng);
        let _ = d.forward(&Tensor::zeros(&[1, 4]), false);
    }
}
