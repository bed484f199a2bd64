//! 2-D convolution (valid padding, square stride), CHW layout.
//!
//! Forward and backward are lowered onto the blocked GEMM in
//! [`crate::kernels`] via im2col/col2im: per example, the input is unrolled
//! into a `[c*k*k, oh*ow]` column matrix once, after which
//!
//! * forward is `W[f, c*k*k] · cols` plus a bias broadcast,
//! * `dw` is `g[f, oh*ow] · colsᵀ` accumulated over the batch,
//! * `dx` is `Wᵀ · g` scattered back through col2im.
//!
//! The column matrices live in a per-layer [`Scratch`] arena: they are
//! allocated once per (layer, batch-shape) and reused every step, and they
//! double as the backward cache — the layer no longer clones its input on
//! every forward.

use super::{Layer, Param};
use crate::init::glorot_uniform;
use crate::kernels::{self, Scratch};
use crate::tensor::Tensor;
use rand::Rng;

/// Convolution over `[batch, in_ch, H, W]` with kernel
/// `[filters, in_ch, k, k]` and stride `s` (valid padding), producing
/// `[batch, filters, OH, OW]`.
pub struct Conv2D {
    pub w: Param,
    pub b: Param,
    in_ch: usize,
    filters: usize,
    k: usize,
    stride: usize,
    scratch: Scratch,
    cache_in_shape: Option<[usize; 4]>,
}

impl Conv2D {
    pub fn new(in_ch: usize, filters: usize, k: usize, stride: usize, rng: &mut impl Rng) -> Conv2D {
        assert!(k >= 1 && stride >= 1);
        let fan_in = in_ch * k * k;
        let fan_out = filters * k * k;
        Conv2D {
            w: Param::new(glorot_uniform(
                &[filters, in_ch, k, k],
                fan_in,
                fan_out,
                rng,
            )),
            b: Param::new(Tensor::zeros(&[filters])),
            in_ch,
            filters,
            k,
            stride,
            scratch: Scratch::new(),
            cache_in_shape: None,
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.k && w >= self.k,
            "input {h}x{w} smaller than kernel {}",
            self.k
        );
        ((h - self.k) / self.stride + 1, (w - self.k) / self.stride + 1)
    }
}

impl Layer for Conv2D {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(x.rank(), 4, "Conv2D expects [batch, ch, h, w]");
        let (batch, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.in_ch, "Conv2D channel mismatch");
        let (oh, ow) = self.out_hw(h, w);
        let (f, k, s) = (self.filters, self.k, self.stride);
        let (ckk, ohow) = (c * k * k, oh * ow);

        let xin = x.data();
        debug_assert_eq!(xin.len(), batch * c * h * w, "Conv2D input data/shape mismatch");
        debug_assert_eq!(self.w.value.len(), f * ckk, "Conv2D weight data/shape mismatch");
        debug_assert_eq!(self.b.value.len(), f, "Conv2D bias data/shape mismatch");
        crate::tensor::debug_check_finite("Conv2D input", xin);
        crate::tensor::debug_check_finite("Conv2D weights", self.w.value.data());

        let mut out = Tensor::zeros(&[batch, f, oh, ow]);
        let ov = out.data_mut();
        // The whole batch's im2col matrices are kept for backward (dw needs
        // them); the arena reuses the same storage every step.
        let cols = self.scratch.get1(batch * ckk * ohow);
        let wv = self.w.value.data();
        let bv = self.b.value.data();

        // hot-kernel: begin (im2col + GEMM forward, alloc-free)
        for bi in 0..batch {
            let xb = &xin[bi * c * h * w..(bi + 1) * c * h * w];
            let cb = &mut cols[bi * ckk * ohow..(bi + 1) * ckk * ohow];
            kernels::im2col2d(xb, c, h, w, k, s, oh, ow, cb);
            let ob = &mut ov[bi * f * ohow..(bi + 1) * f * ohow];
            kernels::gemm(ob, false, wv, false, cb, false, f, ckk, ohow);
            for fi in 0..f {
                let bias = bv[fi];
                for o in &mut ob[fi * ohow..(fi + 1) * ohow] {
                    *o += bias;
                }
            }
        }
        // hot-kernel: end

        self.cache_in_shape = Some([batch, c, h, w]);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [batch, c, h, w] = self.cache_in_shape.expect("backward before forward");
        let (f, k, s) = (self.filters, self.k, self.stride);
        let (oh, ow) = self.out_hw(h, w);
        let (ckk, ohow) = (c * k * k, oh * ow);
        assert_eq!(grad_out.shape(), &[batch, f, oh, ow]);

        let gout = grad_out.data();
        let mut dx = Tensor::zeros(&[batch, c, h, w]);
        let dxv = dx.data_mut();
        // Slot 0 still holds the forward's im2col matrices; slot 1 stages
        // one example's input-gradient columns before the col2im scatter.
        let (cols, dcols) = self.scratch.get2(batch * ckk * ohow, ckk * ohow);
        let wv = self.w.value.data();
        let dwv = self.w.grad.data_mut();
        let dbv = self.b.grad.data_mut();

        // hot-kernel: begin (GEMM backward + col2im, alloc-free)
        for bi in 0..batch {
            let gb = &gout[bi * f * ohow..(bi + 1) * f * ohow];
            let cb = &cols[bi * ckk * ohow..(bi + 1) * ckk * ohow];
            // dw += g · colsᵀ
            kernels::gemm(dwv, true, gb, false, cb, true, f, ohow, ckk);
            // db += row sums of g
            for fi in 0..f {
                let mut acc = 0.0;
                for &g in &gb[fi * ohow..(fi + 1) * ohow] {
                    acc += g;
                }
                dbv[fi] += acc;
            }
            // dcols = Wᵀ · g, scattered back into dx
            kernels::gemm(dcols, false, wv, true, gb, false, ckk, f, ohow);
            let dxb = &mut dxv[bi * c * h * w..(bi + 1) * c * h * w];
            kernels::col2im2d(dcols, c, h, w, k, s, oh, ow, dxb);
        }
        // hot-kernel: end

        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn scratch_bytes(&self) -> usize {
        self.scratch.bytes()
    }

    fn name(&self) -> String {
        format!(
            "Conv2D({}→{}, {}x{}/{})",
            self.in_ch, self.filters, self.k, self.k, self.stride
        )
    }

    fn spec(&self) -> crate::layers::LayerSpec {
        crate::layers::LayerSpec::Conv2D {
            in_channels: self.in_ch,
            filters: self.filters,
            kernel: self.k,
            stride: self.stride,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use autolearn_util::rng::rng_from_seed;

    #[test]
    fn identity_kernel_passthrough() {
        let mut rng = rng_from_seed(1);
        let mut conv = Conv2D::new(1, 1, 1, 1, &mut rng);
        conv.w.value = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        conv.b.value.fill(0.0);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut rng = rng_from_seed(2);
        let mut conv = Conv2D::new(1, 1, 2, 1, &mut rng);
        conv.w.value = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        conv.b.value = Tensor::from_vec(&[1], vec![0.5]);
        // 3x3 input, 2x2 kernel picking main diagonal + bias.
        let x = Tensor::from_vec(
            &[1, 1, 3, 3],
            vec![1., 2., 3., 4., 5., 6., 7., 8., 9.],
        );
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[1. + 5. + 0.5, 2. + 6. + 0.5, 4. + 8. + 0.5, 5. + 9. + 0.5]);
    }

    #[test]
    fn stride_reduces_output() {
        let mut rng = rng_from_seed(3);
        let conv = Conv2D::new(3, 8, 3, 2, &mut rng);
        assert_eq!(
            conv.spec().output_shape(&[2, 3, 11, 15]),
            Ok(vec![2, 8, 5, 7])
        );
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = rng_from_seed(4);
        let mut conv = Conv2D::new(2, 3, 3, 2, &mut rng);
        let x = Tensor::randn(&[2, 2, 7, 7], 1.0, &mut rng);
        gradcheck::check_input_grad(&mut conv, &x, 3e-2);
        gradcheck::check_param_grads(&mut conv, &x, 3e-2);
    }

    #[test]
    fn flops_counts_macs() {
        let mut rng = rng_from_seed(5);
        let conv = Conv2D::new(1, 1, 2, 1, &mut rng);
        // 2x2 output, 2x2 kernel, 1 channel: 2*1*1*4*4 = 32.
        assert_eq!(conv.spec().flops(&[1, 1, 3, 3]), Ok(32));
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn rejects_too_small_input() {
        let mut rng = rng_from_seed(6);
        let mut conv = Conv2D::new(1, 1, 5, 1, &mut rng);
        let _ = conv.forward(&Tensor::zeros(&[1, 1, 3, 3]), false);
    }

    #[test]
    fn scratch_is_stable_across_steps() {
        let mut rng = rng_from_seed(7);
        let mut conv = Conv2D::new(2, 4, 3, 2, &mut rng);
        let x = Tensor::randn(&[3, 2, 9, 9], 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let _ = conv.backward(&y);
        let bytes = conv.scratch_bytes();
        assert!(bytes > 0, "conv scratch should hold im2col buffers");
        for _ in 0..3 {
            let y = conv.forward(&x, true);
            let _ = conv.backward(&y);
            assert_eq!(conv.scratch_bytes(), bytes, "steady-state must not grow");
        }
    }
}
