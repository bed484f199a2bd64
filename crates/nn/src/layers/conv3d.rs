//! 3-D convolution over image sequences, for the DonkeyCar "3D" model.
//!
//! Lowered onto the blocked GEMM in [`crate::kernels`] exactly like
//! [`Conv2D`](super::conv2d::Conv2D), with the kernel's temporal extent
//! folded into the im2col row index: per example the `[c, t, h, w]` volume
//! unrolls into a `[c*kt*k*k, ot*oh*ow]` column matrix, and forward /
//! `dw` / `dx` are one GEMM each (plus the col2im scatter for `dx`). The
//! column matrices live in the layer's [`Scratch`] arena and double as the
//! backward cache.

use super::{Layer, Param};
use crate::init::glorot_uniform;
use crate::kernels::{self, Scratch};
use crate::tensor::Tensor;
use rand::Rng;

/// Convolution over `[batch, in_ch, T, H, W]` with kernel
/// `[filters, in_ch, kt, k, k]`, stride `(st, s, s)`, valid padding.
pub struct Conv3D {
    pub w: Param,
    pub b: Param,
    in_ch: usize,
    filters: usize,
    kt: usize,
    k: usize,
    st: usize,
    s: usize,
    scratch: Scratch,
    cache_in_shape: Option<[usize; 5]>,
}

impl Conv3D {
    pub fn new(
        in_ch: usize,
        filters: usize,
        kt: usize,
        k: usize,
        st: usize,
        s: usize,
        rng: &mut impl Rng,
    ) -> Conv3D {
        assert!(kt >= 1 && k >= 1 && st >= 1 && s >= 1);
        let fan_in = in_ch * kt * k * k;
        let fan_out = filters * kt * k * k;
        Conv3D {
            w: Param::new(glorot_uniform(
                &[filters, in_ch, kt, k, k],
                fan_in,
                fan_out,
                rng,
            )),
            b: Param::new(Tensor::zeros(&[filters])),
            in_ch,
            filters,
            kt,
            k,
            st,
            s,
            scratch: Scratch::new(),
            cache_in_shape: None,
        }
    }

    fn out_dims(&self, t: usize, h: usize, w: usize) -> (usize, usize, usize) {
        assert!(
            t >= self.kt && h >= self.k && w >= self.k,
            "input {t}x{h}x{w} smaller than kernel {}x{}x{}",
            self.kt,
            self.k,
            self.k
        );
        (
            (t - self.kt) / self.st + 1,
            (h - self.k) / self.s + 1,
            (w - self.k) / self.s + 1,
        )
    }
}

impl Layer for Conv3D {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(x.rank(), 5, "Conv3D expects [batch, ch, t, h, w]");
        let (batch, c, t, h, w) = (
            x.shape()[0],
            x.shape()[1],
            x.shape()[2],
            x.shape()[3],
            x.shape()[4],
        );
        assert_eq!(c, self.in_ch);
        let (ot, oh, ow) = self.out_dims(t, h, w);
        let (f, kt, k, st, s) = (self.filters, self.kt, self.k, self.st, self.s);
        let (ckk, osp) = (c * kt * k * k, ot * oh * ow);

        let xin = x.data();
        crate::tensor::debug_check_finite("Conv3D input", xin);
        crate::tensor::debug_check_finite("Conv3D weights", self.w.value.data());

        let mut out = Tensor::zeros(&[batch, f, ot, oh, ow]);
        let ov = out.data_mut();
        let cols = self.scratch.get1(batch * ckk * osp);
        let wv = self.w.value.data();
        let bv = self.b.value.data();

        // hot-kernel: begin (3-D im2col + GEMM forward, alloc-free)
        for bi in 0..batch {
            let xb = &xin[bi * c * t * h * w..(bi + 1) * c * t * h * w];
            let cb = &mut cols[bi * ckk * osp..(bi + 1) * ckk * osp];
            kernels::im2col3d(xb, c, t, h, w, kt, k, st, s, ot, oh, ow, cb);
            let ob = &mut ov[bi * f * osp..(bi + 1) * f * osp];
            kernels::gemm(ob, false, wv, false, cb, false, f, ckk, osp);
            for fi in 0..f {
                let bias = bv[fi];
                for o in &mut ob[fi * osp..(fi + 1) * osp] {
                    *o += bias;
                }
            }
        }
        // hot-kernel: end

        self.cache_in_shape = Some([batch, c, t, h, w]);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [batch, c, t, h, w] = self.cache_in_shape.expect("backward before forward");
        let (f, kt, k, st, s) = (self.filters, self.kt, self.k, self.st, self.s);
        let (ot, oh, ow) = self.out_dims(t, h, w);
        let (ckk, osp) = (c * kt * k * k, ot * oh * ow);
        assert_eq!(grad_out.shape(), &[batch, f, ot, oh, ow]);

        let gout = grad_out.data();
        let mut dx = Tensor::zeros(&[batch, c, t, h, w]);
        let dxv = dx.data_mut();
        let (cols, dcols) = self.scratch.get2(batch * ckk * osp, ckk * osp);
        let wv = self.w.value.data();
        let dwv = self.w.grad.data_mut();
        let dbv = self.b.grad.data_mut();

        // hot-kernel: begin (3-D GEMM backward + col2im, alloc-free)
        for bi in 0..batch {
            let gb = &gout[bi * f * osp..(bi + 1) * f * osp];
            let cb = &cols[bi * ckk * osp..(bi + 1) * ckk * osp];
            kernels::gemm(dwv, true, gb, false, cb, true, f, osp, ckk);
            for fi in 0..f {
                let mut acc = 0.0;
                for &g in &gb[fi * osp..(fi + 1) * osp] {
                    acc += g;
                }
                dbv[fi] += acc;
            }
            kernels::gemm(dcols, false, wv, true, gb, false, ckk, f, osp);
            let dxb = &mut dxv[bi * c * t * h * w..(bi + 1) * c * t * h * w];
            kernels::col2im3d(dcols, c, t, h, w, kt, k, st, s, ot, oh, ow, dxb);
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
            "Conv3D({}→{}, {}x{}x{}/{}x{})",
            self.in_ch, self.filters, self.kt, self.k, self.k, self.st, self.s
        )
    }

    fn spec(&self) -> crate::layers::LayerSpec {
        crate::layers::LayerSpec::Conv3D {
            in_channels: self.in_ch,
            filters: self.filters,
            kernel_t: self.kt,
            kernel: self.k,
            stride_t: self.st,
            stride: self.s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use autolearn_util::rng::rng_from_seed;

    #[test]
    fn output_dims() {
        let mut rng = rng_from_seed(1);
        let conv = Conv3D::new(1, 4, 2, 3, 1, 2, &mut rng);
        assert_eq!(
            conv.spec().output_shape(&[2, 1, 3, 9, 9]),
            Ok(vec![2, 4, 2, 4, 4])
        );
    }

    #[test]
    fn temporal_sum_kernel() {
        let mut rng = rng_from_seed(2);
        let mut conv = Conv3D::new(1, 1, 2, 1, 1, 1, &mut rng);
        conv.w.value = Tensor::from_vec(&[1, 1, 2, 1, 1], vec![1.0, 1.0]);
        conv.b.value.fill(0.0);
        // Two 1x1 frames of values 3 and 4 → single output 7.
        let x = Tensor::from_vec(&[1, 1, 2, 1, 1], vec![3.0, 4.0]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 1, 1]);
        assert_eq!(y.data(), &[7.0]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = rng_from_seed(3);
        let mut conv = Conv3D::new(1, 2, 2, 2, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 1, 3, 4, 4], 1.0, &mut rng);
        gradcheck::check_input_grad(&mut conv, &x, 4e-2);
        gradcheck::check_param_grads(&mut conv, &x, 4e-2);
    }

    #[test]
    fn scratch_is_stable_across_steps() {
        let mut rng = rng_from_seed(4);
        let mut conv = Conv3D::new(1, 2, 2, 3, 1, 2, &mut rng);
        let x = Tensor::randn(&[2, 1, 4, 9, 9], 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let _ = conv.backward(&y);
        let bytes = conv.scratch_bytes();
        assert!(bytes > 0);
        for _ in 0..3 {
            let y = conv.forward(&x, true);
            let _ = conv.backward(&y);
            assert_eq!(conv.scratch_bytes(), bytes, "steady-state must not grow");
        }
    }
}
