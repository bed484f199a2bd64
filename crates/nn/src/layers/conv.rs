//! Convolution (valid padding) for both zoo ranks: [`Conv2D`] over image
//! batches and [`Conv3D`] over image-sequence batches for the DonkeyCar
//! "3D" model.
//!
//! There is one algorithm. Every input is read as a `[batch, c, t, h, w]`
//! volume with kernel `(kt, k, k)` and stride `(st, s, s)`; a 2-D input is
//! the same buffer with `t = kt = st = 1` (no reshape, no copy). Forward and
//! backward are lowered onto the blocked GEMM in [`crate::kernels`] via
//! im2col/col2im: per example, the volume is unrolled into a
//! `[c*kt*k*k, ot*oh*ow]` column matrix once, after which
//!
//! * forward is `W[f, c*kt*k*k] · cols` plus a bias broadcast,
//! * `dw` is `g[f, ot*oh*ow] · colsᵀ` accumulated over the batch,
//! * `dx` is `Wᵀ · g` scattered back through col2im.
//!
//! The column matrices live in a per-layer [`Scratch`] arena: they are
//! allocated once per (layer, batch-shape) and reused every step, and they
//! double as the backward cache — the layer never clones its input.
//!
//! The rank only decides the tensor layouts at the edges (weights
//! `[f, c, k, k]` or `[f, c, kt, k, k]`, and the input/output shapes), the
//! layer's `name()` and its `spec()`.

use super::{Layer, LayerSpec, Param};
use crate::init::glorot_uniform;
use crate::kernels::{self, Scratch};
use crate::tensor::{debug_check_finite, Tensor};
use rand::Rng;

/// Convolution over rank-`RANK` batches: `[batch, in_ch, H, W]` for
/// `RANK = 4`, `[batch, in_ch, T, H, W]` for `RANK = 5`. Use it through the
/// [`Conv2D`] and [`Conv3D`] aliases, whose constructors fix the rank.
pub struct Conv<const RANK: usize> {
    pub w: Param,
    pub b: Param,
    in_ch: usize,
    filters: usize,
    kt: usize,
    k: usize,
    st: usize,
    s: usize,
    scratch: Scratch,
    /// `[batch, c, t, h, w]` of the last forward input.
    cache_in_shape: Option<[usize; 5]>,
}

/// Convolution over `[batch, in_ch, H, W]` with kernel
/// `[filters, in_ch, k, k]` and stride `s`, producing
/// `[batch, filters, OH, OW]`.
pub type Conv2D = Conv<4>;

/// Convolution over `[batch, in_ch, T, H, W]` with kernel
/// `[filters, in_ch, kt, k, k]` and stride `(st, s, s)`, producing
/// `[batch, filters, OT, OH, OW]`.
pub type Conv3D = Conv<5>;

impl Conv2D {
    /// `filters` square `k`×`k` kernels over `in_ch` channels, stride
    /// `stride`, Glorot-uniform weights and zero bias.
    pub fn new(in_ch: usize, filters: usize, k: usize, stride: usize, rng: &mut impl Rng) -> Conv2D {
        Conv::with_kernel(in_ch, filters, (1, k), (1, stride), rng)
    }
}

impl Conv3D {
    /// `filters` `kt`×`k`×`k` kernels over `in_ch` channels, stride
    /// `(st, s, s)`, Glorot-uniform weights and zero bias.
    pub fn new(
        in_ch: usize,
        filters: usize,
        kt: usize,
        k: usize,
        st: usize,
        s: usize,
        rng: &mut impl Rng,
    ) -> Conv3D {
        Conv::with_kernel(in_ch, filters, (kt, k), (st, s), rng)
    }
}

impl<const RANK: usize> Conv<RANK> {
    /// `Conv2D` or `Conv3D`, for messages.
    const KIND: &'static str = if RANK == 4 { "Conv2D" } else { "Conv3D" };

    fn with_kernel(
        in_ch: usize,
        filters: usize,
        (kt, k): (usize, usize),
        (st, s): (usize, usize),
        rng: &mut impl Rng,
    ) -> Conv<RANK> {
        assert!(kt >= 1 && k >= 1 && st >= 1 && s >= 1);
        let fan_in = in_ch * kt * k * k;
        let fan_out = filters * kt * k * k;
        Conv {
            w: Param::new(glorot_uniform(
                &Self::dims([filters, in_ch, kt, k, k]),
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

    /// A `[n, c, t, h, w]` shape in this rank's layout: 2-D drops the
    /// (unit) `t` axis.
    fn dims([n, c, t, h, w]: [usize; 5]) -> Vec<usize> {
        if RANK == 4 {
            debug_assert_eq!(t, 1, "2-D shapes have a unit time axis");
            vec![n, c, h, w]
        } else {
            vec![n, c, t, h, w]
        }
    }

    /// The input shape as a `[batch, c, t, h, w]` volume (`t = 1` in 2-D).
    fn volume(&self, shape: &[usize]) -> [usize; 5] {
        assert_eq!(
            shape.len(),
            RANK,
            "{} expects [batch, ch, {}h, w]",
            Self::KIND,
            if RANK == 4 { "" } else { "t, " }
        );
        let t = if RANK == 4 { 1 } else { shape[2] };
        let vol = [shape[0], shape[1], t, shape[RANK - 2], shape[RANK - 1]];
        assert_eq!(vol[1], self.in_ch, "{} channel mismatch", Self::KIND);
        vol
    }

    fn out_dims(&self, t: usize, h: usize, w: usize) -> [usize; 3] {
        assert!(
            t >= self.kt && h >= self.k && w >= self.k,
            "input {t}x{h}x{w} smaller than kernel {}x{}x{}",
            self.kt,
            self.k,
            self.k
        );
        [
            (t - self.kt) / self.st + 1,
            (h - self.k) / self.s + 1,
            (w - self.k) / self.s + 1,
        ]
    }
}

impl<const RANK: usize> Layer for Conv<RANK> {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let [batch, c, t, h, w] = self.volume(x.shape());
        let [ot, oh, ow] = self.out_dims(t, h, w);
        let (f, kt, k, st, s) = (self.filters, self.kt, self.k, self.st, self.s);
        let (vol, taps, osp) = (c * t * h * w, c * kt * k * k, ot * oh * ow);

        let xin = x.data();
        let kind = Self::KIND;
        debug_assert_eq!(xin.len(), batch * vol, "{kind} input data/shape mismatch");
        debug_assert_eq!(self.w.value.len(), f * taps, "{kind} weight data/shape mismatch");
        debug_assert_eq!(self.b.value.len(), f, "{kind} bias data/shape mismatch");
        debug_check_finite(format_args!("{kind} input"), xin);
        debug_check_finite(format_args!("{kind} weights"), self.w.value.data());

        let mut out = Tensor::zeros(&Self::dims([batch, f, ot, oh, ow]));
        let ov = out.data_mut();
        // The whole batch's im2col matrices are kept for backward (dw needs
        // them); the arena reuses the same storage every step.
        let [cols] = self.scratch.get([batch * taps * osp]);
        let wv = self.w.value.data();
        let bv = self.b.value.data();

        // hot-kernel: begin (im2col + GEMM forward, alloc-free)
        for bi in 0..batch {
            let xb = &xin[bi * vol..(bi + 1) * vol];
            let cb = &mut cols[bi * taps * osp..(bi + 1) * taps * osp];
            kernels::im2col3d(xb, c, t, h, w, kt, k, st, s, ot, oh, ow, cb);
            let ob = &mut ov[bi * f * osp..(bi + 1) * f * osp];
            kernels::gemm(ob, false, wv, false, cb, false, f, taps, osp);
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
        let [ot, oh, ow] = self.out_dims(t, h, w);
        let (f, kt, k, st, s) = (self.filters, self.kt, self.k, self.st, self.s);
        let (vol, taps, osp) = (c * t * h * w, c * kt * k * k, ot * oh * ow);
        assert_eq!(grad_out.shape(), Self::dims([batch, f, ot, oh, ow]));

        let gout = grad_out.data();
        let mut dx = Tensor::zeros(&Self::dims([batch, c, t, h, w]));
        let dxv = dx.data_mut();
        // Slot 0 still holds the forward's im2col matrices; slot 1 stages
        // one example's input-gradient columns before the col2im scatter.
        let [cols, dcols] = self.scratch.get([batch * taps * osp, taps * osp]);
        let wv = self.w.value.data();
        let dwv = self.w.grad.data_mut();
        let dbv = self.b.grad.data_mut();

        // hot-kernel: begin (GEMM backward + col2im, alloc-free)
        for bi in 0..batch {
            let gb = &gout[bi * f * osp..(bi + 1) * f * osp];
            let cb = &cols[bi * taps * osp..(bi + 1) * taps * osp];
            // dw += g · colsᵀ
            kernels::gemm(dwv, true, gb, false, cb, true, f, osp, taps);
            // db += row sums of g
            for fi in 0..f {
                let mut acc = 0.0;
                for &g in &gb[fi * osp..(fi + 1) * osp] {
                    acc += g;
                }
                dbv[fi] += acc;
            }
            // dcols = Wᵀ · g, scattered back into dx
            kernels::gemm(dcols, false, wv, true, gb, false, taps, f, osp);
            let dxb = &mut dxv[bi * vol..(bi + 1) * vol];
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
        let (i, f, kt, k, st, s) = (self.in_ch, self.filters, self.kt, self.k, self.st, self.s);
        if RANK == 4 {
            format!("Conv2D({i}→{f}, {k}x{k}/{s})")
        } else {
            format!("Conv3D({i}→{f}, {kt}x{k}x{k}/{st}x{s})")
        }
    }

    fn spec(&self) -> LayerSpec {
        if RANK == 4 {
            LayerSpec::Conv2D {
                in_channels: self.in_ch,
                filters: self.filters,
                kernel: self.k,
                stride: self.s,
            }
        } else {
            LayerSpec::Conv3D {
                in_channels: self.in_ch,
                filters: self.filters,
                kernel_t: self.kt,
                kernel: self.k,
                stride_t: self.st,
                stride: self.s,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use autolearn_util::rng::rng_from_seed;

    mod conv2d {
        use super::*;

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

    mod conv3d {
        use super::*;

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
}
