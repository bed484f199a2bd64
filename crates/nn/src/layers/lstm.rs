//! LSTM over feature sequences.
//!
//! DonkeyCar's RNN model runs a time-distributed conv trunk over the last
//! few camera frames and feeds the per-frame features to an LSTM; the final
//! hidden state drives the steering/throttle heads. This layer consumes
//! `[batch, time, features]` and returns the last hidden state
//! `[batch, hidden]`, with full backpropagation-through-time.
//!
//! All gate math runs through the blocked GEMM in [`crate::kernels`]: the
//! pre-activation `z = x·W + h·U + b` is two GEMM calls per step, and the
//! BPTT parameter/input/recurrent gradients are one accumulating GEMM each.
//! Step caches and staging buffers are plain `Vec<f32>`s reused across
//! steps and across calls, so steady-state training allocates nothing here.

use super::{Layer, Param};
use crate::init::{glorot_uniform, recurrent_init};
use crate::kernels::{self, Scratch};
use crate::tensor::Tensor;
use rand::Rng;

/// Per-timestep cache, with buffers reused across forward calls (resize is
/// capacity-preserving, so a steady batch shape never reallocates).
#[derive(Default)]
struct StepCache {
    x: Vec<f32>,      // [B, F]
    h_prev: Vec<f32>, // [B, H]
    c_prev: Vec<f32>, // [B, H]
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
}

impl StepCache {
    fn resize(&mut self, bf: usize, bh: usize) {
        self.x.resize(bf, 0.0);
        self.h_prev.resize(bh, 0.0);
        self.c_prev.resize(bh, 0.0);
        self.i.resize(bh, 0.0);
        self.f.resize(bh, 0.0);
        self.g.resize(bh, 0.0);
        self.o.resize(bh, 0.0);
        self.tanh_c.resize(bh, 0.0);
    }

    fn bytes(&self) -> usize {
        (self.x.len() + self.h_prev.len() + self.c_prev.len() + 5 * self.i.len())
            * std::mem::size_of::<f32>()
    }
}

/// Single-layer LSTM, Keras gate order (i, f, g, o), returning the final
/// hidden state.
pub struct Lstm {
    pub w: Param, // input kernel  [F, 4H]
    pub u: Param, // recurrent     [H, 4H]
    pub b: Param, // bias          [4H]
    in_dim: usize,
    hidden: usize,
    cache: Vec<StepCache>,
    cache_steps: usize,
    scratch: Scratch,
}

impl Lstm {
    pub fn new(in_dim: usize, hidden: usize, rng: &mut impl Rng) -> Lstm {
        let mut b = Tensor::zeros(&[4 * hidden]);
        // Keras unit_forget_bias: forget gate biased open at init.
        for j in hidden..2 * hidden {
            b.data_mut()[j] = 1.0;
        }
        Lstm {
            w: Param::new(glorot_uniform(
                &[in_dim, 4 * hidden],
                in_dim,
                4 * hidden,
                rng,
            )),
            u: Param::new(recurrent_init(hidden, 4 * hidden, rng)),
            b: Param::new(b),
            in_dim,
            hidden,
            cache: Vec::new(),
            cache_steps: 0,
            scratch: Scratch::new(),
        }
    }

    pub fn hidden(&self) -> usize {
        self.hidden
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Layer for Lstm {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(x.rank(), 3, "Lstm expects [batch, time, features]");
        let (batch, time, feat) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        assert_eq!(feat, self.in_dim, "Lstm feature width");
        let h = self.hidden;

        // Pre-size every reused buffer before the hot loop: the step-cache
        // list grows only on the first call (or a longer sequence).
        while self.cache.len() < time {
            self.cache.push(StepCache::default());
        }
        for sc in self.cache.iter_mut().take(time) {
            sc.resize(batch * feat, batch * h);
        }
        self.cache_steps = time;
        let mut out = Tensor::zeros(&[batch, h]);
        let [z, h_t, c_t] = self.scratch.get([batch * 4 * h, batch * h, batch * h]);
        h_t.fill(0.0);
        c_t.fill(0.0);
        let xin = x.data();
        let wv = self.w.value.data();
        let uv = self.u.value.data();
        let bv = self.b.value.data();

        // hot-kernel: begin (LSTM forward GEMMs + gate math, alloc-free)
        for (t, sc) in self.cache.iter_mut().take(time).enumerate() {
            // Stage x[:, t, :] contiguously for the GEMM.
            for bi in 0..batch {
                let src = &xin[(bi * time + t) * feat..(bi * time + t + 1) * feat];
                sc.x[bi * feat..(bi + 1) * feat].copy_from_slice(src);
            }
            sc.h_prev.copy_from_slice(h_t);
            sc.c_prev.copy_from_slice(c_t);
            // z = x_t · W + h_{t-1} · U + b
            kernels::gemm(z, false, &sc.x, false, wv, false, batch, feat, 4 * h);
            kernels::gemm(z, true, &sc.h_prev, false, uv, false, batch, h, 4 * h);
            for row in z.chunks_mut(4 * h) {
                for (v, &bb) in row.iter_mut().zip(bv) {
                    *v += bb;
                }
            }
            for bi in 0..batch {
                let zr = &z[bi * 4 * h..(bi + 1) * 4 * h];
                for j in 0..h {
                    let idx = bi * h + j;
                    let i_g = sigmoid(zr[j]);
                    let f_g = sigmoid(zr[h + j]);
                    let g_g = zr[2 * h + j].tanh();
                    let o_g = sigmoid(zr[3 * h + j]);
                    let c_new = f_g * c_t[idx] + i_g * g_g;
                    let tc = c_new.tanh();
                    sc.i[idx] = i_g;
                    sc.f[idx] = f_g;
                    sc.g[idx] = g_g;
                    sc.o[idx] = o_g;
                    sc.tanh_c[idx] = tc;
                    c_t[idx] = c_new;
                    h_t[idx] = o_g * tc;
                }
            }
        }
        // hot-kernel: end

        out.data_mut().copy_from_slice(h_t);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let time = self.cache_steps;
        assert!(time > 0, "backward before forward");
        let batch = grad_out.shape()[0];
        let h = self.hidden;
        let f_dim = self.in_dim;

        let mut dx_all = Tensor::zeros(&[batch, time, f_dim]);
        let dxv = dx_all.data_mut();
        let [dz, dh, dc, dxt] =
            self.scratch
                .get([batch * 4 * h, batch * h, batch * h, batch * f_dim]);
        dh.copy_from_slice(grad_out.data());
        dc.fill(0.0);
        let wv = self.w.value.data();
        let uv = self.u.value.data();
        let dwv = self.w.grad.data_mut();
        let duv = self.u.grad.data_mut();
        let dbv = self.b.grad.data_mut();

        // hot-kernel: begin (BPTT gate math + GEMMs, alloc-free)
        for t in (0..time).rev() {
            let sc = &self.cache[t];
            for bi in 0..batch {
                let zr = &mut dz[bi * 4 * h..(bi + 1) * 4 * h];
                for j in 0..h {
                    let idx = bi * h + j;
                    let i_g = sc.i[idx];
                    let f_g = sc.f[idx];
                    let g_g = sc.g[idx];
                    let o_g = sc.o[idx];
                    let tc = sc.tanh_c[idx];
                    let dh_v = dh[idx];

                    let do_ = dh_v * tc;
                    let dc_total = dc[idx] + dh_v * o_g * (1.0 - tc * tc);
                    let di = dc_total * g_g;
                    let dg = dc_total * i_g;
                    let df = dc_total * sc.c_prev[idx];
                    // Carry cell grad to t-1.
                    dc[idx] = dc_total * f_g;

                    zr[j] = di * i_g * (1.0 - i_g);
                    zr[h + j] = df * f_g * (1.0 - f_g);
                    zr[2 * h + j] = dg * (1.0 - g_g * g_g);
                    zr[3 * h + j] = do_ * o_g * (1.0 - o_g);
                }
            }

            // dW += x_tᵀ · dz, dU += h_{t-1}ᵀ · dz, db += column sums.
            kernels::gemm(dwv, true, &sc.x, true, dz, false, f_dim, batch, 4 * h);
            kernels::gemm(duv, true, &sc.h_prev, true, dz, false, h, batch, 4 * h);
            for row in dz.chunks(4 * h) {
                for (a, &g) in dbv.iter_mut().zip(row) {
                    *a += g;
                }
            }

            // Input gradient for this timestep: dx_t = dz · Wᵀ.
            kernels::gemm(dxt, false, dz, false, wv, true, batch, 4 * h, f_dim);
            for bi in 0..batch {
                let dst = &mut dxv[(bi * time + t) * f_dim..(bi * time + t + 1) * f_dim];
                dst.copy_from_slice(&dxt[bi * f_dim..(bi + 1) * f_dim]);
            }

            // Recurrent gradient to t-1's hidden state: dh = dz · Uᵀ.
            kernels::gemm(dh, false, dz, false, uv, true, batch, 4 * h, h);
        }
        // hot-kernel: end

        dx_all
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.u, &mut self.b]
    }

    fn scratch_bytes(&self) -> usize {
        self.scratch.bytes() + self.cache.iter().map(StepCache::bytes).sum::<usize>()
    }

    fn name(&self) -> String {
        format!("Lstm({}→{})", self.in_dim, self.hidden)
    }

    fn spec(&self) -> crate::layers::LayerSpec {
        crate::layers::LayerSpec::Lstm {
            input: self.in_dim,
            hidden: self.hidden,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use autolearn_util::rng::rng_from_seed;

    #[test]
    fn forward_shape() {
        let mut rng = rng_from_seed(1);
        let mut lstm = Lstm::new(6, 4, &mut rng);
        let x = Tensor::randn(&[3, 5, 6], 1.0, &mut rng);
        let y = lstm.forward(&x, true);
        assert_eq!(y.shape(), &[3, 4]);
        // Hidden state bounded by tanh envelope.
        assert!(y.data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = rng_from_seed(2);
        let mut lstm = Lstm::new(3, 2, &mut rng);
        let x = Tensor::randn(&[2, 3, 3], 1.0, &mut rng);
        gradcheck::check_input_grad(&mut lstm, &x, 4e-2);
        gradcheck::check_param_grads(&mut lstm, &x, 4e-2);
    }

    #[test]
    fn longer_history_changes_output() {
        let mut rng = rng_from_seed(3);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let x1 = Tensor::full(&[1, 1, 2], 0.5);
        let x3 = Tensor::full(&[1, 3, 2], 0.5);
        let y1 = lstm.forward(&x1, false);
        let y3 = lstm.forward(&x3, false);
        let diff: f32 = y1
            .data()
            .iter()
            .zip(y3.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "state must integrate over time");
    }

    #[test]
    fn forget_bias_initialised_open() {
        let mut rng = rng_from_seed(4);
        let lstm = Lstm::new(2, 3, &mut rng);
        for j in 3..6 {
            assert_eq!(lstm.b.value.data()[j], 1.0);
        }
        assert_eq!(lstm.b.value.data()[0], 0.0);
    }

    #[test]
    fn scratch_is_stable_across_steps() {
        let mut rng = rng_from_seed(5);
        let mut lstm = Lstm::new(4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4, 4], 1.0, &mut rng);
        let y = lstm.forward(&x, true);
        let _ = lstm.backward(&y);
        let bytes = lstm.scratch_bytes();
        assert!(bytes > 0);
        for _ in 0..3 {
            let y = lstm.forward(&x, true);
            let _ = lstm.backward(&y);
            assert_eq!(lstm.scratch_bytes(), bytes, "steady-state must not grow");
        }
    }
}
