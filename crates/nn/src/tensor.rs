//! A dense row-major `f32` tensor.
//!
//! Shapes use the conventions: vectors `[n]`, matrices `[rows, cols]`,
//! image batches `[batch, channels, height, width]` (CHW) and image-sequence
//! batches `[batch, time, channels, height, width]`. The batch dimension is
//! always first.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Dense row-major tensor of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Build from raw data; length must match the shape product.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} does not match data length {}",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Uniform random in [-limit, limit].
    pub fn uniform(shape: &[usize], limit: f32, rng: &mut impl Rng) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.gen_range(-limit..=limit)).collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Standard normal scaled by `std` (Box–Muller, deterministic in rng).
    pub fn randn(shape: &[usize], std: f32, rng: &mut impl Rng) -> Tensor {
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reinterpret with a new shape of the same total size.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.data.len(),
            "cannot reshape {:?} ({}) to {shape:?}",
            self.shape,
            self.data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// First dimension (batch size for batched tensors).
    pub fn dim0(&self) -> usize {
        self.shape.first().copied().unwrap_or(0)
    }

    /// Elements per example (= len / dim0).
    pub fn example_len(&self) -> usize {
        if self.dim0() == 0 {
            0
        } else {
            self.len() / self.dim0()
        }
    }

    /// Borrow example `i` of a batched tensor as a flat slice.
    pub fn example(&self, i: usize) -> &[f32] {
        let k = self.example_len();
        &self.data[i * k..(i + 1) * k]
    }

    /// Stack equal-shaped example tensors into a batch along a new first axis.
    pub fn stack(examples: &[Tensor]) -> Tensor {
        assert!(!examples.is_empty(), "cannot stack zero tensors");
        let inner = examples[0].shape.clone();
        let mut shape = vec![examples.len()];
        shape.extend_from_slice(&inner);
        let mut data = Vec::with_capacity(examples.len() * examples[0].len());
        for e in examples {
            assert_eq!(e.shape, inner, "stack requires equal shapes");
            data.extend_from_slice(&e.data);
        }
        Tensor { shape, data }
    }

    /// Select a subset of examples (rows along axis 0) by index.
    pub fn gather0(&self, idx: &[usize]) -> Tensor {
        let k = self.example_len();
        let mut shape = self.shape.clone();
        shape[0] = idx.len();
        let mut data = Vec::with_capacity(idx.len() * k);
        for &i in idx {
            data.extend_from_slice(self.example(i));
        }
        Tensor { shape, data }
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise combine with an equal-shaped tensor.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip requires equal shapes");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|x| x * k)
    }

    /// In-place axpy: `self += other * k`.
    pub fn add_scaled(&mut self, other: &Tensor, k: f32) {
        assert_eq!(self.shape, other.shape);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * k;
        }
    }

    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            // cast: element count may round in f32; fine for a mean.
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element of a flat slice range per example.
    pub fn argmax_per_example(&self) -> Vec<usize> {
        (0..self.dim0())
            .map(|i| {
                let row = self.example(i);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Matrix multiply `[m, k] x [k, n] -> [m, n]` through the blocked,
    /// panel-packed GEMM in [`crate::kernels`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[self.shape[0], other.shape.get(1).copied().unwrap_or(0)]);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix multiply writing into caller-provided storage: `out = self ·
    /// other`. `out` is resized (grow-only capacity) to `[m, n]`, so a
    /// reused output tensor costs no allocation in steady state.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "inner dimensions {k} vs {k2}");

        debug_assert_eq!(self.data.len(), m * k, "matmul lhs data/shape mismatch");
        debug_assert_eq!(other.data.len(), k * n, "matmul rhs data/shape mismatch");
        debug_check_finite("matmul lhs", &self.data);
        debug_check_finite("matmul rhs", &other.data);

        out.resize_storage(&[m, n]);
        crate::kernels::matmul_into(&mut out.data, &self.data, &other.data, m, k, n);
    }

    /// Re-shape in place, resizing the backing storage to match. Existing
    /// capacity is kept when shrinking, so alternating between batch shapes
    /// reuses the same allocation. New elements (if growing) are zeroed;
    /// existing elements are preserved only as a flat prefix.
    pub fn resize_storage(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(n, 0.0);
    }

    /// Overwrite this tensor with `src`'s shape and contents, reusing the
    /// existing backing storage (grow-only). The borrow-free replacement
    /// for `cache = Some(src.clone())` in layer forward passes.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.resize_storage(&src.shape);
        self.data.copy_from_slice(&src.data);
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data: out,
        }
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// Debug-build guard used by the hot kernels (matmul, conv loops): checks a
/// bounded prefix of `data` for NaN/inf so exploding gradients surface at
/// the kernel that produced them instead of as a silent bad loss. Bounded at
/// 256 elements to keep debug test runs fast; compiled out in release.
pub(crate) fn debug_check_finite(kernel: impl std::fmt::Display, data: &[f32]) {
    if cfg!(debug_assertions) {
        let n = data.len().min(256);
        if let Some((i, v)) = data[..n].iter().enumerate().find(|(_, v)| !v.is_finite()) {
            // INVARIANT: debug-only numeric guard; release builds skip it.
            panic!("{kernel}: non-finite value {v} at element {i}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolearn_util::rng::rng_from_seed;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.rank(), 2);
        assert!(t.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[2], 7.0);
        assert_eq!(f.data(), &[7.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "does not match data length")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = rng_from_seed(1);
        let a = Tensor::randn(&[4, 4], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            eye.data_mut()[i * 4 + i] = 1.0;
        }
        let b = a.matmul(&eye);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = rng_from_seed(2);
        let a = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let back = a.transpose2().transpose2();
        assert_eq!(a, back);
    }

    #[test]
    fn matmul_agrees_with_transpose_identity() {
        // (A B)^T == B^T A^T
        let mut rng = rng_from_seed(3);
        let a = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 2], 1.0, &mut rng);
        let lhs = a.matmul(&b).transpose2();
        let rhs = b.transpose2().matmul(&a.transpose2());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn stack_and_example() {
        let a = Tensor::from_vec(&[2], vec![1., 2.]);
        let b = Tensor::from_vec(&[2], vec![3., 4.]);
        let s = Tensor::stack(&[a, b]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.example(1), &[3., 4.]);
        assert_eq!(s.example_len(), 2);
    }

    #[test]
    fn gather0_selects_rows() {
        let t = Tensor::from_vec(&[3, 2], vec![0., 1., 10., 11., 20., 21.]);
        let g = t.gather0(&[2, 0]);
        assert_eq!(g.shape(), &[2, 2]);
        assert_eq!(g.data(), &[20., 21., 0., 1.]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(&[3], vec![10., 20., 30.]);
        assert_eq!(a.add(&b).data(), &[11., 22., 33.]);
        assert_eq!(b.sub(&a).data(), &[9., 18., 27.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
        let mut c = a.clone();
        c.add_scaled(&b, 0.1);
        assert!((c.data()[2] - 6.0).abs() < 1e-6);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    fn argmax_per_example_rows() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.2, 0.5, 0.1, 0.8]);
        assert_eq!(t.argmax_per_example(), vec![1, 2]);
    }

    #[test]
    fn randn_statistics() {
        let mut rng = rng_from_seed(7);
        let t = Tensor::randn(&[10_000], 2.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "variance {var}");
    }

    #[test]
    fn uniform_within_limit() {
        let mut rng = rng_from_seed(8);
        let t = Tensor::uniform(&[1000], 0.5, &mut rng);
        assert!(t.data().iter().all(|&x| (-0.5..=0.5).contains(&x)));
    }

    #[test]
    fn matmul_into_reuses_storage() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let mut out = Tensor::zeros(&[2, 2]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), &[58., 64., 139., 154.]);
        // Second call with the same shapes reuses the buffer and fully
        // overwrites the previous product.
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn copy_from_tracks_shape_and_contents() {
        let src = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let mut dst = Tensor::zeros(&[8]);
        dst.copy_from(&src);
        assert_eq!(dst.shape(), &[2, 2]);
        assert_eq!(dst.data(), src.data());
        let smaller = Tensor::from_vec(&[2], vec![9., 9.]);
        dst.copy_from(&smaller);
        assert_eq!(dst.shape(), &[2]);
        assert_eq!(dst.data(), &[9., 9.]);
    }

    #[test]
    fn argmax_total_cmp_handles_nan_rows() {
        let t = Tensor::from_vec(&[1, 3], vec![0.2, f32::NAN, 0.4]);
        // total_cmp orders NaN above every finite float, so the NaN index
        // wins deterministically instead of depending on scan order.
        assert_eq!(t.argmax_per_example(), vec![1]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }
}
