//! Weight initialisation schemes.

use crate::tensor::Tensor;
use rand::Rng;

/// Glorot/Xavier uniform: limit = sqrt(6 / (fan_in + fan_out)). Keras'
/// default for Dense/Conv layers, so the zoo matches DonkeyCar's defaults.
pub fn glorot_uniform(
    shape: &[usize],
    fan_in: usize,
    fan_out: usize,
    rng: &mut impl Rng,
) -> Tensor {
    // cast: fan sizes are small layer dims, exactly representable in f32.
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::uniform(shape, limit, rng)
}

/// He normal: std = sqrt(2 / fan_in); better for deep ReLU stacks.
pub fn he_normal(shape: &[usize], fan_in: usize, rng: &mut impl Rng) -> Tensor {
    // cast: fan-in is a small layer dim, exactly representable in f32.
    let std = (2.0 / fan_in as f32).sqrt();
    Tensor::randn(shape, std, rng)
}

/// Orthogonal-ish initialisation for recurrent kernels: scaled normal run
/// through one Gram–Schmidt pass per row (adequate for small LSTMs).
pub fn recurrent_init(rows: usize, cols: usize, rng: &mut impl Rng) -> Tensor {
    let mut t = Tensor::randn(&[rows, cols], 1.0, rng);
    // Row-wise Gram–Schmidt against previous rows (best effort when
    // rows > cols; the goal is spectral norm near 1, not exact orthogonality).
    let data = t.data_mut();
    for i in 0..rows {
        for j in 0..i.min(cols) {
            let dot: f32 = (0..cols)
                .map(|k| data[i * cols + k] * data[j * cols + k])
                .sum();
            let njsq: f32 = (0..cols)
                .map(|k| data[j * cols + k] * data[j * cols + k])
                .sum();
            if njsq > 1e-12 {
                for k in 0..cols {
                    data[i * cols + k] -= dot / njsq * data[j * cols + k];
                }
            }
        }
        let n: f32 = (0..cols)
            .map(|k| data[i * cols + k] * data[i * cols + k])
            .sum::<f32>()
            .sqrt();
        if n > 1e-12 {
            for k in 0..cols {
                data[i * cols + k] /= n;
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolearn_util::rng::rng_from_seed;

    #[test]
    fn glorot_limit_respected() {
        let mut rng = rng_from_seed(1);
        let t = glorot_uniform(&[100, 100], 100, 100, &mut rng);
        let limit = (6.0f32 / 200.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= limit + 1e-6));
        // Not all zero.
        assert!(t.norm() > 0.1);
    }

    #[test]
    fn he_normal_std() {
        let mut rng = rng_from_seed(2);
        let t = he_normal(&[50_000], 8, &mut rng);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!((var - 0.25).abs() < 0.02, "var {var} expected 0.25");
    }

    #[test]
    fn recurrent_rows_are_unit_norm_and_orthogonal() {
        let mut rng = rng_from_seed(3);
        let t = recurrent_init(4, 8, &mut rng);
        let d = t.data();
        for i in 0..4 {
            let n: f32 = (0..8).map(|k| d[i * 8 + k] * d[i * 8 + k]).sum();
            assert!((n - 1.0).abs() < 1e-4, "row {i} norm^2 {n}");
        }
        for i in 0..4 {
            for j in 0..i {
                let dot: f32 = (0..8).map(|k| d[i * 8 + k] * d[j * 8 + k]).sum();
                assert!(dot.abs() < 1e-4, "rows {i},{j} dot {dot}");
            }
        }
    }
}
