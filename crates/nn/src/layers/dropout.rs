//! Inverted dropout.

use super::Layer;
use crate::tensor::Tensor;
use autolearn_util::rng::rng_from_seed;
use rand::rngs::StdRng;
use rand::Rng;

/// Inverted dropout: at train time zeroes each element with probability `p`
/// and scales survivors by `1/(1-p)`; identity at inference.
///
/// Owns its RNG (seeded at construction) so training runs are deterministic
/// without threading an RNG through every forward call.
pub struct Dropout {
    p: f32,
    rng: StdRng,
    cache_mask: Option<Tensor>,
}

impl Dropout {
    pub fn new(p: f32, seed: u64) -> Dropout {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        Dropout {
            p,
            rng: rng_from_seed(seed),
            cache_mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.cache_mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let mask = Tensor::from_vec(
            x.shape(),
            (0..x.len())
                .map(|_| {
                    if self.rng.gen::<f32>() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    }
                })
                .collect(),
        );
        let out = x.zip(&mask, |a, m| a * m);
        self.cache_mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.cache_mask {
            Some(mask) => grad_out.zip(mask, |g, m| g * m),
            None => grad_out.clone(),
        }
    }

    fn name(&self) -> String {
        format!("Dropout({})", self.p)
    }

    fn spec(&self) -> crate::layers::LayerSpec {
        crate::layers::LayerSpec::Dropout {
            rate: self.p as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let y = d.forward(&x, false);
        assert_eq!(y.data(), x.data());
        let dx = d.backward(&y);
        assert_eq!(dx.data(), y.data());
    }

    #[test]
    fn train_preserves_expectation() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::full(&[1, 10_000], 1.0);
        let y = d.forward(&x, true);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Survivors scaled by 1/keep.
        for &v in y.data() {
            assert!(v == 0.0 || (v - 1.0 / 0.7).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::full(&[1, 100], 1.0);
        let y = d.forward(&x, true);
        let dx = d.backward(&Tensor::full(&[1, 100], 1.0));
        // Zeros and survivors line up.
        for (a, b) in y.data().iter().zip(dx.data()) {
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let mut d1 = Dropout::new(0.5, 42);
        let mut d2 = Dropout::new(0.5, 42);
        let x = Tensor::full(&[1, 64], 1.0);
        assert_eq!(d1.forward(&x, true).data(), d2.forward(&x, true).data());
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn rejects_p_one() {
        let _ = Dropout::new(1.0, 1);
    }
}
