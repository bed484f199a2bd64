//! Flatten all non-batch dimensions.

use super::Layer;
use crate::tensor::Tensor;

/// `[batch, ...] -> [batch, prod(...)]`.
pub struct Flatten {
    cache_in_shape: Vec<usize>,
}

impl Flatten {
    pub fn new() -> Flatten {
        Flatten {
            cache_in_shape: Vec::new(),
        }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.cache_in_shape = x.shape().to_vec();
        x.reshape(&[x.dim0(), x.example_len()])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.reshape(&self.cache_in_shape)
    }

    fn name(&self) -> String {
        "Flatten".to_string()
    }

    fn spec(&self) -> crate::layers::LayerSpec {
        crate::layers::LayerSpec::Flatten
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec(&[2, 2, 3], (0..12).map(|i| i as f32).collect());
        let y = f.forward(&x, false);
        assert_eq!(y.shape(), &[2, 6]);
        let dx = f.backward(&y);
        assert_eq!(dx.shape(), &[2, 2, 3]);
        assert_eq!(dx.data(), x.data());
    }

    #[test]
    fn output_shape() {
        let f = Flatten::new();
        assert_eq!(f.spec().output_shape(&[4, 3, 8, 8]), Ok(vec![4, 192]));
    }
}
