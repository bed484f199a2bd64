//! 2-D max pooling.

use super::Layer;
use crate::tensor::Tensor;

/// Max pooling over `[batch, ch, h, w]` with a square window and stride equal
/// to the window size (the Keras default used by DonkeyCar's 3D model).
pub struct MaxPool2D {
    k: usize,
    /// Flat input index of each output element's argmax, for backward.
    /// Reused across forwards (resize keeps capacity); `seen_forward`
    /// distinguishes a legitimate empty cache from backward-before-forward.
    cache_argmax: Vec<usize>,
    cache_in_shape: Vec<usize>,
    seen_forward: bool,
}

impl MaxPool2D {
    pub fn new(k: usize) -> MaxPool2D {
        assert!(k >= 1);
        MaxPool2D {
            k,
            cache_argmax: Vec::new(),
            cache_in_shape: Vec::new(),
            seen_forward: false,
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h / self.k, w / self.k)
    }
}

impl Layer for MaxPool2D {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(x.rank(), 4, "MaxPool2D expects [batch, ch, h, w]");
        let (batch, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.out_hw(h, w);
        assert!(oh > 0 && ow > 0, "pool window larger than input");
        let k = self.k;

        let xin = x.data();
        let mut out_t = Tensor::zeros(&[batch, c, oh, ow]);
        let out = out_t.data_mut();
        self.cache_argmax.resize(batch * c * oh * ow, 0);
        let arg = &mut self.cache_argmax;
        // hot-kernel: begin (max-pool sweep, alloc-free)
        for bi in 0..batch {
            for ci in 0..c {
                let base = (bi * c + ci) * h * w;
                let obase = (bi * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut besti = 0usize;
                        for ky in 0..k {
                            for kx in 0..k {
                                let idx = base + (oy * k + ky) * w + ox * k + kx;
                                if xin[idx] > best {
                                    best = xin[idx];
                                    besti = idx;
                                }
                            }
                        }
                        out[obase + oy * ow + ox] = best;
                        arg[obase + oy * ow + ox] = besti;
                    }
                }
            }
        }
        // hot-kernel: end
        self.cache_in_shape.clear();
        self.cache_in_shape.extend_from_slice(x.shape());
        self.seen_forward = true;
        out_t
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(self.seen_forward, "backward before forward");
        let mut dx = Tensor::zeros(&self.cache_in_shape);
        let d = dx.data_mut();
        for (g, &i) in grad_out.data().iter().zip(&self.cache_argmax) {
            d[i] += g;
        }
        dx
    }

    fn scratch_bytes(&self) -> usize {
        self.cache_argmax.len() * std::mem::size_of::<usize>()
    }

    fn name(&self) -> String {
        format!("MaxPool2D({0}x{0})", self.k)
    }

    fn spec(&self) -> crate::layers::LayerSpec {
        crate::layers::LayerSpec::MaxPool2D { size: self.k }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn pools_maxima() {
        let mut p = MaxPool2D::new(2);
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1., 2., 3., 4., //
                5., 6., 7., 8., //
                9., 10., 11., 12., //
                13., 14., 15., 16.,
            ],
        );
        let y = p.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6., 8., 14., 16.]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut p = MaxPool2D::new(2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 9., 3., 4.]);
        let _ = p.forward(&x, true);
        let dx = p.backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![2.0]));
        assert_eq!(dx.data(), &[0., 2., 0., 0.]);
    }

    #[test]
    fn gradcheck_pool() {
        use autolearn_util::rng::rng_from_seed;
        let mut rng = rng_from_seed(1);
        let mut p = MaxPool2D::new(2);
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        gradcheck::check_input_grad(&mut p, &x, 5e-2);
    }

    #[test]
    fn truncates_ragged_edges() {
        let p = MaxPool2D::new(2);
        assert_eq!(p.spec().output_shape(&[1, 3, 5, 7]), Ok(vec![1, 3, 2, 3]));
    }
}
