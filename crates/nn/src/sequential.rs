//! Sequential layer container.

use crate::layers::{
    Activation, ActivationLayer, BatchNorm1d, Conv2D, Conv3D, Dense, Dropout, Flatten, Layer,
    LayerSpec, Lstm, MaxPool2D, Param, TimeDistributed,
};
use crate::tensor::Tensor;
use rand::Rng;

/// A straight chain of layers. The DonkeyCar models are built as a shared
/// `Sequential` trunk plus one `Sequential` per output head.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    pub fn new() -> Sequential {
        Sequential { layers: Vec::new() }
    }

    /// Instantiate a chain of layer specs, drawing every layer's initial
    /// weights from `rng` in chain order (nested chains depth-first) and
    /// seeding every dropout mask stream with `dropout_seed`. The inverse
    /// of [`Layer::spec`]: `from_specs(specs, ..).spec()` is
    /// `LayerSpec::Chain(specs.to_vec())`.
    ///
    /// # Panics
    ///
    /// On an activation kind [`Activation::from_name`] does not know, and
    /// wherever a layer constructor rejects its hyper-parameters (zero
    /// kernel or stride, dropout rate outside `[0, 1)`). Run the specs
    /// through [`autolearn_analyze::validate_model`] first.
    pub fn from_specs(specs: &[LayerSpec], rng: &mut impl Rng, dropout_seed: u64) -> Sequential {
        Sequential {
            layers: specs
                .iter()
                .map(|spec| instantiate(spec, rng, dropout_seed))
                .collect(),
        }
    }

    /// Builder-style push.
    pub fn push(mut self, layer: impl Layer + 'static) -> Sequential {
        self.layers.push(Box::new(layer));
        self
    }

    pub fn add(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// One-line-per-layer summary with output shapes and per-example
    /// forward FLOPs, like Keras' `model.summary()`. A layer that cannot
    /// take the incoming shape gets the shape error and ends the summary.
    pub fn summary(&self, input_shape: &[usize]) -> String {
        let mut shape = input_shape.to_vec();
        let mut out = String::new();
        for layer in &self.layers {
            let spec = layer.spec();
            let (flops, next) = match (spec.flops(&shape), spec.output_shape(&shape)) {
                (Ok(flops), Ok(next)) => (flops, next),
                (Err(e), _) | (_, Err(e)) => {
                    out.push_str(&format!("{:<40} !! {e}\n", layer.name()));
                    break;
                }
            };
            let next_str = format!("{next:?}");
            out.push_str(&format!(
                "{:<40} -> {next_str:<20} {flops:>10} flops\n",
                layer.name()
            ));
            shape = next;
        }
        out
    }
}

/// One layer from its spec; see [`Sequential::from_specs`].
fn instantiate(spec: &LayerSpec, rng: &mut impl Rng, dropout_seed: u64) -> Box<dyn Layer> {
    match spec {
        LayerSpec::Dense { input, output } => Box::new(Dense::new(*input, *output, rng)),
        LayerSpec::Activation { kind } => match Activation::from_name(kind) {
            Some(act) => Box::new(ActivationLayer::new(act)),
            // INVARIANT: documented panic of `Sequential::from_specs`; the
            // zoo only plans the four kinds `Activation::name` produces.
            None => panic!("unknown activation kind {kind:?}"),
        },
        LayerSpec::Conv2D {
            in_channels,
            filters,
            kernel,
            stride,
        } => Box::new(Conv2D::new(*in_channels, *filters, *kernel, *stride, rng)),
        LayerSpec::Conv3D {
            in_channels,
            filters,
            kernel_t,
            kernel,
            stride_t,
            stride,
        } => Box::new(Conv3D::new(
            *in_channels,
            *filters,
            *kernel_t,
            *kernel,
            *stride_t,
            *stride,
            rng,
        )),
        LayerSpec::MaxPool2D { size } => Box::new(MaxPool2D::new(*size)),
        LayerSpec::Flatten => Box::new(Flatten::new()),
        // cast: layer specs widen the f32 rate to f64, so narrowing back is exact.
        LayerSpec::Dropout { rate } => Box::new(Dropout::new(*rate as f32, dropout_seed)),
        LayerSpec::BatchNorm1d { features } => Box::new(BatchNorm1d::new(*features)),
        LayerSpec::Lstm { input, hidden } => Box::new(Lstm::new(*input, *hidden, rng)),
        LayerSpec::TimeDistributed { inner } => {
            Box::new(TimeDistributed::new(instantiate(inner, rng, dropout_seed)))
        }
        LayerSpec::Chain(layers) => Box::new(Sequential::from_specs(layers, rng, dropout_seed)),
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        // First layer reads `x` directly (no entry clone); later layers
        // consume the previous layer's owned output.
        let mut iter = self.layers.iter_mut();
        let mut cur = match iter.next() {
            Some(first) => first.forward(x, train),
            None => return x.clone(),
        };
        for layer in iter {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut iter = self.layers.iter_mut().rev();
        let mut cur = match iter.next() {
            Some(last) => last.backward(grad_out),
            None => return grad_out.clone(),
        };
        for layer in iter {
            cur = layer.backward(&cur);
        }
        cur
    }

    /// The same reverse pass as [`Layer::backward`], except that the first
    /// layer is reached through its `backward_params`, so the chain's input
    /// gradient is never computed.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut cur: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            cur = Some(layer.backward(cur.as_ref().unwrap_or(grad_out)));
        }
        first.backward_params(cur.as_ref().unwrap_or(grad_out));
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn scratch_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.scratch_bytes()).sum()
    }

    fn name(&self) -> String {
        format!("Sequential[{}]", self.layers.len())
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Chain(self.layers.iter().map(|l| l.spec()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use autolearn_util::rng::rng_from_seed;

    fn tiny_convnet(rng: &mut impl rand::Rng) -> Sequential {
        Sequential::new()
            .push(Conv2D::new(1, 2, 3, 2, rng))
            .push(ActivationLayer::new(Activation::Relu))
            .push(Flatten::new())
            .push(Dense::new(2 * 3 * 3, 4, rng))
            .push(ActivationLayer::new(Activation::Tanh))
    }

    #[test]
    fn forward_through_chain() {
        let mut rng = rng_from_seed(1);
        let mut net = tiny_convnet(&mut rng);
        let x = Tensor::randn(&[2, 1, 7, 7], 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[2, 4]);
        assert_eq!(net.spec().output_shape(&[2, 1, 7, 7]), Ok(vec![2, 4]));
    }

    #[test]
    fn gradcheck_whole_network() {
        let mut rng = rng_from_seed(2);
        let mut net = tiny_convnet(&mut rng);
        let x = Tensor::randn(&[2, 1, 7, 7], 0.5, &mut rng);
        gradcheck::check_input_grad(&mut net, &x, 5e-2);
        gradcheck::check_param_grads(&mut net, &x, 5e-2);
    }

    #[test]
    fn backward_params_matches_backward() {
        let x = Tensor::randn(&[2, 1, 7, 7], 0.5, &mut rng_from_seed(10));
        gradcheck::check_backward_params(|| tiny_convnet(&mut rng_from_seed(11)), &x);
    }

    #[test]
    fn params_flow_through() {
        let mut rng = rng_from_seed(3);
        let mut net = tiny_convnet(&mut rng);
        // conv w+b, dense w+b.
        assert_eq!(net.params_mut().len(), 4);
        assert!(net.param_count() > 0);
        net.zero_grads();
        for p in net.params_mut() {
            assert!(p.grad.data().iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn flops_accumulate() {
        let mut rng = rng_from_seed(4);
        let net = tiny_convnet(&mut rng);
        let f = net.spec().flops(&[1, 1, 7, 7]).unwrap();
        assert!(f > 0);
    }

    #[test]
    fn summary_lists_layers() {
        let mut rng = rng_from_seed(5);
        let net = tiny_convnet(&mut rng);
        let s = net.summary(&[1, 1, 7, 7]);
        assert!(s.contains("Conv2D"));
        assert!(s.contains("Dense"));
        assert!(s.contains("flops"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    fn summary_stops_at_a_shape_error() {
        let mut rng = rng_from_seed(6);
        let net = tiny_convnet(&mut rng);
        // A 2x2 frame cannot take the 3x3 kernel.
        let s = net.summary(&[1, 1, 2, 2]);
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("smaller than kernel"), "{s}");
    }

    /// One spec per `LayerSpec` variant (every activation kind), nesting
    /// included.
    fn every_variant() -> Vec<LayerSpec> {
        let dense = LayerSpec::Dense {
            input: 6,
            output: 4,
        };
        let activations = ["relu", "tanh", "sigmoid", "linear"].map(|kind| LayerSpec::Activation {
            kind: kind.to_string(),
        });
        activations
            .into_iter()
            .chain([
                dense.clone(),
                LayerSpec::Conv2D {
                    in_channels: 2,
                    filters: 3,
                    kernel: 3,
                    stride: 2,
                },
                LayerSpec::Conv3D {
                    in_channels: 1,
                    filters: 2,
                    kernel_t: 2,
                    kernel: 3,
                    stride_t: 1,
                    stride: 2,
                },
                LayerSpec::MaxPool2D { size: 2 },
                LayerSpec::Flatten,
                LayerSpec::Dropout { rate: 0.25 },
                LayerSpec::BatchNorm1d { features: 5 },
                LayerSpec::Lstm {
                    input: 4,
                    hidden: 3,
                },
                LayerSpec::TimeDistributed {
                    inner: Box::new(LayerSpec::Chain(vec![dense.clone(), LayerSpec::Flatten])),
                },
                LayerSpec::TimeDistributed {
                    inner: Box::new(dense.clone()),
                },
                LayerSpec::Chain(vec![dense, LayerSpec::Chain(Vec::new())]),
            ])
            .collect()
    }

    #[test]
    fn from_specs_round_trips_every_variant() {
        for spec in every_variant() {
            let one = std::slice::from_ref(&spec);
            let net = Sequential::from_specs(one, &mut rng_from_seed(7), 1);
            assert_eq!(net.spec(), LayerSpec::Chain(vec![spec.clone()]), "{spec:?}");
        }
        let all = every_variant();
        let net = Sequential::from_specs(&all, &mut rng_from_seed(7), 1);
        assert_eq!(net.spec(), LayerSpec::Chain(all));
    }

    #[test]
    fn from_specs_draws_weights_in_chain_order() {
        // Same specs and rng stream → bit-identical weights, matching the
        // hand-built chain constructed from the same stream.
        let mut a = tiny_convnet(&mut rng_from_seed(8));
        let spec = match a.spec() {
            LayerSpec::Chain(layers) => layers,
            other => vec![other],
        };
        let mut b = Sequential::from_specs(&spec, &mut rng_from_seed(8), 0);
        let bits = |n: &mut Sequential| -> Vec<Vec<u32>> {
            n.params_mut()
                .iter()
                .map(|p| p.value.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&mut a), bits(&mut b));
    }

    #[test]
    #[should_panic(expected = "unknown activation kind")]
    fn from_specs_rejects_unknown_activation() {
        let spec = LayerSpec::Activation {
            kind: "gelu".to_string(),
        };
        let _ = Sequential::from_specs(&[spec], &mut rng_from_seed(9), 0);
    }
}
