//! Property tests for the neural-network library's core invariants.

use autolearn_nn::layers::{Activation, ActivationLayer, Conv2D, Dense, Flatten, Layer, MaxPool2D};
use autolearn_nn::loss::{bin_value, one_hot, softmax_rows, unbin_value, Loss};
use autolearn_nn::Tensor;
use autolearn_util::rng::rng_from_seed;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense layers are affine: f(ax) - f(0) == a (f(x) - f(0)).
    #[test]
    fn dense_is_affine(seed in 0u64..1000, a in -3.0f32..3.0) {
        let mut rng = rng_from_seed(seed);
        let mut d = Dense::new(5, 3, &mut rng);
        let x = Tensor::randn(&[2, 5], 1.0, &mut rng);
        let f0 = d.forward(&Tensor::zeros(&[2, 5]), false);
        let fx = d.forward(&x, false);
        let fax = d.forward(&x.scale(a), false);
        for i in 0..fx.len() {
            let lhs = fax.data()[i] - f0.data()[i];
            let rhs = a * (fx.data()[i] - f0.data()[i]);
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + rhs.abs()), "{lhs} vs {rhs}");
        }
    }

    /// Convolution is linear in its input once bias is removed.
    #[test]
    fn conv_linear_in_input(seed in 0u64..500) {
        let mut rng = rng_from_seed(seed);
        let mut conv = Conv2D::new(1, 2, 3, 1, &mut rng);
        conv.b.value.fill(0.0);
        let x = Tensor::randn(&[1, 1, 6, 6], 1.0, &mut rng);
        let y = Tensor::randn(&[1, 1, 6, 6], 1.0, &mut rng);
        let fx = conv.forward(&x, false);
        let fy = conv.forward(&y, false);
        let fxy = conv.forward(&x.add(&y), false);
        for i in 0..fx.len() {
            let sum = fx.data()[i] + fy.data()[i];
            prop_assert!((fxy.data()[i] - sum).abs() < 1e-3 * (1.0 + sum.abs()));
        }
    }

    /// Softmax rows: positive, sum to one, invariant to per-row shifts.
    #[test]
    fn softmax_shift_invariant(vals in prop::collection::vec(-20.0f32..20.0, 6), shift in -50.0f32..50.0) {
        let t = Tensor::from_vec(&[2, 3], vals.clone());
        let p1 = softmax_rows(&t);
        let shifted = t.map(|v| v + shift);
        let p2 = softmax_rows(&shifted);
        for (a, b) in p1.data().iter().zip(p2.data()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
        for row in p1.data().chunks(3) {
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&v| v > 0.0));
        }
    }

    /// Binning is the left inverse of unbinning, and unbinning stays within
    /// half a bin of the original value.
    #[test]
    fn bin_unbin_consistency(v in -1.0f32..=1.0, bins in 2usize..40) {
        let b = bin_value(v, -1.0, 1.0, bins);
        prop_assert!(b < bins);
        let back = unbin_value(b, -1.0, 1.0, bins);
        prop_assert!((back - v).abs() <= 1.0 / bins as f32 + 1e-6);
        prop_assert_eq!(bin_value(back, -1.0, 1.0, bins), b);
    }

    /// MSE is non-negative, zero iff equal, and symmetric.
    #[test]
    fn mse_metric_properties(a in prop::collection::vec(-5.0f32..5.0, 8), b in prop::collection::vec(-5.0f32..5.0, 8)) {
        let ta = Tensor::from_vec(&[2, 4], a);
        let tb = Tensor::from_vec(&[2, 4], b);
        let (lab, _) = Loss::Mse.compute(&ta, &tb);
        let (lba, _) = Loss::Mse.compute(&tb, &ta);
        let (laa, _) = Loss::Mse.compute(&ta, &ta);
        prop_assert!(lab >= 0.0);
        prop_assert!((lab - lba).abs() < 1e-5);
        prop_assert_eq!(laa, 0.0);
    }

    /// Cross-entropy against a one-hot target is minimised by the target
    /// class having the largest logit.
    #[test]
    fn ce_prefers_correct_class(correct in 0usize..4, margin in 0.5f32..10.0) {
        let mut logits = vec![0.0f32; 4];
        logits[correct] = margin;
        let t = Tensor::from_vec(&[1, 4], logits);
        let target = one_hot(&[correct], 4);
        let (l_good, _) = Loss::SoftmaxCrossEntropy.compute(&t, &target);
        let wrong = (correct + 1) % 4;
        let target_wrong = one_hot(&[wrong], 4);
        let (l_bad, _) = Loss::SoftmaxCrossEntropy.compute(&t, &target_wrong);
        prop_assert!(l_good < l_bad);
    }

    /// Pool → flatten shape bookkeeping matches actual outputs for valid
    /// shapes.
    #[test]
    fn shape_contracts_hold(b in 1usize..4, c in 1usize..4, hw in 4usize..12) {
        let mut rng = rng_from_seed(9);
        let x = Tensor::randn(&[b, c, hw, hw], 1.0, &mut rng);
        let mut pool = MaxPool2D::new(2);
        let y = pool.forward(&x, false);
        prop_assert_eq!(Ok(y.shape().to_vec()), pool.spec().output_shape(x.shape()));
        let mut flat = Flatten::new();
        let z = flat.forward(&y, false);
        prop_assert_eq!(Ok(z.shape().to_vec()), flat.spec().output_shape(y.shape()));
        let mut act = ActivationLayer::new(Activation::Relu);
        let w = act.forward(&z, false);
        prop_assert_eq!(w.shape(), z.shape());
        prop_assert!(w.data().iter().all(|&v| v >= 0.0));
    }

    /// ReLU output is idempotent: relu(relu(x)) == relu(x).
    #[test]
    fn relu_idempotent(vals in prop::collection::vec(-10.0f32..10.0, 12)) {
        let x = Tensor::from_vec(&[3, 4], vals);
        let mut act = ActivationLayer::new(Activation::Relu);
        let once = act.forward(&x, false);
        let twice = act.forward(&once, false);
        prop_assert_eq!(once.data(), twice.data());
    }
}
