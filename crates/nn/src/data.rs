//! Supervised driving datasets.
//!
//! A [`Dataset`] holds one tensor per model input (batch axis first) plus
//! per-example steering/throttle targets. Transforms produce the sequence
//! and control-history variants needed by the RNN/3D and Memory models from
//! a plain frame dataset.

use crate::tensor::Tensor;
use autolearn_util::rng::rng_from_seed;
use rand::seq::SliceRandom;

/// One minibatch: parallel slices of the dataset's inputs and targets.
#[derive(Debug, Clone)]
pub struct Batch {
    pub inputs: Vec<Tensor>,
    pub steering: Vec<f32>,
    pub throttle: Vec<f32>,
}

impl Batch {
    pub fn len(&self) -> usize {
        self.steering.len()
    }

    pub fn is_empty(&self) -> bool {
        self.steering.is_empty()
    }
}

/// A supervised dataset with one or more aligned input tensors.
#[derive(Debug, Clone)]
pub struct Dataset {
    inputs: Vec<Tensor>,
    steering: Vec<f32>,
    throttle: Vec<f32>,
}

impl Dataset {
    /// Build from a single input tensor (e.g. images `[N, C, H, W]`).
    pub fn new(input: Tensor, steering: Vec<f32>, throttle: Vec<f32>) -> Dataset {
        Self::multi(vec![input], steering, throttle)
    }

    /// Build from several aligned input tensors.
    pub fn multi(inputs: Vec<Tensor>, steering: Vec<f32>, throttle: Vec<f32>) -> Dataset {
        assert!(!inputs.is_empty(), "dataset needs at least one input");
        let n = steering.len();
        assert_eq!(n, throttle.len(), "steering/throttle length mismatch");
        for t in &inputs {
            assert_eq!(t.dim0(), n, "input batch dim != target count");
        }
        Dataset {
            inputs,
            steering,
            throttle,
        }
    }

    pub fn len(&self) -> usize {
        self.steering.len()
    }

    pub fn is_empty(&self) -> bool {
        self.steering.is_empty()
    }

    pub fn inputs(&self) -> &[Tensor] {
        &self.inputs
    }

    pub fn steering(&self) -> &[f32] {
        &self.steering
    }

    pub fn throttle(&self) -> &[f32] {
        &self.throttle
    }

    /// Select a subset by example index.
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        Dataset {
            inputs: self.inputs.iter().map(|t| t.gather0(idx)).collect(),
            steering: idx.iter().map(|&i| self.steering[i]).collect(),
            throttle: idx.iter().map(|&i| self.throttle[i]).collect(),
        }
    }

    /// Deterministic shuffled train/validation split.
    pub fn split(&self, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
        let (train, val) = self.split_indices(train_frac, seed);
        (self.subset(&train), self.subset(&val))
    }

    /// The example indices of [`Dataset::split`]'s train and validation
    /// sets, without copying any example. A fraction strictly between 0 and
    /// 1 leaves at least one example on each side of a dataset of two or
    /// more, however the cut rounds; 0.0 and 1.0 put everything on one side.
    pub fn split_indices(&self, train_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        assert!((0.0..=1.0).contains(&train_frac));
        let len = self.len();
        let mut idx: Vec<usize> = (0..len).collect();
        idx.shuffle(&mut rng_from_seed(seed));
        // cast: rounded fraction of a usize length is non-negative and fits.
        let mut cut = (len as f64 * train_frac).round() as usize;
        if train_frac > 0.0 && train_frac < 1.0 && len >= 2 {
            cut = cut.clamp(1, len - 1);
        }
        let val = idx.split_off(cut);
        (idx, val)
    }

    /// Minibatches, optionally shuffled. The final short batch is kept.
    pub fn batches(&self, batch_size: usize, shuffle: bool, seed: u64) -> Vec<Batch> {
        let all: Vec<usize> = (0..self.len()).collect();
        self.batches_of(&all, batch_size, shuffle, seed).collect()
    }

    /// The minibatches [`Dataset::batches`] would give for the dataset
    /// `self.subset(idx)`, each gathered only when the iterator reaches it.
    pub fn batches_of<'a>(
        &'a self,
        idx: &[usize],
        batch_size: usize,
        shuffle: bool,
        seed: u64,
    ) -> impl Iterator<Item = Batch> + 'a {
        assert!(batch_size > 0);
        let mut order = idx.to_vec();
        if shuffle {
            order.shuffle(&mut rng_from_seed(seed));
        }
        let batches = order.len().div_ceil(batch_size);
        (0..batches).map(move |b| {
            let chunk = &order[b * batch_size..order.len().min((b + 1) * batch_size)];
            let sub = self.subset(chunk);
            Batch {
                inputs: sub.inputs,
                steering: sub.steering,
                throttle: sub.throttle,
            }
        })
    }

    /// Convert a frame dataset `[N, C, H, W]` into overlapping sequences
    /// `[N-T+1, T, C, H, W]` for the RNN and 3D models. Targets come from
    /// the *last* frame of each window (predict the current control from
    /// recent history). Assumes temporally-ordered records.
    pub fn to_sequences(&self, t: usize) -> Dataset {
        assert_eq!(self.inputs.len(), 1, "to_sequences expects a frame dataset");
        let frames = &self.inputs[0];
        assert_eq!(frames.rank(), 4, "frames must be [N, C, H, W]");
        assert!(t >= 1 && self.len() >= t, "need at least {t} frames");
        let n_out = self.len() - t + 1;
        let ex = frames.example_len();
        let mut data = Vec::with_capacity(n_out * t * ex);
        for i in 0..n_out {
            for k in 0..t {
                data.extend_from_slice(frames.example(i + k));
            }
        }
        let mut shape = vec![n_out, t];
        shape.extend_from_slice(&frames.shape()[1..]);
        Dataset {
            inputs: vec![Tensor::from_vec(&shape, data)],
            steering: self.steering[t - 1..].to_vec(),
            throttle: self.throttle[t - 1..].to_vec(),
        }
    }

    /// Append a control-history input `[N, 2M]` (the previous M
    /// steering/throttle pairs, zero-padded at the start) for the Memory
    /// model. Assumes temporally-ordered records.
    pub fn with_history(&self, m: usize) -> Dataset {
        assert_eq!(self.inputs.len(), 1, "with_history expects a frame dataset");
        assert!(m >= 1);
        let n = self.len();
        let mut hist = vec![0.0f32; n * 2 * m];
        for i in 0..n {
            for k in 0..m {
                if i > k {
                    let j = i - 1 - k;
                    hist[i * 2 * m + 2 * k] = self.steering[j];
                    hist[i * 2 * m + 2 * k + 1] = self.throttle[j];
                }
            }
        }
        Dataset {
            inputs: vec![self.inputs[0].clone(), Tensor::from_vec(&[n, 2 * m], hist)],
            steering: self.steering.clone(),
            throttle: self.throttle.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let imgs = Tensor::from_vec(&[n, 1, 2, 2], (0..n * 4).map(|i| i as f32).collect());
        let steer: Vec<f32> = (0..n).map(|i| i as f32 / n as f32).collect();
        let throt: Vec<f32> = (0..n).map(|i| 1.0 - i as f32 / n as f32).collect();
        Dataset::new(imgs, steer, throt)
    }

    #[test]
    fn split_partitions_everything() {
        let d = toy(10);
        let (tr, va) = d.split(0.8, 42);
        assert_eq!(tr.len(), 8);
        assert_eq!(va.len(), 2);
        // Together they cover all steering values exactly once.
        let mut all: Vec<f32> = tr.steering().iter().chain(va.steering()).cloned().collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expect: Vec<f32> = d.steering().to_vec();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, expect);
    }

    #[test]
    fn split_deterministic() {
        let d = toy(20);
        let (a, _) = d.split(0.5, 7);
        let (b, _) = d.split(0.5, 7);
        assert_eq!(a.steering(), b.steering());
    }

    #[test]
    fn batches_cover_dataset() {
        let d = toy(10);
        let bs = d.batches(3, true, 1);
        assert_eq!(bs.len(), 4); // 3+3+3+1
        assert_eq!(bs.iter().map(|b| b.len()).sum::<usize>(), 10);
        assert_eq!(bs[0].inputs[0].shape(), &[3, 1, 2, 2]);
        assert_eq!(bs[3].len(), 1);
    }

    #[test]
    fn unshuffled_batches_preserve_order() {
        let d = toy(5);
        let bs = d.batches(2, false, 0);
        assert_eq!(bs[0].steering, &d.steering()[0..2]);
        assert_eq!(bs[2].steering, &d.steering()[4..5]);
    }

    #[test]
    fn indexed_split_and_batches_match_the_copied_ones() {
        let d = toy(23);
        let (train, val) = d.split(0.8, 9);
        let (train_idx, val_idx) = d.split_indices(0.8, 9);
        assert_eq!(train_idx.len() + val_idx.len(), 23);
        for (set, idx) in [(&train, &train_idx), (&val, &val_idx)] {
            for shuffle in [false, true] {
                let copied = set.batches(4, shuffle, 5);
                let indexed: Vec<Batch> = d.batches_of(idx, 4, shuffle, 5).collect();
                assert_eq!(copied.len(), indexed.len());
                for (a, b) in copied.iter().zip(&indexed) {
                    assert_eq!(a.inputs[0].data(), b.inputs[0].data());
                    assert_eq!(a.steering, b.steering);
                    assert_eq!(a.throttle, b.throttle);
                }
            }
        }
        assert_eq!(d.batches_of(&[], 4, true, 0).count(), 0);
    }

    #[test]
    fn sequences_window_correctly() {
        let d = toy(5);
        let seq = d.to_sequences(3);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.inputs()[0].shape(), &[3, 3, 1, 2, 2]);
        // First window = frames 0..3; target = frame 2's controls.
        assert_eq!(seq.steering()[0], d.steering()[2]);
        // Window 0's frames are the first three originals, in order.
        let w0 = seq.inputs()[0].example(0);
        assert_eq!(&w0[0..4], d.inputs()[0].example(0));
        assert_eq!(&w0[8..12], d.inputs()[0].example(2));
    }

    #[test]
    fn history_is_previous_controls() {
        let d = toy(4);
        let h = d.with_history(2);
        assert_eq!(h.inputs().len(), 2);
        let hist = &h.inputs()[1];
        assert_eq!(hist.shape(), &[4, 4]);
        // Example 0 has no history: zeros.
        assert_eq!(hist.example(0), &[0.0, 0.0, 0.0, 0.0]);
        // Example 2's first pair is example 1's controls.
        assert_eq!(hist.example(2)[0], d.steering()[1]);
        assert_eq!(hist.example(2)[1], d.throttle()[1]);
        // ... and second pair is example 0's.
        assert_eq!(hist.example(2)[2], d.steering()[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_misaligned_targets() {
        let imgs = Tensor::zeros(&[3, 1, 2, 2]);
        let _ = Dataset::new(imgs, vec![0.0; 3], vec![0.0; 2]);
    }

    #[test]
    fn batch_larger_than_dataset_is_one_batch() {
        let d = toy(3);
        let bs = d.batches(100, true, 0);
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].len(), 3);
    }

    #[test]
    fn split_extremes() {
        let d = toy(5);
        let (all, none) = d.split(1.0, 0);
        assert_eq!(all.len(), 5);
        assert!(none.is_empty());
        let (nothing, everything) = d.split(0.0, 0);
        assert!(nothing.is_empty());
        assert_eq!(everything.len(), 5);
    }

    #[test]
    fn fractional_split_of_two_keeps_one_example_each_side() {
        let d = toy(2);
        for seed in 0..5 {
            let (train, val) = d.split_indices(0.8, seed);
            assert_eq!((train.len(), val.len()), (1, 1), "seed {seed}");
            assert_ne!(train[0], val[0], "seed {seed}");
        }
        // A small fraction of a small set rounds to 0 and is lifted to 1.
        let (train, val) = toy(4).split_indices(0.1, 3);
        assert_eq!((train.len(), val.len()), (1, 3));
    }

    #[test]
    fn sequence_of_length_one_is_identity_windowing() {
        let d = toy(4);
        let seq = d.to_sequences(1);
        assert_eq!(seq.len(), 4);
        assert_eq!(seq.inputs()[0].shape(), &[4, 1, 1, 2, 2]);
        assert_eq!(seq.steering(), d.steering());
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn sequences_longer_than_dataset_rejected() {
        let d = toy(2);
        let _ = d.to_sequences(5);
    }
}
