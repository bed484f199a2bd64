//! `CarModel`: one implementation covering all six DonkeyCar architectures.

use super::{DonkeyModel, InferredThrottle, InputSpec, ModelConfig, ModelKind};
use crate::data::Batch;
use crate::layers::Layer;
use crate::loss::{bin_value, one_hot, softmax_rows, unbin_value, Loss};
use crate::optim::Optimizer;
use crate::sequential::Sequential;
use crate::tensor::Tensor;
use autolearn_analyze::contract::FrameLayout;
use autolearn_analyze::graph::{format_errors, validate_model, LayerSpec, ModelSpec};
use autolearn_util::rng::derive_rng;
use serde::{Deserialize, Serialize};

/// Concatenate two `[B, a]` / `[B, b]` tensors into `[B, a+b]`.
fn concat_cols(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.dim0(), b.dim0());
    let (batch, wa, wb) = (a.dim0(), a.example_len(), b.example_len());
    let mut out = Vec::with_capacity(batch * (wa + wb));
    for i in 0..batch {
        out.extend_from_slice(a.example(i));
        out.extend_from_slice(b.example(i));
    }
    Tensor::from_vec(&[batch, wa + wb], out)
}

/// Split the gradient of a column-concat back into the two halves.
fn split_cols(g: &Tensor, wa: usize) -> (Tensor, Tensor) {
    let batch = g.dim0();
    let w = g.example_len();
    let wb = w - wa;
    let mut ga = Vec::with_capacity(batch * wa);
    let mut gb = Vec::with_capacity(batch * wb);
    for i in 0..batch {
        let row = g.example(i);
        ga.extend_from_slice(&row[..wa]);
        gb.extend_from_slice(&row[wa..]);
    }
    (
        Tensor::from_vec(&[batch, wa], ga),
        Tensor::from_vec(&[batch, wb], gb),
    )
}

/// One of the six DonkeyCar models. Construct with [`CarModel::build`].
pub struct CarModel {
    kind: ModelKind,
    cfg: ModelConfig,
    /// Image (or image-sequence) feature extractor → `[B, feat_dim]`.
    trunk: Sequential,
    /// Memory model only: dense stack applied after concatenating the
    /// control history onto the trunk features.
    merge: Option<Sequential>,
    head_s: Sequential,
    head_t: Option<Sequential>,
    feat_dim: usize,
    pub inferred_throttle: InferredThrottle,
}

impl CarModel {
    /// Build a model of `kind` with the given config by instantiating its
    /// [`CarModel::plan`] — the plan is the only description of each zoo
    /// architecture. One weight stream (derived from `cfg.seed` and the
    /// kind) initialises the chains in plan order: trunk, merge, heads.
    ///
    /// # Panics
    ///
    /// On a 3D model with `seq_len < 3`, and on any config whose plan
    /// [`autolearn_analyze::validate_model`] rejects (e.g. a camera frame
    /// too small for the conv stack); the message lists the validator's
    /// errors. Vet untrusted configs with `validate_model(&CarModel::plan(..))`.
    pub fn build(kind: ModelKind, cfg: &ModelConfig) -> CarModel {
        assert!(
            kind != ModelKind::ThreeD || cfg.seq_len >= 3,
            "3D model needs seq_len >= 3"
        );
        let plan = CarModel::plan(kind, cfg);
        if let Err(errs) = validate_model(&plan) {
            // INVARIANT: documented panic above; `Pipeline::preflight`
            // validates this same plan before the pipeline builds a model.
            panic!("cannot build the {kind} model:\n{}", format_errors(&errs));
        }
        let mut rng = derive_rng(cfg.seed, kind.name());
        let trunk = Sequential::from_specs(&plan.layers, &mut rng, cfg.seed ^ 0xd0);
        let merge = (!plan.merge.is_empty())
            .then(|| Sequential::from_specs(&plan.merge, &mut rng, cfg.seed ^ 0xd1));
        let mut heads = plan
            .heads
            .iter()
            .map(|(_, layers)| Sequential::from_specs(layers, &mut rng, cfg.seed ^ 0xd2));
        // The validated plan has a steering head; only Inferred lacks a
        // throttle head.
        let head_s = heads.next().unwrap_or_default();
        let head_t = heads.next();

        CarModel {
            kind,
            cfg: cfg.clone(),
            trunk,
            merge,
            head_s,
            head_t,
            feat_dim: plan.declared_feature_dim.unwrap_or(0),
            inferred_throttle: InferredThrottle::default(),
        }
    }

    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The *live* layers as a spec, on the input shape the current config
    /// plans: what the trainer validates before the first step and what
    /// the FLOP count walks.
    fn live_spec(&self) -> ModelSpec {
        let mut heads = vec![("steering".to_string(), chain_layers(&self.head_s))];
        if let Some(t) = &self.head_t {
            heads.push(("throttle".to_string(), chain_layers(t)));
        }
        ModelSpec {
            layers: chain_layers(&self.trunk),
            merge: self.merge.as_ref().map(chain_layers).unwrap_or_default(),
            heads,
            ..CarModel::plan(self.kind, &self.cfg)
        }
    }

    /// Total bytes of reusable kernel scratch (im2col buffers, activation
    /// caches, LSTM step state) currently held across trunk, merge and
    /// heads. Constant across steady-state training steps — the trainer
    /// test pins that no per-step reallocation happens.
    pub fn scratch_bytes(&self) -> usize {
        self.trunk.scratch_bytes()
            + self.merge.as_ref().map_or(0, |m| m.scratch_bytes())
            + self.head_s.scratch_bytes()
            + self.head_t.as_ref().map_or(0, |t| t.scratch_bytes())
    }

    /// Forward pass to the shared feature vector, handling the Memory
    /// concat. Returns features `[B, feat]`.
    fn features(&mut self, inputs: &[Tensor], train: bool) -> Tensor {
        let img = &inputs[0];
        // The RNN wants [B, T, C, H, W]; ThreeD wants [B, C, T, H, W].
        // Sequence datasets provide [B, T, C, H, W]; transpose for ThreeD.
        // Other kinds feed the input straight through — no copy.
        let feat = if self.kind == ModelKind::ThreeD {
            let img = transpose_time_channel(img);
            self.trunk.forward(&img, train)
        } else {
            self.trunk.forward(img, train)
        };
        match (&mut self.merge, inputs.get(1)) {
            (Some(merge), Some(hist)) => {
                let joined = concat_cols(&feat, hist);
                merge.forward(&joined, train)
            }
            // INVARIANT: prepare_dataset adds the history input for
            // InputSpec::FramesWithHistory; only a caller bypassing it hits this.
            (Some(_), None) => panic!("Memory model requires a history input"),
            _ => feat,
        }
    }

    /// Backward from a feature-gradient through merge + trunk. Nothing
    /// reads the gradient with respect to the input frames, so the trunk
    /// runs `backward_params` and its first layer skips computing it.
    fn backward_features(&mut self, d_feat: &Tensor) {
        let d_trunk_out = match &mut self.merge {
            Some(merge) => {
                let d_joined = merge.backward(d_feat);
                let (d_img_feat, _d_hist) = split_cols(&d_joined, self.feat_dim);
                d_img_feat
            }
            None => d_feat.clone(),
        };
        self.trunk.backward_params(&d_trunk_out);
    }

    fn all_params(&mut self) -> Vec<&mut crate::layers::Param> {
        let mut ps = self.trunk.params_mut();
        if let Some(m) = &mut self.merge {
            ps.extend(m.params_mut());
        }
        ps.extend(self.head_s.params_mut());
        if let Some(t) = &mut self.head_t {
            ps.extend(t.params_mut());
        }
        ps
    }

    /// Encode regression targets `[B, 1]`.
    fn regression_targets(values: &[f32]) -> Tensor {
        Tensor::from_vec(&[values.len(), 1], values.to_vec())
    }

    fn forward_loss(&mut self, batch: &Batch, train: bool) -> (f32, Option<(Tensor, Tensor)>) {
        let feat = self.features(&batch.inputs, train);
        let s_out = self.head_s.forward(&feat, train);
        let t_out = self.head_t.as_mut().map(|h| h.forward(&feat, train));

        match self.kind {
            ModelKind::Categorical => {
                let s_target = one_hot(
                    &batch
                        .steering
                        .iter()
                        .map(|&v| bin_value(v, -1.0, 1.0, self.cfg.steering_bins))
                        .collect::<Vec<_>>(),
                    self.cfg.steering_bins,
                );
                let t_target = one_hot(
                    &batch
                        .throttle
                        .iter()
                        .map(|&v| bin_value(v, 0.0, 1.0, self.cfg.throttle_bins))
                        .collect::<Vec<_>>(),
                    self.cfg.throttle_bins,
                );
                let (ls, gs) = Loss::SoftmaxCrossEntropy.compute(&s_out, &s_target);
                let (lt, gt) =
                    Loss::SoftmaxCrossEntropy.compute(t_out.as_ref().unwrap(), &t_target);
                (ls + lt, Some((gs, gt)))
            }
            ModelKind::Inferred => {
                let s_target = Self::regression_targets(&batch.steering);
                let (ls, gs) = Loss::Mse.compute(&s_out, &s_target);
                (ls, Some((gs, Tensor::zeros(&[batch.len(), 1]))))
            }
            _ => {
                let s_target = Self::regression_targets(&batch.steering);
                let t_target = Self::regression_targets(&batch.throttle);
                let (ls, gs) = Loss::Mse.compute(&s_out, &s_target);
                let (lt, gt) = Loss::Mse.compute(t_out.as_ref().unwrap(), &t_target);
                (ls + lt, Some((gs, gt)))
            }
        }
    }

    /// Where the camera frame lives in this kind's input tensor — the
    /// static-contract counterpart of the input shape [`CarModel::plan`]
    /// declares.
    pub fn frame_layout(kind: ModelKind) -> FrameLayout {
        match kind {
            ModelKind::Rnn => FrameLayout::Btchw,
            ModelKind::ThreeD => FrameLayout::Bcthw,
            _ => FrameLayout::Bchw,
        }
    }

    /// Symbolic architecture plan for `kind`/`cfg`, built without
    /// allocating a single tensor. This is the zoo's single description of
    /// each architecture: [`CarModel::build`] validates it and instantiates
    /// its chains. Feed it to [`autolearn_analyze::validate_model`] to vet
    /// a config (e.g. a degenerate camera geometry) before paying for
    /// `build`.
    pub fn plan(kind: ModelKind, cfg: &ModelConfig) -> ModelSpec {
        let (c, h, w) = (cfg.channels, cfg.height, cfg.width);
        let act = |kind: &str| LayerSpec::Activation {
            kind: kind.to_string(),
        };
        let dense = |input, output| LayerSpec::Dense { input, output };
        let dropout = || LayerSpec::Dropout {
            rate: f64::from(cfg.dropout),
        };
        // Scaled-down DonkeyCar conv stacks: a 5x5 then 3x3 kernels, all
        // stride 2 in space (the 3D stack also spans 2 frames per step).
        let conv2d = |in_channels, filters, kernel| LayerSpec::Conv2D {
            in_channels,
            filters,
            kernel,
            stride: 2,
        };
        let conv3d = |in_channels, filters, kernel| LayerSpec::Conv3D {
            in_channels,
            filters,
            kernel_t: 2,
            kernel,
            stride_t: 1,
            stride: 2,
        };
        let conv_stack = || {
            vec![
                conv2d(c, 8, 5),
                act("relu"),
                conv2d(8, 16, 3),
                act("relu"),
                conv2d(16, 32, 3),
                act("relu"),
                LayerSpec::Flatten,
            ]
        };
        // A flattening conv stack topped with a 64-wide relu dense layer
        // sized to its output at `input` — 0 when the geometry is
        // degenerate, so the validator reports the conv error instead of
        // this panicking.
        let with_dense = |mut layers: Vec<LayerSpec>, input: &[usize]| {
            let flat = LayerSpec::Chain(layers.clone())
                .output_shape(input)
                .map_or(0, |s| s[1]);
            layers.extend([dense(flat, 64), act("relu")]);
            layers
        };

        let frame = vec![1, c, h, w];
        let (input, layers, aux_width, merge, feat) = match kind {
            ModelKind::Linear | ModelKind::Categorical | ModelKind::Inferred => {
                let mut layers = with_dense(conv_stack(), &frame);
                layers.push(dropout());
                (frame, layers, None, Vec::new(), 64)
            }
            ModelKind::Memory => {
                let aux = 2 * cfg.history;
                let merge = vec![dense(64 + aux, 64), act("relu"), dropout()];
                let layers = with_dense(conv_stack(), &frame);
                (frame, layers, Some(aux), merge, 64)
            }
            ModelKind::Rnn => {
                let per_frame = LayerSpec::Chain(with_dense(conv_stack(), &frame));
                let layers = vec![
                    LayerSpec::TimeDistributed {
                        inner: Box::new(per_frame),
                    },
                    LayerSpec::Lstm {
                        input: 64,
                        hidden: 32,
                    },
                ];
                (vec![1, cfg.seq_len, c, h, w], layers, None, Vec::new(), 32)
            }
            ModelKind::ThreeD => {
                let input = vec![1, c, cfg.seq_len, h, w];
                let convs = vec![
                    conv3d(c, 8, 5),
                    act("relu"),
                    conv3d(8, 16, 3),
                    act("relu"),
                    LayerSpec::Flatten,
                ];
                let layers = with_dense(convs, &input);
                (input, layers, None, Vec::new(), 64)
            }
        };

        let head = |name: &str, layers| (name.to_string(), layers);
        let heads = match kind {
            ModelKind::Categorical => vec![
                head("steering", vec![dense(feat, cfg.steering_bins)]),
                head("throttle", vec![dense(feat, cfg.throttle_bins)]),
            ],
            ModelKind::Inferred => vec![head("steering", vec![dense(feat, 1), act("tanh")])],
            _ => vec![
                head("steering", vec![dense(feat, 1), act("tanh")]),
                head("throttle", vec![dense(feat, 1), act("sigmoid")]),
            ],
        };

        ModelSpec {
            name: kind.name().to_string(),
            input,
            layers,
            aux_width,
            merge,
            heads,
            declared_params: None,
            declared_feature_dim: Some(feat),
        }
    }
}

/// Unwrap a `Sequential`'s spec into its layer list.
fn chain_layers(s: &Sequential) -> Vec<LayerSpec> {
    match s.spec() {
        LayerSpec::Chain(layers) => layers,
        other => vec![other],
    }
}

/// `[B, T, C, H, W] -> [B, C, T, H, W]` for the Conv3D stack.
fn transpose_time_channel(x: &Tensor) -> Tensor {
    assert_eq!(x.rank(), 5);
    let (b, t, c, h, w) = (
        x.shape()[0],
        x.shape()[1],
        x.shape()[2],
        x.shape()[3],
        x.shape()[4],
    );
    let hw = h * w;
    let mut out = vec![0.0f32; x.len()];
    let xd = x.data();
    for bi in 0..b {
        for ti in 0..t {
            for ci in 0..c {
                let src = ((bi * t + ti) * c + ci) * hw;
                let dst = ((bi * c + ci) * t + ti) * hw;
                out[dst..dst + hw].copy_from_slice(&xd[src..src + hw]);
            }
        }
    }
    Tensor::from_vec(&[b, c, t, h, w], out)
}

impl DonkeyModel for CarModel {
    fn kind(&self) -> ModelKind {
        self.kind
    }

    fn scratch_bytes(&self) -> usize {
        CarModel::scratch_bytes(self)
    }

    fn input_spec(&self) -> InputSpec {
        match self.kind {
            ModelKind::Rnn | ModelKind::ThreeD => InputSpec::Sequence(self.cfg.seq_len),
            ModelKind::Memory => InputSpec::FramesWithHistory(self.cfg.history),
            _ => InputSpec::Frames,
        }
    }

    fn train_batch(&mut self, batch: &Batch, opt: &mut dyn Optimizer) -> f32 {
        let (loss, grads) = self.forward_loss(batch, true);
        let (gs, gt) = grads.expect("training grads");
        let mut d_feat = self.head_s.backward(&gs);
        if let Some(head_t) = &mut self.head_t {
            let d2 = head_t.backward(&gt);
            d_feat.add_scaled(&d2, 1.0);
        }
        self.backward_features(&d_feat);
        let mut params = self.all_params();
        opt.step(&mut params);
        loss
    }

    fn eval_batch(&mut self, batch: &Batch) -> f32 {
        self.forward_loss(batch, false).0
    }

    fn predict(&mut self, inputs: &[Tensor]) -> Vec<(f32, f32)> {
        let feat = self.features(inputs, false);
        let s_out = self.head_s.forward(&feat, false);
        let t_out = self.head_t.as_mut().map(|h| h.forward(&feat, false));
        let n = feat.dim0();

        match self.kind {
            ModelKind::Categorical => {
                let sp = softmax_rows(&s_out);
                let tp = softmax_rows(t_out.as_ref().unwrap());
                let si = sp.argmax_per_example();
                let ti = tp.argmax_per_example();
                (0..n)
                    .map(|i| {
                        (
                            unbin_value(si[i], -1.0, 1.0, self.cfg.steering_bins),
                            unbin_value(ti[i], 0.0, 1.0, self.cfg.throttle_bins),
                        )
                    })
                    .collect()
            }
            ModelKind::Inferred => (0..n)
                .map(|i| {
                    let s = s_out.data()[i].clamp(-1.0, 1.0);
                    (s, self.inferred_throttle.throttle_for(s))
                })
                .collect(),
            _ => {
                let t_out = t_out.unwrap();
                (0..n)
                    .map(|i| {
                        (
                            s_out.data()[i].clamp(-1.0, 1.0),
                            t_out.data()[i].clamp(0.0, 1.0),
                        )
                    })
                    .collect()
            }
        }
    }

    fn flops_per_inference(&self) -> u64 {
        // The live graph was instantiated from a validated plan, so it
        // always propagates; 0 marks a graph the validator rejects.
        self.live_spec().total_flops().unwrap_or(0)
    }

    fn param_count(&mut self) -> usize {
        self.all_params().iter().map(|p| p.value.len()).sum()
    }

    fn state_dict(&mut self) -> Vec<Vec<f32>> {
        self.all_params()
            .iter()
            .map(|p| p.value.data().to_vec())
            .collect()
    }

    fn load_state(&mut self, state: &[Vec<f32>]) {
        let mut params = self.all_params();
        assert_eq!(params.len(), state.len(), "state dict arity mismatch");
        for (p, s) in params.iter_mut().zip(state) {
            assert_eq!(p.value.len(), s.len(), "state dict shape mismatch");
            p.value.data_mut().copy_from_slice(s);
        }
    }

    fn graph_spec(&self) -> Option<ModelSpec> {
        Some(self.live_spec())
    }
}

/// Serialisable snapshot of a trained model (what AutoLearn stores in the
/// object store as a "pre-trained model" artifact).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedModel {
    pub kind: ModelKind,
    pub config: ModelConfig,
    pub weights: Vec<Vec<f32>>,
}

impl SavedModel {
    pub fn capture(model: &mut CarModel) -> SavedModel {
        SavedModel {
            kind: model.kind(),
            config: model.config().clone(),
            weights: model.state_dict(),
        }
    }

    pub fn restore(&self) -> CarModel {
        let mut model = CarModel::build(self.kind, &self.config);
        model.load_state(&self.weights);
        model
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serialises")
    }

    pub fn from_json(s: &str) -> Result<SavedModel, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::models::prepare_dataset;
    use crate::optim::Adam;
    use autolearn_util::rng::rng_from_seed;
    use rand::Rng;

    fn small_cfg() -> ModelConfig {
        ModelConfig {
            height: 24,
            width: 32,
            channels: 1,
            seq_len: 3,
            history: 2,
            dropout: 0.0,
            ..Default::default()
        }
    }

    /// A synthetic "track" dataset: images whose mean column brightness
    /// encodes the steering target, so any competent model can fit it.
    fn synthetic_dataset(n: usize, cfg: &ModelConfig) -> Dataset {
        let mut rng = rng_from_seed(99);
        let (c, h, w) = (cfg.channels, cfg.height, cfg.width);
        let mut frames = Vec::with_capacity(n);
        let mut steering = Vec::with_capacity(n);
        let mut throttle = Vec::with_capacity(n);
        for _ in 0..n {
            let s: f32 = rng.gen_range(-1.0..1.0);
            let t: f32 = rng.gen_range(0.2..0.9);
            // Bright vertical band whose position tracks steering.
            let band = (((s + 1.0) / 2.0) * (w as f32 - 1.0)) as usize;
            let mut img = vec![0.1f32; c * h * w];
            for y in 0..h {
                for x in band.saturating_sub(2)..(band + 3).min(w) {
                    img[y * w + x] = 0.9;
                }
            }
            frames.push(Tensor::from_vec(&[c, h, w], img));
            steering.push(s);
            throttle.push(t);
        }
        Dataset::new(Tensor::stack(&frames), steering, throttle)
    }

    fn train_and_eval(kind: ModelKind, epochs: usize) -> (f32, f32) {
        let cfg = small_cfg();
        let mut model = CarModel::build(kind, &cfg);
        let raw = synthetic_dataset(120, &cfg);
        let data = prepare_dataset(&raw, model.input_spec());
        let (train, val) = data.split(0.8, 7);
        let mut opt = Adam::new(1e-3);

        let first: f32 = val
            .batches(16, false, 0)
            .iter()
            .map(|b| model.eval_batch(b))
            .sum::<f32>();
        for e in 0..epochs {
            for b in train.batches(16, true, e as u64) {
                model.train_batch(&b, &mut opt);
            }
        }
        let last: f32 = val
            .batches(16, false, 0)
            .iter()
            .map(|b| model.eval_batch(b))
            .sum::<f32>();
        (first, last)
    }

    #[test]
    fn linear_model_learns() {
        let (first, last) = train_and_eval(ModelKind::Linear, 8);
        assert!(last < first * 0.7, "val loss {first} -> {last}");
    }

    #[test]
    fn categorical_model_learns() {
        // CE over 15+20 bins starts near ln(15)+ln(20); the steering head is
        // learnable while throttle targets are random, so expect a solid but
        // partial drop.
        let (first, last) = train_and_eval(ModelKind::Categorical, 15);
        assert!(last < first * 0.9, "val loss {first} -> {last}");
    }

    #[test]
    fn inferred_model_learns() {
        let (first, last) = train_and_eval(ModelKind::Inferred, 8);
        assert!(last < first * 0.7, "val loss {first} -> {last}");
    }

    #[test]
    fn memory_model_learns() {
        let (first, last) = train_and_eval(ModelKind::Memory, 8);
        assert!(last < first * 0.7, "val loss {first} -> {last}");
    }

    #[test]
    fn rnn_model_learns() {
        let (first, last) = train_and_eval(ModelKind::Rnn, 6);
        assert!(last < first, "val loss {first} -> {last}");
    }

    #[test]
    fn threed_model_learns() {
        let (first, last) = train_and_eval(ModelKind::ThreeD, 6);
        assert!(last < first, "val loss {first} -> {last}");
    }

    #[test]
    fn predictions_in_range_for_all_kinds() {
        let cfg = small_cfg();
        for kind in ModelKind::all() {
            let mut model = CarModel::build(kind, &cfg);
            let raw = synthetic_dataset(10, &cfg);
            let data = prepare_dataset(&raw, model.input_spec());
            let batch = &data.batches(4, false, 0)[0];
            let preds = model.predict(&batch.inputs);
            assert_eq!(preds.len(), 4);
            for (s, t) in preds {
                assert!((-1.0..=1.0).contains(&s), "{kind}: steering {s}");
                assert!((0.0..=1.0).contains(&t), "{kind}: throttle {t}");
            }
        }
    }

    #[test]
    fn inferred_derives_throttle_from_steering() {
        let cfg = small_cfg();
        let mut model = CarModel::build(ModelKind::Inferred, &cfg);
        let raw = synthetic_dataset(4, &cfg);
        let batch = &raw.batches(4, false, 0)[0];
        let preds = model.predict(&batch.inputs);
        for (s, t) in preds {
            assert!((t - model.inferred_throttle.throttle_for(s)).abs() < 1e-6);
        }
    }

    #[test]
    fn save_restore_preserves_predictions() {
        let cfg = small_cfg();
        let mut model = CarModel::build(ModelKind::Linear, &cfg);
        let raw = synthetic_dataset(4, &cfg);
        let batch = &raw.batches(4, false, 0)[0];
        let before = model.predict(&batch.inputs);

        let saved = SavedModel::capture(&mut model);
        let json = saved.to_json();
        let mut restored = SavedModel::from_json(&json).unwrap().restore();
        let after = restored.predict(&batch.inputs);
        for ((s1, t1), (s2, t2)) in before.iter().zip(&after) {
            assert!((s1 - s2).abs() < 1e-6);
            assert!((t1 - t2).abs() < 1e-6);
        }
    }

    #[test]
    fn save_restore_all_six_kinds() {
        let cfg = small_cfg();
        let raw = synthetic_dataset(8, &cfg);
        for kind in ModelKind::all() {
            let mut model = CarModel::build(kind, &cfg);
            let data = prepare_dataset(&raw, model.input_spec());
            let batch = &data.batches(4, false, 0)[0];
            let before = model.predict(&batch.inputs);
            let mut restored = SavedModel::capture(&mut model).restore();
            let after = restored.predict(&batch.inputs);
            for ((s1, t1), (s2, t2)) in before.iter().zip(&after) {
                assert!((s1 - s2).abs() < 1e-6, "{kind}: steering drifted");
                assert!((t1 - t2).abs() < 1e-6, "{kind}: throttle drifted");
            }
        }
    }

    #[test]
    fn load_state_rejects_wrong_shape() {
        let cfg = small_cfg();
        let mut a = CarModel::build(ModelKind::Linear, &cfg);
        let mut b = CarModel::build(ModelKind::Categorical, &cfg);
        let state = a.state_dict();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.load_state(&state);
        }));
        assert!(result.is_err(), "mismatched state dict must be rejected");
    }

    #[test]
    fn flops_ordering_is_sane() {
        // Sequence models cost more than single-frame models.
        let cfg = small_cfg();
        let linear = CarModel::build(ModelKind::Linear, &cfg).flops_per_inference();
        let rnn = CarModel::build(ModelKind::Rnn, &cfg).flops_per_inference();
        let threed = CarModel::build(ModelKind::ThreeD, &cfg).flops_per_inference();
        assert!(rnn > linear, "rnn {rnn} vs linear {linear}");
        assert!(threed > linear, "3d {threed} vs linear {linear}");
        assert!(linear > 10_000, "linear {linear} suspiciously small");
    }

    #[test]
    fn param_counts_positive_and_distinct_heads() {
        let cfg = small_cfg();
        let mut linear = CarModel::build(ModelKind::Linear, &cfg);
        let mut categorical = CarModel::build(ModelKind::Categorical, &cfg);
        // Categorical heads are wider (15+20 outputs vs 1+1).
        assert!(categorical.param_count() > linear.param_count());
    }

    #[test]
    fn concat_split_roundtrip() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(&[2, 1], vec![9., 8.]);
        let j = concat_cols(&a, &b);
        assert_eq!(j.shape(), &[2, 3]);
        assert_eq!(j.data(), &[1., 2., 9., 3., 4., 8.]);
        let (ga, gb) = split_cols(&j, 2);
        assert_eq!(ga.data(), a.data());
        assert_eq!(gb.data(), b.data());
    }

    #[test]
    fn every_kind_plans_a_valid_graph() {
        // The static plan for each zoo kind must survive symbolic shape
        // propagation, and its parameter arithmetic must agree with the
        // live layers `build` instantiates from it.
        let cfg = small_cfg();
        for kind in ModelKind::all() {
            let spec = CarModel::plan(kind, &cfg);
            let report = autolearn_analyze::validate_model(&spec)
                .unwrap_or_else(|e| panic!("{kind:?}: {e:?}"));
            let mut live = CarModel::build(kind, &cfg);
            assert_eq!(
                report.total_params,
                live.param_count() as u64,
                "{kind:?}: plan params != live params"
            );
        }
    }

    #[test]
    fn live_graph_spec_matches_plan() {
        // graph_spec() describes the *built* layers; validating it must
        // succeed, and since build instantiates the plan, describing the
        // live layers gives the plan back.
        let cfg = small_cfg();
        for kind in ModelKind::all() {
            let model = CarModel::build(kind, &cfg);
            let spec = model.graph_spec().expect("zoo models publish a spec");
            let report = autolearn_analyze::validate_model(&spec)
                .unwrap_or_else(|e| panic!("{kind:?}: {e:?}"));
            let planned = CarModel::plan(kind, &cfg);
            assert_eq!(
                Some(report.feature_dim),
                planned.declared_feature_dim,
                "{kind:?}: live feature dim != planned"
            );
            assert_eq!(spec, planned, "{kind:?}: live layers != plan");
        }
    }

    #[test]
    fn degenerate_geometry_is_rejected_before_training() {
        // A 4x4 camera cannot survive three 5x5/3x3 convolutions: the plan
        // must be rejected statically, with no tensor ever allocated.
        let cfg = ModelConfig {
            height: 4,
            width: 4,
            ..small_cfg()
        };
        let errs = autolearn_analyze::validate_model(&CarModel::plan(ModelKind::Linear, &cfg))
            .expect_err("degenerate geometry must not validate");
        assert!(!errs.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot build the linear model")]
    fn build_refuses_degenerate_geometry_with_validator_errors() {
        let cfg = ModelConfig {
            height: 4,
            width: 4,
            ..small_cfg()
        };
        let _ = CarModel::build(ModelKind::Linear, &cfg);
    }

    #[test]
    #[should_panic(expected = "3D model needs seq_len >= 3")]
    fn build_refuses_short_threed_sequences() {
        let cfg = ModelConfig {
            seq_len: 2,
            ..small_cfg()
        };
        let _ = CarModel::build(ModelKind::ThreeD, &cfg);
    }

    /// FNV-1a over every weight's bit pattern (and each tensor's length),
    /// in `state_dict` order.
    fn state_hash(model: &mut CarModel) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for p in model.state_dict() {
            eat(&(p.len() as u64).to_le_bytes());
            for v in p {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }

    #[test]
    fn zoo_is_pinned_at_the_default_config() {
        // Weight init order, parameter and FLOP arithmetic are all frozen:
        // simulated training times and every saved model depend on them.
        let pinned = [
            (ModelKind::Linear, 18_498, 296_042, 0x306b_04f8_d3c6_8ee7),
            (ModelKind::Memory, 23_170, 305_578, 0xe7ff_10d1_eeb7_c603),
            (ModelKind::ThreeD, 52_074, 712_522, 0xb715_43e3_3f87_e79a),
            (
                ModelKind::Categorical,
                20_643,
                300_291,
                0xcd24_b46f_25d4_3e10,
            ),
            (ModelKind::Inferred, 18_433, 295_909, 0x4581_43e4_464d_919a),
            (ModelKind::Rnn, 30_850, 961_962, 0xdb6e_a26e_adc7_2145),
        ];
        let cfg = ModelConfig::default();
        for (kind, params, flops, hash) in pinned {
            let mut model = CarModel::build(kind, &cfg);
            assert_eq!(model.param_count(), params, "{kind}: params");
            assert_eq!(model.flops_per_inference(), flops, "{kind}: flops");
            assert_eq!(
                CarModel::plan(kind, &cfg).total_flops(),
                Ok(flops),
                "{kind}"
            );
            assert_eq!(state_hash(&mut model), hash, "{kind}: weights");
        }
    }

    #[test]
    fn zoo_training_is_pinned_bit_for_bit() {
        // Three Adam steps (dropout on) from a fixed seed must land on
        // exactly these weights: any change to the backward passes, the
        // GEMM summation order or the optimizer shows up here.
        let pinned = [
            (ModelKind::Linear, 0x71a2_df3a_41b1_facd),
            (ModelKind::Memory, 0x0683_3a7f_9bb3_e867),
            (ModelKind::ThreeD, 0x6c40_f094_2699_d2fb),
            (ModelKind::Categorical, 0xf050_e9f2_ac8d_952a),
            (ModelKind::Inferred, 0xecbb_e591_806c_51b7),
            (ModelKind::Rnn, 0x6f18_8500_886a_ae36),
        ];
        let cfg = ModelConfig {
            dropout: 0.1,
            seed: 7,
            ..small_cfg()
        };
        let raw = synthetic_dataset(24, &cfg);
        let trained = pinned.map(|(kind, _)| {
            let mut model = CarModel::build(kind, &cfg);
            let data = prepare_dataset(&raw, model.input_spec());
            let mut opt = Adam::new(1e-3);
            for b in data.batches(8, true, 3) {
                model.train_batch(&b, &mut opt);
            }
            (kind, state_hash(&mut model))
        });
        assert_eq!(trained, pinned, "trained weights differ");
    }

    #[test]
    fn trainer_rejects_shape_broken_model_before_any_step() {
        use crate::train::{TrainConfig, Trainer};

        // Build a live model, then sabotage its config so graph_spec()
        // reports an input the trunk cannot process. fit() must refuse
        // before running a single weight update.
        let cfg = small_cfg();
        let mut model = CarModel::build(ModelKind::Linear, &cfg);
        model.cfg.height = 4;
        model.cfg.width = 4;
        let raw = synthetic_dataset(8, &cfg);
        let data = prepare_dataset(&raw, crate::models::InputSpec::Frames);
        let before = model.param_count();
        let errs = Trainer::new(TrainConfig {
            epochs: 1,
            batch_size: 4,
            ..Default::default()
        })
        .fit(&mut model, &data)
        .expect_err("shape-broken model must be rejected");
        assert!(!errs.is_empty());
        assert_eq!(model.param_count(), before, "no weights touched");
    }

    #[test]
    fn transpose_time_channel_roundtrip() {
        let x = Tensor::from_vec(&[1, 2, 3, 1, 2], (0..12).map(|i| i as f32).collect());
        let y = transpose_time_channel(&x);
        assert_eq!(y.shape(), &[1, 3, 2, 1, 2]);
        // Element (t=0, c=1) of x is at (c=1, t=0) of y.
        // x index ((0*2+0)*3+1)*2 = 2 -> y index ((0*3+1)*2+0)*2 = 4
        assert_eq!(y.data()[4], x.data()[2]);
        // And the full tensor is a permutation: same multiset of values.
        let mut xs: Vec<f32> = x.data().to_vec();
        let mut ys: Vec<f32> = y.data().to_vec();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(xs, ys);
    }
}
