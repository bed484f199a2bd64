//! Property tests: the symbolic zoo plan matches the real models.
//!
//! For every zoo architecture and randomized viable camera geometry, the
//! static plan ([`CarModel::plan`]) must agree *exactly* with the model
//! [`CarModel::build`] constructs: same input shape, same parameter count
//! (a parameter-count match across random shapes pins every inferred
//! intermediate shape), and a real forward pass on tub-shaped data must
//! succeed. The same plan must also clear the pipeline contract pass
//! ([`validate_pipeline`]) with the matching frame contract — and fail it
//! when the tub geometry disagrees.

use autolearn::dataset::records_to_dataset;
use autolearn_nn::models::{prepare_dataset, CarModel, DonkeyModel, ModelConfig, ModelKind};
use autolearn_nn::{standard_stages, validate_model, validate_pipeline, DType, FrameContract};
use autolearn_tub::Record;
use autolearn_util::Image;
use proptest::prelude::*;

fn model_cfg(c: usize, h: usize, w: usize, seq_len: usize, history: usize) -> ModelConfig {
    ModelConfig {
        channels: c,
        height: h,
        width: w,
        seq_len,
        history,
        ..Default::default()
    }
}

/// The input shape `CarModel::build` actually feeds the trunk, batch 1.
fn expected_input(kind: ModelKind, cfg: &ModelConfig) -> Vec<usize> {
    let (c, h, w, t) = (cfg.channels, cfg.height, cfg.width, cfg.seq_len);
    match kind {
        ModelKind::Rnn => vec![1, t, c, h, w],
        ModelKind::ThreeD => vec![1, c, t, h, w],
        _ => vec![1, c, h, w],
    }
}

fn frames(cfg: &ModelConfig) -> FrameContract {
    FrameContract {
        channels: cfg.channels,
        height: cfg.height,
        width: cfg.width,
        dtype: DType::F32,
    }
}

fn tub_records(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let mut img = Image::new(16, 12, 3);
            img.data.fill((i * 17 % 251) as u8);
            Record::new(
                i as u64,
                ((i % 5) as f32 - 2.0) / 2.0,
                0.5,
                i as u64 * 50,
                img,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Plan-inferred parameters and input shapes match the built model,
    /// and the contract pass accepts the matching frame geometry — for
    /// all six zoo kinds over random viable camera sizes.
    #[test]
    fn plan_matches_built_model_for_all_kinds(
        c in prop::sample::select(vec![1usize, 3]),
        h in 18usize..30,
        w in 18usize..40,
        seq_len in 3usize..6,
        history in 1usize..5,
    ) {
        let cfg = model_cfg(c, h, w, seq_len, history);
        for kind in ModelKind::all() {
            let spec = CarModel::plan(kind, &cfg);
            prop_assert_eq!(&spec.input, &expected_input(kind, &cfg), "{:?}", kind);

            let report = validate_model(&spec)
                .unwrap_or_else(|e| panic!("{kind:?}: plan failed validation: {e:?}"));
            let mut model = CarModel::build(kind, &cfg);
            prop_assert_eq!(
                report.total_params as usize,
                model.param_count(),
                "plan params diverge from built model for {:?} at {}x{}x{}",
                kind, c, h, w
            );

            // The same plan clears the full pipeline contract.
            let contract = validate_pipeline(
                &standard_stages(true),
                &spec,
                CarModel::frame_layout(kind),
                &frames(&cfg),
            )
            .unwrap_or_else(|e| panic!("{kind:?}: contract pass failed: {e:?}"));
            prop_assert_eq!(contract.total_params, report.total_params);
            prop_assert_eq!(contract.feature_dim, report.feature_dim);
        }
    }

    /// A real forward pass over tub-shaped data works for every kind at
    /// the planned shapes, and predictions stay in control range.
    #[test]
    fn forward_pass_agrees_with_plan(
        c in prop::sample::select(vec![1usize, 3]),
        h in 18usize..26,
        w in 18usize..30,
        seq_len in 3usize..5,
    ) {
        let cfg = model_cfg(c, h, w, seq_len, 2);
        let raw = records_to_dataset(&tub_records(12), &cfg);
        for kind in ModelKind::all() {
            let mut model = CarModel::build(kind, &cfg);
            let data = prepare_dataset(&raw, model.input_spec());
            let batches = data.batches(2, false, 0);
            prop_assert!(!batches.is_empty(), "{:?}: no batches", kind);
            let preds = model.predict(&batches[0].inputs);
            prop_assert_eq!(preds.len(), batches[0].len(), "{:?}", kind);
            for (s, t) in preds {
                prop_assert!((-1.0..=1.0).contains(&s), "{:?}: steering {}", kind, s);
                prop_assert!((0.0..=1.0).contains(&t), "{:?}: throttle {}", kind, t);
                prop_assert!(s.is_finite() && t.is_finite(), "{:?}", kind);
            }
        }
    }

    /// The contract pass rejects a tub whose frame geometry disagrees
    /// with the model plan, for every kind.
    #[test]
    fn contract_rejects_mismatched_tub_geometry(
        c in prop::sample::select(vec![1usize, 3]),
        h in 18usize..26,
        w in 18usize..30,
    ) {
        let cfg = model_cfg(c, h, w, 3, 2);
        for kind in ModelKind::all() {
            let spec = CarModel::plan(kind, &cfg);
            let mut wrong = frames(&cfg);
            wrong.width += 1;
            let errs = validate_pipeline(
                &standard_stages(true),
                &spec,
                CarModel::frame_layout(kind),
                &wrong,
            )
            .expect_err("geometry mismatch must be rejected");
            prop_assert!(
                errs.iter().any(|e| e.message.contains("shape mismatch")),
                "{:?}: {:?}", kind, errs
            );
        }
    }
}
