//! `train_zoo`: `Trainer::fit` in rotation over the six zoo kinds on one
//! fixed 40×30 simulator dataset collected during set-up. The numeric
//! core does nearly all the timed work and the camera none.

use crate::census::{self, probe_predict, tally_fit, timed_fit};
use crate::outcome::{median, ms, Ctx, Outcome};
use autolearn::{collect_session, records_to_dataset, CollectConfig, CollectionPath};
use autolearn_nn::models::{prepare_dataset, CarModel, DonkeyModel, ModelConfig, ModelKind};
use autolearn_nn::{Dataset, TrainConfig, TrainReport, Trainer};
use autolearn_sim::CameraConfig;
use autolearn_track::circle_track;
use std::time::Instant;

/// Simulated seconds of driving collected in set-up (20 frames a second).
pub const COLLECT_S: f64 = 10.0;
/// Epochs per fit; early stopping is off so every fit does the same work.
pub const EPOCHS: usize = 3;

fn model_config(seed: u64) -> ModelConfig {
    ModelConfig {
        height: 30,
        width: 40,
        channels: 1,
        seed,
        ..Default::default()
    }
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        batch_size: 32,
        patience: None,
        seed,
        ..Default::default()
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (datasets, setup) = ctx.setups(|ctx, _| {
        let seed = ctx.unit_seed("train_zoo-data", 0);
        let cfg = CollectConfig::new(CollectionPath::Simulator, COLLECT_S, seed);
        let records = collect_session(&circle_track(3.0, 0.8), &cfg).records;
        let frames = records_to_dataset(&records, &model_config(seed));
        ModelKind::all()
            .into_iter()
            .map(|kind| {
                let spec = CarModel::build(kind, &model_config(seed)).input_spec();
                (kind, prepare_dataset(&frames, spec), frames.clone())
            })
            .collect::<Vec<(ModelKind, Dataset, Dataset)>>()
    });
    out.setup = setup;
    if ctx.traced() {
        census::census(ctx, &CameraConfig::small());
    }

    let mut budget = ctx.budget(1);
    let mut val_loss = Vec::new();
    while budget.more() {
        let r = budget.units();
        let t_rot = Instant::now();
        let seed = ctx.unit_seed("train_zoo", r);
        let mut line = format!("rotation[{r}] seed={seed}");
        let (mut fit_ms, mut examples) = (Vec::new(), 0u64);
        for (kind, data, frames) in &datasets {
            let trainer = Trainer::new(train_config(seed));
            let mut model = CarModel::build(*kind, &model_config(seed));
            let t0 = Instant::now();
            let report = trainer.fit(&mut model, data);
            let wall_ms = ms(t0);
            let report = match report {
                Ok(rep) => rep,
                Err(errs) => {
                    out.unit(vec![("train_zoo.fit", false, format!("{kind}: {errs:?}"))]);
                    continue;
                }
            };
            fit_ms.push(wall_ms);
            examples += report.examples_seen;
            val_loss.push(f64::from(report.best_val_loss));
            line.push_str(&format!(
                " {kind}:examples_seen={},epochs={},best_val_loss_bits={:08x}",
                report.examples_seen,
                report.epochs_ran,
                report.best_val_loss.to_bits()
            ));
            let mut checks = loss_checks(*kind, &report);
            if ctx.traced() {
                // The same fit again, traced, for the overhead pair and the
                // per-batch spans.
                let mut twin = CarModel::build(*kind, &model_config(seed));
                let t1 = Instant::now();
                let traced = timed_fit(ctx, &trainer, &mut twin, data, None);
                out.overhead_pairs.push((wall_ms, ms(t1)));
                checks.push((
                    "train_zoo.traced_fit_matches",
                    traced.history.len() == report.history.len()
                        && traced.best_val_loss.to_bits() == report.best_val_loss.to_bits(),
                    format!(
                        "{kind}: best val loss {} traced vs {}",
                        traced.best_val_loss, report.best_val_loss
                    ),
                ));
                let inputs = census::dataset_frames(frames, 4);
                if data.inputs().len() == 1 && data.inputs()[0].shape().len() == 4 {
                    probe_predict(ctx, &mut twin, &inputs);
                }
            } else {
                tally_fit(ctx, &report);
            }
            out.unit(checks);
        }
        out.counts.push(line);
        let fit_s = fit_ms.iter().sum::<f64>() / 1e3;
        out.measured(fit_s, examples as f64, &fit_ms);
        budget.done(t_rot.elapsed().as_secs_f64());
    }

    let examples: f64 = out.per_unit(|u| u.items).iter().sum();
    let fit_s: f64 = out.per_unit(|u| u.wall_s).iter().sum();
    out.reference_ms = budget.reference_ms();
    out.report = vec![
        (
            "train_samples_per_s",
            examples / fit_s.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        ("best_val_loss", median(&val_loss), "mse"),
        ("fits", out.per_unit(|u| u.ops as f64).iter().sum(), "count"),
        (
            "failed_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    out
}

/// Losses are finite, and the last epoch trains better than the first.
fn loss_checks(kind: ModelKind, report: &TrainReport) -> Vec<(&'static str, bool, String)> {
    let finite = report
        .history
        .iter()
        .all(|e| e.train_loss.is_finite() && e.val_loss.is_finite());
    let (first, last) = match (report.history.first(), report.history.last()) {
        (Some(f), Some(l)) => (f.train_loss, l.train_loss),
        _ => (f32::NAN, f32::NAN),
    };
    vec![
        (
            "train_zoo.losses_finite",
            finite,
            format!("{kind}: {} epochs", report.history.len()),
        ),
        (
            "train_zoo.loss_falls",
            last < first,
            format!("{kind}: train loss {first} at epoch 0 -> {last} at the last epoch"),
        ),
    ]
}
