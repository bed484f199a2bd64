//! T1 — §3.3: the six-model zoo, trained on one shared dataset and raced.
//!
//! Shape target: every model trains and drives; the *inferred* model wins
//! the combined speed-with-accuracy score ("we found that the inferred
//! model was best because it gave the car the ability to speed fast, while
//! still being accurate").

use autolearn::pathway::competition_score;
use autolearn_bench::{evaluate_model, f, print_table, simulator_records, train_model};
use autolearn_cloud::hardware::{ComputeDevice, GpuKind};
use autolearn_cloud::perf::{training_time, TrainingCostModel};
use autolearn_nn::models::{DonkeyModel, ModelKind};
use autolearn_track::paper_oval;

fn main() {
    println!("== T1: §3.3 — the six-model zoo ==\n");
    let track = paper_oval();
    let records = simulator_records(&track, 180.0, 5);
    println!("shared dataset: {} records\n", records.len());

    let v100 = ComputeDevice::of_gpu(GpuKind::V100);
    let mut rows = Vec::new();
    let mut scores: Vec<(ModelKind, f64)> = Vec::new();

    for kind in ModelKind::all() {
        let (mut model, report) = train_model(kind, &records, 10, 5);
        let params = model.param_count();
        let flops = model.flops_per_inference();
        let cost = TrainingCostModel::new(flops, report.examples_seen, 32);
        let gpu_time = training_time(&cost, &v100);

        let session = evaluate_model(model, &track, 4, 150.0, 0.0);
        let score = competition_score(
            session.mean_speed(),
            session.autonomy(),
            session.errors_per_lap(),
        );
        scores.push((kind, score));
        rows.push(vec![
            kind.name().to_string(),
            params.to_string(),
            (flops / 1000).to_string(),
            format!("{gpu_time}"),
            f(report.best_val_loss as f64, 4),
            format!("{:.1}%", session.autonomy() * 100.0),
            f(session.mean_speed(), 2),
            f(session.errors_per_lap(), 2),
            f(score, 3),
        ]);
    }
    print_table(
        &[
            "model",
            "params",
            "kflops",
            "V100 train",
            "val loss",
            "autonomy",
            "v (m/s)",
            "err/lap",
            "score",
        ],
        &rows,
    );

    scores.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nranking by competition score:");
    for (i, (kind, score)) in scores.iter().enumerate() {
        println!("  {}. {:<12} {:.3}", i + 1, kind.name(), score);
    }
    println!(
        "\nshape check: paper's students found *inferred* best — reproduction winner: {} {}",
        scores[0].0.name(),
        if scores[0].0 == ModelKind::Inferred {
            "(MATCH)"
        } else {
            "(differs — see EXPERIMENTS.md discussion)"
        }
    );
}
