//! F1 — Fig. 1: the AutoLearn module pipeline (artifacts, computation,
//! extensions) executed end to end, with per-stage accounting.
//!
//! Shape target: all three component groups exercised; a complete lesson is
//! dominated by provisioning, not training, and produces a driving model.

use autolearn::pathway::{Component, LearningPathway};
use autolearn::pipeline::{Pipeline, PipelineConfig};
use autolearn_bench::{f, print_table};
use autolearn_track::paper_oval;

fn main() {
    println!("== F1: Fig. 1 — module pipeline walkthrough ==\n");

    // The three component groups of Fig. 1 across pathways.
    let mut rows = Vec::new();
    for p in LearningPathway::all() {
        let stages = p.stages();
        let count = |c: Component| stages.iter().filter(|s| s.component == c).count();
        rows.push(vec![
            p.name().to_string(),
            count(Component::Artifacts).to_string(),
            count(Component::Computation).to_string(),
            count(Component::Extensions).to_string(),
            p.requires_car().to_string(),
        ]);
    }
    print_table(
        &[
            "pathway",
            "artifacts",
            "computation",
            "extensions",
            "needs car",
        ],
        &rows,
    );

    // Execute the computation pipeline.
    println!("\nrunning the full computation pipeline (simulator path, linear model):\n");
    let mut config = PipelineConfig::lesson_default(42);
    config.collection.duration_s = 120.0;
    config.train.epochs = 10;
    let report = Pipeline::new(paper_oval(), config)
        .run()
        .expect("fault-free lesson pipeline runs");

    let rows: Vec<Vec<String>> = report
        .stages
        .iter()
        .map(|s| vec![s.stage.clone(), format!("{}", s.duration)])
        .collect();
    print_table(&["stage", "sim wall-clock"], &rows);
    println!("  total: {}", report.total_time());

    print_table(
        &["metric", "value"],
        &[
            vec![
                "records collected".into(),
                report.records_collected.to_string(),
            ],
            vec![
                "records after clean".into(),
                report.records_cleaned.to_string(),
            ],
            vec!["epochs".into(), report.train_report.epochs_ran.to_string()],
            vec![
                "best val loss".into(),
                f(report.train_report.best_val_loss as f64, 4),
            ],
            vec!["eval laps".into(), report.eval_laps.to_string()],
            vec![
                "eval autonomy".into(),
                format!("{:.1}%", report.eval_autonomy * 100.0),
            ],
            vec![
                "eval mean speed".into(),
                format!("{:.2} m/s", report.eval_mean_speed),
            ],
        ],
    );

    let (Some(provision), Some(train)) = (report.stage("provision+upload"), report.stage("train"))
    else {
        eprintln!("report is missing the provision/train stages; skipping shape check");
        return;
    };
    println!(
        "\nshape check: provisioning ({provision}) {} training ({train}) — {}",
        if provision.as_secs() > train.as_secs() {
            ">"
        } else {
            "<="
        },
        if provision.as_secs() > train.as_secs() {
            "matches the student experience the paper designs around"
        } else {
            "UNEXPECTED"
        }
    );
}
