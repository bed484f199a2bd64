//! T7 — §3.3: dataset size. The paper's sample datasets hold "10-50K
//! records"; this sweep shows why that range: validation loss and driving
//! quality improve steeply at first and saturate.
//!
//! Shape target: monotone-ish improvement with diminishing returns; the
//! knee sits well below the top of the range. (Sizes here are scaled to the
//! reproduction's faster-converging synthetic camera; the *shape* is the
//! claim, as everywhere in this harness.)

use autolearn::collect::sample_dataset;
use autolearn_bench::{evaluate_model, f, print_table, train_model};
use autolearn_nn::models::ModelKind;
use autolearn_track::paper_oval;

fn main() {
    println!("== T7: dataset-size sweep ==\n");
    let track = paper_oval();
    // One big deterministic session, prefixes taken per size.
    let sizes = [250usize, 500, 1000, 2000, 4000, 8000];
    let largest = sizes.iter().copied().max().unwrap_or(0);
    let all = sample_dataset(&track, largest, 9);

    let mut rows = Vec::new();
    let mut last_loss = f32::INFINITY;
    let mut knee = None;
    for &n in &sizes {
        let records = &all[..n];
        let (model, report) = train_model(ModelKind::Linear, records, 10, 9);
        let session = evaluate_model(model, &track, 3, 120.0, 0.0);
        rows.push(vec![
            n.to_string(),
            f(report.best_val_loss as f64, 4),
            format!("{:.1}%", session.autonomy() * 100.0),
            f(session.mean_speed(), 2),
            session.crashes.to_string(),
        ]);
        // Knee: first size where loss improvement over the previous step
        // drops under 20%.
        if knee.is_none() && last_loss.is_finite() {
            let improvement = (last_loss - report.best_val_loss) / last_loss;
            if improvement < 0.2 && improvement > -0.5 {
                knee = Some(n);
            }
        }
        last_loss = report.best_val_loss;
    }
    print_table(
        &["records", "val loss", "autonomy", "v (m/s)", "crashes"],
        &rows,
    );

    match knee {
        Some(n) => println!(
            "\nshape check: diminishing returns from ~{n} records on — the paper's\n\
             10-50k guidance is the same knee at DonkeyCar's 160x120 resolution."
        ),
        None => println!("\nshape check: loss still improving at the largest size tested."),
    }
}
