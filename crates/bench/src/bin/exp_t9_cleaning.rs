//! T9 — §3.3: tubclean's impact. "Learners will likely generate some bad
//! data consisting of mistakes (i.e., crashes or images that are off-side)
//! while driving; this data need to be deleted for the training set to
//! represent a valid scenario."
//!
//! Shape target: training on the cleaned tub beats training on the dirty
//! tub (lower validation loss and/or better autonomous driving), on data
//! from a sloppy driver.

use autolearn::collect::{collect_session, CollectConfig, CollectionPath};
use autolearn_bench::{evaluate_model, f, print_table, train_model};
use autolearn_nn::models::ModelKind;
use autolearn_track::paper_oval;
use autolearn_tub::{CleanConfig, TubCleaner};

fn main() {
    println!("== T9: tubclean impact ==\n");
    let track = paper_oval();

    // A sloppy student's session: mistakes and excursions included.
    let collected = collect_session(
        &track,
        &CollectConfig::new(CollectionPath::PhysicalCar, 240.0, 13),
    );
    let dirty = collected.records;
    let cleaner = TubCleaner::new(CleanConfig::default());
    let report = cleaner.analyse(&dirty);
    let flagged = report.flagged_ids();
    let cleaned: Vec<_> = dirty
        .iter()
        .filter(|r| !flagged.contains(&r.id))
        .cloned()
        .collect();

    println!(
        "session: {} records, {} flagged by tubclean ({} crash, {} off-track, {} near-incident, {} bad-image)\n",
        dirty.len(),
        report.count(),
        report.count_reason(autolearn_tub::clean::CleanReason::Crash),
        report.count_reason(autolearn_tub::clean::CleanReason::OffTrack),
        report.count_reason(autolearn_tub::clean::CleanReason::NearIncident),
        report.count_reason(autolearn_tub::clean::CleanReason::BadImage),
    );

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (name, records) in [("dirty", &dirty), ("cleaned", &cleaned)] {
        let (model, train) = train_model(ModelKind::Linear, records, 10, 13);
        let session = evaluate_model(model, &track, 3, 150.0, 0.0);
        results.push((name, train.best_val_loss, session.autonomy()));
        rows.push(vec![
            name.to_string(),
            records.len().to_string(),
            f(train.best_val_loss as f64, 4),
            format!("{:.1}%", session.autonomy() * 100.0),
            f(session.mean_speed(), 2),
            session.crashes.to_string(),
        ]);
    }
    print_table(
        &[
            "training set",
            "records",
            "val loss",
            "autonomy",
            "v (m/s)",
            "crashes",
        ],
        &rows,
    );

    let better = results[1].2 >= results[0].2 || results[1].1 <= results[0].1;
    println!(
        "\nshape check: cleaned training set {} the dirty one",
        if better {
            "matches or beats"
        } else {
            "UNEXPECTEDLY trails"
        }
    );
}
