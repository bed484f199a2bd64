//! Quickstart: the whole AutoLearn loop in one run.
//!
//! Mirrors a student's first session with the module (Fig. 1): drive the
//! simulated car around the paper's orange-tape oval to collect a tub,
//! clean it, "reserve a Chameleon V100 node" and train a linear model, then
//! let the model drive autonomous evaluation laps.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use autolearn::pipeline::{Pipeline, PipelineConfig};
use autolearn_track::paper_oval;

fn main() {
    let track = paper_oval();
    println!("AutoLearn quickstart on '{}'", track.name());
    println!(
        "  track: centerline {:.1} m, inner line {:.0} in, outer line {:.0} in, width {:.1} in",
        track.length(),
        track.inner_line_length() / autolearn_track::INCH,
        track.outer_line_length() / autolearn_track::INCH,
        track.mean_width() / autolearn_track::INCH,
    );

    let mut config = PipelineConfig::lesson_default(42);
    config.collection.duration_s = 180.0; // three minutes of manual driving
    config.train.epochs = 12;

    println!(
        "\ncollecting {:.0} s of manual driving, training '{}' on a {} node...\n",
        config.collection.duration_s,
        config.model_kind.name(),
        config.gpu.name()
    );
    let report = Pipeline::new(track, config)
        .run()
        .expect("fault-free lesson pipeline runs");

    println!("pipeline stages (simulated wall-clock):");
    for stage in &report.stages {
        println!("  {:<20} {}", stage.stage, stage.duration);
    }
    println!("  {:<20} {}", "TOTAL", report.total_time());

    println!(
        "\ndata: {} records collected, {} after tubclean",
        report.records_collected, report.records_cleaned
    );
    println!(
        "training: {} epochs, best val loss {:.4}{}",
        report.train_report.epochs_ran,
        report.train_report.best_val_loss,
        if report.train_report.stopped_early {
            " (early stop)"
        } else {
            ""
        }
    );
    println!(
        "evaluation: {} laps, autonomy {:.1}%, mean speed {:.2} m/s, {} crashes",
        report.eval_laps,
        report.eval_autonomy * 100.0,
        report.eval_mean_speed,
        report.eval_crashes
    );

    if report.eval_autonomy > 0.9 {
        println!("\nthe model drives! try `--example model_zoo_tour` next.");
    } else {
        println!("\nthe model struggles — a student would collect more data.");
    }
}
