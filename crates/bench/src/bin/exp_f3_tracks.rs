//! F3 — Fig. 3: the paper's orange-tape oval vs the commercial Waveshare
//! track.
//!
//! Shape target: the oval's measured line lengths match the paper's
//! published dimensions (inner 330 in, outer 509 in, width 27.59 in); a
//! model trained per-track completes laps on both, slower on the twistier
//! Waveshare circuit.

use autolearn_bench::{evaluate_model, f, print_table, simulator_records, train_model};
use autolearn_nn::models::ModelKind;
use autolearn_track::{paper_oval, waveshare_track, Track, INCH};

fn main() {
    println!("== F3: Fig. 3 — track comparison ==\n");

    let tracks: Vec<Track> = vec![paper_oval(), waveshare_track()];

    let rows: Vec<Vec<String>> = tracks
        .iter()
        .map(|t| {
            vec![
                t.name().to_string(),
                f(t.length(), 1),
                f(t.inner_line_length() / INCH, 0),
                f(t.outer_line_length() / INCH, 0),
                f(t.mean_width() / INCH, 1),
                f(t.max_abs_curvature(), 2),
            ]
        })
        .collect();
    print_table(
        &[
            "track",
            "centerline (m)",
            "inner (in)",
            "outer (in)",
            "width (in)",
            "max |k| (1/m)",
        ],
        &rows,
    );
    println!("  paper's oval: inner 330 in, outer 509 in, average width 27.59 in\n");

    println!("training a linear model per track and racing it:\n");
    let mut rows = Vec::new();
    for track in &tracks {
        let records = simulator_records(track, 150.0, 7);
        let (model, report) = train_model(ModelKind::Linear, &records, 10, 7);
        let session = evaluate_model(model, track, 3, 150.0, 0.0);
        rows.push(vec![
            track.name().to_string(),
            f(report.best_val_loss as f64, 4),
            session.completed_laps().to_string(),
            f(session.mean_lap_time(), 1),
            format!("{:.1}%", session.autonomy() * 100.0),
            f(session.mean_speed(), 2),
            session.crashes.to_string(),
        ]);
    }
    print_table(
        &[
            "track",
            "val loss",
            "laps",
            "lap time (s)",
            "autonomy",
            "v (m/s)",
            "crashes",
        ],
        &rows,
    );
    println!("\nshape check: the oval's measured tape lengths reproduce the paper's");
    println!("dimensions; the Waveshare chicane costs speed relative to the oval.");
}
