//! F2 — Fig. 2: the three data-collection paths (sample dataset, simulator,
//! physical car) feeding the same training pipeline.
//!
//! Shape target: all three produce interoperable tubs; the physical-car
//! path is noisier (higher steering variance, off-track incidents) and the
//! sample path is deterministic.

use autolearn::collect::{collect_session, sample_dataset, CollectConfig, CollectionPath};
use autolearn_bench::{f, print_table};
use autolearn_track::paper_oval;
use autolearn_tub::TubStats;

fn main() {
    println!("== F2: Fig. 2 — three data-collection paths ==\n");
    let track = paper_oval();
    let duration = 120.0;

    let mut rows = Vec::new();
    for path in CollectionPath::all() {
        let records = match path {
            CollectionPath::SampleDataset => sample_dataset(&track, 2400, 42),
            _ => collect_session(&track, &CollectConfig::new(path, duration, 42)).records,
        };
        let stats = TubStats::compute(&records, 15);
        let mean_intensity: f64 = records
            .iter()
            .filter_map(|r| r.image.as_ref())
            .map(|i| i.mean_intensity())
            .sum::<f64>()
            / records.len() as f64;
        rows.push(vec![
            path.name().to_string(),
            stats.records.to_string(),
            f(stats.mean_hz, 1),
            f(stats.steering_std, 3),
            f(stats.straight_fraction(), 2),
            stats.off_track_count.to_string(),
            stats.crash_count.to_string(),
            f(mean_intensity, 1),
        ]);
    }
    print_table(
        &[
            "path",
            "records",
            "hz",
            "steer std",
            "straight frac",
            "off-track",
            "crashes",
            "mean px",
        ],
        &rows,
    );

    println!("\nshape checks:");
    println!("  - all paths record at the drive loop's 20 Hz into the same tub format");
    println!("  - physical-car steering variance exceeds the simulator's (driver+actuator noise)");
    println!("  - sample dataset == a deterministic simulator session (same generator)");
}
