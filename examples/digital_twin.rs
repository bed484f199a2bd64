//! Digital-twin exploration (§3.3/§3.4): the same trained model driving the
//! clean simulator and the noisy "real" car, with the twin gap quantified.
//!
//! ```sh
//! cargo run --release --example digital_twin
//! ```

use autolearn::collect::{collect_session, CollectConfig, CollectionPath};
use autolearn::dataset::records_to_dataset;
use autolearn::twin::twin_compare;
use autolearn_nn::models::{prepare_dataset, CarModel, DonkeyModel, ModelConfig, ModelKind};
use autolearn_nn::{format_errors, TrainConfig, Trainer};
use autolearn_track::paper_oval;

fn main() {
    let track = paper_oval();
    let model_cfg = ModelConfig {
        height: 30,
        width: 40,
        channels: 1,
        seed: 3,
        ..Default::default()
    };

    println!("training two models on simulator data...");
    let collected = collect_session(
        &track,
        &CollectConfig::new(CollectionPath::Simulator, 150.0, 3),
    );
    let raw = records_to_dataset(&collected.records, &model_cfg);

    println!(
        "\n{:<12} {:>12} {:>13} {:>11} {:>12} {:>13}",
        "model", "sim autonomy", "real autonomy", "speed gap", "divergence", "laps sim/real"
    );
    for kind in [ModelKind::Linear, ModelKind::Inferred] {
        let mut model = CarModel::build(kind, &model_cfg);
        let data = prepare_dataset(&raw, model.input_spec());
        let trained = Trainer::new(TrainConfig {
            epochs: 10,
            seed: 3,
            ..Default::default()
        })
        .fit(&mut model, &data);
        if let Err(errs) = trained {
            eprintln!(
                "{kind} model rejected before training:\n{}",
                format_errors(&errs)
            );
            std::process::exit(1);
        }

        let twin = twin_compare(&mut model, &track, 60.0, 3);
        println!(
            "{:<12} {:>11.1}% {:>12.1}% {:>10.1}% {:>10.3} m {:>10}/{}",
            kind.name(),
            twin.sim_autonomy * 100.0,
            twin.real_autonomy * 100.0,
            twin.speed_gap() * 100.0,
            twin.lateral_divergence_m,
            twin.sim_laps,
            twin.real_laps,
        );
    }

    println!("\nthe twin gap (lateral divergence, autonomy drop) is what the");
    println!("paper's digital-twin projects ask students to measure and model.");
}
