//! A3 (ablation) — mirror augmentation. Students drive the oval in one
//! direction, so the dataset's steering is heavily one-sided; the standard
//! DonkeyCar fix is to mirror every frame and negate its steering.
//!
//! Shape target: the un-augmented model only drives the direction it saw;
//! the augmented model handles both directions.

use autolearn::collect::{collect_session, CollectConfig, CollectionPath};
use autolearn::dataset::{mirror_augment, records_to_dataset};
use autolearn::modelpilot::ModelPilot;
use autolearn_bench::{f, model_config, print_table};
use autolearn_nn::models::{prepare_dataset, CarModel, DonkeyModel, ModelKind, SavedModel};
use autolearn_nn::{TrainConfig, Trainer};
use autolearn_sim::{CameraConfig, CarConfig, DriveConfig, Simulation};
use autolearn_track::paper_oval;
use autolearn_tub::TubStats;

fn main() {
    println!("== A3: mirror augmentation ==\n");
    let track = paper_oval();
    let cfg = model_config(23);

    // One-direction (CCW) training data.
    let records = collect_session(
        &track,
        &CollectConfig::new(CollectionPath::Simulator, 150.0, 23),
    )
    .records;
    let plain_stats = TubStats::compute(&records, 15);
    let augmented = mirror_augment(&records);
    let aug_stats = TubStats::compute(&augmented, 15);
    println!(
        "steering mean: raw {:.3} (one-sided) → augmented {:.3} (symmetric)\n",
        plain_stats.steering_mean, aug_stats.steering_mean
    );

    let train = |recs: &[autolearn_tub::Record]| {
        let mut model = CarModel::build(ModelKind::Linear, &cfg);
        let data = prepare_dataset(&records_to_dataset(recs, &cfg), model.input_spec());
        Trainer::new(TrainConfig {
            epochs: 10,
            seed: 23,
            ..Default::default()
        })
        .fit(&mut model, &data)
        .expect("zoo graph validates");
        SavedModel::capture(&mut model)
    };

    let evaluate = |snapshot: &SavedModel, reverse: bool| {
        let mut sim = Simulation::new(
            track.clone(),
            CarConfig::default(),
            CameraConfig::small(),
            DriveConfig {
                store_images: false,
                ..Default::default()
            },
        );
        if reverse {
            let (pos, heading) = sim.track.start_pose();
            sim.vehicle.reset_to(pos, heading + std::f64::consts::PI);
        }
        let mut pilot = ModelPilot::new(snapshot.restore());
        let s = sim.run(&mut pilot, 45.0);
        (s.autonomy(), s.crashes, s.mean_speed())
    };

    let mut rows = Vec::new();
    for (name, recs) in [
        ("raw (one direction)", &records),
        ("mirror-augmented", &augmented),
    ] {
        let snapshot = train(recs);
        for reverse in [false, true] {
            let (auto, crashes, v) = evaluate(&snapshot, reverse);
            rows.push(vec![
                name.to_string(),
                if reverse {
                    "CW (unseen)"
                } else {
                    "CCW (trained)"
                }
                .to_string(),
                format!("{:.1}%", auto * 100.0),
                crashes.to_string(),
                f(v, 2),
            ]);
        }
    }
    print_table(
        &[
            "training set",
            "direction",
            "autonomy",
            "crashes",
            "v (m/s)",
        ],
        &rows,
    );

    println!("\nshape check: augmentation buys the unseen direction at no cost to");
    println!("the trained one — why the lesson's training notebook enables it.");
}
