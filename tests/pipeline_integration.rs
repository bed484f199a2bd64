//! Cross-crate integration: the data path from simulated driving through
//! on-disk tub storage, cleaning, training, and autonomous evaluation.

use autolearn::collect::{collect_session, CollectConfig, CollectionPath};
use autolearn::dataset::records_to_dataset;
use autolearn::modelpilot::ModelPilot;
use autolearn_nn::models::{
    prepare_dataset, CarModel, DonkeyModel, ModelConfig, ModelKind, SavedModel,
};
use autolearn_nn::{TrainConfig, Trainer};
use autolearn_sim::{CameraConfig, CarConfig, DriveConfig, Simulation};
use autolearn_track::circle_track;
use autolearn_tub::{CleanConfig, Tub, TubCleaner};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "autolearn-integration-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn model_cfg(seed: u64) -> ModelConfig {
    ModelConfig {
        height: 30,
        width: 40,
        channels: 1,
        seed,
        ..Default::default()
    }
}

#[test]
fn collect_store_clean_train_evaluate_via_disk() {
    let track = circle_track(3.0, 0.8);
    let tmp = TempDir::new("roundtrip");

    // 1. Collect with a sloppy "physical car" driver.
    let collected = collect_session(
        &track,
        &CollectConfig::new(CollectionPath::PhysicalCar, 90.0, 31),
    );
    assert_eq!(collected.records.len(), 1800);

    // 2. Persist to a real on-disk tub (the format of §3.3).
    let tub_dir = tmp.0.join("tub");
    {
        let mut tub = Tub::create(&tub_dir).unwrap();
        tub.metadata_mut()
            .insert("track".into(), track.name().into());
        for r in collected.records {
            tub.write_record(r).unwrap();
        }
        assert_eq!(tub.record_count(), 1800);
        assert_eq!(tub.catalog_count(), 2); // rotated at 1000

        // 3. tubclean marks deletions in the manifest.
        let cleaner = TubCleaner::new(CleanConfig::default());
        let _report = cleaner.clean_tub(&mut tub).unwrap();
    }

    // 4. Reopen from disk, read live records with images.
    let tub = Tub::open(&tub_dir).unwrap();
    let live = tub.read_live().unwrap();
    assert_eq!(live.len(), tub.live_record_count());
    assert!(live.iter().all(|r| r.image.is_some()));
    assert!(live.iter().all(|r| !r.crashed));

    // 5. Train on the cleaned, disk-roundtripped data.
    let cfg = model_cfg(31);
    let mut model = CarModel::build(ModelKind::Linear, &cfg);
    let data = prepare_dataset(&records_to_dataset(&live, &cfg), model.input_spec());
    let report = Trainer::new(TrainConfig {
        epochs: 8,
        seed: 31,
        ..Default::default()
    })
    .fit(&mut model, &data)
    .expect("zoo graph validates");
    assert!(report.best_val_loss.is_finite());

    // 6. The model drives the (clean) car.
    let mut sim = Simulation::new(
        track,
        CarConfig::default(),
        CameraConfig::small(),
        DriveConfig {
            store_images: false,
            ..Default::default()
        },
    );
    let mut pilot = ModelPilot::new(model);
    let session = sim.run(&mut pilot, 30.0);
    assert!(
        session.autonomy() > 0.8,
        "autonomy {} after disk roundtrip",
        session.autonomy()
    );
}

#[test]
fn saved_model_survives_objectstore_roundtrip() {
    use autolearn_cloud::objectstore::ObjectStore;

    let track = circle_track(3.0, 0.8);
    let collected = collect_session(
        &track,
        &CollectConfig::new(CollectionPath::Simulator, 40.0, 33),
    );
    let cfg = model_cfg(33);
    let mut model = CarModel::build(ModelKind::Inferred, &cfg);
    let data = prepare_dataset(
        &records_to_dataset(&collected.records, &cfg),
        model.input_spec(),
    );
    Trainer::new(TrainConfig {
        epochs: 4,
        seed: 33,
        ..Default::default()
    })
    .fit(&mut model, &data)
    .expect("zoo graph validates");

    // PUT the trained model into the object store as JSON (what the module
    // stores as "pre-trained models", §3.5)...
    let saved = SavedModel::capture(&mut model);
    let mut store = ObjectStore::new();
    store.put(
        "models",
        "inferred-circle.json",
        saved.to_json().into_bytes(),
        Default::default(),
    );

    // ... GET it back and check prediction equality.
    let bytes = store.get("models", "inferred-circle.json").unwrap();
    let restored = SavedModel::from_json(std::str::from_utf8(&bytes.data).unwrap()).unwrap();
    let mut m2 = restored.restore();

    let probe = prepare_dataset(
        &records_to_dataset(&collected.records[..8], &cfg),
        model.input_spec(),
    );
    let batch = &probe.batches(8, false, 0)[0];
    assert_eq!(model.predict(&batch.inputs), m2.predict(&batch.inputs));
}

#[test]
fn sequence_model_trains_through_full_path() {
    let track = circle_track(3.0, 0.8);
    let collected = collect_session(
        &track,
        &CollectConfig::new(CollectionPath::Simulator, 50.0, 35),
    );
    let cfg = model_cfg(35);
    let mut model = CarModel::build(ModelKind::Rnn, &cfg);
    let data = prepare_dataset(
        &records_to_dataset(&collected.records, &cfg),
        model.input_spec(),
    );
    // Sequence windows: N - T + 1 examples.
    assert_eq!(data.len(), collected.records.len() - cfg.seq_len + 1);
    let report = Trainer::new(TrainConfig {
        epochs: 3,
        seed: 35,
        ..Default::default()
    })
    .fit(&mut model, &data)
    .expect("zoo graph validates");
    assert!(report.best_val_loss.is_finite());
}
