//! The data pipeline: tub write/read, cleaning, record→tensor conversion,
//! and a full training step of the linear model.

use autolearn::dataset::records_to_dataset;
use autolearn_bench::{model_config, simulator_records};
use autolearn_nn::models::{prepare_dataset, CarModel, DonkeyModel, ModelKind};
use autolearn_nn::Adam;
use autolearn_track::circle_track;
use autolearn_tub::{CleanConfig, Record, Tub, TubCleaner};
use autolearn_util::Image;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn records(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            Record::new(
                i as u64,
                0.1,
                0.5,
                i as u64 * 50,
                Image::new(40, 30, 1),
            )
        })
        .collect()
}

fn bench_tub_io(c: &mut Criterion) {
    // The criterion shim has no `iter_with_setup`, so each iteration also
    // creates its fresh tub directory and records; the 100 file writes
    // dominate.
    c.bench_function("tub_write_100_records", |bench| {
        bench.iter(|| {
            let dir = std::env::temp_dir().join(format!(
                "autolearn-bench-{}-{}",
                std::process::id(),
                rand::random::<u64>()
            ));
            let mut tub = Tub::create(&dir).unwrap();
            for r in records(100) {
                tub.write_record(r).unwrap();
            }
            drop(tub);
            let _ = std::fs::remove_dir_all(dir);
        })
    });
}

fn bench_cleaning(c: &mut Criterion) {
    let mut recs = records(2000);
    for i in (100..2000).step_by(250) {
        recs[i].crashed = true;
    }
    let cleaner = TubCleaner::new(CleanConfig::default());
    c.bench_function("tubclean_analyse_2000", |bench| {
        bench.iter(|| black_box(cleaner.analyse(&recs)))
    });
}

fn bench_dataset_conversion(c: &mut Criterion) {
    let track = circle_track(3.0, 0.8);
    let recs = simulator_records(&track, 20.0, 1);
    let cfg = model_config(1);
    c.bench_function("records_to_dataset_400", |bench| {
        bench.iter(|| black_box(records_to_dataset(&recs, &cfg)))
    });
}

fn bench_train_step(c: &mut Criterion) {
    let track = circle_track(3.0, 0.8);
    let recs = simulator_records(&track, 20.0, 2);
    let cfg = model_config(2);
    let mut model = CarModel::build(ModelKind::Linear, &cfg);
    let data = prepare_dataset(&records_to_dataset(&recs, &cfg), model.input_spec());
    let batch = &data.batches(32, false, 0)[0];
    let mut opt = Adam::new(1e-3);
    c.bench_function("linear_train_batch32", |bench| {
        bench.iter(|| black_box(model.train_batch(batch, &mut opt)))
    });
    c.bench_function("linear_predict_batch32", |bench| {
        bench.iter(|| black_box(model.predict(&batch.inputs)))
    });
}

criterion_group!(
    benches,
    bench_tub_io,
    bench_cleaning,
    bench_dataset_conversion,
    bench_train_step
);
criterion_main!(benches);
