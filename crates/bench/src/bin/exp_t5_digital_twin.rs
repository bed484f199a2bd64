//! T5 — §3.3/§3.4: digital-twin modeling — the same trained model in the
//! clean simulator and on the noisy "real" car.
//!
//! Shape targets: a non-zero twin gap (lateral divergence, autonomy drop on
//! the real car); and the *ranking* of models in the simulator carries over
//! to the real car (what makes the twin useful for iteration).

use autolearn::twin::twin_compare;
use autolearn_bench::{f, print_table, simulator_records, train_model};
use autolearn_nn::models::ModelKind;
use autolearn_track::paper_oval;

fn main() {
    println!("== T5: digital twin (simulator vs real car) ==\n");
    let track = paper_oval();
    let records = simulator_records(&track, 150.0, 21);

    let kinds = [
        ModelKind::Linear,
        ModelKind::Inferred,
        ModelKind::Categorical,
    ];
    let mut rows = Vec::new();
    let mut sim_rank = Vec::new();
    let mut real_rank = Vec::new();
    for kind in kinds {
        let (mut model, _) = train_model(kind, &records, 10, 21);
        let twin = twin_compare(&mut model, &track, 60.0, 21);
        sim_rank.push((kind, twin.sim_autonomy * twin.sim_mean_speed));
        real_rank.push((kind, twin.real_autonomy * twin.real_mean_speed));
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.1}%", twin.sim_autonomy * 100.0),
            format!("{:.1}%", twin.real_autonomy * 100.0),
            f(twin.sim_mean_speed, 2),
            f(twin.real_mean_speed, 2),
            format!("{:.1}%", twin.speed_gap() * 100.0),
            f(twin.lateral_divergence_m, 3),
            format!("{}/{}", twin.sim_laps, twin.real_laps),
        ]);
    }
    print_table(
        &[
            "model",
            "sim auto",
            "real auto",
            "sim v",
            "real v",
            "speed gap",
            "divergence (m)",
            "laps s/r",
        ],
        &rows,
    );

    let order = |mut v: Vec<(ModelKind, f64)>| {
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.into_iter().map(|(k, _)| k).collect::<Vec<_>>()
    };
    let so = order(sim_rank);
    let ro = order(real_rank);
    println!(
        "\nsim ranking : {:?}\nreal ranking: {:?}",
        so.iter().map(|k| k.name()).collect::<Vec<_>>(),
        ro.iter().map(|k| k.name()).collect::<Vec<_>>()
    );
    println!(
        "shape check: top model transfers sim→real: {}",
        if so[0] == ro[0] {
            "YES"
        } else {
            "NO (twin gap dominates)"
        }
    );
}
