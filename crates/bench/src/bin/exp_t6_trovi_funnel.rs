//! T6 — §5: Trovi's automatically collected artifact metrics.
//!
//! Shape target: reproduce the reported funnel exactly from an event log —
//! "35 total number of launch button clicks, 9 users who clicked the launch
//! button, 2 users who executed at least one cell, and it has been
//! published 8 versions of the artifact" — then show how the funnel narrows
//! under different engagement assumptions (the paper's "outcome rather than
//! impact" caveat).

use autolearn_bench::{f, print_table};
use autolearn_trovi::{Artifact, EventLog};

fn main() {
    println!("== T6: Trovi artifact-metrics funnel ==\n");

    let artifact = Artifact::autolearn_example();
    let log = EventLog::autolearn_observed(&artifact.slug);
    let m = log.metrics_for(&artifact.slug);

    print_table(
        &["metric", "paper (§5)", "reproduced"],
        &[
            vec![
                "launch clicks".into(),
                "35".into(),
                m.launch_clicks.to_string(),
            ],
            vec![
                "users who clicked".into(),
                "9".into(),
                m.unique_launch_users.to_string(),
            ],
            vec![
                "users executing ≥1 cell".into(),
                "2".into(),
                m.users_executed.to_string(),
            ],
            vec![
                "published versions".into(),
                "8".into(),
                artifact.version_count().to_string(),
            ],
        ],
    );

    println!("\nengagement-model sensitivity (synthetic funnels, 500 viewers):\n");
    let mut rows = Vec::new();
    for (p_click, p_exec) in [(0.05, 0.2), (0.1, 0.2), (0.2, 0.2), (0.2, 0.5), (0.4, 0.5)] {
        let log = EventLog::synthetic_funnel("syn", 500, p_click, p_exec, 42);
        let m = log.metrics_for("syn");
        rows.push(vec![
            f(p_click, 2),
            f(p_exec, 2),
            m.views.to_string(),
            m.unique_launch_users.to_string(),
            m.users_executed.to_string(),
            f(m.users_executed as f64 / m.views as f64 * 100.0, 1),
        ]);
    }
    print_table(
        &[
            "p(click)",
            "p(execute)",
            "views",
            "clickers",
            "executors",
            "view→execute (%)",
        ],
        &rows,
    );
    println!("\nthe funnel narrows at every stage under all assumptions; at the");
    println!("engagement levels real artifact hubs see (first rows), view→execute");
    println!("conversion sits in the low single digits — the AutoLearn funnel the");
    println!("paper reports (9 clickers → 2 executors) is typical, and why §5 calls");
    println!("these numbers an *outcome* measure rather than an impact measure.");
}
