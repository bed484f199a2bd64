//! T8 — §3.5: the BYOD "zero to ready" pathway vs manual setup.
//!
//! Shape targets: CHI@Edge onboarding is both faster end-to-end and,
//! decisively, cheaper in *attended* human time than hand-building the Pi;
//! the container relaunch (the per-session cost once onboarded) is seconds,
//! with the image pull paid once.

use autolearn_bench::print_table;
use autolearn_edge::{ByodWorkflow, ContainerRuntime, ImageSpec};
use autolearn_net::Path;

fn main() {
    println!("== T8: zero-to-ready (BYOD vs manual) ==\n");

    for (name, steps) in [
        ("CHI@Edge BYOD", ByodWorkflow::chi_at_edge()),
        ("manual setup", ByodWorkflow::manual_setup()),
    ] {
        println!("{name}:");
        let rows: Vec<Vec<String>> = steps
            .iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    format!("{}", s.duration),
                    if s.attended { "yes" } else { "" }.to_string(),
                ]
            })
            .collect();
        print_table(&["step", "duration", "attended"], &rows);
        let z = ByodWorkflow::timing(&steps);
        println!("  total {} ({} attended)\n", z.total, z.attended);
    }

    let byod = ByodWorkflow::timing(&ByodWorkflow::chi_at_edge());
    let manual = ByodWorkflow::timing(&ByodWorkflow::manual_setup());
    println!(
        "speedup: {:.1}x total, {:.1}x attended time",
        manual.total.as_secs() / byod.total.as_secs(),
        manual.attended.as_secs() / byod.attended.as_secs()
    );

    println!("\nper-session container launch (after onboarding):");
    let mut rt = ContainerRuntime::new();
    let img = ImageSpec::autolearn();
    let (_, cold) = rt.launch(&img, &Path::car_to_cloud());
    let (_, warm) = rt.launch(&img, &Path::car_to_cloud());
    print_table(
        &["launch", "latency"],
        &[
            vec!["first (pulls 850 MB image)".into(), format!("{cold}")],
            vec!["subsequent (cached)".into(), format!("{warm}")],
        ],
    );
    println!("\nshape check: one Jupyter cell and ~{warm} gets a student a ready car.");
}
