//! The continuum benchmark.
//!
//! ```text
//! perfbench --workload <lesson|train_zoo|drive_hires|fleet> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload as a closed loop on one thread: the next
//! lesson, fit, drive session or fleet starts only when the previous one
//! ends. Set-up runs [`SETUPS`] times and reports the median. Every unit of
//! work is checked; a failed check marks the run incorrect and the process
//! exits 1 after printing its result. The last stdout line is the JSON
//! result: end-to-end metrics with `--trace 0`, per-layer metrics (from the
//! benchmark's own spans around each call into a crate) with `--trace 1`.
//! The timed end-to-end metrics are in runs of a reference kernel timed in
//! the same run (`reference.rs`), and `setup_s` is scaled to the kernel's
//! usual speed; their wall-clock values print as `report` lines.

mod census;
mod drive_hires;
mod fleet;
mod lesson;
mod outcome;
mod reference;
mod timed;
mod trace;
mod train_zoo;

use outcome::{median, Ctx, Outcome};
use std::time::Instant;

/// How many times each workload's set-up runs; `setup_s` comes from their
/// median.
pub const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace, Instant::now());
    let outcome: Outcome = match args.workload.as_str() {
        "lesson" => lesson::run(&mut ctx),
        "train_zoo" => train_zoo::run(&mut ctx),
        "drive_hires" => drive_hires::run(&mut ctx),
        "fleet" => fleet::run(&mut ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let mut metrics = Vec::new();
    if args.trace {
        metrics = census::layer_metrics(&ctx, &outcome);
        for (name, ms) in ctx.tracer.self_time_ms() {
            println!("self {name} = {ms:.3} ms");
        }
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}.json", args.workload));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, ctx.tracer.to_chrome_json()))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
        } else {
            println!(
                "trace: {} spans -> {}",
                ctx.tracer.spans().len(),
                path.display()
            );
        }
    } else {
        let (op_ref, items_ref) = outcome.relative();
        metrics.push(("setup_s", outcome.setup.scaled_s(), "s"));
        metrics.push(("op_p50_ref", op_ref, "ref"));
        metrics.push(("items_per_ref", items_ref, "1/ref"));
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MB"));
    }
    for (k, u) in outcome.units.iter().enumerate() {
        println!(
            "unit[{k}] wall_ms={:.3} items={} ops={} op_p50_ms={:.4}",
            u.wall_s * 1e3,
            u.items,
            u.ops,
            u.op_p50_ms
        );
    }

    let (op_p50, items_per_s) = outcome.timed();
    println!("report op_p50_ms = {op_p50} ms");
    println!("report items_per_s = {items_per_s} 1/s");
    println!("report reference_ms = {} ms", outcome.reference_ms);
    println!("report setup_wall_s = {} s", median(&outcome.setup.wall_s));
    println!(
        "report setup_reference_ms = {} ms",
        outcome.setup.reference_ms
    );
    for line in &outcome.counts {
        println!("count {line}");
    }
    for (name, value, unit) in &outcome.report {
        println!("report {name} = {value} {unit}");
    }
    let mut failed_checks = 0u64;
    for c in &outcome.checks {
        println!(
            "check {} {}: {}",
            if c.ok { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
        failed_checks += u64::from(!c.ok);
    }
    let correct = failed_checks == 0 && outcome.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed.max(u64::from(!correct)),
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// JSON has no NaN or infinity; a non-finite measurement prints as -1.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}
