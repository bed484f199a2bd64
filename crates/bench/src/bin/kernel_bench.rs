//! Kernel benchmark trajectory: optimized GEMM/im2col kernels vs the
//! `autolearn_nn::kernels::reference` oracles at DonkeyCar shapes
//! (batch 32, 120×160 camera, first-layer conv geometry from the zoo).
//!
//! Writes `BENCH_kernels.json` at the repo root — median ns/op per case
//! plus the naive-over-optimized speedup — so the kernel performance
//! story is a committed, reproducible artifact rather than a claim.
//!
//!   cargo run --release -p autolearn-bench --bin kernel_bench
//!   cargo run --release -p autolearn-bench --bin kernel_bench -- --smoke
//!   cargo run --release -p autolearn-bench --bin kernel_bench -- --check BENCH_kernels.json
//!
//! `--smoke` runs one fast iteration at shrunken shapes and writes no
//! file; it exists so `scripts/ci.sh` can prove the harness itself still
//! runs without paying the full measurement cost. `--check <snapshot>`
//! re-measures at the committed shapes, writes nothing, and fails (exit 1)
//! if the optimized kernels regressed more than 5% against the snapshot,
//! each timed relative to its reference kernel in the same run so the
//! gate does not move with the host's load — the gate that keeps
//! instrumentation (and everything else) off the kernel hot paths. Only
//! the bare invocation writes the snapshot; any argument other than
//! `--smoke`, `--check [path]` or `--help` prints usage and exits 2.

use autolearn_nn::kernels::{self, reference};
use autolearn_nn::layers::{Conv2D, Conv3D, Layer};
use autolearn_nn::Tensor;
use autolearn_util::rng::rng_from_seed;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// One measured case: the production kernel and its naive oracle.
struct CaseResult {
    name: &'static str,
    optimized_ns: u64,
    reference_ns: u64,
}

impl CaseResult {
    fn speedup(&self) -> f64 {
        if self.optimized_ns == 0 {
            return 0.0;
        }
        self.reference_ns as f64 / self.optimized_ns as f64
    }
}

/// Median wall-clock ns of `iters` timed runs (after one untimed warmup).
fn median_ns<F: FnMut()>(iters: usize, mut f: F) -> u64 {
    f(); // warmup: fault in scratch buffers, warm caches
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn rand_vec(n: usize, rng: &mut impl Rng) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Dense-layer GEMM at the zoo's flatten→Dense(64) geometry.
fn case_matmul(iters: usize, batch: usize, k: usize, n: usize) -> CaseResult {
    let mut rng = rng_from_seed(101);
    let a = rand_vec(batch * k, &mut rng);
    let b = rand_vec(k * n, &mut rng);
    let mut out = vec![0.0f32; batch * n];
    let optimized_ns = median_ns(iters, || {
        kernels::matmul_into(&mut out, &a, &b, batch, k, n);
        black_box(&out);
    });
    let reference_ns = median_ns(iters, || {
        reference::matmul(&a, &b, batch, k, n, &mut out);
        black_box(&out);
    });
    CaseResult {
        name: "matmul_dense",
        optimized_ns,
        reference_ns,
    }
}

/// First zoo conv layer: Conv2D(1→8, k5, s2) on the camera frame.
fn case_conv2d(iters: usize, batch: usize, h: usize, w: usize) -> (CaseResult, CaseResult) {
    let (c, f, k, s) = (1usize, 8usize, 5usize, 2usize);
    let mut rng = rng_from_seed(102);
    let mut conv = Conv2D::new(c, f, k, s, &mut rng);
    let x = Tensor::randn(&[batch, c, h, w], 1.0, &mut rng);
    let y = conv.forward(&x, true);

    let fwd_opt = median_ns(iters, || {
        black_box(conv.forward(&x, true));
    });
    let bwd_opt = median_ns(iters, || {
        conv.zero_grads();
        black_box(conv.backward(&y));
    });

    // Reference path on the identical weights.
    let wv = conv.w.value.data().to_vec();
    let bias = conv.b.value.data().to_vec();
    let mut out = vec![0.0f32; y.len()];
    let fwd_ref = median_ns(iters, || {
        reference::conv2d_forward(x.data(), &wv, &bias, batch, c, h, w, f, k, s, &mut out);
        black_box(&out);
    });
    let mut dx = vec![0.0f32; x.len()];
    let mut dw = vec![0.0f32; wv.len()];
    let mut db = vec![0.0f32; bias.len()];
    let bwd_ref = median_ns(iters, || {
        dx.fill(0.0);
        dw.fill(0.0);
        db.fill(0.0);
        reference::conv2d_backward(
            x.data(),
            &wv,
            y.data(),
            batch,
            c,
            h,
            w,
            f,
            k,
            s,
            &mut dx,
            &mut dw,
            &mut db,
        );
        black_box(&dx);
    });
    (
        CaseResult {
            name: "conv2d_forward",
            optimized_ns: fwd_opt,
            reference_ns: fwd_ref,
        },
        CaseResult {
            name: "conv2d_backward",
            optimized_ns: bwd_opt,
            reference_ns: bwd_ref,
        },
    )
}

/// First 3-D zoo conv: Conv3D(1→8, kt2, k5, st1, s2) over a short clip.
fn case_conv3d(
    iters: usize,
    batch: usize,
    t: usize,
    h: usize,
    w: usize,
) -> (CaseResult, CaseResult) {
    let (c, f, kt, k, st, s) = (1usize, 8usize, 2usize, 5usize, 1usize, 2usize);
    let mut rng = rng_from_seed(103);
    let mut conv = Conv3D::new(c, f, kt, k, st, s, &mut rng);
    let x = Tensor::randn(&[batch, c, t, h, w], 1.0, &mut rng);
    let y = conv.forward(&x, true);

    let fwd_opt = median_ns(iters, || {
        black_box(conv.forward(&x, true));
    });
    let bwd_opt = median_ns(iters, || {
        conv.zero_grads();
        black_box(conv.backward(&y));
    });

    let wv = conv.w.value.data().to_vec();
    let bias = conv.b.value.data().to_vec();
    let mut out = vec![0.0f32; y.len()];
    let fwd_ref = median_ns(iters, || {
        reference::conv3d_forward(
            x.data(),
            &wv,
            &bias,
            batch,
            c,
            t,
            h,
            w,
            f,
            kt,
            k,
            st,
            s,
            &mut out,
        );
        black_box(&out);
    });
    let mut dx = vec![0.0f32; x.len()];
    let mut dw = vec![0.0f32; wv.len()];
    let mut db = vec![0.0f32; bias.len()];
    let bwd_ref = median_ns(iters, || {
        dx.fill(0.0);
        dw.fill(0.0);
        db.fill(0.0);
        reference::conv3d_backward(
            x.data(),
            &wv,
            y.data(),
            batch,
            c,
            t,
            h,
            w,
            f,
            kt,
            k,
            st,
            s,
            &mut dx,
            &mut dw,
            &mut db,
        );
        black_box(&dx);
    });
    (
        CaseResult {
            name: "conv3d_forward",
            optimized_ns: fwd_opt,
            reference_ns: fwd_ref,
        },
        CaseResult {
            name: "conv3d_backward",
            optimized_ns: bwd_opt,
            reference_ns: bwd_ref,
        },
    )
}

fn render_json(results: &[CaseResult], batch: usize, h: usize, w: usize, iters: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"kernels\",\n");
    s.push_str(&format!(
        "  \"shapes\": \"batch {batch}, camera {h}x{w}, conv2d f8 k5 s2, conv3d f8 kt2 k5, dense 7488->64\",\n"
    ));
    s.push_str(&format!("  \"iters_per_case\": {iters},\n"));
    s.push_str("  \"unit\": \"median ns per call\",\n");
    s.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"name\": \"{}\", \"optimized_ns\": {}, \"reference_ns\": {}, \"speedup\": {:.2} }}{}\n",
            r.name,
            r.optimized_ns,
            r.reference_ns,
            r.speedup(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// One case as the snapshot recorded it.
#[derive(Debug, Clone, PartialEq)]
struct SnapshotCase {
    name: String,
    optimized_ns: u64,
    reference_ns: u64,
}

/// The cases of a snapshot JSON, in order. Hand-parsed (the snapshot is our
/// own fixed format, one case per line) so the bench binary stays free of
/// JSON dependencies.
fn parse_snapshot(json: &str) -> Option<Vec<SnapshotCase>> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
        let rest = rest.trim_start();
        Some(match rest.strip_prefix('"') {
            Some(quoted) => &quoted[..quoted.find('"')?],
            None => &rest[..rest.find(|c: char| !c.is_ascii_digit())?],
        })
    }
    let cases: Vec<SnapshotCase> = json
        .lines()
        .filter(|line| line.contains("\"name\":"))
        .map(|line| {
            Some(SnapshotCase {
                name: field(line, "name")?.to_string(),
                optimized_ns: field(line, "optimized_ns")?.parse().ok()?,
                reference_ns: field(line, "reference_ns")?.parse().ok()?,
            })
        })
        .collect::<Option<_>>()?;
    (!cases.is_empty()).then_some(cases)
}

/// Regression tolerance for `--check`: the measured optimized/reference
/// ratio may not exceed the snapshot's by more than this factor.
const CHECK_TOLERANCE: f64 = 1.05;

/// The gate's figure: each case's optimized/reference time ratio measured
/// in this run, over the ratio the snapshot recorded, averaged with the
/// snapshot's optimized times as weights (so the long cases count most, as
/// they did when the gate summed optimized nanoseconds). The naive
/// reference kernels are unchanged oracles, so host speed and load from
/// other work cancel out of each ratio, while a slower optimized kernel
/// still raises it. Every snapshot case must have been measured.
fn relative_ratio(results: &[CaseResult], snapshot: &[SnapshotCase]) -> Result<f64, String> {
    let (mut measured, mut recorded) = (0.0, 0.0);
    for case in snapshot {
        let r = results
            .iter()
            .find(|r| r.name == case.name)
            .ok_or_else(|| format!("snapshot case {} was not measured", case.name))?;
        if r.reference_ns == 0 || case.reference_ns == 0 {
            return Err(format!("case {} has a zero reference time", case.name));
        }
        let weight = case.reference_ns as f64;
        measured += weight * (r.optimized_ns as f64 / r.reference_ns as f64);
        recorded += case.optimized_ns as f64;
    }
    Ok(measured / recorded)
}

fn run_check(results: &[CaseResult], snapshot: &[SnapshotCase], snapshot_path: &str) -> i32 {
    let ratio = match relative_ratio(results, snapshot) {
        Ok(ratio) => ratio,
        Err(e) => {
            println!("kernel_bench: {snapshot_path}: {e}");
            return 1;
        }
    };
    println!(
        "kernel_bench: check vs {snapshot_path}: optimized/reference ratios at \
         {ratio:.3} of the snapshot's (limit {CHECK_TOLERANCE:.2})"
    );
    if ratio > CHECK_TOLERANCE {
        println!(
            "kernel_bench: REGRESSION — optimized kernels are >5% slower, \
             relative to the reference kernels, than in the snapshot"
        );
        1
    } else {
        println!("kernel_bench: within tolerance");
        0
    }
}

const USAGE: &str = "usage: kernel_bench [--smoke | --check [SNAPSHOT] | --help]
  (no argument)      measure at the committed shapes and write BENCH_kernels.json
  --smoke            one fast iteration at shrunken shapes; writes nothing
  --check [SNAPSHOT] measure and compare with SNAPSHOT (default
                     BENCH_kernels.json); writes nothing, exits 1 on a regression
  --help             print this message";

/// What one invocation does.
#[derive(Debug, PartialEq)]
enum Mode {
    Write,
    Smoke,
    Check(String),
    Help,
}

/// The mode the arguments (without the program name) ask for, or `None`
/// for anything else, which must neither measure nor write.
fn parse_args(args: &[String]) -> Option<Mode> {
    match args {
        [] => Some(Mode::Write),
        [flag] if flag == "--smoke" => Some(Mode::Smoke),
        [flag] if flag == "--help" => Some(Mode::Help),
        [flag] if flag == "--check" => Some(Mode::Check("BENCH_kernels.json".into())),
        [flag, path] if flag == "--check" && !path.starts_with('-') => {
            Some(Mode::Check(path.clone()))
        }
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = parse_args(&args) else {
        eprintln!("kernel_bench: unexpected arguments {args:?}\n{USAGE}");
        std::process::exit(2);
    };
    let snapshot = match &mode {
        Mode::Help => {
            println!("{USAGE}");
            return;
        }
        // Read the snapshot before measuring, so a bad path fails at once.
        Mode::Check(path) => {
            let parsed = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read snapshot {path}: {e}"))
                .and_then(|json| {
                    parse_snapshot(&json).ok_or_else(|| format!("snapshot {path} has no cases"))
                });
            match parsed {
                Ok(cases) => Some(cases),
                Err(e) => {
                    println!("kernel_bench: {e}");
                    std::process::exit(1);
                }
            }
        }
        Mode::Write | Mode::Smoke => None,
    };
    let smoke = mode == Mode::Smoke;
    // Full run: DonkeyCar camera at batch 32. Smoke: one iteration at a
    // shrunken frame so CI proves the harness without the measurement cost.
    let (iters, batch, h, w, t) = if smoke {
        (1usize, 4usize, 24usize, 32usize, 3usize)
    } else {
        (11usize, 32usize, 120usize, 160usize, 3usize)
    };

    // Dense geometry downstream of the conv trunk: flatten of the third
    // conv's [32, 13, 18] output at 120x160, projected to 64 features.
    let (mk, mn) = if smoke { (64, 16) } else { (7488, 64) };

    let measure = || {
        let mut results = Vec::new();
        results.push(case_matmul(iters, batch, mk, mn));
        let (c2f, c2b) = case_conv2d(iters, batch, h, w);
        results.push(c2f);
        results.push(c2b);
        let (c3f, c3b) = case_conv3d(iters, batch, t, h, w);
        results.push(c3f);
        results.push(c3b);
        results
    };
    let mut results = measure();
    if snapshot.is_some() {
        // The gate compares wall time, so one scheduler burst could fail a
        // healthy build: measure twice, keep each case's minimum.
        for (r, second) in results.iter_mut().zip(measure()) {
            r.optimized_ns = r.optimized_ns.min(second.optimized_ns);
            r.reference_ns = r.reference_ns.min(second.reference_ns);
        }
    }

    println!(
        "{:<18} {:>14} {:>14} {:>9}",
        "case", "optimized_ns", "reference_ns", "speedup"
    );
    for r in &results {
        println!(
            "{:<18} {:>14} {:>14} {:>8.2}x",
            r.name,
            r.optimized_ns,
            r.reference_ns,
            r.speedup()
        );
    }

    if smoke {
        println!("kernel_bench: smoke run complete (no snapshot written)");
        return;
    }

    if let (Mode::Check(path), Some(cases)) = (&mode, &snapshot) {
        std::process::exit(run_check(&results, cases, path));
    }

    let json = render_json(&results, batch, h, w, iters);
    let path = "BENCH_kernels.json";
    std::fs::write(path, json).expect("write BENCH_kernels.json");
    println!("kernel_bench: wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &'static str, optimized_ns: u64, reference_ns: u64) -> CaseResult {
        CaseResult {
            name,
            optimized_ns,
            reference_ns,
        }
    }

    fn snapshot() -> Vec<SnapshotCase> {
        parse_snapshot(include_str!("../../../../BENCH_kernels.json")).unwrap()
    }

    /// The snapshot's cases, every time scaled by `host` and the optimized
    /// ones by `optimized` on top.
    fn rerun(host: f64, optimized: f64) -> Vec<CaseResult> {
        let names = [
            "matmul_dense",
            "conv2d_forward",
            "conv2d_backward",
            "conv3d_forward",
            "conv3d_backward",
        ];
        snapshot()
            .iter()
            .zip(names)
            .map(|(c, name)| {
                assert_eq!(c.name, name);
                let scale = |ns: u64, k: f64| (ns as f64 * k).round() as u64;
                case(
                    name,
                    scale(c.optimized_ns, host * optimized),
                    scale(c.reference_ns, host),
                )
            })
            .collect()
    }

    #[test]
    fn parses_the_committed_snapshot() {
        let cases = snapshot();
        assert_eq!(cases.len(), 5);
        assert_eq!(
            cases[0],
            SnapshotCase {
                name: "matmul_dense".into(),
                optimized_ns: 848566,
                reference_ns: 2584446,
            }
        );
        assert_eq!(parse_snapshot("{}"), None);
        assert_eq!(
            parse_snapshot(r#"{ "name": "x", "optimized_ns": 12 }"#),
            None
        );
    }

    #[test]
    fn host_speed_cancels_out_of_the_gate() {
        let cases = snapshot();
        for host in [0.5, 1.0, 1.3, 2.0] {
            let ratio = relative_ratio(&rerun(host, 1.0), &cases).unwrap();
            assert!((ratio - 1.0).abs() < 1e-6, "host x{host}: ratio {ratio}");
        }
    }

    #[test]
    fn a_slower_optimized_path_fails_on_any_host() {
        let cases = snapshot();
        for host in [0.5, 1.0, 2.0] {
            let slower = relative_ratio(&rerun(host, 1.08), &cases).unwrap();
            assert!(slower > CHECK_TOLERANCE, "host x{host}: ratio {slower}");
            assert_eq!(run_check(&rerun(host, 1.08), &cases, "snapshot"), 1);
            assert_eq!(run_check(&rerun(host, 1.02), &cases, "snapshot"), 0);
        }
        // The longest case alone 30% slower fails too.
        let mut one = rerun(1.0, 1.0);
        one[4].optimized_ns = one[4].optimized_ns * 13 / 10;
        assert!(relative_ratio(&one, &cases).unwrap() > CHECK_TOLERANCE);
    }

    #[test]
    fn every_snapshot_case_must_be_measured() {
        let mut results = rerun(1.0, 1.0);
        results.pop();
        assert!(relative_ratio(&results, &snapshot()).is_err());
        assert_eq!(run_check(&results, &snapshot(), "snapshot"), 1);
    }

    #[test]
    fn only_known_arguments_are_accepted() {
        let parse =
            |args: &[&str]| parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert_eq!(parse(&[]), Some(Mode::Write));
        assert_eq!(parse(&["--smoke"]), Some(Mode::Smoke));
        assert_eq!(parse(&["--help"]), Some(Mode::Help));
        assert_eq!(
            parse(&["--check"]),
            Some(Mode::Check("BENCH_kernels.json".into()))
        );
        assert_eq!(
            parse(&["--check", "snap.json"]),
            Some(Mode::Check("snap.json".into()))
        );
        for bad in [
            &["--chek"][..],
            &["-h"],
            &["check"],
            &["--smoke", "--check"],
            &["--check", "--smoke"],
            &["--check", "a.json", "b.json"],
            &["--help", "--smoke"],
        ] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
    }
}
