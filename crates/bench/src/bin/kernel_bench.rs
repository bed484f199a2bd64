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
//! re-measures at the committed shapes and fails (exit 1) if the
//! aggregate optimized time regressed more than 5% against the snapshot —
//! the gate that keeps instrumentation (and everything else) off the
//! kernel hot paths.

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

/// Sum of the `"optimized_ns": N` fields in a snapshot JSON. Hand-parsed
/// (the snapshot is our own fixed format) so the bench binary stays free
/// of JSON dependencies.
fn snapshot_optimized_total(json: &str) -> Option<u64> {
    let mut total = 0u64;
    let mut seen = false;
    for chunk in json.split("\"optimized_ns\":").skip(1) {
        let digits: String = chunk
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        total += digits.parse::<u64>().ok()?;
        seen = true;
    }
    seen.then_some(total)
}

/// Regression tolerance for `--check`: aggregate optimized ns may not
/// exceed the snapshot by more than this factor.
const CHECK_TOLERANCE: f64 = 1.05;

fn run_check(results: &[CaseResult], snapshot_path: &str) -> i32 {
    let json = match std::fs::read_to_string(snapshot_path) {
        Ok(s) => s,
        Err(e) => {
            println!("kernel_bench: cannot read snapshot {snapshot_path}: {e}");
            return 1;
        }
    };
    let Some(baseline) = snapshot_optimized_total(&json) else {
        println!("kernel_bench: snapshot {snapshot_path} has no optimized_ns fields");
        return 1;
    };
    let measured: u64 = results.iter().map(|r| r.optimized_ns).sum();
    let ratio = measured as f64 / baseline as f64;
    println!(
        "kernel_bench: check vs {snapshot_path}: measured {measured} ns, \
         snapshot {baseline} ns, ratio {ratio:.3} (limit {CHECK_TOLERANCE:.2})"
    );
    if ratio > CHECK_TOLERANCE {
        println!("kernel_bench: REGRESSION — optimized kernels are >5% slower than the snapshot");
        1
    } else {
        println!("kernel_bench: within tolerance");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check_path = args.iter().position(|a| a == "--check").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_kernels.json".into())
    });
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
    if check_path.is_some() {
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

    if let Some(path) = check_path {
        std::process::exit(run_check(&results, &path));
    }

    let json = render_json(&results, batch, h, w, iters);
    let path = "BENCH_kernels.json";
    std::fs::write(path, json).expect("write BENCH_kernels.json");
    println!("kernel_bench: wrote {path}");
}
