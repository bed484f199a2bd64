//! The reference kernel: fixed work of the benchmark's own, timed between
//! units of work so a run knows how fast the host ran it.
//!
//! Other tenants of a shared host slow everything on it, by up to half
//! again, in phases that often cover a whole run. The program's operations
//! and the reference kernel slow down together, so the ratio of the two
//! moves less than either alone. No change to the program touches the
//! kernel. It mixes the kinds of work the program spends its time on:
//! packed f32 multiply-adds over a buffer the core keeps in cache (the
//! numeric core), scalar f64 geometry with square roots and trigonometry
//! (the camera and the track), and scattered loads from a table larger
//! than the core's own caches (datasets and frames).

use crate::outcome::median;
use std::time::Instant;

/// Length of each multiply-add buffer (64 KiB each), and passes per run.
const LANES: usize = 16 * 1024;
const PASSES: usize = 72;
/// Geometry steps per run.
const STEPS: usize = 60_000;
/// Entries of the load table (4 MiB, twice the core's L2), and loads per
/// run.
const TABLE: usize = 1024 * 1024;
const LOADS: usize = 200_000;
/// Kernel runs timed after each unit of work.
const RUNS_PER_UNIT: usize = 3;

pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    table: Vec<u32>,
    runs_ms: Vec<f64>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            a: (0..LANES).map(|i| (i % 97) as f32 * 1e-3).collect(),
            b: (0..LANES).map(|i| (i % 89) as f32 * 1e-3).collect(),
            table: (0..TABLE as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            runs_ms: Vec::new(),
        }
    }

    /// Forget earlier timings and time the kernel afresh.
    pub fn restart(&mut self) {
        self.runs_ms.clear();
        self.sample();
    }

    /// Time the kernel [`RUNS_PER_UNIT`] times.
    pub fn sample(&mut self) {
        for _ in 0..RUNS_PER_UNIT {
            let t0 = Instant::now();
            std::hint::black_box(self.kernel());
            self.runs_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }

    fn kernel(&self) -> f64 {
        let mut acc = [0f32; 8];
        for pass in 0..PASSES {
            let scale = 1.0 + pass as f32 * 1e-6;
            for (x, y) in self.a.chunks_exact(8).zip(self.b.chunks_exact(8)) {
                for l in 0..8 {
                    acc[l] = x[l].mul_add(y[l] * scale, acc[l]);
                }
            }
        }
        let mut geo = 0f64;
        for i in 0..STEPS {
            let (s, c) = (i as f64 * 1e-3).sin_cos();
            geo += (s * s * 3.0 + c * 0.5).abs().sqrt() + (c / (1.0 + s * s)).atan();
        }
        let mut idx = 12_345usize;
        let mut loaded = 0u64;
        for _ in 0..LOADS {
            idx = idx.wrapping_mul(1_103_515_245).wrapping_add(12_345) & (TABLE - 1);
            loaded = loaded.wrapping_add(u64::from(self.table[idx]));
        }
        f64::from(acc.iter().sum::<f32>()) + geo + loaded as f64
    }

    /// Median time of one kernel run so far, milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.runs_ms)
    }
}
