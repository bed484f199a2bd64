//! Streaming statistics used by the experiment harnesses.

use serde::{Deserialize, Serialize};

/// Welford online mean/variance with min/max tracking.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one sample in (Welford update).
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Fold a whole sequence of samples in.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.push(x);
        }
    }

    /// Samples seen so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator); zero for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std/mean); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev() / m.abs()
        }
    }

    /// Smallest sample; 0 with no samples.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; 0 with no samples.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Snapshot of all statistics at once.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.n,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// A point-in-time snapshot of a `RunningStats`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub count: u64,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count, self.mean, self.std_dev, self.min, self.max
        )
    }
}

/// Linear-interpolated percentile of an unsorted slice (`p` in [0, 100]).
/// Returns 0.0 for an empty slice. Values are ranked by [`f64::total_cmp`],
/// so a NaN sorts last and only reaches the top percentiles.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = RunningStats::new();
        s.extend(xs.iter().copied());
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let mut s = RunningStats::new();
        s.push(3.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn cv_is_relative_spread() {
        let mut s = RunningStats::new();
        s.extend([9.0, 10.0, 11.0]);
        assert!((s.cv() - 1.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_handles_unsorted_input() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_ranks_nan_last() {
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!(percentile(&xs, 100.0).is_nan());
    }

    #[test]
    fn summary_display_is_stable() {
        let mut s = RunningStats::new();
        s.extend([1.0, 2.0, 3.0]);
        let line = s.summary().to_string();
        assert!(line.contains("n=3"));
        assert!(line.contains("mean=2.0000"));
    }
}
