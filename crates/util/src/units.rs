//! Unit-typed simulation quantities.
//!
//! The continuum substrates exchange three physical dimensions — time,
//! data volume, and data rate — plus the training-progress counter. Until
//! this module they all travelled as bare `f64`/`u64`, so nothing stopped
//! a stage from handing seconds to a byte slot (the classic sim/deploy
//! mismatch the Sim2Real platforms warn about). The newtypes here are
//! zero-cost (`#[repr(transparent)]` over the raw scalar) and close under
//! exactly the operations that are dimensionally meaningful:
//!
//! ```text
//! Bytes / BytesPerSec  -> SimSeconds      (serialisation time)
//! Bytes / SimSeconds   -> BytesPerSec     (observed throughput)
//! BytesPerSec * SimSeconds -> Bytes       (volume moved in a window)
//! ```
//!
//! Adding [`Bytes`] to a [`SimSeconds`] is a *compile error*, which is the
//! whole point. [`SimSeconds`] is the existing [`SimDuration`] under its
//! dimensional name — the simulation already had a unit-typed second; this
//! module contributes the algebra that connects it to the data-plane
//! quantities, rather than a rival second type.
//!
//! The static side of the same contract lives in
//! `autolearn-analyze::contract`: stage specs declare the [`Unit`]-level
//! dimension of every quantity they report, and `validate_pipeline`
//! rejects a spec whose declared unit disagrees with the canonical
//! dimension for that quantity name.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Simulated seconds, under their dimensional name. This *is*
/// [`SimDuration`] — one canonical time type, two names: `SimDuration`
/// where code thinks about timelines, `SimSeconds` where it thinks about
/// unit algebra (dividing bytes by rates, multiplying rates by windows).
pub type SimSeconds = SimDuration;

/// A data volume in bytes. Construct with [`Bytes::new`] (or the `const`
/// literal-friendly [`Bytes`] tuple form); arithmetic saturates rather
/// than wraps, and `debug_assert!`s flag the overflow in test builds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[repr(transparent)]
#[serde(transparent)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from a raw byte count.
    pub const fn new(n: u64) -> Bytes {
        Bytes(n)
    }

    /// One kibibyte-free SI kilobyte (10^3), for readable literals.
    pub const fn kb(n: u64) -> Bytes {
        Bytes(n * 1_000)
    }

    /// SI megabytes (10^6).
    pub const fn mb(n: u64) -> Bytes {
        Bytes(n * 1_000_000)
    }

    /// The raw byte count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The byte count as `f64`, for rate arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Checked addition: `None` on `u64` overflow.
    pub fn checked_add(self, rhs: Bytes) -> Option<Bytes> {
        self.0.checked_add(rhs.0).map(Bytes)
    }

    /// Subtraction clamped at zero (a transfer can't have negative bytes
    /// remaining).
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Scale by a fraction in `[0, 1]` (e.g. the un-transferred remainder
    /// of a resumable upload), rounding up so a partial byte still costs a
    /// full one on the wire.
    pub fn scale_ceil(self, fraction: f64) -> Bytes {
        debug_assert!(
            fraction.is_finite() && fraction >= 0.0,
            "byte fraction must be finite and non-negative, got {fraction}"
        );
        Bytes((self.0 as f64 * fraction.max(0.0)).ceil() as u64)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        debug_assert!(
            self.0.checked_add(rhs.0).is_some(),
            "byte count overflow: {} + {}",
            self.0,
            rhs.0
        );
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    /// Clamped at zero, like [`Bytes::saturating_sub`] — a transfer never
    /// has negative bytes remaining.
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        debug_assert!(
            self.0.checked_mul(rhs).is_some(),
            "byte count overflow: {} * {rhs}",
            self.0
        );
        Bytes(self.0.saturating_mul(rhs))
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 < 1_000 {
            write!(f, "{}B", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}kB", b / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.1}MB", b / 1e6)
        } else {
            write!(f, "{:.2}GB", b / 1e9)
        }
    }
}

/// A data rate in bytes per simulated second. Must be positive and finite
/// when used as a divisor; [`Bytes::checked_div`]-style safety lives in
/// [`Bytes::div`], which saturates a non-positive rate to an "effectively
/// dead link" instead of producing `inf`/`NaN`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[repr(transparent)]
#[serde(transparent)]
pub struct BytesPerSec(pub f64);

impl BytesPerSec {
    /// Construct from a raw bytes-per-second rate.
    pub const fn new(rate: f64) -> BytesPerSec {
        BytesPerSec(rate)
    }

    /// The raw rate.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The slower of two rates (bottleneck composition).
    pub fn min(self, other: BytesPerSec) -> BytesPerSec {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Whether the rate is usable as a divisor (positive and finite).
    pub fn is_usable(self) -> bool {
        self.0.is_finite() && self.0 > 0.0
    }
}

impl Mul<f64> for BytesPerSec {
    type Output = BytesPerSec;
    /// Scale the rate by a dimensionless factor (protocol efficiency,
    /// degradation).
    fn mul(self, rhs: f64) -> BytesPerSec {
        BytesPerSec(self.0 * rhs)
    }
}

impl Mul<SimSeconds> for BytesPerSec {
    type Output = Bytes;
    /// Volume moved in a window: rate × time = bytes (floor).
    fn mul(self, rhs: SimSeconds) -> Bytes {
        let product = self.0 * rhs.as_secs();
        debug_assert!(
            product.is_finite() && product >= 0.0,
            "rate*time = {product}"
        );
        Bytes(product.max(0.0) as u64)
    }
}

impl fmt::Display for BytesPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Shares `Bytes`' magnitude formatting, with a `/s` suffix.
        write!(f, "{}/s", Bytes(self.0.max(0.0) as u64))
    }
}

impl Div<BytesPerSec> for Bytes {
    type Output = SimSeconds;
    /// Serialisation time: bytes ÷ rate = seconds. A non-positive or
    /// non-finite rate yields `SimSeconds::from_secs(f64::MAX)`-free
    /// saturation: the transfer of any non-zero payload over a dead link
    /// takes `f64::INFINITY`-free `MAX_DEAD_LINK_SECS`.
    fn div(self, rhs: BytesPerSec) -> SimSeconds {
        if !rhs.is_usable() {
            return SimSeconds::from_secs(if self.0 == 0 { 0.0 } else { MAX_DEAD_LINK_SECS });
        }
        SimSeconds::from_secs(self.0 as f64 / rhs.0)
    }
}

impl Div<SimSeconds> for Bytes {
    type Output = BytesPerSec;
    /// Observed throughput: bytes ÷ seconds = rate. A zero window gives a
    /// zero (unusable) rate rather than `inf`.
    fn div(self, rhs: SimSeconds) -> BytesPerSec {
        if rhs.as_secs() <= 0.0 {
            return BytesPerSec(0.0);
        }
        BytesPerSec(self.0 as f64 / rhs.as_secs())
    }
}

/// Saturation value for a transfer across an unusable (zero/negative
/// bandwidth) link: ten simulated years, large enough to fail any deadline
/// yet still finite for downstream arithmetic.
pub const MAX_DEAD_LINK_SECS: f64 = 10.0 * 365.0 * 24.0 * 3600.0;

/// A count of training epochs. Saturating arithmetic; the zero value is a
/// legal "no training happened yet" state.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[repr(transparent)]
#[serde(transparent)]
pub struct Epochs(pub u32);

impl Epochs {
    /// Zero epochs.
    pub const ZERO: Epochs = Epochs(0);

    /// Construct from a raw epoch count.
    pub const fn new(n: u32) -> Epochs {
        Epochs(n)
    }

    /// The raw count.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The count as `f64`, for fraction arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// The number of whole epochs completed at `fraction` of a run of
    /// `self` epochs — where a preempted training job can resume from,
    /// since checkpoints land on epoch boundaries.
    pub fn completed_at(self, fraction: f64) -> Epochs {
        debug_assert!((0.0..=1.0).contains(&fraction), "fraction {fraction}");
        Epochs((self.0 as f64 * fraction.clamp(0.0, 1.0)).floor() as u32)
    }

    /// At least one: degenerate zero-epoch configs divide safely.
    pub fn max_one(self) -> Epochs {
        Epochs(self.0.max(1))
    }
}

impl Add for Epochs {
    type Output = Epochs;
    fn add(self, rhs: Epochs) -> Epochs {
        Epochs(self.0.saturating_add(rhs.0))
    }
}

impl Sub for Epochs {
    type Output = Epochs;
    fn sub(self, rhs: Epochs) -> Epochs {
        debug_assert!(self.0 >= rhs.0, "epoch underflow: {} - {}", self.0, rhs.0);
        Epochs(self.0.saturating_sub(rhs.0))
    }
}

impl Div for Epochs {
    type Output = f64;
    /// Progress fraction: epochs completed ÷ epochs planned.
    fn div(self, rhs: Epochs) -> f64 {
        debug_assert!(rhs.0 > 0, "division by zero epochs");
        self.0 as f64 / rhs.0.max(1) as f64
    }
}

impl fmt::Display for Epochs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ep", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_rate_time_triangle() {
        let payload = Bytes::mb(30);
        let rate = BytesPerSec::new(3.0e6);
        let t = payload / rate;
        assert!((t.as_secs() - 10.0).abs() < 1e-9);
        // Rate recovered from volume over window.
        let back = payload / t;
        assert!((back.get() - 3.0e6).abs() < 1e-3);
        // Volume recovered from rate times window.
        assert_eq!(rate * t, Bytes::mb(30));
    }

    #[test]
    fn bytes_arithmetic_saturates() {
        assert_eq!(Bytes::new(5) - Bytes::new(10), Bytes::ZERO);
        assert_eq!(Bytes::kb(2) + Bytes::new(500), Bytes::new(2_500));
        assert_eq!(Bytes::new(3) * 4, Bytes::new(12));
        let total: Bytes = [Bytes::new(1), Bytes::new(2), Bytes::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Bytes::new(6));
    }

    #[test]
    fn scale_ceil_rounds_up() {
        assert_eq!(Bytes::new(10).scale_ceil(0.25), Bytes::new(3));
        assert_eq!(Bytes::new(10).scale_ceil(1.0), Bytes::new(10));
        assert_eq!(Bytes::new(10).scale_ceil(0.0), Bytes::ZERO);
    }

    #[test]
    fn dead_link_division_saturates_finite() {
        let t = Bytes::mb(1) / BytesPerSec::new(0.0);
        assert!(t.as_secs().is_finite());
        assert!(t.as_secs() >= MAX_DEAD_LINK_SECS);
        // Zero payload over a dead link is instant (nothing to move).
        assert_eq!((Bytes::ZERO / BytesPerSec::new(0.0)).as_secs(), 0.0);
        // Zero window gives an unusable, not infinite, rate.
        assert!(!(Bytes::mb(1) / SimSeconds::ZERO).is_usable());
    }

    #[test]
    fn rate_min_is_bottleneck() {
        let a = BytesPerSec::new(3.0e6);
        let b = BytesPerSec::new(60.0e6);
        assert_eq!(a.min(b), a);
        assert_eq!(b.min(a), a);
    }

    #[test]
    fn epochs_fraction_floor() {
        let planned = Epochs::new(10);
        assert_eq!(planned.completed_at(0.67), Epochs::new(6));
        assert_eq!(planned.completed_at(0.0), Epochs::ZERO);
        assert_eq!(planned.completed_at(1.0), planned);
        assert!((Epochs::new(6) / planned - 0.6).abs() < 1e-12);
        assert_eq!(Epochs::ZERO.max_one(), Epochs::new(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bytes::new(512)), "512B");
        assert_eq!(format!("{}", Bytes::mb(30)), "30.0MB");
        assert_eq!(format!("{}", BytesPerSec::new(3.0e6)), "3.0MB/s");
        assert_eq!(format!("{}", Epochs::new(7)), "7ep");
    }
}
