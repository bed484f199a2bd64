//! Bulk-transfer and RPC timing models.
//!
//! Both models account for the full [`Link`](crate::link::Link) parameter
//! set: latency and bandwidth directly, jitter as a deterministic one-sigma
//! queueing charge per traversal, and loss through a geometric retransmit
//! model — with expected loss `p`, every payload byte is sent `1/(1-p)`
//! times on average, so serialisation time divides by `1 - p`. Loss is
//! clamped below 1.0 so a fully dead link yields a large-but-finite time
//! instead of a division by zero.

use crate::link::Path;
use autolearn_util::units::{Bytes, SimSeconds};
use autolearn_util::SimDuration;
use serde::{Deserialize, Serialize};

/// Ceiling on the loss rate fed to the geometric retransmit model: a link
/// reporting `loss >= 1.0` would otherwise produce an infinite (or
/// negative) expected transfer time. 0.95 caps the retransmit factor at
/// 20x, which is "effectively unusable" without being unrepresentable.
pub const MAX_EFFECTIVE_LOSS: f64 = 0.95;

/// A bulk transfer (the paper's "copies the training data using rsync").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TransferSpec {
    /// Payload size. Unit-typed: a duration or a rate cannot end up here.
    pub bytes: Bytes,
    /// Per-connection setup cost (ssh handshake + rsync file scan), s.
    pub handshake_s: f64,
    /// Protocol efficiency (TCP+ssh overhead), fraction of bandwidth
    /// actually delivered to payload.
    pub efficiency: f64,
}

impl TransferSpec {
    /// rsync-over-ssh defaults.
    pub fn rsync(bytes: Bytes) -> TransferSpec {
        TransferSpec {
            bytes,
            handshake_s: 1.2,
            efficiency: 0.85,
        }
    }

    /// Object-store PUT/GET (HTTP, keep-alive).
    pub fn object_store(bytes: Bytes) -> TransferSpec {
        TransferSpec {
            bytes,
            handshake_s: 0.15,
            efficiency: 0.9,
        }
    }
}

/// Expected serialisation time for `bytes` across `path` at `efficiency`,
/// including geometric-model retransmits for the path's composed loss.
/// Pure unit algebra: `Bytes / BytesPerSec -> SimSeconds`, stretched by the
/// retransmit factor.
pub(crate) fn serialisation_time(path: &Path, bytes: Bytes, efficiency: f64) -> SimSeconds {
    let goodput = path.bottleneck_bandwidth() * efficiency.clamp(0.05, 1.0);
    let loss = path.loss().clamp(0.0, MAX_EFFECTIVE_LOSS);
    bytes / goodput / (1.0 - loss)
}

/// Fixed per-attempt overhead: handshake, one-way latency, and one sigma of
/// queueing jitter charged deterministically.
pub(crate) fn overhead_time(path: &Path, spec: &TransferSpec) -> SimSeconds {
    SimSeconds::from_secs(spec.handshake_s + path.one_way_latency() + path.jitter())
}

/// Time to move `spec` across `path`: handshake + latency + jitter +
/// loss-adjusted serialisation at the bottleneck.
pub fn transfer_time(path: &Path, spec: &TransferSpec) -> SimDuration {
    overhead_time(path, spec) + serialisation_time(path, spec.bytes, spec.efficiency)
}

/// Round-trip time for a small request/response pair (remote inference):
/// request serialisation + RTT + response serialisation, with jitter and
/// retransmits accounted the same way as bulk transfers.
pub fn rpc_round_trip(path: &Path, request: Bytes, response: Bytes) -> SimDuration {
    let ser = serialisation_time(path, request + response, 1.0);
    SimSeconds::from_secs(2.0 * (path.one_way_latency() + path.jitter())) + ser
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Link, LinkPreset};

    fn flat_path(bw: f64, latency: f64) -> Path {
        lossy_path(bw, latency, 0.0, 0.0)
    }

    fn lossy_path(bw: f64, latency: f64, jitter: f64, loss: f64) -> Path {
        Path::new(vec![Link {
            name: "test".into(),
            latency_s: latency,
            bandwidth_bps: bw,
            jitter_s: jitter,
            loss,
        }])
    }

    #[test]
    fn transfer_scales_with_size() {
        let p = flat_path(1e6, 0.01);
        let small = transfer_time(&p, &TransferSpec::rsync(Bytes::new(1_000_000)));
        let large = transfer_time(&p, &TransferSpec::rsync(Bytes::new(10_000_000)));
        assert!(large.as_secs() > small.as_secs());
        // 10 MB at 1 MB/s × 0.85 ≈ 11.8 s + handshake.
        assert!((large.as_secs() - (1.2 + 0.01 + 10.0 / 0.85)).abs() < 0.1);
    }

    #[test]
    fn handshake_dominates_tiny_transfers() {
        let p = flat_path(1e9, 0.001);
        let t = transfer_time(&p, &TransferSpec::rsync(Bytes::new(1024)));
        assert!((t.as_secs() - 1.2).abs() < 0.01);
        let o = transfer_time(&p, &TransferSpec::object_store(Bytes::new(1024)));
        assert!(o.as_secs() < t.as_secs());
    }

    #[test]
    fn loss_inflates_serialisation_geometrically() {
        let clean = lossy_path(1e6, 0.0, 0.0, 0.0);
        let lossy = lossy_path(1e6, 0.0, 0.0, 0.2);
        let spec = TransferSpec::rsync(Bytes::new(10_000_000));
        let t_clean = transfer_time(&clean, &spec).as_secs() - spec.handshake_s;
        let t_lossy = transfer_time(&lossy, &spec).as_secs() - spec.handshake_s;
        // 20% loss ⇒ every byte sent 1/(1-0.2) = 1.25x on average.
        assert!(
            (t_lossy / t_clean - 1.25).abs() < 1e-9,
            "{}",
            t_lossy / t_clean
        );
    }

    #[test]
    fn total_loss_is_clamped_finite() {
        let dead = lossy_path(1e6, 0.0, 0.0, 1.0);
        let t = transfer_time(&dead, &TransferSpec::rsync(Bytes::new(1_000_000)));
        assert!(t.as_secs().is_finite());
        // Clamped at MAX_EFFECTIVE_LOSS: 20x the clean serialisation.
        let clean = transfer_time(
            &lossy_path(1e6, 0.0, 0.0, 0.0),
            &TransferSpec::rsync(Bytes::new(1_000_000)),
        );
        let ratio = (t.as_secs() - 1.2) / (clean.as_secs() - 1.2);
        assert!((ratio - 20.0).abs() < 1e-6, "ratio {ratio}");
        // loss > 1.0 behaves identically to loss = 1.0.
        let worse = transfer_time(
            &lossy_path(1e6, 0.0, 0.0, 1.5),
            &TransferSpec::rsync(Bytes::new(1_000_000)),
        );
        assert_eq!(t, worse);
    }

    #[test]
    fn jitter_adds_deterministic_latency() {
        let calm = lossy_path(1e9, 0.01, 0.0, 0.0);
        let jittery = lossy_path(1e9, 0.01, 0.004, 0.0);
        let spec = TransferSpec::object_store(Bytes::new(1024));
        let d = transfer_time(&jittery, &spec).as_secs() - transfer_time(&calm, &spec).as_secs();
        assert!((d - 0.004).abs() < 1e-9, "jitter charge {d}");
        // Deterministic: same inputs, same time.
        assert_eq!(
            transfer_time(&jittery, &spec),
            transfer_time(&jittery, &spec)
        );
    }

    #[test]
    fn rpc_cost_is_rtt_plus_serialisation() {
        let p = flat_path(1e6, 0.005);
        // 10 kB frame + 16 B response at 1 MB/s ≈ 10 ms + 10 ms RTT.
        let t = rpc_round_trip(&p, Bytes::new(10_000), Bytes::new(16));
        assert!((t.as_secs() - (0.010 + 0.010016)).abs() < 1e-4);
    }

    #[test]
    fn rpc_pays_jitter_and_loss() {
        let clean = lossy_path(1e6, 0.005, 0.0, 0.0);
        let rough = lossy_path(1e6, 0.005, 0.002, 0.5);
        let t_clean = rpc_round_trip(&clean, Bytes::new(10_000), Bytes::new(16)).as_secs();
        let t_rough = rpc_round_trip(&rough, Bytes::new(10_000), Bytes::new(16)).as_secs();
        // 2 sigma of jitter on the round trip + doubled serialisation.
        let expected = t_clean + 2.0 * 0.002 + 0.010016;
        assert!((t_rough - expected).abs() < 1e-6, "{t_rough} vs {expected}");
    }

    #[test]
    fn realistic_tub_upload_takes_minutes_on_wifi() {
        // A 20k-record tub of 40x30 grayscale ≈ 20000 * 1.2 kB ≈ 24 MB
        // plus JSON; call it 30 MB. Over the car's WiFi path, including the
        // ~1.1% composed loss and its retransmits.
        let p = Path::car_to_cloud();
        let t = transfer_time(&p, &TransferSpec::rsync(Bytes::new(30_000_000)));
        assert!(
            t.as_secs() > 5.0 && t.as_secs() < 60.0,
            "30 MB over WiFi took {t}"
        );
        // The lossy path is strictly slower than a loss-free clone of it.
        let mut clean = p.clone();
        for hop in &mut clean.hops {
            hop.loss = 0.0;
            hop.jitter_s = 0.0;
        }
        let t_clean = transfer_time(&clean, &TransferSpec::rsync(Bytes::new(30_000_000)));
        assert!(t.as_secs() > t_clean.as_secs());
    }

    #[test]
    fn datacenter_rpc_is_sub_millisecond() {
        let p = Path::of_presets(&[LinkPreset::Datacenter]);
        let t = rpc_round_trip(&p, Bytes::new(5_000), Bytes::new(16));
        assert!(t.as_secs() < 0.001, "{t}");
    }
}
