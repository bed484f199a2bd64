//! Cross-crate property tests.

use autolearn::dataset::{image_to_input, records_to_dataset, tub_bytes_estimate};
use autolearn::pathway::competition_score;
use autolearn::placement::max_safe_speed;
use autolearn_net::{rpc_round_trip, transfer_time, Link, Path, TransferSpec};
use autolearn_nn::models::ModelConfig;
use autolearn_tub::Record;
use autolearn_util::{Bytes, Image};
use proptest::prelude::*;

fn cfg() -> ModelConfig {
    ModelConfig {
        height: 30,
        width: 40,
        channels: 1,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any image converts to a correctly-shaped, normalised tensor.
    #[test]
    fn image_conversion_total(w in 8usize..64, h in 8usize..48, c in prop::sample::select(vec![1usize, 3]), fill in 0u8..=255) {
        let mut img = Image::new(w, h, c);
        img.data.fill(fill);
        let t = image_to_input(&img, &cfg());
        prop_assert_eq!(t.shape(), &[1, 30, 40]);
        prop_assert!(t.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Constant image stays constant through resize/grayscale.
        let expect = f32::from(fill) / 255.0;
        prop_assert!(t.data().iter().all(|&v| (v - expect).abs() < 1e-5));
    }

    /// Dataset targets stay aligned and clamped for arbitrary records.
    #[test]
    fn records_dataset_alignment(controls in prop::collection::vec((-2.0f32..2.0, -1.0f32..2.0), 4..32)) {
        let records: Vec<Record> = controls
            .iter()
            .enumerate()
            .map(|(i, &(s, t))| Record::new(i as u64, s, t, i as u64 * 50, Image::new(40, 30, 1)))
            .collect();
        let d = records_to_dataset(&records, &cfg());
        prop_assert_eq!(d.len(), records.len());
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(d.steering()[i], r.steering);
            prop_assert!((-1.0..=1.0).contains(&d.steering()[i]));
            prop_assert!((0.0..=1.0).contains(&d.throttle()[i]));
        }
        prop_assert_eq!(tub_bytes_estimate(&records), Bytes::new(records.len() as u64 * 1362));
    }

    /// Transfer time is monotone in bytes and anti-monotone in bandwidth.
    #[test]
    fn transfer_monotonicity(bytes in 1u64..1_000_000_000, bw in 1e5f64..1e9) {
        let path = |b: f64| Path::new(vec![Link {
            name: "x".into(),
            latency_s: 0.01,
            bandwidth_bps: b,
            jitter_s: 0.0,
            loss: 0.0,
        }]);
        let t1 = transfer_time(&path(bw), &TransferSpec::rsync(Bytes::new(bytes)));
        let t2 = transfer_time(&path(bw), &TransferSpec::rsync(Bytes::new(bytes * 2)));
        let t3 = transfer_time(&path(bw * 2.0), &TransferSpec::rsync(Bytes::new(bytes)));
        prop_assert!(t2.as_secs() >= t1.as_secs());
        prop_assert!(t3.as_secs() <= t1.as_secs());
        // RPC below bulk-with-handshake for same payload.
        let r = rpc_round_trip(&path(bw), Bytes::new(bytes.min(10_000)), Bytes::new(16));
        prop_assert!(r.as_secs() > 0.0);
    }

    /// Safe speed is anti-monotone in latency and curvature, and never
    /// exceeds the cap.
    #[test]
    fn safe_speed_monotonicity(lat in 0.0f64..1.0, k in 0.01f64..3.0, margin in 0.05f64..0.5) {
        let v = max_safe_speed(lat, 0.05, k, margin, 3.5);
        let v_slower_net = max_safe_speed(lat + 0.2, 0.05, k, margin, 3.5);
        let v_tighter = max_safe_speed(lat, 0.05, k * 2.0, margin, 3.5);
        prop_assert!(v <= 3.5 + 1e-12);
        prop_assert!(v_slower_net <= v + 1e-12);
        prop_assert!(v_tighter <= v + 1e-12);
        prop_assert!(v > 0.0);
    }

    /// Competition score: monotone in speed and autonomy, anti-monotone in
    /// errors, and bounded by speed.
    #[test]
    fn competition_score_properties(v in 0.0f64..4.0, a in 0.0f64..1.0, e in 0.0f64..10.0) {
        let s = competition_score(v, a, e);
        prop_assert!(s >= 0.0);
        prop_assert!(s <= v + 1e-12);
        prop_assert!(competition_score(v + 0.5, a, e) >= s);
        prop_assert!(competition_score(v, a, e + 1.0) <= s);
        prop_assert!(competition_score(v, (a - 0.1).max(0.0), e) <= s + 1e-12);
    }
}
