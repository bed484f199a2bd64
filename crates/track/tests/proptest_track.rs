//! Property tests for track geometry invariants.

use autolearn_track::track::TAPE_WIDTH;
use autolearn_track::{
    circle_track, paper_oval, random_track, waveshare_track, RandomTrackConfig, Surface, Track,
    Vec2,
};
use proptest::prelude::*;

/// Tracks the surface raster is checked on: both paper tracks, a circle,
/// one whose width jumps between waypoints, and seeded random circuits.
fn raster_track(which: u64) -> Track {
    match which {
        0 => paper_oval(),
        1 => circle_track(3.0, 0.8),
        2 => waveshare_track(),
        3 => {
            let pts: Vec<Vec2> = (0..24)
                .map(|i| Vec2::from_angle(i as f64 * std::f64::consts::TAU / 24.0) * 2.5)
                .collect();
            let widths: Vec<f64> = (0..24).map(|i| [0.5, 0.9, 0.7][i % 3]).collect();
            Track::from_centerline_var_width("wobbly", &pts, &widths)
        }
        seed => random_track(seed, &RandomTrackConfig::default()),
    }
}

/// Bounding box of the centerline, grown by `margin` on every side.
fn centerline_box(t: &Track, margin: f64) -> (Vec2, Vec2) {
    let (mut lo, mut hi) = (Vec2::new(f64::MAX, f64::MAX), Vec2::new(f64::MIN, f64::MIN));
    let mut s = 0.0;
    while s < t.length() {
        let p = t.point_at(s);
        lo = Vec2::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Vec2::new(hi.x.max(p.x), hi.y.max(p.y));
        s += 0.05;
    }
    (
        lo - Vec2::new(margin, margin),
        hi + Vec2::new(margin, margin),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// offset_point followed by project recovers (s, lateral) within the
    /// resolution of the internal resampling, for offsets within the track.
    #[test]
    fn project_inverts_offset_on_oval(frac in 0.0f64..1.0, lat in -0.3f64..0.3) {
        let t = paper_oval();
        let s = frac * t.length();
        let p = t.offset_point(s, lat);
        let proj = t.project(p);
        let ds = t.forward_distance(s, proj.s).min(t.forward_distance(proj.s, s));
        prop_assert!(ds < 0.2, "station error {ds}");
        prop_assert!((proj.lateral - lat).abs() < 0.08, "lateral {} vs {}", proj.lateral, lat);
    }

    /// Points beyond half-width are off-track; points well inside are on.
    #[test]
    fn on_track_consistent_with_width(frac in 0.0f64..1.0, lat in -2.0f64..2.0) {
        let t = circle_track(4.0, 0.8);
        let s = frac * t.length();
        let p = t.offset_point(s, lat);
        let proj = t.project(p);
        if lat.abs() < 0.35 {
            prop_assert!(proj.on_track);
        }
        if lat.abs() > 0.45 {
            prop_assert!(!proj.on_track);
        }
    }

    /// Surface bands are ordered: asphalt strictly inside tape, off strictly
    /// outside, and edge_distance sign agrees.
    #[test]
    fn surface_bands_ordered(frac in 0.0f64..1.0, lat in -1.5f64..1.5) {
        let t = circle_track(4.0, 0.8);
        let s = frac * t.length();
        let p = t.offset_point(s, lat);
        let surface = t.surface_at(p);
        let edge = t.edge_distance(p);
        match surface {
            Surface::Asphalt => prop_assert!(edge < 0.0),
            Surface::Off => prop_assert!(edge > -0.03),
            Surface::Line => prop_assert!(edge.abs() < 0.05, "tape at edge dist {edge}"),
        }
    }

    /// wrap_station is idempotent and in range for any input.
    #[test]
    fn wrap_station_in_range(s in -1000.0f64..1000.0) {
        let t = circle_track(3.0, 0.5);
        let w = t.wrap_station(s);
        prop_assert!((0.0..t.length()).contains(&w));
        prop_assert!((t.wrap_station(w) - w).abs() < 1e-9);
    }

    /// Random tracks always produce drivable centerlines.
    #[test]
    fn random_tracks_drivable(seed in 0u64..50) {
        let t = random_track(seed, &RandomTrackConfig::default());
        prop_assert!(t.length() > 10.0);
        let mut s = 0.0;
        while s < t.length() {
            prop_assert!(t.project(t.point_at(s)).on_track);
            s += 1.0;
        }
    }

    /// The raster classifies like the exact projection right at the tape:
    /// on both edges of both lines, in 64 stations round the track.
    #[test]
    fn raster_matches_exact_near_tape(
        which in 0u64..12,
        frac in 0.0f64..1.0,
        jitter in -0.03f64..0.03,
        fine in -1e-6f64..1e-6,
    ) {
        let t = raster_track(which);
        for k in 0..64 {
            let s = (frac + k as f64 / 64.0) % 1.0 * t.length();
            let hw = t.width_at(s) / 2.0;
            let tape = TAPE_WIDTH / 2.0;
            for edge in [-hw - tape, -hw, -hw + tape, hw - tape, hw, hw + tape] {
                for lat in [edge + fine, edge + jitter] {
                    let p = t.offset_point(s, lat);
                    prop_assert_eq!(t.surface_at(p), t.surface_at_exact(p));
                }
            }
        }
    }

    /// ... and everywhere else, over the grid box and 2 m beyond it.
    #[test]
    fn raster_matches_exact_over_grid_box(
        which in 0u64..12,
        points in prop::collection::vec((-0.1f64..1.1, -0.1f64..1.1), 512),
    ) {
        let t = raster_track(which);
        let (lo, hi) = centerline_box(&t, t.mean_width() / 2.0 + 3.0);
        for (fx, fy) in points {
            let p = Vec2::new(lo.x + fx * (hi.x - lo.x), lo.y + fy * (hi.y - lo.y));
            prop_assert_eq!(t.surface_at(p), t.surface_at_exact(p));
        }
    }
}
