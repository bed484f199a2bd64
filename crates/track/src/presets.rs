//! The paper's tracks.
//!
//! §3.3: *"We used a default track that was made with an orange tape oval
//! shape with the following dimensions; inner line length: 330 in, outer
//! line length: 509 in and average width: 27.59 in"* plus the commercial
//! Waveshare track (Fig. 3b).

use crate::geometry::Vec2;
use crate::polyline::chaikin_smooth;
use crate::track::Track;
use crate::INCH;
use std::f64::consts::PI;

/// The paper's orange-tape oval, modelled as a stadium (two straights joined
/// by semicircles).
///
/// Solving the stadium equations against the paper's numbers: with a uniform
/// width `w`, outer − inner = 2πw. The paper's measured difference
/// (179 in) and measured average width (27.59 in) disagree slightly — real
/// tape wobbles — so we take w = 28.2 in, splitting the residual, and fix the
/// inner line at 330 in. Centerline = 330 + πw ≈ 418.6 in; choosing a bend
/// radius of 40 in leaves 83.65 in straights.
pub fn paper_oval() -> Track {
    let w = 28.2 * INCH;
    let r_c = 40.0 * INCH; // centerline bend radius
    let straight = {
        let center_perim = (330.0 + PI * 28.2) * INCH;
        (center_perim - 2.0 * PI * r_c) / 2.0
    };
    let mut pts = Vec::new();
    let arc_steps = 48;
    // Bottom straight, left → right.
    pts.push(Vec2::new(-straight / 2.0, -r_c));
    pts.push(Vec2::new(straight / 2.0, -r_c));
    // Right semicircle (CCW from -90° to +90°).
    for i in 1..arc_steps {
        let a = -PI / 2.0 + PI * i as f64 / arc_steps as f64;
        pts.push(Vec2::new(straight / 2.0 + r_c * a.cos(), r_c * a.sin()));
    }
    // Top straight, right → left.
    pts.push(Vec2::new(straight / 2.0, r_c));
    pts.push(Vec2::new(-straight / 2.0, r_c));
    // Left semicircle (CCW from +90° to +270°).
    for i in 1..arc_steps {
        let a = PI / 2.0 + PI * i as f64 / arc_steps as f64;
        pts.push(Vec2::new(-straight / 2.0 + r_c * a.cos(), r_c * a.sin()));
    }
    Track::from_centerline("paper-oval", &pts, w)
}

/// The Waveshare commercial track (PiRacer Pro AI kit): a compact closed
/// circuit roughly 3.8 m x 2.5 m with an S-chicane, lane width ~45 cm.
/// Dimensions follow the published kit mat; the exact decal layout is
/// approximated by the centerline below.
pub fn waveshare_track() -> Track {
    let raw = [
        (0.0, 0.0),
        (1.2, -0.1),
        (2.4, 0.0),
        (3.0, 0.5),
        (3.2, 1.2),
        (2.9, 1.8),
        // S-chicane across the middle.
        (2.2, 1.9),
        (1.8, 1.5),
        (1.3, 1.3),
        (0.9, 1.6),
        (0.5, 2.0),
        (-0.1, 1.9),
        (-0.5, 1.3),
        (-0.5, 0.6),
    ];
    let pts: Vec<Vec2> = raw.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
    let smooth = chaikin_smooth(&pts, 3);
    Track::from_centerline("waveshare", &smooth, 0.45)
}

/// A plain circular track, handy for tests and the simplest simulator lesson.
pub fn circle_track(radius: f64, width: f64) -> Track {
    let n = 128;
    let pts: Vec<Vec2> = (0..n)
        .map(|i| {
            let a = 2.0 * PI * i as f64 / n as f64;
            Vec2::new(radius * a.cos(), radius * a.sin())
        })
        .collect();
    Track::from_centerline("circle", &pts, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oval_dimensions() {
        let t = paper_oval();
        // Centerline between inner and outer perimeters.
        let inner = t.inner_line_length();
        let outer = t.outer_line_length();
        assert!(inner < t.length() && t.length() < outer);
        // The tightest bend is the 40 in-radius semicircle.
        let r_bend = 40.0 * INCH;
        let k = t.max_abs_curvature();
        assert!(
            (k - 1.0 / r_bend).abs() < 0.15 / r_bend,
            "max curvature {k:.3}, expected ~{:.3}",
            1.0 / r_bend
        );
    }

    #[test]
    fn waveshare_is_a_valid_loop() {
        let t = waveshare_track();
        assert!(
            t.length() > 6.0 && t.length() < 14.0,
            "length {}",
            t.length()
        );
        assert!((t.mean_width() - 0.45).abs() < 1e-6);
        // The chicane makes it turn both ways.
        let mut pos = false;
        let mut neg = false;
        let mut s = 0.0;
        while s < t.length() {
            let k = t.curvature_at(s);
            if k > 0.05 {
                pos = true;
            }
            if k < -0.05 {
                neg = true;
            }
            s += 0.1;
        }
        assert!(pos && neg, "waveshare must curve both directions");
    }

    #[test]
    fn circle_track_radius() {
        let t = circle_track(3.0, 0.6);
        let p = t.point_at(0.0);
        assert!((p.norm() - 3.0).abs() < 0.01);
    }

    #[test]
    fn presets_have_distinct_names() {
        assert_eq!(paper_oval().name(), "paper-oval");
        assert_eq!(waveshare_track().name(), "waveshare");
        assert_eq!(circle_track(1.0, 0.5).name(), "circle");
    }
}
