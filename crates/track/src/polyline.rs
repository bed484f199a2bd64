//! Closed-polyline utilities: resampling, arc length, heading, curvature.

use crate::geometry::Vec2;

/// Perimeter of the closed polygon through `pts`.
pub fn closed_length(pts: &[Vec2]) -> f64 {
    if pts.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..pts.len() {
        let j = (i + 1) % pts.len();
        total += pts[i].dist(pts[j]);
    }
    total
}

/// Resample a closed polyline to points spaced (approximately) `ds` apart
/// along the perimeter. The output has at least 8 points and starts at
/// `pts[0]`.
pub fn resample_closed(pts: &[Vec2], ds: f64) -> Vec<Vec2> {
    assert!(pts.len() >= 3, "closed polyline needs at least 3 points");
    assert!(ds > 0.0, "sample spacing must be positive");
    let total = closed_length(pts);
    let n = ((total / ds).round() as usize).max(8);
    let step = total / n as f64;

    let mut out = Vec::with_capacity(n);
    let mut seg = 0usize; // current segment start index
    let mut seg_start = pts[0];
    let mut seg_end = pts[1 % pts.len()];
    let mut seg_len = seg_start.dist(seg_end);
    let mut into_seg = 0.0; // distance already consumed within current segment

    out.push(pts[0]);
    let mut remaining = step;
    while out.len() < n {
        // Walk forward `remaining` meters along the polyline.
        while into_seg + remaining >= seg_len {
            remaining -= seg_len - into_seg;
            seg += 1;
            into_seg = 0.0;
            seg_start = pts[seg % pts.len()];
            seg_end = pts[(seg + 1) % pts.len()];
            seg_len = seg_start.dist(seg_end);
            // Skip degenerate segments (repeated points).
            if seg_len < 1e-12 {
                seg_len = 0.0;
                continue;
            }
        }
        into_seg += remaining;
        let t = if seg_len > 0.0 {
            into_seg / seg_len
        } else {
            0.0
        };
        out.push(seg_start.lerp(seg_end, t));
        remaining = step;
    }
    out
}

/// Cumulative arc length at each point of a closed polyline; `out[0] == 0`,
/// and the implicit wrap-around segment closes the loop. Returns
/// (per-point station, total length).
pub fn cumulative_arclength(pts: &[Vec2]) -> (Vec<f64>, f64) {
    let mut s = Vec::with_capacity(pts.len());
    let mut acc = 0.0;
    for i in 0..pts.len() {
        s.push(acc);
        let j = (i + 1) % pts.len();
        acc += pts[i].dist(pts[j]);
    }
    (s, acc)
}

/// Per-point unit tangents of a closed polyline (central difference).
pub fn tangents(pts: &[Vec2]) -> Vec<Vec2> {
    let n = pts.len();
    (0..n)
        .map(|i| {
            let prev = pts[(i + n - 1) % n];
            let next = pts[(i + 1) % n];
            (next - prev).normalized()
        })
        .collect()
}

/// Per-point signed curvature (1/m) of a closed polyline, positive for
/// counter-clockwise turning. Uses the discrete Menger curvature of each
/// point with its neighbours.
pub fn curvatures(pts: &[Vec2]) -> Vec<f64> {
    let n = pts.len();
    (0..n)
        .map(|i| {
            let a = pts[(i + n - 1) % n];
            let b = pts[i];
            let c = pts[(i + 1) % n];
            menger_curvature(a, b, c)
        })
        .collect()
}

/// Signed Menger curvature of three points: 2·cross / (|ab|·|bc|·|ca|).
pub fn menger_curvature(a: Vec2, b: Vec2, c: Vec2) -> f64 {
    let ab = b - a;
    let bc = c - b;
    let denom = ab.norm() * bc.norm() * (c - a).norm();
    if denom < 1e-12 {
        0.0
    } else {
        2.0 * ab.cross(bc) / denom
    }
}

/// One round of Chaikin corner-cutting on a closed polyline: each segment
/// contributes its 1/4 and 3/4 points. Repeated rounds converge to a smooth
/// quadratic B-spline — used to round the sharp corners of hand-specified
/// waypoint loops before building a `Track`.
pub fn chaikin_smooth(pts: &[Vec2], rounds: usize) -> Vec<Vec2> {
    let mut cur = pts.to_vec();
    for _ in 0..rounds {
        let n = cur.len();
        let mut next = Vec::with_capacity(2 * n);
        for i in 0..n {
            let a = cur[i];
            let b = cur[(i + 1) % n];
            next.push(a.lerp(b, 0.25));
            next.push(a.lerp(b, 0.75));
        }
        cur = next;
    }
    cur
}

/// Signed area of a closed polygon (positive = counter-clockwise winding).
pub fn signed_area(pts: &[Vec2]) -> f64 {
    let n = pts.len();
    let mut acc = 0.0;
    for i in 0..n {
        let j = (i + 1) % n;
        acc += pts[i].cross(pts[j]);
    }
    acc / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn unit_square() -> Vec<Vec2> {
        vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
        ]
    }

    fn circle(r: f64, n: usize) -> Vec<Vec2> {
        (0..n)
            .map(|i| {
                let a = 2.0 * PI * i as f64 / n as f64;
                Vec2::new(r * a.cos(), r * a.sin())
            })
            .collect()
    }

    #[test]
    fn square_perimeter() {
        assert!((closed_length(&unit_square()) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn resample_spacing_uniform() {
        let pts = resample_closed(&unit_square(), 0.1);
        let total = closed_length(&pts);
        assert!((total - 4.0).abs() < 0.05);
        // All gaps equal to total/n within tolerance.
        let step = total / pts.len() as f64;
        for i in 0..pts.len() {
            let d = pts[i].dist(pts[(i + 1) % pts.len()]);
            assert!((d - step).abs() < 0.02, "gap {i} was {d}, expected ~{step}");
        }
    }

    #[test]
    fn resample_starts_at_first_point() {
        let pts = resample_closed(&unit_square(), 0.25);
        assert_eq!(pts[0], Vec2::new(0.0, 0.0));
    }

    #[test]
    fn cumulative_arclength_monotone() {
        let pts = resample_closed(&circle(2.0, 64), 0.1);
        let (s, total) = cumulative_arclength(&pts);
        assert_eq!(s[0], 0.0);
        for w in s.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!((total - 2.0 * PI * 2.0).abs() < 0.05);
    }

    #[test]
    fn circle_curvature_is_one_over_r() {
        for r in [0.5, 1.0, 3.0] {
            let pts = circle(r, 256);
            let ks = curvatures(&pts);
            for &k in &ks {
                assert!(
                    (k - 1.0 / r).abs() < 0.01 / r,
                    "curvature {k} vs expected {}",
                    1.0 / r
                );
            }
        }
    }

    #[test]
    fn clockwise_circle_has_negative_curvature() {
        let mut pts = circle(1.0, 128);
        pts.reverse();
        let ks = curvatures(&pts);
        assert!(ks.iter().all(|&k| k < 0.0));
        assert!(signed_area(&pts) < 0.0);
    }

    #[test]
    fn tangents_are_unit_and_tangential() {
        let pts = circle(3.0, 256);
        let ts = tangents(&pts);
        for (p, t) in pts.iter().zip(&ts) {
            assert!((t.norm() - 1.0).abs() < 1e-9);
            // Tangent ⟂ radius on a circle.
            assert!(p.normalized().dot(*t).abs() < 0.03);
        }
    }

    #[test]
    fn straight_line_zero_curvature() {
        let k = menger_curvature(
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(2.0, 0.0),
        );
        assert_eq!(k, 0.0);
    }

    #[test]
    fn signed_area_of_square() {
        assert!((signed_area(&unit_square()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chaikin_doubles_points_and_shrinks_corners() {
        let sq = unit_square();
        let smooth = chaikin_smooth(&sq, 1);
        assert_eq!(smooth.len(), 8);
        // Corner-cutting keeps the perimeter close but strictly inside hull.
        for p in &smooth {
            assert!(p.x >= -1e-9 && p.x <= 1.0 + 1e-9);
            assert!(p.y >= -1e-9 && p.y <= 1.0 + 1e-9);
        }
        // Perimeter shrinks monotonically toward the limit B-spline.
        let p0 = closed_length(&sq);
        let p1 = closed_length(&chaikin_smooth(&sq, 1));
        let p2 = closed_length(&chaikin_smooth(&sq, 3));
        assert!(p1 < p0);
        assert!(p2 < p1);
    }
}
