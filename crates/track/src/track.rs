//! The `Track` type: a closed centerline with width, arc-length sampling,
//! fast point projection and surface classification.

mod raster;

use crate::geometry::{point_segment_dist_sq, Vec2};
use crate::polyline::{cumulative_arclength, curvatures, resample_closed, signed_area, tangents};
use crate::surface::Surface;
use raster::SurfaceRaster;
use serde::{de_field, Deserialize, Serialize};
use std::sync::Arc;

/// Spacing of the internal resampled centerline, meters. Fine enough that
/// linear interpolation between samples is below millimetre error on the
/// paper's ~1 m-radius bends.
const SAMPLE_DS: f64 = 0.05;

/// Width of a boundary tape line, meters (2-inch gaffer tape ≈ 5 cm).
pub const TAPE_WIDTH: f64 = 0.05;

/// Circular moving average with half-window `h`.
fn smooth_circular(xs: &[f64], h: usize) -> Vec<f64> {
    let n = xs.len();
    if n == 0 || h == 0 {
        return xs.to_vec();
    }
    let w = 2 * h + 1;
    (0..n)
        .map(|i| {
            let mut acc = 0.0;
            for k in 0..w {
                let j = (i + n + k - h) % n;
                acc += xs[j];
            }
            acc / w as f64
        })
        .collect()
}

/// Result of projecting a world point onto a track.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackProjection {
    /// Station: arc length along the centerline of the closest point, in
    /// `[0, length)`.
    pub s: f64,
    /// Signed lateral offset, positive to the *left* of the direction of
    /// travel, meters.
    pub lateral: f64,
    /// Centerline heading at the projection, radians.
    pub heading: f64,
    /// Signed centerline curvature at the projection, 1/m.
    pub curvature: f64,
    /// Whether the point is within the track edges.
    pub on_track: bool,
}

/// A closed driving track.
///
/// Serialises its geometry and spatial grid; the surface raster is derived
/// state, rebuilt on deserialise and shared between clones.
#[derive(Debug, Clone, Serialize)]
pub struct Track {
    name: String,
    /// Densely resampled centerline, counter-clockwise.
    center: Vec<Vec2>,
    /// Station of each centerline sample.
    station: Vec<f64>,
    /// Unit tangent at each sample.
    tangent: Vec<Vec2>,
    /// Signed curvature at each sample.
    curvature: Vec<f64>,
    /// Half-width at each sample (edge-to-centerline), meters.
    half_width: Vec<f64>,
    length: f64,
    // Uniform spatial grid over the bounding box mapping cells to candidate
    // centerline sample indices; accelerates `project` from O(n) to O(1).
    grid_origin: Vec2,
    grid_cell: f64,
    grid_cols: usize,
    grid_rows: usize,
    grid: Vec<Vec<u32>>,
    // Certified surface class per grid sub-cell, behind `surface_at`.
    #[serde(skip)]
    raster: Arc<SurfaceRaster>,
}

impl Deserialize for Track {
    fn deserialize(v: &serde::Value) -> Result<Track, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::new("expected object for Track"))?;
        let mut track = Track {
            name: de_field(obj, "name")?,
            center: de_field(obj, "center")?,
            station: de_field(obj, "station")?,
            tangent: de_field(obj, "tangent")?,
            curvature: de_field(obj, "curvature")?,
            half_width: de_field(obj, "half_width")?,
            length: de_field(obj, "length")?,
            grid_origin: de_field(obj, "grid_origin")?,
            grid_cell: de_field(obj, "grid_cell")?,
            grid_cols: de_field(obj, "grid_cols")?,
            grid_rows: de_field(obj, "grid_rows")?,
            grid: de_field(obj, "grid")?,
            raster: Arc::default(),
        };
        // The raster's proof needs what the constructors guarantee:
        // stations rising from 0 to at most `length`, and a grid that
        // indexes only existing samples.
        let n = track.center.len();
        let per_sample = [
            track.station.len(),
            track.tangent.len(),
            track.curvature.len(),
            track.half_width.len(),
        ];
        let stations_rise = track.station.first() == Some(&0.0)
            && track.station.windows(2).all(|w| w[0] <= w[1])
            && track.station.last().is_some_and(|&s| s <= track.length);
        if n < 3
            || per_sample.iter().any(|&len| len != n)
            || !stations_rise
            || !(track.grid_cell > 0.0)
            || Some(track.grid.len()) != track.grid_cols.checked_mul(track.grid_rows)
            || track.grid.iter().flatten().any(|&ci| ci as usize >= n)
        {
            return Err(serde::Error::new("inconsistent Track geometry"));
        }
        track.raster = Arc::new(SurfaceRaster::build(&track));
        Ok(track)
    }
}

impl Track {
    /// Build a track from a closed centerline waypoint loop and a uniform
    /// width. Waypoints are resampled at 5 cm; winding is normalised to
    /// counter-clockwise so "left" is consistent.
    pub fn from_centerline(name: &str, waypoints: &[Vec2], width: f64) -> Track {
        Self::from_centerline_var_width(name, waypoints, &vec![width; waypoints.len()])
    }

    /// Build a track with per-waypoint width (the paper's hand-taped oval
    /// has an *average* width of 27.59 in — real tape wobbles).
    pub fn from_centerline_var_width(name: &str, waypoints: &[Vec2], widths: &[f64]) -> Track {
        assert!(waypoints.len() >= 3, "need at least 3 waypoints");
        assert_eq!(waypoints.len(), widths.len(), "one width per waypoint");
        assert!(widths.iter().all(|&w| w > 0.0), "widths must be positive");

        let mut pts = waypoints.to_vec();
        let mut wds = widths.to_vec();
        if signed_area(&pts) < 0.0 {
            pts.reverse();
            wds.reverse();
        }

        let center = resample_closed(&pts, SAMPLE_DS);
        // Carry widths across the resample by nearest original waypoint.
        let half_width: Vec<f64> = center
            .iter()
            .map(|c| {
                let i = pts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, p.dist_sq(*c)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map_or(0, |(i, _)| i);
                wds[i] / 2.0
            })
            .collect();

        let (station, length) = cumulative_arclength(&center);
        let tangent = tangents(&center);
        // Raw Menger curvature concentrates all turning at waypoint-polygon
        // vertices (spikes) and reads ~zero between them; a circular moving
        // average over ~0.5 m recovers the underlying arc curvature.
        let curvature = smooth_circular(&curvatures(&center), (0.25 / SAMPLE_DS) as usize);

        let mut track = Track {
            name: name.to_string(),
            center,
            station,
            tangent,
            curvature,
            half_width,
            length,
            grid_origin: Vec2::ZERO,
            grid_cell: 0.0,
            grid_cols: 0,
            grid_rows: 0,
            grid: Vec::new(),
            raster: Arc::default(),
        };
        track.build_grid();
        track.raster = Arc::new(SurfaceRaster::build(&track));
        track
    }

    fn build_grid(&mut self) {
        let max_hw = self
            .half_width
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max)
            .max(0.1);
        // Margin: track width + a border so off-track queries nearby still hit.
        let margin = max_hw + 1.0;
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &self.center {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let cell = 0.5_f64;
        let origin = Vec2::new(min_x - margin, min_y - margin);
        let cols = (((max_x - min_x) + 2.0 * margin) / cell).ceil() as usize + 1;
        let rows = (((max_y - min_y) + 2.0 * margin) / cell).ceil() as usize + 1;
        let mut grid: Vec<Vec<u32>> = vec![Vec::new(); cols * rows];

        // Each sample registers itself in every cell within reach: reach =
        // its own cell plus cells whose nearest corner could be closer to
        // this sample than to any other. A conservative radius of
        // (max half-width + margin) per sample would bloat cells, so instead
        // register in the 3x3 neighbourhood and fall back to a widening
        // search on miss.
        for (i, p) in self.center.iter().enumerate() {
            let cx = ((p.x - origin.x) / cell) as isize;
            let cy = ((p.y - origin.y) / cell) as isize;
            for dy in -1..=1isize {
                for dx in -1..=1isize {
                    let gx = cx + dx;
                    let gy = cy + dy;
                    if gx >= 0 && gy >= 0 && (gx as usize) < cols && (gy as usize) < rows {
                        grid[gy as usize * cols + gx as usize].push(i as u32);
                    }
                }
            }
        }

        self.grid_origin = origin;
        self.grid_cell = cell;
        self.grid_cols = cols;
        self.grid_rows = rows;
        self.grid = grid;
    }

    /// The track's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total centerline length, meters.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Number of internal centerline samples.
    pub fn sample_count(&self) -> usize {
        self.center.len()
    }

    /// Track width (edge to edge) at station `s`.
    pub fn width_at(&self, s: f64) -> f64 {
        let i = self.index_at(s);
        2.0 * self.half_width[i]
    }

    /// Mean width over the whole track.
    pub fn mean_width(&self) -> f64 {
        2.0 * self.half_width.iter().sum::<f64>() / self.half_width.len() as f64
    }

    /// Wrap a station into `[0, length)`.
    pub fn wrap_station(&self, s: f64) -> f64 {
        let mut s = s % self.length;
        if s < 0.0 {
            s += self.length;
        }
        s
    }

    fn index_at(&self, s: f64) -> usize {
        let s = self.wrap_station(s);
        // Uniform spacing makes this a direct lookup.
        let approx = (s / self.length * self.center.len() as f64) as usize;
        approx.min(self.center.len() - 1)
    }

    /// Centerline position at station `s`.
    pub fn point_at(&self, s: f64) -> Vec2 {
        self.center[self.index_at(s)]
    }

    /// Centerline heading (radians) at station `s`.
    pub fn heading_at(&self, s: f64) -> f64 {
        self.tangent[self.index_at(s)].angle()
    }

    /// Signed curvature at station `s`.
    pub fn curvature_at(&self, s: f64) -> f64 {
        self.curvature[self.index_at(s)]
    }

    /// Maximum |curvature| over the track — the tightest bend, which caps
    /// safe speed in the closed-loop latency model.
    pub fn max_abs_curvature(&self) -> f64 {
        self.curvature.iter().map(|k| k.abs()).fold(0.0, f64::max)
    }

    /// A point offset `lateral` meters to the left of the centerline at `s`.
    pub fn offset_point(&self, s: f64, lateral: f64) -> Vec2 {
        let i = self.index_at(s);
        self.center[i] + self.tangent[i].perp() * lateral
    }

    /// Left (inner-curve) edge point at station `s`.
    pub fn left_edge(&self, s: f64) -> Vec2 {
        let i = self.index_at(s);
        self.offset_point(s, self.half_width[i])
    }

    /// Right edge point at station `s`.
    pub fn right_edge(&self, s: f64) -> Vec2 {
        let i = self.index_at(s);
        self.offset_point(s, -self.half_width[i])
    }

    /// Visit candidate sample indices near `p` from the spatial grid; see
    /// [`Track::for_cell_candidates`]. Allocation-free: `project` is called
    /// per camera pixel in mixed raster sub-cells.
    fn for_candidates(&self, p: Vec2, f: impl FnMut(u32)) {
        let cx = ((p.x - self.grid_origin.x) / self.grid_cell).floor() as isize;
        let cy = ((p.y - self.grid_origin.y) / self.grid_cell).floor() as isize;
        self.for_cell_candidates(cx, cy, f);
    }

    /// Visit the candidate sample indices of grid cell `(cx, cy)`, widening
    /// the search ring until non-empty, then scanning one extra ring so the
    /// true nearest isn't missed just across a cell edge. The set depends
    /// on the cell alone, which the surface raster's proof relies on.
    fn for_cell_candidates(&self, cx: isize, cy: isize, mut f: impl FnMut(u32)) {
        let max_ring = (self.grid_cols.max(self.grid_rows)) as isize;

        let scan_ring = |ring: isize, f: &mut dyn FnMut(u32)| -> bool {
            let mut any = false;
            for dy in -ring..=ring {
                for dx in -ring..=ring {
                    // Only the ring boundary (interior already scanned).
                    if dx.abs() != ring && dy.abs() != ring {
                        continue;
                    }
                    let gx = cx + dx;
                    let gy = cy + dy;
                    if gx >= 0
                        && gy >= 0
                        && (gx as usize) < self.grid_cols
                        && (gy as usize) < self.grid_rows
                    {
                        let cell = &self.grid[gy as usize * self.grid_cols + gx as usize];
                        for &ci in cell {
                            any = true;
                            f(ci);
                        }
                    }
                }
            }
            any
        };

        for ring in 0..=max_ring {
            if scan_ring(ring, &mut f) {
                scan_ring(ring + 1, &mut f);
                return;
            }
        }
        // Point far outside the gridded area: brute force.
        for ci in 0..self.center.len() as u32 {
            f(ci);
        }
    }

    /// Project `p` onto the track.
    pub fn project(&self, p: Vec2) -> TrackProjection {
        let n = self.center.len();
        let mut best = (f64::INFINITY, 0usize, 0.0f64); // (dist_sq, seg index, t)
        self.for_candidates(p, |ci| {
            let i = ci as usize;
            let a = self.center[i];
            let b = self.center[(i + 1) % n];
            let (d2, t) = point_segment_dist_sq(p, a, b);
            if d2 < best.0 {
                best = (d2, i, t);
            }
        });
        let (_, i, t) = best;
        let j = (i + 1) % n;
        let a = self.center[i];
        let b = self.center[j];
        let closest = a.lerp(b, t);
        let tangent = (self.tangent[i] * (1.0 - t) + self.tangent[j] * t).normalized();
        let lateral = tangent.cross(p - closest).signum() * p.dist(closest);
        // Interpolated, wrap-aware station.
        let seg_len = a.dist(b);
        let s = self.wrap_station(self.station[i] + t * seg_len);
        let hw = self.half_width[i] * (1.0 - t) + self.half_width[j] * t;
        let curvature = self.curvature[i] * (1.0 - t) + self.curvature[j] * t;
        TrackProjection {
            s,
            lateral,
            heading: tangent.angle(),
            curvature,
            on_track: lateral.abs() <= hw,
        }
    }

    /// Classify the ground at world point `p`: boundary tape line, drivable
    /// surface, or off-track. The tape is centred on each edge.
    ///
    /// A table lookup in the track's surface raster; only points in a
    /// sub-cell that straddles a class boundary run the exact projection.
    /// The answer always equals [`Track::surface_at_exact`]'s.
    pub fn surface_at(&self, p: Vec2) -> Surface {
        // The quotients `for_candidates` floors, so the sub-cell lies inside
        // the very grid cell whose candidates `project` would scan.
        let u = (p.x - self.grid_origin.x) / self.grid_cell;
        let v = (p.y - self.grid_origin.y) / self.grid_cell;
        let (cu, cv) = (u.floor(), v.floor());
        // Outside the grid box every segment is more than `max_hw + 1` m
        // away: off-track, as the exact classifier also says of NaN.
        if !(cu >= 0.0 && cv >= 0.0 && cu < self.grid_cols as f64 && cv < self.grid_rows as f64) {
            return Surface::Off;
        }
        let cell = cv as usize * self.grid_cols + cu as usize;
        self.raster
            .lookup(cell, u - cu, v - cv)
            .unwrap_or_else(|| self.surface_at_exact(p))
    }

    /// The exact classifier: project `p`, then compare `|lateral|` with the
    /// half-width at the projected station. The fallback for mixed raster
    /// sub-cells and the oracle the raster is tested against; render with
    /// [`Track::surface_at`].
    #[doc(hidden)]
    pub fn surface_at_exact(&self, p: Vec2) -> Surface {
        let proj = self.project(p);
        let i = self.index_at(proj.s);
        let hw = self.half_width[i];
        let d_edge = (proj.lateral.abs() - hw).abs();
        if d_edge <= TAPE_WIDTH / 2.0 {
            Surface::Line
        } else if proj.lateral.abs() < hw {
            Surface::Asphalt
        } else {
            Surface::Off
        }
    }

    /// Signed distance from `p` to the nearest track edge: negative inside
    /// the track, positive outside.
    pub fn edge_distance(&self, p: Vec2) -> f64 {
        let proj = self.project(p);
        let i = self.index_at(proj.s);
        proj.lateral.abs() - self.half_width[i]
    }

    /// Inner (tape) line length — perimeter of the left-edge loop. For the
    /// paper's oval this should reproduce ~330 in.
    pub fn inner_line_length(&self) -> f64 {
        self.edge_length(true)
    }

    /// Outer line length — perimeter of the right-edge loop (~509 in for the
    /// paper's oval).
    pub fn outer_line_length(&self) -> f64 {
        self.edge_length(false)
    }

    fn edge_length(&self, left: bool) -> f64 {
        let pts: Vec<Vec2> = (0..self.center.len())
            .map(|i| {
                let hw = self.half_width[i];
                let off = if left { hw } else { -hw };
                self.center[i] + self.tangent[i].perp() * off
            })
            .collect();
        crate::polyline::closed_length(&pts)
    }

    /// The start/finish pose: centerline point at s=0 with its heading.
    pub fn start_pose(&self) -> (Vec2, f64) {
        (self.center[0], self.tangent[0].angle())
    }

    /// Forward arc distance from station `from` to station `to` (wraps).
    pub fn forward_distance(&self, from: f64, to: f64) -> f64 {
        let d = self.wrap_station(to) - self.wrap_station(from);
        if d < 0.0 {
            d + self.length
        } else {
            d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{circle_track, paper_oval};

    #[test]
    fn circle_track_basic_queries() {
        let t = circle_track(5.0, 0.8);
        assert!((t.length() - 2.0 * std::f64::consts::PI * 5.0).abs() < 0.1);
        assert!((t.mean_width() - 0.8).abs() < 1e-9);

        // A point on the centerline projects with ~zero lateral.
        let p = t.point_at(3.0);
        let proj = t.project(p);
        assert!(proj.lateral.abs() < 1e-6);
        assert!(proj.on_track);
        assert!((proj.s - 3.0).abs() < 0.1);
    }

    #[test]
    fn lateral_sign_is_left_positive() {
        let t = circle_track(5.0, 0.8);
        let s = 1.0;
        let left = t.offset_point(s, 0.2);
        let right = t.offset_point(s, -0.2);
        assert!(t.project(left).lateral > 0.1);
        assert!(t.project(right).lateral < -0.1);
    }

    #[test]
    fn off_track_detection() {
        let t = circle_track(5.0, 0.8);
        let far = t.offset_point(2.0, 3.0);
        let proj = t.project(far);
        assert!(!proj.on_track);
        assert!(t.edge_distance(far) > 0.0);
        let near = t.offset_point(2.0, 0.1);
        assert!(t.project(near).on_track);
        assert!(t.edge_distance(near) < 0.0);
    }

    #[test]
    fn surface_classification_bands() {
        let t = circle_track(5.0, 0.8);
        assert_eq!(t.surface_at(t.point_at(0.0)), Surface::Asphalt);
        // Exactly on the left edge → tape.
        assert_eq!(t.surface_at(t.offset_point(0.0, 0.4)), Surface::Line);
        assert_eq!(t.surface_at(t.offset_point(0.0, 1.5)), Surface::Off);
    }

    #[test]
    fn stations_wrap() {
        let t = circle_track(2.0, 0.5);
        let len = t.length();
        assert!((t.wrap_station(len + 1.0) - 1.0).abs() < 1e-9);
        assert!((t.wrap_station(-1.0) - (len - 1.0)).abs() < 1e-9);
        assert!((t.forward_distance(len - 1.0, 1.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn winding_normalised_ccw() {
        // Clockwise input gets flipped; curvature of a circle is then +1/r.
        let pts: Vec<Vec2> = (0..64)
            .map(|i| {
                let a = -2.0 * std::f64::consts::PI * i as f64 / 64.0;
                Vec2::new(3.0 * a.cos(), 3.0 * a.sin())
            })
            .collect();
        let t = Track::from_centerline("cw-circle", &pts, 0.5);
        assert!(t.curvature_at(1.0) > 0.0);
    }

    #[test]
    fn paper_oval_line_lengths_match_paper() {
        let t = paper_oval();
        let inner_in = t.inner_line_length() / crate::INCH;
        let outer_in = t.outer_line_length() / crate::INCH;
        // Paper: inner 330 in, outer 509 in, average width 27.59 in.
        assert!(
            (inner_in - 330.0).abs() < 8.0,
            "inner line {inner_in:.1} in, expected ~330"
        );
        assert!(
            (outer_in - 509.0).abs() < 10.0,
            "outer line {outer_in:.1} in, expected ~509"
        );
        let width_in = t.mean_width() / crate::INCH;
        assert!(
            (width_in - 27.59).abs() < 2.0,
            "width {width_in:.2} in, expected ~27.59"
        );
    }

    #[test]
    fn projection_station_roundtrip_on_oval() {
        let t = paper_oval();
        for k in 0..20 {
            let s = t.length() * k as f64 / 20.0;
            let p = t.offset_point(s, 0.1);
            let proj = t.project(p);
            let ds = t.forward_distance(s, proj.s).min(t.forward_distance(proj.s, s));
            assert!(ds < 0.15, "station error {ds} at s={s}");
            assert!((proj.lateral - 0.1).abs() < 0.05);
        }
    }

    #[test]
    fn heading_matches_tangent() {
        let t = circle_track(4.0, 0.6);
        let s = 0.0;
        let h = t.heading_at(s);
        let p0 = t.point_at(s);
        let p1 = t.point_at(s + 0.2);
        let emp = (p1 - p0).angle();
        assert!(crate::geometry::wrap_angle(h - emp).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "at least 3 waypoints")]
    fn rejects_degenerate_centerline() {
        let _ = Track::from_centerline("bad", &[Vec2::ZERO, Vec2::new(1.0, 0.0)], 0.5);
    }

    #[test]
    fn serde_roundtrip_preserves_queries() {
        // Tracks ship inside artifacts/object-store blobs; projection must
        // survive (the spatial grid serialises with the track, the surface
        // raster is rebuilt).
        let t = circle_track(3.0, 0.7);
        let json = serde_json::to_string(&t).unwrap();
        let back: Track = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name(), t.name());
        assert_eq!(back.length(), t.length());
        let p = t.offset_point(2.0, 0.1);
        let a = t.project(p);
        let b = back.project(p);
        // JSON float text roundtrips to within an ulp.
        assert!((a.s - b.s).abs() < 1e-9);
        assert!((a.lateral - b.lateral).abs() < 1e-9);
        assert_eq!(t.surface_at(p), back.surface_at(p));
        // The raster is not serialised but rebuilt, never left empty.
        assert!(!json.contains("raster"));
        assert_eq!(*back.raster, SurfaceRaster::build(&back));
        assert_eq!(back.raster.lookup(0, 0.5, 0.5), Some(Surface::Off));
    }

    #[test]
    fn deserialise_rejects_inconsistent_geometry() {
        let t = circle_track(3.0, 0.7);
        let with = |key: &str, value: serde::Value| {
            let mut v = serde::Serialize::serialize(&t);
            if let serde::Value::Object(fields) = &mut v {
                for (k, field) in fields.iter_mut() {
                    if k == key {
                        *field = value.clone();
                    }
                }
            }
            Track::deserialize(&v)
        };
        let mut stations = t.station.clone();
        stations.swap(1, 2);
        assert!(with("half_width", serde::Value::Array(Vec::new())).is_err());
        assert!(with("station", serde::Serialize::serialize(&stations)).is_err());
        assert!(with("grid_cell", serde::Serialize::serialize(&0.0)).is_err());
        assert!(with("grid_cols", serde::Serialize::serialize(&usize::MAX)).is_err());
        assert!(with("name", serde::Serialize::serialize("renamed")).is_ok());
    }

    #[test]
    fn raster_footprint_is_small_and_shared_by_clones() {
        for t in [paper_oval(), circle_track(3.0, 0.8)] {
            let bytes = t.raster.heap_bytes();
            assert!(bytes < 256 * 1024, "{} raster is {bytes} bytes", t.name());
            let copy = t.clone();
            assert!(Arc::ptr_eq(&t.raster, &copy.raster));
        }
    }

    #[test]
    fn non_finite_points_are_off() {
        let t = circle_track(3.0, 0.8);
        for p in [
            Vec2::new(f64::NAN, 0.0),
            Vec2::new(0.0, f64::NAN),
            Vec2::new(f64::INFINITY, 0.0),
            Vec2::new(0.0, f64::NEG_INFINITY),
        ] {
            assert_eq!(t.surface_at(p), Surface::Off);
        }
        assert_eq!(
            t.surface_at_exact(Vec2::new(f64::NAN, f64::NAN)),
            Surface::Off
        );
    }
}
