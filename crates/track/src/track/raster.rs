//! The surface raster behind [`Track::surface_at`].
//!
//! Each cell of the track's spatial grid holds one surface class, or an
//! index into a 64x64 tile of 2-bit codes, one per sub-cell of side
//! `grid_cell / 64`. A code is `Off`, `Asphalt`, `Line` or `MIXED`; only a
//! mixed sub-cell, which may straddle a class boundary, runs the exact
//! classifier. Every other code is certified, not sampled, so `surface_at`
//! equals `surface_at_exact` at every point:
//!
//! * `project` scans one slice of the track's candidate table for every
//!   point `p` of a grid cell, and the raster reads the cell's candidate
//!   set S from the same slice. (Their order decides only `project`'s
//!   ties, not the bounds below.) `surface_at_exact` compares `|lateral|`,
//!   which is the distance `d(p)` from `p` to the nearest segment of S up
//!   to rounding, with one `half_width` entry. `d` is 1-Lipschitz.
//! * A quadtree node with centre `c` and half-diagonal `r` (plus [`EPS`])
//!   therefore has `d(p)` in `[d(c) - r, d(c) + r]` for all its points.
//!   Only segments within `d(c) + 2r` of `c` can be nearest to one of
//!   them, and `hw_min`/`hw_max` bound every half-width those segments can
//!   make `surface_at_exact` read ([`half_width_range`]).
//! * The node is `Off` if `d(c) - r > hw_max + TAPE_WIDTH/2`, `Asphalt` if
//!   `d(c) + r < hw_min - TAPE_WIDTH/2`, and `Line` if both
//!   `d(c) - r >= hw_max - TAPE_WIDTH/2` and
//!   `d(c) + r <= hw_min + TAPE_WIDTH/2`. Otherwise its four children are
//!   tried, down to one sub-cell, which is then `MIXED`.
//!
//! Sub-cells share the grid's origin and their size is a power-of-two
//! fraction of the grid cell, so the sub-cell `surface_at` reads is a
//! fixed-point split of the same floored quotient `for_candidates` uses to
//! pick the cell's slice.
//! DESIGN.md §4 ("Render cost") gives the argument in full.

use super::{Track, TAPE_WIDTH};
use crate::geometry::{point_segment_dist_sq, Vec2};
use crate::surface::Surface;

/// Sub-cells per grid-cell side, `2^DEPTH`.
const TILE: usize = 64;
/// Quadtree levels below a grid cell.
const DEPTH: usize = 6;

/// Slack added to every node's half-diagonal, meters. It covers the
/// rounding in the distance evaluations and node corners, which stays
/// below 1e-12 m for tracks within kilometres of the origin.
const EPS: f64 = 1e-9;

const OFF: u8 = 0;
const ASPHALT: u8 = 1;
const LINE: u8 = 2;
const MIXED: u8 = 3;
/// `0b01` in every 2-bit lane: `code * LANES` repeats a code across a row.
const LANES: u128 = u128::MAX / 3;

fn encode(s: Surface) -> u8 {
    match s {
        Surface::Off => OFF,
        Surface::Asphalt => ASPHALT,
        Surface::Line => LINE,
    }
}

fn decode(code: u8) -> Option<Surface> {
    match code {
        OFF => Some(Surface::Off),
        ASPHALT => Some(Surface::Asphalt),
        LINE => Some(Surface::Line),
        _ => None,
    }
}

/// One grid cell's entry.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cell {
    /// The whole cell has one class.
    Class(Surface),
    /// Index into `SurfaceRaster::tiles`.
    Tile(u32),
}

/// Certified surface class per grid sub-cell.
#[derive(Default, PartialEq)]
pub(super) struct SurfaceRaster {
    /// One entry per grid cell, row-major like `Track::grid`.
    cells: Vec<Cell>,
    /// Per tile, `TILE` rows of `TILE` 2-bit codes; sub-cell `(x, y)` sits
    /// at bits `2x..2x + 2` of row `y`.
    tiles: Vec<[u128; TILE]>,
}

/// A summary: the tiles alone print as thousands of 128-bit rows.
impl std::fmt::Debug for SurfaceRaster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SurfaceRaster")
            .field("cells", &self.cells.len())
            .field("tiles", &self.tiles.len())
            .finish()
    }
}

impl SurfaceRaster {
    /// The class at fraction `(fx, fy)` in `[0, 1)^2` of grid cell `cell`,
    /// or `None` when the sub-cell there is mixed.
    #[inline]
    pub(super) fn lookup(&self, cell: usize, fx: f64, fy: f64) -> Option<Surface> {
        match self.cells[cell] {
            Cell::Class(s) => Some(s),
            Cell::Tile(k) => {
                // Scaling by a power of two is exact, so these floors split
                // the quotient `Track::surface_at` floored.
                let sx = (fx * TILE as f64) as usize;
                let sy = (fy * TILE as f64) as usize;
                let row = self.tiles[k as usize][sy];
                decode(((row >> (2 * sx)) & 3) as u8)
            }
        }
    }

    /// Heap bytes held by the raster.
    #[cfg(test)]
    pub(super) fn heap_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<Cell>()
            + self.tiles.len() * std::mem::size_of::<[u128; TILE]>()
    }

    /// Certify every sub-cell of `track`'s grid, top-down.
    pub(super) fn build(track: &Track) -> SurfaceRaster {
        let n = track.center.len();
        let hw_range: Vec<(f64, f64)> = (0..n).map(|i| half_width_range(track, i)).collect();
        let mut raster = SurfaceRaster {
            cells: Vec::with_capacity(track.grid_cols * track.grid_rows),
            tiles: Vec::new(),
        };
        let mut quad = Quad {
            track,
            hw_range: &hw_range,
            corner: Vec2::ZERO,
            tile: [0; TILE],
            keep: Default::default(),
            d2: Vec::new(),
        };
        for cy in 0..track.grid_rows {
            for cx in 0..track.grid_cols {
                let cands = track.candidates.cell(cy * track.grid_cols + cx);
                quad.corner = Vec2::new(
                    track.grid_origin.x + cx as f64 * track.grid_cell,
                    track.grid_origin.y + cy as f64 * track.grid_cell,
                );
                quad.tile = [0; TILE];
                quad.fill(0, 0, 0, cands);
                let first = (quad.tile[0] & 3) as u8;
                let uniform = quad
                    .tile
                    .iter()
                    .all(|&row| row == u128::from(first) * LANES);
                let cell = match decode(first) {
                    Some(class) if uniform => Cell::Class(class),
                    _ => {
                        raster.tiles.push(quad.tile);
                        Cell::Tile((raster.tiles.len() - 1) as u32)
                    }
                };
                raster.cells.push(cell);
            }
        }
        raster
    }
}

/// Bounds on every `half_width[index_at(s)]` that `surface_at_exact` can
/// read after projecting onto segment `i`. `project`'s station
/// `station[i] + t * |segment|` rises monotonically over `t` in `[0, 1]` to
/// its value at `t = 1`, wrapping past `length` only on the closing
/// segment, and `index_at` is monotone between wraps.
fn half_width_range(track: &Track, i: usize) -> (f64, f64) {
    let n = track.center.len();
    let start = track.station[i];
    let end = start + track.center[i].dist(track.center[(i + 1) % n]);
    let (first, last) = (track.index_at(start), track.index_at(end));
    let bounds = |(lo, hi): (f64, f64), k: usize| {
        let hw = track.half_width[k];
        (lo.min(hw), hi.max(hw))
    };
    let none = (f64::INFINITY, f64::NEG_INFINITY);
    if end < track.length {
        (first..=last).fold(none, bounds)
    } else {
        (first..n).chain(0..=last).fold(none, bounds)
    }
}

/// The quadtree over one grid cell.
struct Quad<'a> {
    track: &'a Track,
    hw_range: &'a [(f64, f64)],
    /// World position of the cell's lower-left corner.
    corner: Vec2,
    tile: [u128; TILE],
    /// Per level, the candidates kept by the node being subdivided there.
    keep: [Vec<u32>; DEPTH + 1],
    /// Squared distances from the current node's centre to its candidates.
    d2: Vec<f64>,
}

impl Quad<'_> {
    /// Classify the node at `level` whose first sub-cell is `(x0, y0)` and
    /// paint its sub-cells, subdividing while it is not certified.
    fn fill(&mut self, level: usize, x0: usize, y0: usize, cands: &[u32]) {
        let span = TILE >> level;
        let mut keep = std::mem::take(&mut self.keep[level]);
        keep.clear();
        match self.classify(x0, y0, span, cands, &mut keep) {
            Some(class) => self.paint(x0, y0, span, encode(class)),
            None if level == DEPTH => self.paint(x0, y0, span, MIXED),
            None => {
                let h = span / 2;
                for (dx, dy) in [(0, 0), (h, 0), (0, h), (h, h)] {
                    self.fill(level + 1, x0 + dx, y0 + dy, &keep);
                }
            }
        }
        self.keep[level] = keep;
    }

    /// The node's certified class, if any. Pushes to `keep` the candidates
    /// that can be nearest to one of its points.
    fn classify(
        &mut self,
        x0: usize,
        y0: usize,
        span: usize,
        cands: &[u32],
        keep: &mut Vec<u32>,
    ) -> Option<Surface> {
        let t = self.track;
        let n = t.center.len();
        let sub = t.grid_cell / TILE as f64;
        let half = span as f64 / 2.0;
        let c = Vec2::new(
            self.corner.x + (x0 as f64 + half) * sub,
            self.corner.y + (y0 as f64 + half) * sub,
        );
        let r = span as f64 * sub * std::f64::consts::FRAC_1_SQRT_2 + EPS;
        debug_assert!(!cands.is_empty(), "every grid cell has candidates");
        self.d2.clear();
        self.d2.extend(cands.iter().map(|&ci| {
            let i = ci as usize;
            let j = if i + 1 == n { 0 } else { i + 1 };
            point_segment_dist_sq(c, t.center[i], t.center[j]).0
        }));
        let dc = self.d2.iter().copied().fold(f64::INFINITY, f64::min).sqrt();
        let reach = (dc + 2.0 * r) * (dc + 2.0 * r);
        let (mut hw_min, mut hw_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (&ci, &d2) in cands.iter().zip(&self.d2) {
            if d2 <= reach {
                keep.push(ci);
                let (lo, hi) = self.hw_range[ci as usize];
                hw_min = hw_min.min(lo);
                hw_max = hw_max.max(hi);
            }
        }
        let half_tape = TAPE_WIDTH / 2.0;
        if dc - r > hw_max + half_tape {
            Some(Surface::Off)
        } else if dc + r < hw_min - half_tape {
            Some(Surface::Asphalt)
        } else if dc - r >= hw_max - half_tape && dc + r <= hw_min + half_tape {
            Some(Surface::Line)
        } else {
            None
        }
    }

    /// Set the `span` x `span` block of sub-cells at `(x0, y0)` to `code`.
    fn paint(&mut self, x0: usize, y0: usize, span: usize, code: u8) {
        let bits = if span == TILE {
            u128::MAX
        } else {
            ((1u128 << (2 * span)) - 1) << (2 * x0)
        };
        for row in &mut self.tile[y0..y0 + span] {
            *row = (*row & !bits) | ((u128::from(code) * LANES) & bits);
        }
    }
}
