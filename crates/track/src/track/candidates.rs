//! The candidate table behind [`Track::project`].
//!
//! For every cell of the track's spatial grid, the centerline sample ids
//! [`Track::for_cell_candidates`] visits, each kept at its first visit and
//! in visit order, stored CSR-style. The ring scan visits a sample once per
//! grid cell it registered in, about 3.8 times on average, so the table's
//! slice is the same scan without the repeats:
//!
//! * `project` replaces its best only on a strictly smaller squared
//!   distance, and a repeat has the distance of its first visit, so
//!   dropping it never changes the winner.
//! * The surface raster needs only the candidate *set* of each cell, which
//!   is the ring scan's set.
//!
//! Built once per track, after the grid and before the raster.

use super::Track;

/// Per grid cell, the first visits of the ring scan, concatenated.
#[derive(Debug, Default, PartialEq)]
pub(super) struct CandidateTable {
    /// Cell `c`'s candidates are `ids[starts[c]..starts[c + 1]]`; one entry
    /// per grid cell plus the end.
    starts: Vec<u32>,
    ids: Vec<u32>,
}

impl CandidateTable {
    /// The candidates of grid cell `cell`, in first-visit order.
    #[inline]
    pub(super) fn cell(&self, cell: usize) -> &[u32] {
        &self.ids[self.starts[cell] as usize..self.starts[cell + 1] as usize]
    }

    /// Run `track`'s ring scan over every grid cell. Two passes, one to
    /// count and one to fill, so both vectors are allocated at their exact
    /// size.
    pub(super) fn build(track: &Track) -> CandidateTable {
        // Count each cell's first visits, then sum the counts into offsets.
        let mut starts = vec![0u32; track.grid_cols * track.grid_rows + 1];
        for_each_first_visit(track, |cell, _| starts[cell + 1] += 1);
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        let mut ids = Vec::with_capacity(starts[starts.len() - 1] as usize);
        for_each_first_visit(track, |_, ci| ids.push(ci));
        CandidateTable { starts, ids }
    }
}

/// Call `f(cell, id)` for every grid cell in row-major order and every
/// sample id its ring scan visits for the first time.
fn for_each_first_visit(track: &Track, mut f: impl FnMut(usize, u32)) {
    // `seen[i]` is the last cell that visited sample `i`.
    let mut seen = vec![usize::MAX; track.center.len()];
    for cell in 0..track.grid_cols * track.grid_rows {
        let (cx, cy) = (cell % track.grid_cols, cell / track.grid_cols);
        track.for_cell_candidates(cx as isize, cy as isize, |ci| {
            if seen[ci as usize] != cell {
                seen[ci as usize] = cell;
                f(cell, ci);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::track::tests::table_tracks;

    #[test]
    fn each_cell_holds_the_ring_scans_first_visits_in_order() {
        for t in table_tracks() {
            let table = &t.candidates;
            for cy in 0..t.grid_rows {
                for cx in 0..t.grid_cols {
                    let mut visits = Vec::new();
                    t.for_cell_candidates(cx as isize, cy as isize, |ci| visits.push(ci));
                    let slice = table.cell(cy * t.grid_cols + cx);
                    let mut first: Vec<u32> = Vec::new();
                    for &ci in &visits {
                        if !first.contains(&ci) {
                            first.push(ci);
                        }
                    }
                    assert_eq!(slice, &first[..], "{} cell ({cx}, {cy})", t.name());
                    // No repeats, and the ring scan's set.
                    let (mut set, mut scan) = (slice.to_vec(), visits);
                    set.sort_unstable();
                    assert!(
                        set.windows(2).all(|w| w[0] < w[1]),
                        "{} cell ({cx}, {cy})",
                        t.name()
                    );
                    scan.sort_unstable();
                    scan.dedup();
                    assert_eq!(set, scan, "{} cell ({cx}, {cy})", t.name());
                    assert!(!slice.is_empty(), "{} cell ({cx}, {cy})", t.name());
                }
            }
        }
    }

    #[test]
    fn table_is_sized_exactly_and_small() {
        for t in table_tracks() {
            let table = &t.candidates;
            assert_eq!(table.starts.len(), t.grid_cols * t.grid_rows + 1);
            assert_eq!(table.starts.capacity(), table.starts.len());
            assert_eq!(table.ids.capacity(), table.ids.len());
            assert_eq!(
                table.starts.last().map(|&end| end as usize),
                Some(table.ids.len())
            );
            let bytes = (table.starts.len() + table.ids.len()) * std::mem::size_of::<u32>();
            assert!(bytes < 256 * 1024, "{}: {bytes} bytes", t.name());
        }
    }
}
