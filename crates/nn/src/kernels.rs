//! The optimized numeric core: one GEMM primitive reused everywhere.
//!
//! Every hot path in this crate — dense layers, LSTM gate math, and (via
//! `im2col3d`/`col2im3d` lowering) convolution forward *and* backward —
//! bottoms out in [`gemm`], a blocked, panel-packed `f32` matrix multiply:
//!
//! * **register tiling** — a `4 x 16` micro-kernel keeps a C tile in
//!   registers across the whole K loop, so each loaded A/B element feeds
//!   many multiply-adds instead of one,
//! * **panel packing** — A row-panels and B column-panels are repacked into
//!   contiguous, k-major buffers so the micro-kernel's loads are unit-stride
//!   regardless of the operands' logical layout (including transposed
//!   operands, which cost nothing extra: transposition happens during
//!   packing),
//! * **cache blocking** — loops are blocked over M/N/K (`MC`/`NC`/`KC`) in
//!   the usual BLIS/GotoBLAS nesting so packed panels stay resident in cache
//!   while they are reused.
//!
//! Packing buffers are thread-local and grow-only: after the first call at a
//! given size the steady-state training loop performs no heap allocation
//! inside any kernel. Layers hold their larger per-shape temporaries
//! (im2col matrices, cached activations, gradient staging) in a [`Scratch`]
//! arena with the same grow-only discipline.
//!
//! There is one lowering for both conv ranks: a 2-D `[c, h, w]` image is a
//! 3-D `[c, t, h, w]` volume with a unit time axis (`t = kt = st = 1`), so
//! `Conv2D` and `Conv3D` share `im2col3d`/`col2im3d` and one layer body.
//!
//! The pre-GEMM naive kernels live on in [`reference`] as the correctness
//! oracle: `tests/kernel_parity.rs` asserts the optimized and reference
//! paths agree to 1e-4 relative tolerance over randomized shapes, and the
//! kernel benchmarks (`scripts/bench.sh`) report the speedup between the
//! two so the trajectory stays measured rather than assumed.

use std::cell::RefCell;

/// Micro-kernel tile rows (A panel height).
const MR: usize = 4;
/// Micro-kernel tile columns (B panel width).
const NR: usize = 16;
/// Cache-block rows of A per packed block.
const MC: usize = 64;
/// Cache-block depth (K) per packed panel pair.
const KC: usize = 256;
/// Cache-block columns of B per packed block.
const NC: usize = 512;

thread_local! {
    /// Grow-only packing buffers `(packed A block, packed B block)` shared
    /// by every GEMM call on this thread. Sized for one `MC x KC` and one
    /// `KC x NC` block (rounded up to whole micro-panels); after warm-up no
    /// call allocates.
    static PACK: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) }
}

/// `out = a · b` for row-major `a: [m, k]`, `b: [k, n]`, `out: [m, n]`.
///
/// Convenience wrapper over [`gemm`] with no transposes and no
/// accumulation.
pub fn matmul_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    gemm(out, false, a, false, b, false, m, k, n);
}

/// General `f32` matrix multiply: `out (+)= op(a) · op(b)`.
///
/// Logical dimensions are `op(a): [m, k]`, `op(b): [k, n]`, `out: [m, n]`,
/// all row-major. `ta`/`tb` select the transposed storage interpretation:
/// with `ta == true`, `a` is stored `[k, m]` and read as its transpose
/// (likewise `tb` for `b`, stored `[n, k]`). With `acc == true` the product
/// is accumulated into `out` (`+=`), which is how parameter gradients fold
/// over a batch without temporaries; otherwise `out` is overwritten.
pub fn gemm(
    out: &mut [f32],
    acc: bool,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "gemm: lhs storage does not match [{m}, {k}]");
    assert_eq!(b.len(), k * n, "gemm: rhs storage does not match [{k}, {n}]");
    assert_eq!(out.len(), m * n, "gemm: out storage does not match [{m}, {n}]");
    if !acc {
        out.fill(0.0);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    PACK.with(|pack| {
        let mut pack = pack.borrow_mut();
        let (pa, pb) = &mut *pack;
        // Grow-only: allocates on the first call, reuses afterwards.
        let pa_need = MC.min(m).next_multiple_of(MR) * KC.min(k);
        let pb_need = NC.min(n).next_multiple_of(NR) * KC.min(k);
        if pa.len() < pa_need {
            pa.resize(pa_need, 0.0);
        }
        if pb.len() < pb_need {
            pb.resize(pb_need, 0.0);
        }

        // hot-kernel: begin (blocked GEMM — no allocation below this line)
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                // Row-major B needs no packing for full-width panels: the
                // micro-kernel reads it in place at row stride `n`, which
                // the prefetcher handles and which halves the pack traffic
                // on the common forward shapes. Transposed B (and the
                // ragged tail panel, which needs zero padding) still go
                // through the packed path.
                if tb {
                    pack_b(pb, b, tb, k, n, pc, kc, jc, nc);
                }
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    // Row-major A needs no packing for full-height tiles
                    // either: the micro-kernel reads the four row slices in
                    // place (four sequential streams the prefetcher tracks),
                    // which removes the single biggest fixed cost on skinny
                    // forward shapes. Transposed A still packs the whole
                    // block; a ragged tail tile packs just its own panel.
                    if ta {
                        pack_a(pa, a, ta, m, k, ic, mc, pc, kc);
                    } else if mc % MR != 0 {
                        let tail = mc - mc % MR;
                        pack_a(pa, a, ta, m, k, ic + tail, mc - tail, pc, kc);
                    }
                    for jr in (0..nc).step_by(NR) {
                        let nr = NR.min(nc - jr);
                        let direct = !tb && nr == NR;
                        if !tb && nr < NR && ic == 0 {
                            // Pack just the ragged tail panel (at offset 0).
                            pack_b(pb, b, tb, k, n, pc, kc, jc + jr, nr);
                        }
                        let bp = if tb {
                            &pb[(jr / NR) * kc * NR..][..kc * NR]
                        } else {
                            &pb[..kc * NR]
                        };
                        for ir in (0..mc).step_by(MR) {
                            let mr = MR.min(mc - ir);
                            let mut tile = [[0.0f32; NR]; MR];
                            if !ta && mr == MR {
                                let ar = [
                                    &a[(ic + ir) * k + pc..][..kc],
                                    &a[(ic + ir + 1) * k + pc..][..kc],
                                    &a[(ic + ir + 2) * k + pc..][..kc],
                                    &a[(ic + ir + 3) * k + pc..][..kc],
                                ];
                                if direct {
                                    micro_kernel_direct_ab(
                                        ar,
                                        &b[pc * n..],
                                        jc + jr,
                                        n,
                                        kc,
                                        &mut tile,
                                    );
                                } else {
                                    micro_kernel_direct_a(ar, bp, &mut tile);
                                }
                            } else {
                                // Packed A: the whole block when `ta`, just
                                // the zero-padded tail panel otherwise.
                                let ap = if ta {
                                    &pa[(ir / MR) * kc * MR..][..kc * MR]
                                } else {
                                    &pa[..kc * MR]
                                };
                                if direct {
                                    micro_kernel_direct(
                                        ap,
                                        &b[pc * n..],
                                        jc + jr,
                                        n,
                                        kc,
                                        &mut tile,
                                    );
                                } else {
                                    micro_kernel(ap, bp, &mut tile);
                                }
                            }
                            for (r, trow) in tile.iter().enumerate().take(mr) {
                                let orow = &mut out[(ic + ir + r) * n + jc + jr..][..nr];
                                for (o, t) in orow.iter_mut().zip(trow) {
                                    *o += t;
                                }
                            }
                        }
                    }
                }
            }
        }
        // hot-kernel: end
    });
}

/// One 8-wide vector lane of the C tile: `acc += a * b` element-wise.
///
/// Written over a fixed-size `[f32; 8]` so LLVM keeps the lane in a single
/// vector register across the whole K loop instead of round-tripping the
/// accumulator through the stack.
#[inline(always)]
fn fma_lane(acc: &mut [f32; 8], a: f32, b: &[f32]) {
    for (x, &bv) in acc.iter_mut().zip(b) {
        *x += a * bv;
    }
}

/// The register-tiled inner kernel: `tile[MR][NR] += ap · bp` over one
/// packed K panel. `ap` is k-major `MR`-wide, `bp` k-major `NR`-wide.
///
/// The C tile is held in eight *named* `[f32; 8]` lanes (4 rows x 2 lanes)
/// rather than one `[[f32; NR]; MR]` array: scalar-replacement gives up on
/// the large array and spills every accumulator to the stack per K step
/// (~10x slower), while the named lanes each live in one vector register
/// for the duration of the loop.
#[inline(always)]
fn micro_kernel(ap: &[f32], bp: &[f32], tile: &mut [[f32; NR]; MR]) {
    let mut r0a = [0.0f32; 8];
    let mut r0b = [0.0f32; 8];
    let mut r1a = [0.0f32; 8];
    let mut r1b = [0.0f32; 8];
    let mut r2a = [0.0f32; 8];
    let mut r2b = [0.0f32; 8];
    let mut r3a = [0.0f32; 8];
    let mut r3b = [0.0f32; 8];
    for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let (b0, b1) = brow.split_at(8);
        fma_lane(&mut r0a, arow[0], b0);
        fma_lane(&mut r0b, arow[0], b1);
        fma_lane(&mut r1a, arow[1], b0);
        fma_lane(&mut r1b, arow[1], b1);
        fma_lane(&mut r2a, arow[2], b0);
        fma_lane(&mut r2b, arow[2], b1);
        fma_lane(&mut r3a, arow[3], b0);
        fma_lane(&mut r3b, arow[3], b1);
    }
    tile[0][..8].copy_from_slice(&r0a);
    tile[0][8..].copy_from_slice(&r0b);
    tile[1][..8].copy_from_slice(&r1a);
    tile[1][8..].copy_from_slice(&r1b);
    tile[2][..8].copy_from_slice(&r2a);
    tile[2][8..].copy_from_slice(&r2b);
    tile[3][..8].copy_from_slice(&r3a);
    tile[3][8..].copy_from_slice(&r3b);
}

/// [`micro_kernel`] variant that reads a full-width B panel in place from
/// the row-major matrix (`bs` starts at the panel's first row, `bcol` is
/// the panel's column offset, rows are `n` apart) instead of a packed
/// copy. Skipping the pack halves B traffic on forward-shaped calls where
/// B is already row-major; the fixed-stride loads prefetch cleanly.
#[inline(always)]
fn micro_kernel_direct(
    ap: &[f32],
    bs: &[f32],
    bcol: usize,
    n: usize,
    kc: usize,
    tile: &mut [[f32; NR]; MR],
) {
    let mut r0a = [0.0f32; 8];
    let mut r0b = [0.0f32; 8];
    let mut r1a = [0.0f32; 8];
    let mut r1b = [0.0f32; 8];
    let mut r2a = [0.0f32; 8];
    let mut r2b = [0.0f32; 8];
    let mut r3a = [0.0f32; 8];
    let mut r3b = [0.0f32; 8];
    // Zipping packed-A pairs with contiguous B rows avoids a per-step
    // index multiply and lets the k loop run two steps per iteration.
    let mut brows = bs.chunks_exact(n);
    let mut apairs = ap.chunks_exact(2 * MR);
    let mut done = 0usize;
    while done + 2 <= kc {
        // The iterators cannot run dry before `kc` steps (the caller sizes
        // both operands), but if they ever did the indexed tail loop below
        // would still cover the remaining steps correctly.
        let (Some(apair), Some(brow0), Some(brow1)) = (apairs.next(), brows.next(), brows.next())
        else {
            break;
        };
        for (arow, brow) in [(&apair[..MR], brow0), (&apair[MR..], brow1)] {
            let (b0, b1) = brow[bcol..bcol + NR].split_at(8);
            fma_lane(&mut r0a, arow[0], b0);
            fma_lane(&mut r0b, arow[0], b1);
            fma_lane(&mut r1a, arow[1], b0);
            fma_lane(&mut r1b, arow[1], b1);
            fma_lane(&mut r2a, arow[2], b0);
            fma_lane(&mut r2b, arow[2], b1);
            fma_lane(&mut r3a, arow[3], b0);
            fma_lane(&mut r3b, arow[3], b1);
        }
        done += 2;
    }
    for kk in done..kc {
        let arow = &ap[kk * MR..][..MR];
        let (b0, b1) = bs[kk * n + bcol..][..NR].split_at(8);
        fma_lane(&mut r0a, arow[0], b0);
        fma_lane(&mut r0b, arow[0], b1);
        fma_lane(&mut r1a, arow[1], b0);
        fma_lane(&mut r1b, arow[1], b1);
        fma_lane(&mut r2a, arow[2], b0);
        fma_lane(&mut r2b, arow[2], b1);
        fma_lane(&mut r3a, arow[3], b0);
        fma_lane(&mut r3b, arow[3], b1);
    }
    tile[0][..8].copy_from_slice(&r0a);
    tile[0][8..].copy_from_slice(&r0b);
    tile[1][..8].copy_from_slice(&r1a);
    tile[1][8..].copy_from_slice(&r1b);
    tile[2][..8].copy_from_slice(&r2a);
    tile[2][8..].copy_from_slice(&r2b);
    tile[3][..8].copy_from_slice(&r3a);
    tile[3][8..].copy_from_slice(&r3b);
}

/// Fully in-place [`micro_kernel`] variant: reads the four A rows and the
/// full-width B panel directly from the row-major matrices, no packed
/// copies on either side. `ar` holds the tile's four row slices of `a`
/// (each `kc` long); `bs`/`bcol`/`n` address the B panel as in
/// [`micro_kernel_direct`]. This is the steady-state path for forward
/// GEMMs, where both operands are row-major and packing was the largest
/// fixed cost on skinny matrices.
#[inline(always)]
fn micro_kernel_direct_ab(
    ar: [&[f32]; 4],
    bs: &[f32],
    bcol: usize,
    n: usize,
    kc: usize,
    tile: &mut [[f32; NR]; MR],
) {
    let [a0, a1, a2, a3] = ar;
    let mut r0a = [0.0f32; 8];
    let mut r0b = [0.0f32; 8];
    let mut r1a = [0.0f32; 8];
    let mut r1b = [0.0f32; 8];
    let mut r2a = [0.0f32; 8];
    let mut r2b = [0.0f32; 8];
    let mut r3a = [0.0f32; 8];
    let mut r3b = [0.0f32; 8];
    let mut brows = bs.chunks_exact(n);
    let mut done = 0usize;
    while done + 2 <= kc {
        // The iterator cannot run dry before `kc` steps (the caller sizes
        // the operand), but if it ever did the indexed tail loop below
        // would still cover the remaining steps correctly.
        let (Some(brow0), Some(brow1)) = (brows.next(), brows.next()) else {
            break;
        };
        for (kk, brow) in [(done, brow0), (done + 1, brow1)] {
            let (b0, b1) = brow[bcol..bcol + NR].split_at(8);
            fma_lane(&mut r0a, a0[kk], b0);
            fma_lane(&mut r0b, a0[kk], b1);
            fma_lane(&mut r1a, a1[kk], b0);
            fma_lane(&mut r1b, a1[kk], b1);
            fma_lane(&mut r2a, a2[kk], b0);
            fma_lane(&mut r2b, a2[kk], b1);
            fma_lane(&mut r3a, a3[kk], b0);
            fma_lane(&mut r3b, a3[kk], b1);
        }
        done += 2;
    }
    for kk in done..kc {
        let (b0, b1) = bs[kk * n + bcol..][..NR].split_at(8);
        fma_lane(&mut r0a, a0[kk], b0);
        fma_lane(&mut r0b, a0[kk], b1);
        fma_lane(&mut r1a, a1[kk], b0);
        fma_lane(&mut r1b, a1[kk], b1);
        fma_lane(&mut r2a, a2[kk], b0);
        fma_lane(&mut r2b, a2[kk], b1);
        fma_lane(&mut r3a, a3[kk], b0);
        fma_lane(&mut r3b, a3[kk], b1);
    }
    tile[0][..8].copy_from_slice(&r0a);
    tile[0][8..].copy_from_slice(&r0b);
    tile[1][..8].copy_from_slice(&r1a);
    tile[1][8..].copy_from_slice(&r1b);
    tile[2][..8].copy_from_slice(&r2a);
    tile[2][8..].copy_from_slice(&r2b);
    tile[3][..8].copy_from_slice(&r3a);
    tile[3][8..].copy_from_slice(&r3b);
}

/// [`micro_kernel`] variant that reads the four A rows in place from the
/// row-major matrix (`ar` as in [`micro_kernel_direct_ab`]) against a
/// packed B panel — the transposed-B and ragged-tail-panel cases where B
/// must be packed but A still needn't be.
#[inline(always)]
fn micro_kernel_direct_a(ar: [&[f32]; 4], bp: &[f32], tile: &mut [[f32; NR]; MR]) {
    let [a0, a1, a2, a3] = ar;
    let mut r0a = [0.0f32; 8];
    let mut r0b = [0.0f32; 8];
    let mut r1a = [0.0f32; 8];
    let mut r1b = [0.0f32; 8];
    let mut r2a = [0.0f32; 8];
    let mut r2b = [0.0f32; 8];
    let mut r3a = [0.0f32; 8];
    let mut r3b = [0.0f32; 8];
    for (kk, (&av0, brow)) in a0.iter().zip(bp.chunks_exact(NR)).enumerate() {
        let (b0, b1) = brow.split_at(8);
        fma_lane(&mut r0a, av0, b0);
        fma_lane(&mut r0b, av0, b1);
        fma_lane(&mut r1a, a1[kk], b0);
        fma_lane(&mut r1b, a1[kk], b1);
        fma_lane(&mut r2a, a2[kk], b0);
        fma_lane(&mut r2b, a2[kk], b1);
        fma_lane(&mut r3a, a3[kk], b0);
        fma_lane(&mut r3b, a3[kk], b1);
    }
    tile[0][..8].copy_from_slice(&r0a);
    tile[0][8..].copy_from_slice(&r0b);
    tile[1][..8].copy_from_slice(&r1a);
    tile[1][8..].copy_from_slice(&r1b);
    tile[2][..8].copy_from_slice(&r2a);
    tile[2][8..].copy_from_slice(&r2b);
    tile[3][..8].copy_from_slice(&r3a);
    tile[3][8..].copy_from_slice(&r3b);
}

/// Pack the `mc x kc` block of `op(a)` starting at `(ic, pc)` into
/// k-major `MR`-row panels, zero-padding the ragged last panel.
fn pack_a(
    pa: &mut [f32],
    a: &[f32],
    ta: bool,
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    let panels = mc.div_ceil(MR);
    for p in 0..panels {
        let base = p * kc * MR;
        if ta {
            // `a` stored [k, m]: for a fixed k step the rows are adjacent,
            // so the k-outer order reads contiguously.
            for kk in 0..kc {
                let srow = &a[(pc + kk) * m..];
                for r in 0..MR {
                    let row = p * MR + r;
                    pa[base + kk * MR + r] = if row < mc { srow[ic + row] } else { 0.0 };
                }
            }
        } else {
            // `a` stored [m, k]: read each row's kc-slice contiguously
            // (k-outer here would stride by the full row length per load —
            // one cache line per element on large matrices).
            for r in 0..MR {
                let row = p * MR + r;
                if row < mc {
                    let src = &a[(ic + row) * k + pc..][..kc];
                    for (kk, &v) in src.iter().enumerate() {
                        pa[base + kk * MR + r] = v;
                    }
                } else {
                    for kk in 0..kc {
                        pa[base + kk * MR + r] = 0.0;
                    }
                }
            }
        }
    }
}

/// Pack the `kc x nc` block of `op(b)` starting at `(pc, jc)` into
/// k-major `NR`-column panels, zero-padding the ragged last panel.
fn pack_b(
    pb: &mut [f32],
    b: &[f32],
    tb: bool,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    let panels = nc.div_ceil(NR);
    for p in 0..panels {
        let base = p * kc * NR;
        if tb {
            // `b` stored [n, k]: read each column's kc-slice contiguously.
            for c in 0..NR {
                let col = p * NR + c;
                if col < nc {
                    let src = &b[(jc + col) * k + pc..][..kc];
                    for (kk, &v) in src.iter().enumerate() {
                        pb[base + kk * NR + c] = v;
                    }
                } else {
                    for kk in 0..kc {
                        pb[base + kk * NR + c] = 0.0;
                    }
                }
            }
        } else {
            // `b` stored [k, n]: for a fixed k step the columns are
            // adjacent, so the k-outer order reads contiguously.
            for kk in 0..kc {
                let srow = &b[(pc + kk) * n..];
                for c in 0..NR {
                    let col = p * NR + c;
                    pb[base + kk * NR + c] = if col < nc { srow[jc + col] } else { 0.0 };
                }
            }
        }
    }
}

/// Lower one `[c, t, h, w]` volume into the im2col matrix
/// `cols: [c*kt*k*k, ot*oh*ow]` for kernel `(kt, k, k)` and stride
/// `(st, s, s)`, valid padding. Row `((ci*kt + kz)*k + ky)*k + kx` of `cols`
/// holds that kernel tap's value for every output position, so convolution
/// becomes `W[f, c*kt*k*k] · cols`. A 2-D `[c, h, w]` image is the same
/// buffer with `t = kt = st = 1`.
#[allow(clippy::too_many_arguments)]
pub fn im2col3d(
    x: &[f32],
    c: usize,
    t: usize,
    h: usize,
    w: usize,
    kt: usize,
    k: usize,
    st: usize,
    s: usize,
    ot: usize,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    debug_assert_eq!(x.len(), c * t * h * w);
    debug_assert_eq!(cols.len(), c * kt * k * k * ot * oh * ow);
    let osp = ot * oh * ow;
    let mut row = 0usize;
    // hot-kernel: begin (3-D im2col lowering)
    for ci in 0..c {
        for kz in 0..kt {
            for ky in 0..k {
                for kx in 0..k {
                    let dst = &mut cols[row * osp..(row + 1) * osp];
                    for oz in 0..ot {
                        let zoff = ci * t * h * w + (oz * st + kz) * h * w;
                        for oy in 0..oh {
                            let src = zoff + (oy * s + ky) * w + kx;
                            let drow =
                                &mut dst[(oz * oh + oy) * ow..(oz * oh + oy + 1) * ow];
                            if s == 1 {
                                drow.copy_from_slice(&x[src..src + ow]);
                            } else {
                                for (ox, d) in drow.iter_mut().enumerate() {
                                    *d = x[src + ox * s];
                                }
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
    }
    // hot-kernel: end
}

/// Adjoint of [`im2col3d`]: scatter-add `cols` back into the zeroed
/// `[c, t, h, w]` volume gradient `dx`. Overlapping receptive fields
/// accumulate, which is exactly the convolution input-gradient.
#[allow(clippy::too_many_arguments)]
pub fn col2im3d(
    cols: &[f32],
    c: usize,
    t: usize,
    h: usize,
    w: usize,
    kt: usize,
    k: usize,
    st: usize,
    s: usize,
    ot: usize,
    oh: usize,
    ow: usize,
    dx: &mut [f32],
) {
    debug_assert_eq!(dx.len(), c * t * h * w);
    debug_assert_eq!(cols.len(), c * kt * k * k * ot * oh * ow);
    let osp = ot * oh * ow;
    let mut row = 0usize;
    // hot-kernel: begin (3-D col2im scatter-add)
    for ci in 0..c {
        for kz in 0..kt {
            for ky in 0..k {
                for kx in 0..k {
                    let src = &cols[row * osp..(row + 1) * osp];
                    for oz in 0..ot {
                        let zoff = ci * t * h * w + (oz * st + kz) * h * w;
                        for oy in 0..oh {
                            let dst = zoff + (oy * s + ky) * w + kx;
                            let srow = &src[(oz * oh + oy) * ow..(oz * oh + oy + 1) * ow];
                            for (ox, &v) in srow.iter().enumerate() {
                                dx[dst + ox * s] += v;
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
    }
    // hot-kernel: end
}

/// A per-layer arena of reusable `f32` buffers.
///
/// Slots are positional and grow-only: a layer asks for the lengths it
/// needs each step and gets the same backing storage back, so buffers are
/// allocated once per `(layer, batch-shape)` and steady-state training
/// performs no per-step heap allocation. A slot that shrinks (smaller
/// batch) keeps its capacity and hands back a prefix.
///
/// Returned slices are *not* zeroed; callers that need zeroed storage fill
/// explicitly (and only where required).
#[derive(Debug, Default)]
pub struct Scratch {
    slots: Vec<Vec<f32>>,
}

impl Scratch {
    /// Empty arena; the first use of each slot allocates it.
    pub fn new() -> Scratch {
        Scratch { slots: Vec::new() }
    }

    fn ensure(&mut self, idx: usize, len: usize) {
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, Vec::new);
        }
        if self.slots[idx].len() < len {
            self.slots[idx].resize(len, 0.0);
        }
    }

    /// Borrow slots `0..N` at once, slot `i` at `lens[i]` elements.
    pub fn get<const N: usize>(&mut self, lens: [usize; N]) -> [&mut [f32]; N] {
        for (idx, &len) in lens.iter().enumerate() {
            self.ensure(idx, len);
        }
        let mut out: [&mut [f32]; N] = std::array::from_fn(|_| Default::default());
        for ((o, slot), len) in out.iter_mut().zip(&mut self.slots).zip(lens) {
            *o = &mut slot[..len];
        }
        out
    }

    /// Bytes currently held by the arena. Stable across steady-state steps
    /// (same batch shape ⇒ same value), which is what the reuse tests pin.
    pub fn bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.len() * std::mem::size_of::<f32>())
            .sum()
    }
}

/// Naive direct-loop kernels kept as the correctness oracle for the
/// optimized GEMM path (see the parity tests and `tests/kernel_parity.rs`).
pub mod reference {
    //! The pre-GEMM naive kernels, kept verbatim in spirit as the
    //! correctness oracle for the optimized path.
    //!
    //! These are the direct-loop implementations the layers shipped with
    //! before the GEMM rewrite (minus the data-dependent zero-skip
    //! branches, which made timing input-dependent without changing
    //! results). They are deliberately simple: `tests/kernel_parity.rs`
    //! holds the optimized kernels to 1e-4 relative agreement with these
    //! over randomized shapes, and `scripts/bench.sh` reports the
    //! optimized-over-reference speedup per case.

    /// Naive row-sweep matmul: `out = a · b` with the old `(i, k, j)` loop
    /// order, `a: [m, k]`, `b: [k, n]`, `out: [m, n]`.
    pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        assert_eq!(a.len(), m * k);
        assert_eq!(b.len(), k * n);
        assert_eq!(out.len(), m * n);
        out.fill(0.0);
        for (i, row) in out.chunks_mut(n.max(1)).enumerate().take(m) {
            for kk in 0..k {
                let av = a[i * k + kk];
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in row.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Naive direct 2-D convolution forward: the original 6-deep loop.
    /// `x: [batch, c, h, w]`, `wv: [f, c, k, k]`, `bias: [f]`,
    /// `out: [batch, f, oh, ow]` with `oh = (h-k)/s + 1` (valid padding).
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d_forward(
        x: &[f32],
        wv: &[f32],
        bias: &[f32],
        batch: usize,
        c: usize,
        h: usize,
        w: usize,
        f: usize,
        k: usize,
        s: usize,
        out: &mut [f32],
    ) {
        let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
        assert_eq!(out.len(), batch * f * oh * ow);
        for bi in 0..batch {
            let xb = &x[bi * c * h * w..(bi + 1) * c * h * w];
            let ob = &mut out[bi * f * oh * ow..(bi + 1) * f * oh * ow];
            for fi in 0..f {
                let wf = &wv[fi * c * k * k..(fi + 1) * c * k * k];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias[fi];
                        for ci in 0..c {
                            let xc = &xb[ci * h * w..(ci + 1) * h * w];
                            let wc = &wf[ci * k * k..(ci + 1) * k * k];
                            for ky in 0..k {
                                let row = (oy * s + ky) * w + ox * s;
                                let xr = &xc[row..row + k];
                                let wr = &wc[ky * k..ky * k + k];
                                for (xv, wvv) in xr.iter().zip(wr) {
                                    acc += xv * wvv;
                                }
                            }
                        }
                        ob[fi * oh * ow + oy * ow + ox] = acc;
                    }
                }
            }
        }
    }

    /// Naive direct 2-D convolution backward. Accumulates `dw`/`db` (caller
    /// zeroes or carries prior gradient state) and adds into `dx` (caller
    /// zeroes for a fresh input gradient).
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d_backward(
        x: &[f32],
        wv: &[f32],
        g: &[f32],
        batch: usize,
        c: usize,
        h: usize,
        w: usize,
        f: usize,
        k: usize,
        s: usize,
        dx: &mut [f32],
        dw: &mut [f32],
        db: &mut [f32],
    ) {
        let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
        assert_eq!(g.len(), batch * f * oh * ow);
        assert_eq!(dx.len(), batch * c * h * w);
        for bi in 0..batch {
            let xb = &x[bi * c * h * w..(bi + 1) * c * h * w];
            let gb = &g[bi * f * oh * ow..(bi + 1) * f * oh * ow];
            let dxb = &mut dx[bi * c * h * w..(bi + 1) * c * h * w];
            for fi in 0..f {
                let gf = &gb[fi * oh * ow..(fi + 1) * oh * ow];
                let wf = &wv[fi * c * k * k..(fi + 1) * c * k * k];
                let dwf = &mut dw[fi * c * k * k..(fi + 1) * c * k * k];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let gv = gf[oy * ow + ox];
                        db[fi] += gv;
                        for ci in 0..c {
                            let xoff = ci * h * w;
                            let woff = ci * k * k;
                            for ky in 0..k {
                                let irow = (oy * s + ky) * w + ox * s;
                                for kx in 0..k {
                                    dwf[woff + ky * k + kx] += gv * xb[xoff + irow + kx];
                                    dxb[xoff + irow + kx] += gv * wf[woff + ky * k + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Naive direct 3-D convolution forward: the original 8-deep loop.
    /// `x: [batch, c, t, h, w]`, `wv: [f, c, kt, k, k]`,
    /// `out: [batch, f, ot, oh, ow]`, strides `(st, s, s)`, valid padding.
    #[allow(clippy::too_many_arguments)]
    pub fn conv3d_forward(
        x: &[f32],
        wv: &[f32],
        bias: &[f32],
        batch: usize,
        c: usize,
        t: usize,
        h: usize,
        w: usize,
        f: usize,
        kt: usize,
        k: usize,
        st: usize,
        s: usize,
        out: &mut [f32],
    ) {
        let (ot, oh, ow) = ((t - kt) / st + 1, (h - k) / s + 1, (w - k) / s + 1);
        assert_eq!(out.len(), batch * f * ot * oh * ow);
        for bi in 0..batch {
            let xb = &x[bi * c * t * h * w..(bi + 1) * c * t * h * w];
            let ob = &mut out[bi * f * ot * oh * ow..(bi + 1) * f * ot * oh * ow];
            for fi in 0..f {
                let wf = &wv[fi * c * kt * k * k..(fi + 1) * c * kt * k * k];
                for oz in 0..ot {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = bias[fi];
                            for ci in 0..c {
                                for kz in 0..kt {
                                    let zoff = ci * t * h * w + (oz * st + kz) * h * w;
                                    let woff = ci * kt * k * k + kz * k * k;
                                    for ky in 0..k {
                                        let row = zoff + (oy * s + ky) * w + ox * s;
                                        for kx in 0..k {
                                            acc += xb[row + kx] * wf[woff + ky * k + kx];
                                        }
                                    }
                                }
                            }
                            ob[fi * ot * oh * ow + oz * oh * ow + oy * ow + ox] = acc;
                        }
                    }
                }
            }
        }
    }

    /// Naive direct 3-D convolution backward; same accumulation contract
    /// as [`conv2d_backward`].
    #[allow(clippy::too_many_arguments)]
    pub fn conv3d_backward(
        x: &[f32],
        wv: &[f32],
        g: &[f32],
        batch: usize,
        c: usize,
        t: usize,
        h: usize,
        w: usize,
        f: usize,
        kt: usize,
        k: usize,
        st: usize,
        s: usize,
        dx: &mut [f32],
        dw: &mut [f32],
        db: &mut [f32],
    ) {
        let (ot, oh, ow) = ((t - kt) / st + 1, (h - k) / s + 1, (w - k) / s + 1);
        assert_eq!(g.len(), batch * f * ot * oh * ow);
        assert_eq!(dx.len(), batch * c * t * h * w);
        for bi in 0..batch {
            let xb = &x[bi * c * t * h * w..(bi + 1) * c * t * h * w];
            let gb = &g[bi * f * ot * oh * ow..(bi + 1) * f * ot * oh * ow];
            let dxb = &mut dx[bi * c * t * h * w..(bi + 1) * c * t * h * w];
            for fi in 0..f {
                let gf = &gb[fi * ot * oh * ow..(fi + 1) * ot * oh * ow];
                let wf = &wv[fi * c * kt * k * k..(fi + 1) * c * kt * k * k];
                let dwf = &mut dw[fi * c * kt * k * k..(fi + 1) * c * kt * k * k];
                for oz in 0..ot {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let gv = gf[oz * oh * ow + oy * ow + ox];
                            db[fi] += gv;
                            for ci in 0..c {
                                for kz in 0..kt {
                                    let zoff = ci * t * h * w + (oz * st + kz) * h * w;
                                    let woff = ci * kt * k * k + kz * k * k;
                                    for ky in 0..k {
                                        let row = zoff + (oy * s + ky) * w + ox * s;
                                        for kx in 0..k {
                                            dwf[woff + ky * k + kx] += gv * xb[row + kx];
                                            dxb[row + kx] += gv * wf[woff + ky * k + kx];
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolearn_util::rng::rng_from_seed;
    use rand::Rng;

    fn rand_vec(n: usize, rng: &mut impl Rng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let tol = 1e-4 * (1.0 + x.abs().max(y.abs()));
            assert!((x - y).abs() <= tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn gemm_matches_reference_over_shapes() {
        let mut rng = rng_from_seed(11);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (4, 16, 16),
            (5, 17, 19),
            (64, 64, 64),
            (70, 300, 33),
            (2, 600, 40),
        ] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut want = vec![0.0; m * n];
            reference::matmul(&a, &b, m, k, n, &mut want);
            let mut got = vec![0.0; m * n];
            matmul_into(&mut got, &a, &b, m, k, n);
            assert_close(&got, &want, &format!("gemm {m}x{k}x{n}"));
        }
    }

    #[test]
    fn gemm_transpose_flags() {
        let mut rng = rng_from_seed(12);
        let (m, k, n) = (6, 9, 11);
        let a = rand_vec(m * k, &mut rng); // [m, k]
        let b = rand_vec(k * n, &mut rng); // [k, n]
        let mut want = vec![0.0; m * n];
        reference::matmul(&a, &b, m, k, n, &mut want);

        // a stored transposed: at[kx*m + i] = a[i*k + kx].
        let mut at = vec![0.0; m * k];
        for i in 0..m {
            for kx in 0..k {
                at[kx * m + i] = a[i * k + kx];
            }
        }
        let mut got = vec![0.0; m * n];
        gemm(&mut got, false, &at, true, &b, false, m, k, n);
        assert_close(&got, &want, "gemm ta");

        // b stored transposed: bt[j*k + kx] = b[kx*n + j].
        let mut bt = vec![0.0; k * n];
        for kx in 0..k {
            for j in 0..n {
                bt[j * k + kx] = b[kx * n + j];
            }
        }
        let mut got = vec![0.0; m * n];
        gemm(&mut got, false, &a, false, &bt, true, m, k, n);
        assert_close(&got, &want, "gemm tb");
    }

    #[test]
    fn gemm_accumulates_when_asked() {
        let mut rng = rng_from_seed(13);
        let (m, k, n) = (5, 8, 7);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut once = vec![0.0; m * n];
        matmul_into(&mut once, &a, &b, m, k, n);
        let mut twice = vec![0.0; m * n];
        gemm(&mut twice, true, &a, false, &b, false, m, k, n);
        gemm(&mut twice, true, &a, false, &b, false, m, k, n);
        let doubled: Vec<f32> = once.iter().map(|v| 2.0 * v).collect();
        assert_close(&twice, &doubled, "gemm acc");
    }

    #[test]
    fn im2col_col2im_2d_roundtrip_counts_overlaps() {
        // col2im(im2col(x)) multiplies each pixel by the number of windows
        // covering it; with k=1, s=1 that count is exactly 1. A 2-D image
        // is the 3-D lowering at t = kt = st = 1.
        let mut rng = rng_from_seed(14);
        let (c, h, w) = (2, 5, 6);
        let x = rand_vec(c * h * w, &mut rng);
        let mut cols = vec![0.0; c * h * w];
        im2col3d(&x, c, 1, h, w, 1, 1, 1, 1, 1, h, w, &mut cols);
        let mut back = vec![0.0; c * h * w];
        col2im3d(&cols, c, 1, h, w, 1, 1, 1, 1, 1, h, w, &mut back);
        assert_close(&back, &x, "1x1 roundtrip");
    }

    #[test]
    fn im2col2d_lowered_conv_matches_direct() {
        let mut rng = rng_from_seed(15);
        let (c, h, w, f, k, s) = (3, 9, 8, 4, 3, 2);
        let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
        let x = rand_vec(c * h * w, &mut rng);
        let wv = rand_vec(f * c * k * k, &mut rng);
        let bias = rand_vec(f, &mut rng);

        let mut want = vec![0.0; f * oh * ow];
        reference::conv2d_forward(&x, &wv, &bias, 1, c, h, w, f, k, s, &mut want);

        let ckk = c * k * k;
        let mut cols = vec![0.0; ckk * oh * ow];
        im2col3d(&x, c, 1, h, w, 1, k, 1, s, 1, oh, ow, &mut cols);
        let mut got = vec![0.0; f * oh * ow];
        matmul_into(&mut got, &wv, &cols, f, ckk, oh * ow);
        for fi in 0..f {
            for v in &mut got[fi * oh * ow..(fi + 1) * oh * ow] {
                *v += bias[fi];
            }
        }
        assert_close(&got, &want, "lowered conv2d");
    }

    #[test]
    fn im2col3d_lowered_conv_matches_direct() {
        let mut rng = rng_from_seed(16);
        let (c, t, h, w, f, kt, k, st, s) = (2, 4, 7, 6, 3, 2, 3, 1, 2);
        let (ot, oh, ow) = ((t - kt) / st + 1, (h - k) / s + 1, (w - k) / s + 1);
        let x = rand_vec(c * t * h * w, &mut rng);
        let wv = rand_vec(f * c * kt * k * k, &mut rng);
        let bias = rand_vec(f, &mut rng);

        let mut want = vec![0.0; f * ot * oh * ow];
        reference::conv3d_forward(
            &x, &wv, &bias, 1, c, t, h, w, f, kt, k, st, s, &mut want,
        );

        let ckk = c * kt * k * k;
        let mut cols = vec![0.0; ckk * ot * oh * ow];
        im2col3d(&x, c, t, h, w, kt, k, st, s, ot, oh, ow, &mut cols);
        let mut got = vec![0.0; f * ot * oh * ow];
        matmul_into(&mut got, &wv, &cols, f, ckk, ot * oh * ow);
        for fi in 0..f {
            for v in &mut got[fi * ot * oh * ow..(fi + 1) * ot * oh * ow] {
                *v += bias[fi];
            }
        }
        assert_close(&got, &want, "lowered conv3d");
    }

    #[test]
    fn scratch_slots_are_stable_and_disjoint() {
        let mut s = Scratch::new();
        {
            let [a, b] = s.get([8, 4]);
            a.fill(1.0);
            b.fill(2.0);
            assert_eq!(a.len(), 8);
            assert_eq!(b.len(), 4);
        }
        let bytes = s.bytes();
        // Same request: same storage, no growth.
        let _ = s.get([8, 4]);
        assert_eq!(s.bytes(), bytes);
        // Smaller request hands back a prefix without shrinking.
        assert_eq!(s.get([3])[0].len(), 3);
        assert_eq!(s.bytes(), bytes);
        // Larger request grows.
        let _ = s.get([100]);
        assert!(s.bytes() > bytes);
        let [q, r, t, u] = s.get([1, 2, 3, 4]);
        q[0] = 1.0;
        r[0] = 2.0;
        t[0] = 3.0;
        u[0] = 4.0;
    }
}
