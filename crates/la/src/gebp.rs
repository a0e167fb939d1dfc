//! GEBP-style cache-blocked matrix-multiply infrastructure (GotoBLAS/BLIS shape).
//!
//! The dense level-3 kernels in [`crate::blas3`] are all driven by the same three
//! ingredients defined here:
//!
//! * **Packing** — `op(A)` is repacked into row panels of [`MR`] rows and `op(B)` into
//!   column panels of [`NR`] columns, both laid out k-major so the microkernel streams
//!   them with unit stride.  Panels are zero-padded to full [`MR`]/[`NR`] multiples,
//!   which removes every edge case from the hot loop (padded lanes compute garbage that
//!   is simply never read back).
//! * **Microkernel** — [`microkernel`] keeps an `MR x NR` tile of accumulators in
//!   registers and performs one rank-1 update per `k` step.  Each accumulator is an
//!   independent dependence chain, so instruction-level parallelism comes from the tile
//!   width, not from splitting any single sum.  The same body is compiled twice: for
//!   the baseline target and, inside a `#[target_feature(enable = "avx2")]` wrapper,
//!   with 256-bit registers; the tier is chosen once per product by runtime detection,
//!   and an AVX-512 host runs the AVX2 build (its AVX-512 build was slower at the
//!   tall-skinny 32768x256x16 GEMM on a 2-vCPU AVX-512 VM).
//! * **Blocking** — [`blocked_sums`] drives the microkernel over `KC x NC` cache blocks
//!   ([`BlockSizes`]): a `KC x NC` panel of packed B stays resident in L2 while row
//!   panels of packed A stream through it, which is what turns the naive kernel's
//!   `O(n/NC)`-fold re-reading of A into a handful of passes.  One parallel region
//!   covers the whole product: each task owns a run of row panels and walks every
//!   block with its own packed panels.
//!
//! # The accumulation-order contract
//!
//! Every output element is accumulated **in strictly ascending `k` order through a
//! single accumulator chain**.  Between `KC` blocks the partial sum is parked in the
//! f64 accumulation buffer and reloaded — an exact store/load, not a re-association —
//! so the floating-point result is a pure function of the problem shape `(m, k, n)`:
//!
//! * independent of `KC`/`NC` block-size tuning (partials are never regrouped),
//! * independent of `MR`/`NR` (each element owns its accumulator; tiles only decide
//!   which elements are *adjacent*, never how any one sum is ordered),
//! * independent of thread count (parallel tasks own disjoint row panels, and how many
//!   panels a task owns is derived from shape alone),
//! * independent of instruction set (no FMA anywhere): every product and every sum is
//!   its own correctly rounded operation in each tier, so the AVX2 build reproduces
//!   the baseline's bits.
//!
//! This is what keeps every bitwise determinism gate in the workspace (1-vs-N threads,
//! 1/2/4/7-device sharding, fault recovery, tenant isolation) green on top of a tuned
//! kernel: tuning moves data, never arithmetic.

use crate::matrix::{Layout, Matrix, Op};
use rayon::prelude::*;
use sketch_rng::Tier;

/// Microkernel tile height (rows of C per register tile).
pub const MR: usize = 8;

/// Microkernel tile width (columns of C per register tile).
pub const NR: usize = 4;

/// Most tasks one product is cut into.  Each task makes its own pass over every B block
/// (see [`MIN_TASK_PANELS`]), so the cap bounds that repeated packing on a wide product
/// while still giving a few cores a task each.
const MAX_TASKS: usize = 4;

/// Fewest row panels one task owns.  Every task packs its own copy of each B block it
/// sweeps, one B element per `2 * MR` flops of a panel, so a task of one panel would
/// spend about as long packing as computing.
const MIN_TASK_PANELS: usize = 2;

/// Fewest flops one task is worth: a smaller product runs as one task on the calling
/// thread.
const MIN_TASK_FLOPS: usize = 1 << 20;

/// Cache block sizes for the packed panels.
///
/// Changing these moves cache boundaries only; by the accumulation-order contract the
/// computed bits are identical for every setting (pinned by proptest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// Depth (`k` extent) of one packed block; `MR x KC` A panels and the `KC x NC`
    /// B block bound the inner loop's working set.
    pub kc: usize,
    /// Width (`n` extent) of one packed B block; sized so `KC x NC` doubles sit in L2.
    pub nc: usize,
}

impl Default for BlockSizes {
    fn default() -> Self {
        // 8 x 256 x 8 B = 16 KiB per A panel (L1), 256 x 512 x 8 B = 1 MiB of packed B
        // (half of a typical 2 MiB L2).
        BlockSizes { kc: 256, nc: 512 }
    }
}

impl BlockSizes {
    /// Clamp to sane values: `kc >= 1`, `nc` a positive multiple of [`NR`].
    fn normalized(self) -> Self {
        BlockSizes {
            kc: self.kc.max(1),
            nc: self.nc.next_multiple_of(NR).max(NR),
        }
    }
}

/// Round `len` up to a multiple of `align`.
#[inline]
pub fn padded(len: usize, align: usize) -> usize {
    len.div_ceil(align) * align
}

/// Index of logical element `(i, j)` inside the panel-major accumulation buffer of a
/// product with `pn` padded columns: panel `i / MR`, then column-major within the panel.
#[inline(always)]
pub fn acc_index(pn: usize, i: usize, j: usize) -> usize {
    (i / MR) * (MR * pn) + j * MR + (i % MR)
}

/// `(row_stride, col_stride)` of `op(A)` over `a.as_slice()`.
#[inline]
fn strides_of(a: &Matrix, op: Op) -> (usize, usize) {
    let (rs, cs) = match a.layout() {
        Layout::RowMajor => (a.ncols(), 1),
        Layout::ColMajor => (1, a.nrows()),
    };
    match op {
        Op::NoTrans => (rs, cs),
        Op::Trans => (cs, rs),
    }
}

/// Pack lanes `l0..` of a strided operand, from step `pc` on, into consecutive k-major
/// panels of `W` lanes and `kc` steps each:
/// `dst[q * W * kc + kk * W + l] = data[(l0 + q * W + l) * lane_stride + (pc + kk) * k_stride]`
/// for lanes below `lanes`, zero for padding lanes past the operand's edge.
///
/// A-panels are row lanes of `op(A)`, B-panels column lanes of `op(B)`.  A dense
/// operand has unit stride along one of the two axes, and each case reads it in
/// storage order: one pass over each `k` step's contiguous lanes, or `W` contiguous
/// runs interleaved per panel.
#[inline(always)]
fn pack_panels<const W: usize>(
    data: &[f64],
    (lane_stride, k_stride): (usize, usize),
    lanes: usize,
    l0: usize,
    (pc, kc): (usize, usize),
    dst: &mut [f64],
) {
    let panels = dst.len() / (W * kc);
    let full = (lanes.saturating_sub(l0) / W).min(panels);
    if lane_stride == 1 && full > 0 {
        for kk in 0..kc {
            let at = l0 + (pc + kk) * k_stride;
            for (q, step) in data[at..at + full * W].chunks_exact(W).enumerate() {
                let to = q * W * kc + kk * W;
                let step: &[f64; W] = step.try_into().expect("chunks_exact(W)");
                let slot: &mut [f64; W] = (&mut dst[to..to + W]).try_into().expect("W lanes");
                *slot = *step;
            }
        }
    } else {
        for (q, panel) in dst.chunks_exact_mut(W * kc).take(full).enumerate() {
            let runs: [&[f64]; W] = std::array::from_fn(|l| {
                let at = (l0 + q * W + l) * lane_stride + pc * k_stride;
                &data[at..at + kc]
            });
            for (kk, step) in panel.chunks_exact_mut(W).enumerate() {
                for (slot, run) in step.iter_mut().zip(&runs) {
                    *slot = run[kk];
                }
            }
        }
    }
    for (q, panel) in dst.chunks_exact_mut(W * kc).enumerate().skip(full) {
        panel.fill(0.0);
        let first = l0 + q * W;
        for l in 0..lanes.saturating_sub(first).min(W) {
            let base = (first + l) * lane_stride + pc * k_stride;
            for kk in 0..kc {
                panel[kk * W + l] = data[base + kk * k_stride];
            }
        }
    }
}

/// Register-tiled inner kernel: `tile (MR x NR) <- tile ± ap · bp` over `kc` steps.
///
/// `tile` is a contiguous `MR * NR` slice (column-major within the tile).  The current
/// tile values are loaded into a register accumulator array, updated once per `k` step
/// in ascending order, and stored back — the exact-partial park/reload that makes the
/// result independent of how `k` is split into blocks.
#[inline(always)]
pub fn microkernel<const SUB: bool>(kc: usize, ap: &[f64], bp: &[f64], tile: &mut [f64]) {
    debug_assert_eq!(tile.len(), MR * NR);
    debug_assert!(ap.len() >= kc * MR);
    debug_assert!(bp.len() >= kc * NR);
    let mut acc = [[0.0f64; MR]; NR];
    for (c, col) in acc.iter_mut().enumerate() {
        col.copy_from_slice(&tile[c * MR..(c + 1) * MR]);
    }
    // SAFETY: slice lengths are checked by the debug_asserts above and guaranteed by
    // the packers (panels are always full MR/NR multiples).
    unsafe {
        for kk in 0..kc {
            let a = ap.get_unchecked(kk * MR..kk * MR + MR);
            let b = bp.get_unchecked(kk * NR..kk * NR + NR);
            for (c, col) in acc.iter_mut().enumerate() {
                let bc = *b.get_unchecked(c);
                for (r, slot) in col.iter_mut().enumerate() {
                    let prod = *a.get_unchecked(r) * bc;
                    if SUB {
                        *slot -= prod;
                    } else {
                        *slot += prod;
                    }
                }
            }
        }
    }
    for (c, col) in acc.iter().enumerate() {
        tile[c * MR..(c + 1) * MR].copy_from_slice(col);
    }
}

/// Row panels per task for a product of `panels` row panels, `pn` padded columns and
/// depth `k` — a function of shape alone: at most [`MAX_TASKS`] tasks, each of at
/// least [`MIN_TASK_PANELS`] panels and [`MIN_TASK_FLOPS`] flops.
fn panels_per_task(panels: usize, pn: usize, k: usize) -> usize {
    let panel_flops = (2 * MR * pn).saturating_mul(k);
    let by_flops = MIN_TASK_FLOPS.div_ceil(panel_flops.max(1));
    panels
        .div_ceil(MAX_TASKS)
        .max(by_flops)
        .max(MIN_TASK_PANELS)
        .min(panels.max(1))
}

/// One product's operands and blocking, shared by every task of its sweep.
struct Product<'a> {
    /// Storage of `A`, and `op(A)`'s `(row, col)` strides over it.
    a: &'a [f64],
    a_strides: (usize, usize),
    /// Storage of `B`, and `op(B)`'s `(col, row)` strides over it (lane, then step).
    b: &'a [f64],
    b_strides: (usize, usize),
    m: usize,
    k: usize,
    n: usize,
    /// `n` padded to [`NR`]: the accumulator width.
    pn: usize,
    kc: usize,
    nc: usize,
    upper_only: bool,
}

impl<'a> Product<'a> {
    /// Describe `op(A) · op(B)` under the given blocking.
    fn new(
        op_a: Op,
        a: &'a Matrix,
        op_b: Op,
        b: &'a Matrix,
        blocks: BlockSizes,
        upper_only: bool,
    ) -> Self {
        let blocks = blocks.normalized();
        let (k, pn) = (op_a.cols(a), padded(op_b.cols(b).max(1), NR));
        let (b_rs, b_cs) = strides_of(b, op_b);
        Product {
            a: a.as_slice(),
            a_strides: strides_of(a, op_a),
            b: b.as_slice(),
            b_strides: (b_cs, b_rs),
            m: op_a.rows(a),
            k,
            n: op_b.cols(b),
            pn,
            kc: blocks.kc.min(k).max(1),
            nc: blocks.nc.min(pn),
            upper_only,
        }
    }

    /// Accumulate one task's run of row panels — `rows` of the accumulator, starting
    /// at row `first_row` — over every `(jc, pc)` block in ascending order, packing
    /// the A and B panels it reads into task-local buffers.
    #[inline(always)]
    fn sweep(&self, first_row: usize, rows: &mut [f64]) {
        let Product { kc, nc, pn, .. } = *self;
        let mut apack = vec![0.0f64; MR * kc];
        let mut bpack = vec![0.0f64; nc * kc];
        for jc in (0..pn).step_by(nc) {
            let ncb = nc.min(pn - jc);
            // SYRK: tiles left of the task's first row are all skipped, so their B
            // panels are never packed.
            let q0 = if self.upper_only {
                (first_row.saturating_sub(jc) / NR).min(ncb / NR)
            } else {
                0
            };
            for pc in (0..self.k).step_by(kc) {
                let kcb = kc.min(self.k - pc);
                let b_panels = &mut bpack[q0 * NR * kcb..ncb * kcb];
                pack_panels::<NR>(
                    self.b,
                    self.b_strides,
                    self.n,
                    jc + q0 * NR,
                    (pc, kcb),
                    b_panels,
                );
                let apack = &mut apack[..MR * kcb];
                for (p, chunk) in rows.chunks_mut(MR * pn).enumerate() {
                    let i0 = first_row + p * MR;
                    if self.upper_only && i0 >= jc + ncb {
                        break;
                    }
                    pack_panels::<MR>(self.a, self.a_strides, self.m, i0, (pc, kcb), apack);
                    for q in q0..ncb / NR {
                        let jcol = jc + q * NR;
                        // SYRK: skip tiles whose every element is strictly below the
                        // diagonal (the epilogue mirrors the upper triangle instead).
                        if self.upper_only && i0 > jcol + NR - 1 {
                            continue;
                        }
                        let bp = &bpack[q * NR * kcb..(q + 1) * NR * kcb];
                        let tile = &mut chunk[jcol * MR..jcol * MR + MR * NR];
                        microkernel::<false>(kcb, apack, bp, tile);
                    }
                }
            }
        }
    }

    /// [`Product::sweep`] compiled with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_avx2(&self, first_row: usize, rows: &mut [f64]) {
        self.sweep(first_row, rows);
    }

    /// [`Product::sweep`] in the given tier.
    fn sweep_in(&self, tier: Tier, first_row: usize, rows: &mut [f64]) {
        match tier {
            Tier::Baseline => self.sweep(first_row, rows),
            // SAFETY: `Tier::Avx2` is only constructed after AVX2 was detected.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { self.sweep_avx2(first_row, rows) },
            // The AVX-512 build of the sweep was slower at the 32768x256x16 GEMM
            // row (see the module docs), so the widest tier runs the AVX2 body.
            // SAFETY: `Tier::Avx512` is only constructed after AVX2 was detected.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { self.sweep_avx2(first_row, rows) },
        }
    }
}

/// Compute the raw products `op(A) · op(B)` into a panel-major accumulation buffer.
///
/// Returns a `padded(m, MR) * padded(n, NR)` buffer indexed by [`acc_index`]; callers
/// apply `alpha`/`beta` (and read only the valid `m x n` region) in their epilogue.
/// With `upper_only`, register tiles lying strictly below the diagonal are skipped —
/// the SYRK path, which halves the executed flops for a Gram matrix.
pub fn blocked_sums(
    op_a: Op,
    a: &Matrix,
    op_b: Op,
    b: &Matrix,
    blocks: BlockSizes,
    upper_only: bool,
) -> Vec<f64> {
    let m = op_a.rows(a);
    let k = op_a.cols(a);
    let n = op_b.cols(b);
    debug_assert_eq!(k, op_b.rows(b), "caller validates inner dimensions");
    let pm = padded(m.max(1), MR);
    let pn = padded(n.max(1), NR);
    let mut acc = vec![0.0f64; pm * pn];
    if m == 0 || n == 0 || k == 0 {
        return acc;
    }

    let product = Product::new(op_a, a, op_b, b, blocks, upper_only);
    let tier = Tier::detect();
    let per_task = panels_per_task(pm / MR, pn, k);
    // One parallel region per product: each task owns `per_task` consecutive row
    // panels and walks every block with its own packed panels, so each element's
    // partial is parked in `acc` and reloaded in ascending k exactly as in a serial
    // sweep.
    acc.par_chunks_mut(per_task * MR * pn)
        .with_max_len(1)
        .enumerate()
        .for_each(|(t, rows)| product.sweep_in(tier, t * per_task * MR, rows));
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_rounds_up() {
        assert_eq!(padded(0, 8), 0);
        assert_eq!(padded(1, 8), 8);
        assert_eq!(padded(8, 8), 8);
        assert_eq!(padded(9, 4), 12);
    }

    #[test]
    fn acc_index_covers_panel_layout() {
        // 2 panels of 8 rows, 4 padded columns.
        let pn = 4;
        assert_eq!(acc_index(pn, 0, 0), 0);
        assert_eq!(acc_index(pn, 7, 0), 7);
        assert_eq!(acc_index(pn, 0, 1), 8);
        assert_eq!(acc_index(pn, 8, 0), MR * pn);
    }

    #[test]
    fn microkernel_sub_is_negated_add() {
        let kc = 5;
        let ap: Vec<f64> = (0..kc * MR).map(|i| (i as f64 * 0.37).sin()).collect();
        let bp: Vec<f64> = (0..kc * NR).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut add_tile = vec![0.0; MR * NR];
        let mut sub_tile = vec![0.0; MR * NR];
        microkernel::<false>(kc, &ap, &bp, &mut add_tile);
        microkernel::<true>(kc, &ap, &bp, &mut sub_tile);
        for (x, y) in add_tile.iter().zip(&sub_tile) {
            assert_eq!(x.to_bits(), (-y).to_bits());
        }
    }

    #[test]
    fn blocked_sums_matches_ascending_k_reference() {
        let a = Matrix::random_gaussian(13, 9, Layout::RowMajor, 3, 0);
        let b = Matrix::random_gaussian(9, 7, Layout::ColMajor, 3, 1);
        let acc = blocked_sums(
            Op::NoTrans,
            &a,
            Op::NoTrans,
            &b,
            BlockSizes::default(),
            false,
        );
        let pn = padded(7, NR);
        for i in 0..13 {
            for j in 0..7 {
                let mut want = 0.0f64;
                for kk in 0..9 {
                    want += a.get(i, kk) * b.get(kk, j);
                }
                let got = acc[acc_index(pn, i, j)];
                assert_eq!(got.to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    /// Gaussian entries with exact zeros of both signs and subnormals mixed in.
    fn with_signed_zeros_and_subnormals(m: Matrix) -> Matrix {
        Matrix::from_fn(m.nrows(), m.ncols(), m.layout(), |i, j| {
            match (i * 7 + j * 3) % 6 {
                0 => 0.0,
                1 => -0.0,
                2 => m.get(i, j) * 1e-310,
                _ => m.get(i, j),
            }
        })
    }

    /// The whole product as one task, in `tier`.
    fn sweep_bits(product: &Product<'_>, tier: Tier) -> Vec<u64> {
        let mut acc = vec![0.0f64; padded(product.m, MR) * product.pn];
        product.sweep_in(tier, 0, &mut acc);
        acc.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_tier_reproduces_the_baseline_bits() {
        for (m, k, n, upper_only) in [
            (13usize, 300usize, 9usize, false),
            (40, 700, 40, true),
            (8, 5, 4, false),
            (3, 1, 1, false),
        ] {
            for (la, lb) in [
                (Layout::RowMajor, Layout::ColMajor),
                (Layout::ColMajor, Layout::RowMajor),
            ] {
                let a = with_signed_zeros_and_subnormals(Matrix::random_gaussian(k, m, la, 4, 0));
                let b = with_signed_zeros_and_subnormals(Matrix::random_gaussian(k, n, lb, 4, 1));
                let product = Product::new(
                    Op::Trans,
                    &a,
                    Op::NoTrans,
                    &b,
                    BlockSizes::default(),
                    upper_only,
                );
                let base = sweep_bits(&product, Tier::Baseline);
                for tier in Tier::supported() {
                    assert_eq!(
                        sweep_bits(&product, tier),
                        base,
                        "{tier:?} {m}x{k}x{n} {la:?}/{lb:?} upper_only={upper_only}"
                    );
                }
            }
        }
    }

    #[test]
    fn task_split_is_a_function_of_shape() {
        // The Gram of a tall 32-column matrix splits into two tasks of two panels.
        assert_eq!(panels_per_task(4, 32, 1 << 16), MIN_TASK_PANELS);
        // Small products stay one task; wide ones are capped at MAX_TASKS.
        assert_eq!(panels_per_task(5, 8, 10), 5);
        assert_eq!(
            4096usize.div_ceil(panels_per_task(4096, 16, 256)),
            MAX_TASKS
        );
        assert_eq!(panels_per_task(1, 4, 1), 1);
    }

    #[test]
    fn blocked_sums_bits_do_not_depend_on_block_sizes() {
        let a = Matrix::random_gaussian(30, 50, Layout::ColMajor, 9, 0);
        let b = Matrix::random_gaussian(50, 11, Layout::RowMajor, 9, 1);
        let base = blocked_sums(
            Op::NoTrans,
            &a,
            Op::NoTrans,
            &b,
            BlockSizes::default(),
            false,
        );
        for blocks in [
            BlockSizes { kc: 1, nc: 4 },
            BlockSizes { kc: 7, nc: 8 },
            BlockSizes { kc: 64, nc: 4096 },
        ] {
            let other = blocked_sums(Op::NoTrans, &a, Op::NoTrans, &b, blocks, false);
            assert!(
                base.iter()
                    .zip(&other)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "bits changed under {blocks:?}"
            );
        }
    }
}
