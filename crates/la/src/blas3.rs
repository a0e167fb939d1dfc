//! Level-3 BLAS: matrix-matrix kernels (GEMM, SYRK, TRSM) with device cost accounting.
//!
//! These are the cuBLAS substitutes.  GEMM, SYRK and both TRSM variants all ride the
//! cache-blocked packing/microkernel infrastructure in [`crate::gebp`]: operands are
//! repacked into L1/L2-sized panels and driven through a register-tiled inner kernel,
//! while every output element keeps a single ascending-`k` accumulator chain so the
//! computed bits are a pure function of problem shape (see the `gebp` module docs for
//! the full contract).  SYRK exploits symmetry exactly the way the paper uses it for
//! the Gram matrix `AᵀA` (Section 6).  The paper notes that cuBLAS SyRK is slower than
//! GeMM in practice and therefore times the Gram matrix with GeMM; both are provided so
//! the ablation bench can reproduce that comparison.
//!
//! The pre-blocking per-element kernel survives as [`gemm_naive_into`]: it is the
//! baseline the `fig_kernels` regression harness times the blocked kernel against, and
//! the independent oracle the blocked-vs-naive proptests compare values with.  The
//! one-vector-at-a-time solves survive likewise as [`trsm_naive`] and
//! [`trsm_right_naive`], the references the lockstep solves must equal bit for bit.

use crate::blas1::dot_unrecorded;
use crate::blas2::Triangle;
use crate::error::{dim_err, LaError};
use crate::gebp::{self, BlockSizes};
use crate::matrix::{Layout, Matrix, MatrixViewMut, Op};
use rayon::prelude::*;
use sketch_gpu_sim::{Checked, Device, KernelCost};
use sketch_rng::Tier;
use std::ops::Range;

/// Block size (rows/columns) of the blocked triangular solves.  A fixed constant — not
/// a tunable — so the trailing-update order stays a pure function of the problem shape.
const TRSM_NB: usize = 64;

/// Number of right-hand-side vectors solved together in lockstep.  The group is
/// transposed so the vector index is innermost, and each triangle element then advances
/// every vector's chain at once.  A cache and register constant, not a numeric one:
/// each chain keeps its own subtraction order.
const TRSM_GROUP: usize = 8;

/// Elements of `X` one parallel TRSM task solves (at least one group).
const TRSM_TASK_ELEMS: usize = 1 << 14;

/// Pack `op(A)` so that its rows are contiguous (row-major copy of the logical operand).
fn pack_rows(a: &Matrix, op: Op) -> Vec<f64> {
    let m = op.rows(a);
    let k = op.cols(a);
    let mut out = vec![0.0; m * k];
    match (op, a.layout()) {
        (Op::NoTrans, Layout::RowMajor) | (Op::Trans, Layout::ColMajor) => {
            out.copy_from_slice(a.as_slice());
        }
        _ => {
            out.par_chunks_mut(k.max(1))
                .enumerate()
                .for_each(|(i, row)| {
                    for (j, slot) in row.iter_mut().enumerate() {
                        *slot = op.get(a, i, j);
                    }
                });
        }
    }
    out
}

/// Pack `op(B)` so that its columns are contiguous (column-major copy of the operand).
fn pack_cols(b: &Matrix, op: Op) -> Vec<f64> {
    let k = op.rows(b);
    let n = op.cols(b);
    let mut out = vec![0.0; k * n];
    match (op, b.layout()) {
        (Op::NoTrans, Layout::ColMajor) | (Op::Trans, Layout::RowMajor) => {
            out.copy_from_slice(b.as_slice());
        }
        _ => {
            out.par_chunks_mut(k.max(1))
                .enumerate()
                .for_each(|(j, col)| {
                    for (i, slot) in col.iter_mut().enumerate() {
                        *slot = op.get(b, i, j);
                    }
                });
        }
    }
    out
}

/// Validate GEMM dimensions and return `(m, k, n)` with the product's
/// [`gemm_cost`] (reading `C` when `beta != 0`); a cost that overflows `u64` is a
/// dimension error.
fn gemm_dims(
    op_a: Op,
    a: &Matrix,
    op_b: Op,
    b: &Matrix,
    beta: f64,
    c: Option<&Matrix>,
    out: &MatrixViewMut<'_>,
) -> Result<(usize, usize, usize, KernelCost), LaError> {
    let m = op_a.rows(a);
    let k = op_a.cols(a);
    let kb = op_b.rows(b);
    let n = op_b.cols(b);
    if k != kb {
        return Err(dim_err(
            "gemm",
            format!("op(A) is {m}x{k} but op(B) is {kb}x{n}"),
        ));
    }
    if let Some(c0) = c {
        if c0.nrows() != m || c0.ncols() != n {
            return Err(dim_err(
                "gemm",
                format!("C is {}x{} but product is {m}x{n}", c0.nrows(), c0.ncols()),
            ));
        }
    }
    if out.nrows() != m || out.ncols() != n {
        return Err(dim_err(
            "gemm",
            format!(
                "output buffer is {}x{} but product is {m}x{n}",
                out.nrows(),
                out.ncols()
            ),
        ));
    }
    let cost = gemm_cost(m, k, n, beta != 0.0 && c.is_some());
    let overflow = || {
        dim_err(
            "gemm",
            format!("the cost of a {m}x{k}x{n} GEMM overflows u64"),
        )
    };
    Ok((m, k, n, cost.ok_or_else(overflow)?))
}

/// The modelled cost of an `m x k` times `k x n` GEMM (`2mnk` flops, packed-operand
/// traffic), reading a `beta`-scaled `C` when `read_c`: what every GEMM entry point
/// records, stated from the shapes alone.  `None` when a count overflows `u64`.
pub fn gemm_cost(m: usize, k: usize, n: usize, read_c: bool) -> Option<KernelCost> {
    let (m, k, n) = (Checked::from(m), Checked::from(k), Checked::from(n));
    let read_c = if read_c { m * n } else { Checked::ZERO };
    KernelCost::checked((m * k + k * n + read_c) * 8, m * n * 8, m * n * k * 2, 1)
}

/// General matrix-matrix product `C <- alpha * op(A) * op(B) + beta * C`.
///
/// The result is returned as a new column-major matrix; `c` supplies the `beta`-scaled
/// initial value when provided.  This is the thin allocating wrapper around
/// [`gemm_into`], which buffer-reusing callers invoke directly.
// The argument list deliberately mirrors BLAS DGEMM's parameter order.
#[allow(clippy::too_many_arguments)]
pub fn gemm_op(
    device: &Device,
    alpha: f64,
    op_a: Op,
    a: &Matrix,
    op_b: Op,
    b: &Matrix,
    beta: f64,
    c: Option<&Matrix>,
) -> Result<Matrix, LaError> {
    let m = op_a.rows(a);
    let n = op_b.cols(b);
    let mut out = Matrix::zeros(m, n);
    gemm_into(
        device,
        alpha,
        op_a,
        a,
        op_b,
        b,
        beta,
        c,
        &mut out.view_mut(),
    )?;
    Ok(out)
}

/// Buffer-reusing GEMM: `out <- alpha * op(A) * op(B) + beta * C`, written into a
/// caller-owned buffer of either layout.  Runs the cache-blocked GEBP kernel with the
/// default [`BlockSizes`]; produces bit-for-bit the same values in either output layout
/// (each element's ascending-`k` accumulator chain is independent of where it is
/// stored) and records the same cost as [`gemm_op`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_into(
    device: &Device,
    alpha: f64,
    op_a: Op,
    a: &Matrix,
    op_b: Op,
    b: &Matrix,
    beta: f64,
    c: Option<&Matrix>,
    out: &mut MatrixViewMut<'_>,
) -> Result<(), LaError> {
    gemm_into_with_blocks(
        device,
        alpha,
        op_a,
        a,
        op_b,
        b,
        beta,
        c,
        out,
        BlockSizes::default(),
    )
}

/// [`gemm_into`] with explicit cache [`BlockSizes`].
///
/// Exposed so the kernel harness and the determinism proptests can pin that block-size
/// tuning never changes the computed bits; production callers use [`gemm_into`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_into_with_blocks(
    device: &Device,
    alpha: f64,
    op_a: Op,
    a: &Matrix,
    op_b: Op,
    b: &Matrix,
    beta: f64,
    c: Option<&Matrix>,
    out: &mut MatrixViewMut<'_>,
    blocks: BlockSizes,
) -> Result<(), LaError> {
    let (.., cost) = gemm_dims(op_a, a, op_b, b, beta, c, out)?;
    gemm_compute(alpha, op_a, a, op_b, b, beta, c, out, blocks);
    device.record(cost);
    Ok(())
}

/// [`gemm_into`] without the cost record: the same bits, for callers that record
/// the [`gemm_cost`] statement themselves (or charge it elsewhere).
#[allow(clippy::too_many_arguments)]
pub fn gemm_into_unrecorded(
    alpha: f64,
    op_a: Op,
    a: &Matrix,
    op_b: Op,
    b: &Matrix,
    beta: f64,
    c: Option<&Matrix>,
    out: &mut MatrixViewMut<'_>,
) -> Result<(), LaError> {
    gemm_dims(op_a, a, op_b, b, beta, c, out)?;
    gemm_compute(alpha, op_a, a, op_b, b, beta, c, out, BlockSizes::default());
    Ok(())
}

/// The blocked GEMM body behind [`gemm_into_with_blocks`] and
/// [`gemm_into_unrecorded`], on dimensions `gemm_dims` has checked.
#[allow(clippy::too_many_arguments)]
fn gemm_compute(
    alpha: f64,
    op_a: Op,
    a: &Matrix,
    op_b: Op,
    b: &Matrix,
    beta: f64,
    c: Option<&Matrix>,
    out: &mut MatrixViewMut<'_>,
    blocks: BlockSizes,
) {
    let (m, n) = (out.nrows(), out.ncols());
    let acc = gebp::blocked_sums(op_a, a, op_b, b, blocks, false);
    let pn = gebp::padded(n.max(1), gebp::NR);
    let read_beta = beta != 0.0 && c.is_some();
    let element = |i: usize, j: usize| {
        let mut value = alpha * acc[gebp::acc_index(pn, i, j)];
        if read_beta {
            if let Some(c0) = c {
                value += beta * c0.get(i, j);
            }
        }
        value
    };
    match out.layout() {
        Layout::ColMajor => {
            out.as_mut_slice()
                .par_chunks_mut(m.max(1))
                .enumerate()
                .for_each(|(j, col)| {
                    for (i, slot) in col.iter_mut().enumerate() {
                        *slot = element(i, j);
                    }
                });
        }
        Layout::RowMajor => {
            out.as_mut_slice()
                .par_chunks_mut(n.max(1))
                .enumerate()
                .for_each(|(i, row)| {
                    for (j, slot) in row.iter_mut().enumerate() {
                        *slot = element(i, j);
                    }
                });
        }
    }
}

/// The pre-blocking per-element GEMM: every output element is one packed dot product.
///
/// Retained (not routed to by anything on the hot path) as the measured baseline for
/// the `fig_kernels` speed-regression harness and as the independent oracle for the
/// blocked-vs-naive value proptests.  Records the same modelled cost as [`gemm_into`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive_into(
    device: &Device,
    alpha: f64,
    op_a: Op,
    a: &Matrix,
    op_b: Op,
    b: &Matrix,
    beta: f64,
    c: Option<&Matrix>,
    out: &mut MatrixViewMut<'_>,
) -> Result<(), LaError> {
    let (m, k, n, cost) = gemm_dims(op_a, a, op_b, b, beta, c, out)?;

    let packed_a = pack_rows(a, op_a);
    let packed_b = pack_cols(b, op_b);

    let element = |i: usize, j: usize| {
        let arow = &packed_a[i * k..(i + 1) * k];
        let bcol = &packed_b[j * k..(j + 1) * k];
        let mut value = alpha * dot_unrecorded(arow, bcol);
        if beta != 0.0 {
            if let Some(c0) = c {
                value += beta * c0.get(i, j);
            }
        }
        value
    };
    match out.layout() {
        Layout::ColMajor => {
            out.as_mut_slice()
                .par_chunks_mut(m.max(1))
                .enumerate()
                .for_each(|(j, col)| {
                    for (i, slot) in col.iter_mut().enumerate() {
                        *slot = element(i, j);
                    }
                });
        }
        Layout::RowMajor => {
            out.as_mut_slice()
                .par_chunks_mut(n.max(1))
                .enumerate()
                .for_each(|(i, row)| {
                    for (j, slot) in row.iter_mut().enumerate() {
                        *slot = element(i, j);
                    }
                });
        }
    }

    device.record(cost);
    Ok(())
}

/// Convenience GEMM without transposes: `C = alpha * A * B + beta * C`.
pub fn gemm(
    device: &Device,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: Option<&Matrix>,
) -> Result<Matrix, LaError> {
    gemm_op(device, alpha, Op::NoTrans, a, Op::NoTrans, b, beta, c)
}

/// Symmetric rank-k update computing the Gram matrix `G = AᵀA` (column-major result).
///
/// Runs the same blocked GEBP sweep as [`gemm_op`] with `(Op::Trans, Op::NoTrans)`, but
/// skips every register tile strictly below the diagonal and mirrors the upper triangle
/// into the lower one inside the parallel epilogue — which halves the executed flops,
/// the SyRK vs GeMM trade-off discussed in Section 6.  Because the upper-triangle
/// elements run the identical ascending-`k` chains, the result is bitwise equal to
/// [`gram_gemm`].
pub fn syrk_gram(device: &Device, a: &Matrix) -> Matrix {
    let d = a.nrows();
    let n = a.ncols();
    let acc = gebp::blocked_sums(Op::Trans, a, Op::NoTrans, a, BlockSizes::default(), true);
    let pn = gebp::padded(n.max(1), gebp::NR);

    let mut g = Matrix::zeros(n, n);
    g.as_mut_slice()
        .par_chunks_mut(n.max(1))
        .enumerate()
        .for_each(|(j, col)| {
            // Upper part straight from the accumulators; lower part mirrored from the
            // transposed index in the same pass (the buffer is immutable here, so both
            // triangles read the already-finished sums).
            for (i, slot) in col.iter_mut().enumerate() {
                *slot = if i <= j {
                    acc[gebp::acc_index(pn, i, j)]
                } else {
                    acc[gebp::acc_index(pn, j, i)]
                };
            }
        });

    let (d64, n64) = (d as u64, n as u64);
    device.record(KernelCost::new(
        KernelCost::f64_bytes(d64 * n64),
        KernelCost::f64_bytes(n64 * n64),
        d64 * n64 * (n64 + 1),
        1,
    ));
    g
}

/// Gram matrix via plain GEMM (`G = AᵀA` computed with full 2dn² flops), matching how
/// the paper actually times the normal equations ("SyRK's performance is much worse in
/// practice than GeMM").
pub fn gram_gemm(device: &Device, a: &Matrix) -> Result<Matrix, LaError> {
    gemm_op(device, 1.0, Op::Trans, a, Op::NoTrans, a, 0.0, None)
}

/// Pack `op(T)` into a contiguous row-major `n x n` buffer so the solves stream each
/// triangle row with unit stride.
fn pack_triangle(t: &Matrix, op_t: Op) -> Vec<f64> {
    let n = t.nrows();
    let mut tp = vec![0.0; n * n];
    tp.par_chunks_mut(n.max(1))
        .enumerate()
        .for_each(|(i, row)| {
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = op_t.get(t, i, j);
            }
        });
    tp
}

/// Solves every right-hand side of a triangular system with `solve_all` and records
/// the modelled cost.
///
/// The left solve `op(T) X = B` solves the columns of `B` against `op(T)` into a
/// column-major `X`.  The right solve `X op(T) = B` is `op(T)ᵀ Xᵀ = Bᵀ`, so it solves
/// the rows of `B` against the flipped operand into a row-major `X`.  Either way the
/// solved vectors lie contiguously in `X`, and `solve_all` receives the packed
/// triangle, the triangle it presents (`Upper` means back substitution), `B`, whether
/// the vectors are `B`'s rows, and `X`'s storage.
fn triangular_solve(
    device: &Device,
    right: bool,
    (triangle, op_t, t): (Triangle, Op, &Matrix),
    b: &Matrix,
    solve_all: fn(&[f64], usize, Triangle, &Matrix, bool, &mut [f64]),
) -> Result<Matrix, LaError> {
    let name = if right { "trsm_right" } else { "trsm" };
    let n = t.nrows();
    if t.ncols() != n {
        return Err(dim_err(name, format!("T is {}x{}", t.nrows(), t.ncols())));
    }
    let (b_len, vectors) = if right {
        (b.ncols(), b.nrows())
    } else {
        (b.nrows(), b.ncols())
    };
    if b_len != n {
        return Err(dim_err(
            name,
            format!("T is {n}x{n} but B is {}x{}", b.nrows(), b.ncols()),
        ));
    }
    for i in 0..n {
        if t.get(i, i) == 0.0 {
            return Err(LaError::SingularTriangular { index: i });
        }
    }
    let op = match (right, op_t) {
        (false, op) => op,
        (true, Op::NoTrans) => Op::Trans,
        (true, Op::Trans) => Op::NoTrans,
    };
    let effective = match (triangle, op) {
        (Triangle::Upper, Op::NoTrans) | (Triangle::Lower, Op::Trans) => Triangle::Upper,
        (Triangle::Lower, Op::NoTrans) | (Triangle::Upper, Op::Trans) => Triangle::Lower,
    };
    let mut x = if right {
        Matrix::zeros_with_layout(vectors, n, Layout::RowMajor)
    } else {
        Matrix::zeros(n, vectors)
    };
    solve_all(
        &pack_triangle(t, op),
        n,
        effective,
        b,
        right,
        x.as_mut_slice(),
    );

    device.record(trsm_cost(n, vectors));
    Ok(x)
}

/// The modelled cost of a triangular solve with an `n x n` factor and `vectors`
/// right-hand sides, on either side (the triangle and the right-hand sides read once,
/// `n²` flops per vector): what [`trsm`] and [`trsm_right`] record.  The right solve
/// of a `d x n` operand has `d` vectors.
pub fn trsm_cost(n: usize, vectors: usize) -> KernelCost {
    let (n, r) = (n as u64, vectors as u64);
    KernelCost::new(
        KernelCost::f64_bytes(n * (n + 1) / 2 + n * r),
        KernelCost::f64_bytes(n * r),
        n * n * r,
        1,
    )
}

/// `x[i] - Σ_{j ∈ js} T[i, j] · x[j]` for every lane of a transposed group, subtracting
/// in ascending `j`: one independent chain per lane, all advancing in lockstep.
#[inline(always)]
fn lane_update(xt: &[f64], i: usize, trow: &[f64], js: Range<usize>) -> [f64; TRSM_GROUP] {
    let mut acc: [f64; TRSM_GROUP] = xt[i * TRSM_GROUP..(i + 1) * TRSM_GROUP]
        .try_into()
        .expect("one lane per vector");
    let xs = xt[js.start * TRSM_GROUP..js.end * TRSM_GROUP].chunks_exact(TRSM_GROUP);
    for (&t, xj) in trow[js].iter().zip(xs) {
        for (a, &x) in acc.iter_mut().zip(xj) {
            *a -= t * x;
        }
    }
    acc
}

/// Blocked triangular solve of one group of [`TRSM_GROUP`] vectors, transposed so the
/// vector index is innermost (`xt[j * TRSM_GROUP + v]` is element `j` of vector `v`).
///
/// Left-looking over [`TRSM_NB`] diagonal blocks with GEMM-style trailing updates.  Per
/// element the subtraction order is: all already-solved `j` outside the current block
/// in ascending order (trailing blocks ascend, and their `j` ranges concatenate into
/// one ascending run), then the in-block `j` ascending — for the `Lower` direction that
/// is exactly the naive ascending-`j` order.  `TRSM_NB` is a constant, so the order is
/// a pure function of `n`, and it is the order of [`solve_vector_naive`] lane by lane.
#[inline(always)]
fn solve_group_body(tp: &[f64], n: usize, effective: Triangle, xt: &mut [f64]) {
    let row = |i: usize| &tp[i * n..(i + 1) * n];
    let lanes = |i: usize| i * TRSM_GROUP..(i + 1) * TRSM_GROUP;
    let nblocks = n.div_ceil(TRSM_NB);
    for step in 0..nblocks {
        // Back substitution solves the blocks last to first, forward first to last.
        let bi = match effective {
            Triangle::Upper => nblocks - 1 - step,
            Triangle::Lower => step,
        };
        let i0 = bi * TRSM_NB;
        let i1 = (i0 + TRSM_NB).min(n);
        // Trailing update x[i0..i1] -= T[i0..i1, solved] · x[solved], blocked over j
        // so one TRSM_NB-wide strip of T stays hot per pass.
        let solved = match effective {
            Triangle::Upper => i1..n,
            Triangle::Lower => 0..i0,
        };
        for j0 in solved.clone().step_by(TRSM_NB) {
            let js = j0..(j0 + TRSM_NB).min(solved.end);
            for i in i0..i1 {
                let acc = lane_update(xt, i, row(i), js.clone());
                xt[lanes(i)].copy_from_slice(&acc);
            }
        }
        // Diagonal block substitution.
        let mut substitute = |i: usize, js: Range<usize>| {
            let acc = lane_update(xt, i, row(i), js);
            let diag = row(i)[i];
            for (x, a) in xt[lanes(i)].iter_mut().zip(acc) {
                *x = a / diag;
            }
        };
        match effective {
            Triangle::Upper => (i0..i1).rev().for_each(|i| substitute(i, i + 1..i1)),
            Triangle::Lower => (i0..i1).for_each(|i| substitute(i, i0..i)),
        }
    }
}

/// [`solve_group_body`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn solve_group_avx2(tp: &[f64], n: usize, effective: Triangle, xt: &mut [f64]) {
    solve_group_body(tp, n, effective, xt);
}

/// Solve one transposed group in the given tier.
fn solve_group(tier: Tier, tp: &[f64], n: usize, effective: Triangle, xt: &mut [f64]) {
    match tier {
        Tier::Baseline => solve_group_body(tp, n, effective, xt),
        // SAFETY: `Tier::Avx2` is only constructed after AVX2 was detected.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { solve_group_avx2(tp, n, effective, xt) },
        // The AVX-512 build of the group solve was slower than the AVX2 build in
        // four of six paired `trsm_right` runs at 65536x32 on a 2-vCPU AVX-512
        // VM, so the widest tier runs the AVX2 body.
        // SAFETY: `Tier::Avx512` is only constructed after AVX2 was detected.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { solve_group_avx2(tp, n, effective, xt) },
    }
}

/// Solve every length-`n` vector of `x` (stored contiguously, one after another)
/// against the packed triangle `tp`, reading the right-hand sides from `b`: its rows
/// when `by_rows`, else its columns.
///
/// Each parallel task owns a run of whole groups of [`TRSM_GROUP`] vectors.  A group
/// is gathered from `b` straight into a task-local transposed buffer in `b`'s storage
/// order, solved in lockstep, and scattered into `x`; a ragged last group pads its
/// missing lanes with zeros that are never read back.
fn solve_vectors(
    tp: &[f64],
    n: usize,
    effective: Triangle,
    b: &Matrix,
    by_rows: bool,
    x: &mut [f64],
) {
    if n == 0 {
        return;
    }
    let tier = Tier::detect();
    let (rs, cs) = match b.layout() {
        Layout::RowMajor => (b.ncols(), 1),
        Layout::ColMajor => (1, b.nrows()),
    };
    // Element `j` of vector `v` is `data[v * vs + j * es]`.
    let (vs, es) = if by_rows { (rs, cs) } else { (cs, rs) };
    let data = b.as_slice();
    let group = n * TRSM_GROUP;
    let per_task = (TRSM_TASK_ELEMS / group).max(1);
    x.par_chunks_mut(group * per_task)
        .with_max_len(1)
        .enumerate()
        .for_each(|(t, chunk)| {
            let mut xt = vec![0.0f64; group];
            for (g, xs) in chunk.chunks_mut(group).enumerate() {
                let v0 = (t * per_task + g) * TRSM_GROUP;
                let count = xs.len() / n;
                if count < TRSM_GROUP {
                    xt.fill(0.0);
                }
                if es == 1 {
                    for v in 0..count {
                        let src = &data[(v0 + v) * vs..(v0 + v) * vs + n];
                        for (lanes, &value) in xt.chunks_exact_mut(TRSM_GROUP).zip(src) {
                            lanes[v] = value;
                        }
                    }
                } else {
                    // `vs == 1`: the group's lanes of each element are adjacent.
                    for (j, lanes) in xt.chunks_exact_mut(TRSM_GROUP).enumerate() {
                        let at = v0 + j * es;
                        lanes[..count].copy_from_slice(&data[at..at + count]);
                    }
                }
                solve_group(tier, tp, n, effective, &mut xt);
                for (v, out) in xs.chunks_exact_mut(n).enumerate() {
                    for (slot, lanes) in out.iter_mut().zip(xt.chunks_exact(TRSM_GROUP)) {
                        *slot = lanes[v];
                    }
                }
            }
        });
}

/// Triangular solve with multiple right-hand sides: solves `op(T) X = B` (left side).
pub fn trsm(
    device: &Device,
    triangle: Triangle,
    op_t: Op,
    t: &Matrix,
    b: &Matrix,
) -> Result<Matrix, LaError> {
    triangular_solve(device, false, (triangle, op_t, t), b, solve_vectors)
}

/// Right-side triangular solve: solves `X op(T) = B`, i.e. `X = B op(T)^{-1}`.
///
/// Used by rand_cholQR to precondition `A₀ = A R₀^{-1}` (Algorithm 4, step 3).
/// `X op(T) = B  <=>  op(T)ᵀ Xᵀ = Bᵀ`, so the rows of `X` are solved with the flipped
/// operand — directly into the row-major result buffer, whose rows are the solved
/// vectors; the rows of a row-major `B` are read as contiguous slices.
pub fn trsm_right(
    device: &Device,
    triangle: Triangle,
    op_t: Op,
    t: &Matrix,
    b: &Matrix,
) -> Result<Matrix, LaError> {
    triangular_solve(device, true, (triangle, op_t, t), b, solve_vectors)
}

/// The blocked solve of one vector, each element one chain of subtractions in the
/// order [`solve_group_body`] documents: the reference every lockstep lane must equal.
fn solve_vector_naive(tp: &[f64], n: usize, effective: Triangle, x: &mut [f64]) {
    let nblocks = n.div_ceil(TRSM_NB);
    match effective {
        Triangle::Upper => {
            for bi in (0..nblocks).rev() {
                let i0 = bi * TRSM_NB;
                let i1 = (i0 + TRSM_NB).min(n);
                let mut j0 = i1;
                while j0 < n {
                    let j1 = (j0 + TRSM_NB).min(n);
                    for i in i0..i1 {
                        let trow = &tp[i * n..(i + 1) * n];
                        let mut acc = x[i];
                        for j in j0..j1 {
                            acc -= trow[j] * x[j];
                        }
                        x[i] = acc;
                    }
                    j0 = j1;
                }
                for i in (i0..i1).rev() {
                    let trow = &tp[i * n..(i + 1) * n];
                    let mut acc = x[i];
                    for j in i + 1..i1 {
                        acc -= trow[j] * x[j];
                    }
                    x[i] = acc / trow[i];
                }
            }
        }
        Triangle::Lower => {
            for bi in 0..nblocks {
                let i0 = bi * TRSM_NB;
                let i1 = (i0 + TRSM_NB).min(n);
                let mut j0 = 0;
                while j0 < i0 {
                    let j1 = (j0 + TRSM_NB).min(i0);
                    for i in i0..i1 {
                        let trow = &tp[i * n..(i + 1) * n];
                        let mut acc = x[i];
                        for j in j0..j1 {
                            acc -= trow[j] * x[j];
                        }
                        x[i] = acc;
                    }
                    j0 = j1;
                }
                for i in i0..i1 {
                    let trow = &tp[i * n..(i + 1) * n];
                    let mut acc = x[i];
                    for j in i0..i {
                        acc -= trow[j] * x[j];
                    }
                    x[i] = acc / trow[i];
                }
            }
        }
    }
}

/// Solve every vector of `x` on its own with [`solve_vector_naive`], copying each
/// right-hand side in from `b` element by element (its rows when `by_rows`).
fn solve_vectors_naive(
    tp: &[f64],
    n: usize,
    effective: Triangle,
    b: &Matrix,
    by_rows: bool,
    x: &mut [f64],
) {
    x.par_chunks_mut(n.max(1))
        .enumerate()
        .for_each(|(v, vector)| {
            for (j, slot) in vector.iter_mut().enumerate() {
                *slot = if by_rows { b.get(v, j) } else { b.get(j, v) };
            }
            solve_vector_naive(tp, n, effective, vector);
        });
}

/// [`trsm`] one right-hand side at a time: the reference the lockstep solve is pinned
/// to bit for bit.  Records the same cost.
pub fn trsm_naive(
    device: &Device,
    triangle: Triangle,
    op_t: Op,
    t: &Matrix,
    b: &Matrix,
) -> Result<Matrix, LaError> {
    triangular_solve(device, false, (triangle, op_t, t), b, solve_vectors_naive)
}

/// [`trsm_right`] one right-hand side at a time: the reference the lockstep solve is
/// pinned to bit for bit.  Records the same cost.
pub fn trsm_right_naive(
    device: &Device,
    triangle: Triangle,
    op_t: Op,
    t: &Matrix,
    b: &Matrix,
) -> Result<Matrix, LaError> {
    triangular_solve(device, true, (triangle, op_t, t), b, solve_vectors_naive)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::unlimited()
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert!(
            a.max_abs_diff(b).unwrap() < tol,
            "matrices differ by {}",
            a.max_abs_diff(b).unwrap()
        );
    }

    #[test]
    fn gemm_small_known_product() {
        let d = device();
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = gemm(&d, 1.0, &a, &b, 0.0, None).unwrap();
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]);
        assert_close(&c, &expect, 1e-12);
    }

    #[test]
    fn gemm_identity_is_neutral() {
        let d = device();
        let a = Matrix::random_gaussian(7, 5, Layout::ColMajor, 1, 0);
        let c = gemm(&d, 1.0, &a, &Matrix::identity(5), 0.0, None).unwrap();
        assert_close(&c, &a.to_layout(&d, Layout::ColMajor), 1e-12);
    }

    #[test]
    fn gemm_respects_alpha_beta_and_c() {
        let d = device();
        let a = Matrix::identity(3);
        let b = Matrix::identity(3);
        let c0 = Matrix::from_fn(3, 3, Layout::ColMajor, |i, j| (i + j) as f64);
        let c = gemm(&d, 2.0, &a, &b, 0.5, Some(&c0)).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 2.0 } else { 0.0 } + 0.5 * (i + j) as f64;
                assert!((c.get(i, j) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemm_transpose_combinations_agree_with_explicit_transpose() {
        let d = device();
        let a = Matrix::random_gaussian(4, 6, Layout::RowMajor, 2, 0);
        let b = Matrix::random_gaussian(4, 3, Layout::ColMajor, 2, 1);
        // AᵀB via op flags vs via materialised transpose.
        let via_op = gemm_op(&d, 1.0, Op::Trans, &a, Op::NoTrans, &b, 0.0, None).unwrap();
        let at = a.transpose(&d);
        let via_explicit = gemm(&d, 1.0, &at, &b, 0.0, None).unwrap();
        assert_close(&via_op, &via_explicit, 1e-12);

        // ABᵀ with A 4x6, B 3x6.
        let b2 = Matrix::random_gaussian(3, 6, Layout::RowMajor, 5, 0);
        let via_op2 = gemm_op(&d, 1.0, Op::NoTrans, &a, Op::Trans, &b2, 0.0, None).unwrap();
        let b2t = b2.transpose(&d);
        let via_explicit2 = gemm(&d, 1.0, &a, &b2t, 0.0, None).unwrap();
        assert_close(&via_op2, &via_explicit2, 1e-12);
    }

    #[test]
    fn gemm_into_is_bit_identical_in_both_output_layouts() {
        let d = device();
        let a = Matrix::random_gaussian(5, 7, Layout::RowMajor, 1, 0);
        let b = Matrix::random_gaussian(7, 4, Layout::ColMajor, 1, 1);
        let reference = gemm(&d, 1.0, &a, &b, 0.0, None).unwrap();
        for layout in [Layout::ColMajor, Layout::RowMajor] {
            // Start from a dirty buffer: every element must be overwritten.
            let mut out = Matrix::from_fn(5, 4, layout, |_, _| f64::NAN);
            gemm_into(
                &d,
                1.0,
                Op::NoTrans,
                &a,
                Op::NoTrans,
                &b,
                0.0,
                None,
                &mut out.view_mut(),
            )
            .unwrap();
            for i in 0..5 {
                for j in 0..4 {
                    assert!(
                        out.get(i, j).to_bits() == reference.get(i, j).to_bits(),
                        "({i},{j}) differs in {layout:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_gemm_bits_do_not_depend_on_block_sizes() {
        let d = device();
        let a = Matrix::random_gaussian(21, 33, Layout::RowMajor, 13, 0);
        let b = Matrix::random_gaussian(33, 10, Layout::ColMajor, 13, 1);
        let c0 = Matrix::random_gaussian(21, 10, Layout::ColMajor, 13, 2);
        let run = |blocks: BlockSizes| {
            let mut out = Matrix::zeros(21, 10);
            gemm_into_with_blocks(
                &d,
                1.25,
                Op::NoTrans,
                &a,
                Op::NoTrans,
                &b,
                -0.5,
                Some(&c0),
                &mut out.view_mut(),
                blocks,
            )
            .unwrap();
            out
        };
        let base = run(BlockSizes::default());
        for blocks in [
            BlockSizes { kc: 1, nc: 4 },
            BlockSizes { kc: 5, nc: 8 },
            BlockSizes { kc: 1024, nc: 2048 },
        ] {
            let other = run(blocks);
            for i in 0..21 {
                for j in 0..10 {
                    assert_eq!(
                        base.get(i, j).to_bits(),
                        other.get(i, j).to_bits(),
                        "({i},{j}) changed under {blocks:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_gemm_matches_naive_reference_values() {
        let d = device();
        for (m, k, n, seed) in [
            (1usize, 1usize, 1usize, 1u64),
            (17, 23, 9, 2),
            (64, 8, 40, 3),
        ] {
            let a = Matrix::random_gaussian(m, k, Layout::RowMajor, seed, 0);
            let b = Matrix::random_gaussian(k, n, Layout::ColMajor, seed, 1);
            let mut blocked = Matrix::zeros(m, n);
            let mut naive = Matrix::zeros(m, n);
            gemm_into(
                &d,
                1.0,
                Op::NoTrans,
                &a,
                Op::NoTrans,
                &b,
                0.0,
                None,
                &mut blocked.view_mut(),
            )
            .unwrap();
            gemm_naive_into(
                &d,
                1.0,
                Op::NoTrans,
                &a,
                Op::NoTrans,
                &b,
                0.0,
                None,
                &mut naive.view_mut(),
            )
            .unwrap();
            let scale = naive
                .as_slice()
                .iter()
                .fold(1.0f64, |acc, v| acc.max(v.abs()));
            assert!(
                blocked.max_abs_diff(&naive).unwrap() <= 1e-12 * scale,
                "{m}x{k}x{n} blocked vs naive"
            );
        }
    }

    #[test]
    fn gemm_into_rejects_wrong_output_shape() {
        let d = device();
        let a = Matrix::identity(3);
        let b = Matrix::identity(3);
        let mut out = Matrix::zeros(2, 3);
        assert!(gemm_into(
            &d,
            1.0,
            Op::NoTrans,
            &a,
            Op::NoTrans,
            &b,
            0.0,
            None,
            &mut out.view_mut()
        )
        .is_err());
    }

    #[test]
    fn gemm_rejects_mismatched_inner_dimensions() {
        let d = device();
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(gemm(&d, 1.0, &a, &b, 0.0, None).is_err());
        let c_wrong = Matrix::zeros(5, 5);
        let b_ok = Matrix::zeros(3, 2);
        assert!(gemm(&d, 1.0, &a, &b_ok, 1.0, Some(&c_wrong)).is_err());
    }

    #[test]
    fn gemm_records_2mnk_flops() {
        let d = device();
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(4, 5);
        let _ = gemm(&d, 1.0, &a, &b, 0.0, None).unwrap();
        assert_eq!(d.tracker().snapshot().flops, 2 * 3 * 4 * 5);
    }

    #[test]
    fn naive_reference_records_the_same_cost_as_blocked() {
        let a = Matrix::zeros(6, 4);
        let b = Matrix::zeros(4, 5);
        let d1 = device();
        let mut out1 = Matrix::zeros(6, 5);
        gemm_into(
            &d1,
            1.0,
            Op::NoTrans,
            &a,
            Op::NoTrans,
            &b,
            0.0,
            None,
            &mut out1.view_mut(),
        )
        .unwrap();
        let d2 = device();
        let mut out2 = Matrix::zeros(6, 5);
        gemm_naive_into(
            &d2,
            1.0,
            Op::NoTrans,
            &a,
            Op::NoTrans,
            &b,
            0.0,
            None,
            &mut out2.view_mut(),
        )
        .unwrap();
        let s1 = d1.tracker().snapshot();
        let s2 = d2.tracker().snapshot();
        assert_eq!(s1.flops, s2.flops);
        assert_eq!(s1.total_bytes(), s2.total_bytes());
    }

    #[test]
    fn syrk_matches_gemm_gram() {
        let d = device();
        let a = Matrix::random_gaussian(50, 8, Layout::ColMajor, 7, 0);
        let g1 = syrk_gram(&d, &a);
        let g2 = gram_gemm(&d, &a).unwrap();
        assert_close(&g1, &g2, 1e-10);
        // Gram matrices are symmetric.
        for i in 0..8 {
            for j in 0..8 {
                assert!((g1.get(i, j) - g1.get(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn syrk_is_bitwise_equal_to_gemm_gram() {
        // The SYRK path skips sub-diagonal tiles but runs identical ascending-k chains
        // for the upper triangle, and the mirror copies bits exactly.
        let d = device();
        for (rows, cols, seed) in [(50usize, 8usize, 7u64), (33, 13, 8), (8, 21, 9)] {
            let a = Matrix::random_gaussian(rows, cols, Layout::ColMajor, seed, 0);
            let g1 = syrk_gram(&d, &a);
            let g2 = gram_gemm(&d, &a).unwrap();
            for i in 0..cols {
                for j in 0..cols {
                    assert_eq!(
                        g1.get(i, j).to_bits(),
                        g2.get(i, j).to_bits(),
                        "({i},{j}) at {rows}x{cols}"
                    );
                }
            }
        }
    }

    #[test]
    fn syrk_uses_roughly_half_the_flops_of_gemm_gram() {
        let d1 = device();
        let a = Matrix::zeros(100, 10);
        let _ = syrk_gram(&d1, &a);
        let syrk_flops = d1.tracker().snapshot().flops;

        let d2 = device();
        let _ = gram_gemm(&d2, &a).unwrap();
        let gemm_flops = d2.tracker().snapshot().flops;
        assert!(syrk_flops < gemm_flops);
        assert!(syrk_flops * 2 <= gemm_flops + 2 * 100 * 10);
    }

    #[test]
    fn syrk_gram_works_on_row_major_input() {
        let d = device();
        let a_rm = Matrix::random_gaussian(40, 6, Layout::RowMajor, 9, 0);
        let a_cm = a_rm.to_layout(&d, Layout::ColMajor);
        assert_close(&syrk_gram(&d, &a_rm), &syrk_gram(&d, &a_cm), 1e-12);
    }

    #[test]
    fn trsm_left_solves_upper_and_lower_systems() {
        let d = device();
        let u = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        let x_true = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]);
        let b = gemm(&d, 1.0, &u, &x_true, 0.0, None).unwrap();
        let x = trsm(&d, Triangle::Upper, Op::NoTrans, &u, &b).unwrap();
        assert_close(&x, &x_true.to_layout(&d, Layout::ColMajor), 1e-12);

        // Lower case: solve Uᵀ X = B.
        let bt = gemm_op(&d, 1.0, Op::Trans, &u, Op::NoTrans, &x_true, 0.0, None).unwrap();
        let xt = trsm(&d, Triangle::Upper, Op::Trans, &u, &bt).unwrap();
        assert_close(&xt, &x_true.to_layout(&d, Layout::ColMajor), 1e-12);
    }

    #[test]
    fn trsm_left_blocked_matches_unblocked_on_big_triangles() {
        // n > TRSM_NB so the trailing-update path is actually exercised.
        let d = device();
        let n = 150;
        let mut u = Matrix::from_fn(n, n, Layout::ColMajor, |i, j| {
            if i <= j {
                ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5
            } else {
                0.0
            }
        });
        for i in 0..n {
            u.set(i, i, 2.0 + (i % 5) as f64);
        }
        let x_true = Matrix::random_gaussian(n, 7, Layout::ColMajor, 21, 0);
        let b = gemm(&d, 1.0, &u, &x_true, 0.0, None).unwrap();
        let x = trsm(&d, Triangle::Upper, Op::NoTrans, &u, &b).unwrap();
        assert_close(&x, &x_true, 1e-8);

        let bl = gemm_op(&d, 1.0, Op::Trans, &u, Op::NoTrans, &x_true, 0.0, None).unwrap();
        let xl = trsm(&d, Triangle::Upper, Op::Trans, &u, &bl).unwrap();
        assert_close(&xl, &x_true, 1e-8);
    }

    #[test]
    fn trsm_right_solves_post_multiplied_system() {
        let d = device();
        let r = Matrix::from_rows(&[&[2.0, -1.0, 0.5], &[0.0, 1.5, 1.0], &[0.0, 0.0, 3.0]]);
        let x_true = Matrix::random_gaussian(6, 3, Layout::ColMajor, 11, 0);
        // B = X R  => X = B R^{-1}
        let b = gemm(&d, 1.0, &x_true, &r, 0.0, None).unwrap();
        let x = trsm_right(&d, Triangle::Upper, Op::NoTrans, &r, &b).unwrap();
        assert_close(&x, &x_true, 1e-10);
    }

    #[test]
    fn trsm_right_solves_wide_blocked_system() {
        let d = device();
        let n = 130;
        let mut r = Matrix::from_fn(n, n, Layout::ColMajor, |i, j| {
            if i <= j {
                ((i * 13 + j * 7) % 19) as f64 / 19.0 - 0.5
            } else {
                0.0
            }
        });
        for i in 0..n {
            r.set(i, i, 3.0 + (i % 3) as f64);
        }
        let x_true = Matrix::random_gaussian(9, n, Layout::ColMajor, 31, 0);
        let b = gemm(&d, 1.0, &x_true, &r, 0.0, None).unwrap();
        let x = trsm_right(&d, Triangle::Upper, Op::NoTrans, &r, &b).unwrap();
        assert_close(&x, &x_true, 1e-8);
    }

    /// A well-conditioned packed `n x n` triangle and a transposed group of right-hand
    /// sides, both with exact zeros of both signs and subnormals mixed in.
    fn hostile_group(n: usize, effective: Triangle) -> (Vec<f64>, Vec<f64>) {
        let special = |i: usize, j: usize, x: f64| match (i * 5 + j * 3) % 7 {
            0 => 0.0,
            1 => -0.0,
            2 => x * 1e-310,
            _ => x,
        };
        let g = Matrix::random_gaussian(n, n, Layout::RowMajor, n as u64, 0);
        let mut tp = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let inside = match effective {
                    Triangle::Upper => i < j,
                    Triangle::Lower => i > j,
                };
                tp[i * n + j] = if i == j {
                    2.0 + g.get(i, j).abs()
                } else if inside {
                    special(i, j, 0.3 * g.get(i, j))
                } else {
                    0.0
                };
            }
        }
        let rhs = Matrix::random_gaussian(n, TRSM_GROUP, Layout::RowMajor, n as u64, 1);
        let xt = (0..n * TRSM_GROUP)
            .map(|e| special(e / TRSM_GROUP, e % TRSM_GROUP, rhs.as_slice()[e]))
            .collect();
        (tp, xt)
    }

    #[test]
    fn every_tier_trsm_group_reproduces_the_baseline_bits() {
        for n in [1usize, 5, 63, 64, 65, 130] {
            for effective in [Triangle::Upper, Triangle::Lower] {
                let (tp, xt) = hostile_group(n, effective);
                let mut baseline = xt.clone();
                solve_group_body(&tp, n, effective, &mut baseline);
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                for tier in Tier::supported() {
                    let mut tiered = xt.clone();
                    solve_group(tier, &tp, n, effective, &mut tiered);
                    assert_eq!(
                        bits(&tiered),
                        bits(&baseline),
                        "{tier:?} n={n} {effective:?}"
                    );
                }
                // And every lane is the per-vector solve of its own right-hand side.
                for v in 0..TRSM_GROUP {
                    let mut x: Vec<f64> = (0..n).map(|j| xt[j * TRSM_GROUP + v]).collect();
                    solve_vector_naive(&tp, n, effective, &mut x);
                    let lane: Vec<f64> = (0..n).map(|j| baseline[j * TRSM_GROUP + v]).collect();
                    assert_eq!(bits(&lane), bits(&x), "n={n} {effective:?} lane {v}");
                }
            }
        }
    }

    #[test]
    fn trsm_detects_singular_diagonal() {
        let d = device();
        let mut u = Matrix::identity(3);
        u.set(2, 2, 0.0);
        let b = Matrix::zeros(3, 2);
        assert!(matches!(
            trsm(&d, Triangle::Upper, Op::NoTrans, &u, &b),
            Err(LaError::SingularTriangular { index: 2 })
        ));
        let b_right = Matrix::zeros(2, 3);
        assert!(trsm_right(&d, Triangle::Upper, Op::NoTrans, &u, &b_right).is_err());
    }

    #[test]
    fn trsm_rejects_bad_shapes() {
        let d = device();
        let t = Matrix::identity(3);
        assert!(trsm(&d, Triangle::Upper, Op::NoTrans, &t, &Matrix::zeros(2, 2)).is_err());
        assert!(trsm_right(&d, Triangle::Upper, Op::NoTrans, &t, &Matrix::zeros(2, 2)).is_err());
        let rect = Matrix::zeros(2, 3);
        assert!(trsm(
            &d,
            Triangle::Upper,
            Op::NoTrans,
            &rect,
            &Matrix::zeros(2, 2)
        )
        .is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool builds")
                .install(f)
        }

        fn op_of(flag: bool) -> Op {
            if flag {
                Op::Trans
            } else {
                Op::NoTrans
            }
        }

        fn layout_of(flag: bool) -> Layout {
            if flag {
                Layout::RowMajor
            } else {
                Layout::ColMajor
            }
        }

        /// Operand pair shaped so `op(A) (m x k) · op(B) (k x n)` is valid.
        #[allow(clippy::too_many_arguments)]
        fn operands(
            m: usize,
            k: usize,
            n: usize,
            ta: bool,
            tb: bool,
            la: Layout,
            lb: Layout,
            seed: u64,
        ) -> (Matrix, Matrix) {
            let (ar, ac) = if ta { (k, m) } else { (m, k) };
            let (br, bc) = if tb { (n, k) } else { (k, n) };
            (
                Matrix::random_gaussian(ar, ac, la, seed, 0),
                Matrix::random_gaussian(br, bc, lb, seed, 1),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The blocked kernel never drifts from the naive per-element
            /// reference: within 1e-12 of the output scale across shapes,
            /// layouts, op flags, and alpha/beta.
            #[test]
            fn prop_blocked_matches_naive_reference(
                m in 1usize..40,
                k in 1usize..40,
                n in 1usize..40,
                ta in 0u8..2,
                tb in 0u8..2,
                la in 0u8..2,
                lb in 0u8..2,
                lo in 0u8..2,
                alpha_tenths in -20i32..20,
                beta_tenths in -20i32..20,
                seed in 0u64..1000,
            ) {
                let d = device();
                let (ta, tb, la, lb, lo) = (ta == 1, tb == 1, la == 1, lb == 1, lo == 1);
                let (alpha, beta) = (f64::from(alpha_tenths) / 10.0, f64::from(beta_tenths) / 10.0);
                let (op_a, op_b) = (op_of(ta), op_of(tb));
                let (a, b) = operands(m, k, n, ta, tb, layout_of(la), layout_of(lb), seed);
                let c0 = Matrix::random_gaussian(m, n, Layout::ColMajor, seed, 2);
                let mut blocked = Matrix::zeros_with_layout(m, n, layout_of(lo));
                let mut naive = Matrix::zeros_with_layout(m, n, layout_of(lo));
                gemm_into(&d, alpha, op_a, &a, op_b, &b, beta, Some(&c0), &mut blocked.view_mut())
                    .expect("dims valid");
                gemm_naive_into(&d, alpha, op_a, &a, op_b, &b, beta, Some(&c0), &mut naive.view_mut())
                    .expect("dims valid");
                let scale = naive
                    .as_slice()
                    .iter()
                    .fold(1.0f64, |acc, v| acc.max(v.abs()));
                let diff = blocked.max_abs_diff(&naive).expect("same shape");
                prop_assert!(diff <= 1e-12 * scale, "diff {diff:e} vs scale {scale:e}");
            }

            /// Blocked-GEMM bits are a pure function of shape: invariant to the
            /// thread count (1/2/4/7) and to cache block-size overrides.
            #[test]
            fn prop_blocked_bits_pure_function_of_shape(
                m in 1usize..40,
                k in 1usize..40,
                n in 1usize..40,
                ta in 0u8..2,
                tb in 0u8..2,
                kc in 1usize..512,
                nc in 1usize..512,
                seed in 0u64..1000,
            ) {
                let d = device();
                let (ta, tb) = (ta == 1, tb == 1);
                let (op_a, op_b) = (op_of(ta), op_of(tb));
                let (a, b) = operands(m, k, n, ta, tb, Layout::RowMajor, Layout::ColMajor, seed);
                let run = |threads: usize, blocks: BlockSizes| {
                    with_threads(threads, || {
                        let mut out = Matrix::zeros(m, n);
                        gemm_into_with_blocks(
                            &d, 1.0, op_a, &a, op_b, &b, 0.0, None,
                            &mut out.view_mut(), blocks,
                        )
                        .expect("dims valid");
                        out.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
                    })
                };
                let reference = run(1, BlockSizes::default());
                for threads in [2usize, 4, 7] {
                    prop_assert_eq!(&run(threads, BlockSizes::default()), &reference,
                        "bits drifted at {} threads", threads);
                }
                let blocks = BlockSizes { kc, nc };
                prop_assert_eq!(&run(1, blocks), &reference,
                    "bits drifted under kc={} nc={}", kc, nc);
                prop_assert_eq!(&run(7, blocks), &reference,
                    "bits drifted under kc={} nc={} at 7 threads", kc, nc);
            }
        }
    }
}
