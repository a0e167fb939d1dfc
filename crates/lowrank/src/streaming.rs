//! Single-pass streaming SVD: `A` is consumed row-block-by-row-block, exactly once.
//!
//! The sketch state follows Tropp et al.'s "practical sketching" scheme: a column
//! sketch `Y = AΩ` (`Ω ∈ R^{n x ℓ}`) and a row sketch `W = ΨA` (`Ψ ∈ R^{ℓ₂ x m}`,
//! `ℓ₂ = 2ℓ + 1`) are maintained incrementally, so each row block of `A` is touched
//! once and never revisited — the access pattern of [`RowWindows`], which hands
//! out one row window of a matrix at a time.  At [`StreamingSvd::finalize`] the
//! approximation `A ≈ Q (ΨQ)† W` is assembled from the sketches alone and
//! truncated to rank `k` with the small Jacobi SVD.
//!
//! The columns of `Ψ` are regenerated deterministically from the *global* row index
//! (one Philox stream per row), which has two useful consequences: the drawn sketch
//! operators do not depend on how the rows are blocked (results agree across
//! blockings up to floating-point associativity, and are bit-for-bit reproducible
//! for a fixed blocking and seed), and `Ψ` never has to be stored — finalisation
//! re-derives the `ΨQ` product chunk by chunk.

use crate::error::{dim_err, param_err, LowRankError};
use crate::rangefinder::LowRankParams;
use crate::rsvd::SvdResult;
use sketch_core::{Operand, OperandSlice};
use sketch_gpu_sim::{Device, KernelCost};
use sketch_la::qr::geqrf;
use sketch_la::{blas3, jacobi_svd, Layout, Matrix, Op};
use sketch_rng::fill;
use std::ops::Range;

/// Seed salt separating the row-sketch `Ψ` streams from the column-sketch `Ω`
/// streams (which use the caller's seed unsalted).
const PSI_SEED_SALT: u64 = 0xA5A5_5A5A_C3C3_3C3C;

/// Row-chunk size used when re-deriving `ΨQ` during finalisation.
const FINALIZE_CHUNK: usize = 1024;

/// A source of contiguous row blocks, the streaming pipeline's input abstraction.
///
/// `fetch` hands out block `b` (blocks are ordered top to bottom and disjoint); the
/// driver [`streaming_svd`] fetches each block exactly once, which the
/// [`CountingBlockSource`] wrapper can assert.
pub trait RowBlockSource {
    /// Total number of rows across all blocks.
    fn nrows(&self) -> usize;

    /// Number of columns (identical in every block).
    fn ncols(&self) -> usize;

    /// Number of row blocks.
    fn num_blocks(&self) -> usize;

    /// Access block `b`; the driver calls this once per block, in order.
    fn fetch(&mut self, block: usize) -> &Matrix;
}

/// A [`RowBlockSource`] over a borrowed dense matrix: block `b` is one
/// [`Operand::slice_rows`] window, cut when it is fetched and kept only until
/// the next fetch.
///
/// The split is balanced: the first `nrows % blocks` windows hold one extra
/// row.
#[derive(Debug)]
pub struct RowWindows<'a> {
    a: &'a Matrix,
    blocks: usize,
    window: Option<OperandSlice<'a>>,
}

impl<'a> RowWindows<'a> {
    /// Cut `a` into `blocks` contiguous row windows.
    ///
    /// # Panics
    /// Panics if `blocks` is zero or exceeds the number of rows of `a`.
    pub fn split(a: &'a Matrix, blocks: usize) -> Self {
        assert!(blocks > 0, "need at least one block");
        assert!(
            blocks <= a.nrows(),
            "cannot split {} rows into {blocks} blocks",
            a.nrows()
        );
        Self {
            a,
            blocks,
            window: None,
        }
    }

    /// The row range of `a` that block `b` covers.
    fn block_range(&self, b: usize) -> Range<usize> {
        let base = self.a.nrows() / self.blocks;
        let extra = self.a.nrows() % self.blocks;
        let start = b * base + b.min(extra);
        start..start + base + usize::from(b < extra)
    }
}

impl RowBlockSource for RowWindows<'_> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }

    fn ncols(&self) -> usize {
        self.a.ncols()
    }

    fn num_blocks(&self) -> usize {
        self.blocks
    }

    fn fetch(&mut self, block: usize) -> &Matrix {
        let range = self.block_range(block);
        let window = self.window.insert(Operand::Dense(self.a).slice_rows(range));
        match window.as_operand() {
            Operand::Dense(m) => m,
            _ => unreachable!("a dense operand slices into dense windows"),
        }
    }
}

/// A wrapper that counts how many times each block is fetched — the instrument the
/// accuracy tests use to certify the pipeline is genuinely single-pass.
#[derive(Debug, Clone)]
pub struct CountingBlockSource<S> {
    inner: S,
    counts: Vec<usize>,
}

impl<S: RowBlockSource> CountingBlockSource<S> {
    /// Wrap a source, starting all counts at zero.
    pub fn new(inner: S) -> Self {
        let counts = vec![0; inner.num_blocks()];
        Self { inner, counts }
    }

    /// Fetch count per block, indexed by block number.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Recover the wrapped source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: RowBlockSource> RowBlockSource for CountingBlockSource<S> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn fetch(&mut self, block: usize) -> &Matrix {
        self.counts[block] += 1;
        self.inner.fetch(block)
    }
}

/// Incremental state of the single-pass streaming SVD.
///
/// Push row blocks top-to-bottom with [`push_block`](Self::push_block), then call
/// [`finalize`](Self::finalize).  Memory footprint is `O((m + n)·ℓ)` — the input
/// matrix itself is never stored.
#[derive(Debug, Clone)]
pub struct StreamingSvd {
    k: usize,
    l: usize,
    l2: usize,
    seed: u64,
    stream: u64,
    nrows: usize,
    ncols: usize,
    next_row: usize,
    omega: Matrix,
    y: Matrix,
    w: Matrix,
}

impl StreamingSvd {
    /// Initialise the sketch state for an `nrows x ncols` stream.
    ///
    /// The column sketch dimension is `ℓ = min(k + oversample, nrows, ncols)` and the
    /// row sketch uses `ℓ₂ = 2ℓ + 1`; `params.power_iters` is ignored (power
    /// iteration would require revisiting `A`, which a single-pass method cannot do).
    pub fn new(
        device: &Device,
        nrows: usize,
        ncols: usize,
        params: &LowRankParams,
    ) -> Result<Self, LowRankError> {
        let l = params.sketch_dim(nrows, ncols)?;
        let l2 = 2 * l + 1;
        let omega = params
            .sketch
            .test_matrix(device, ncols, l, params.seed, params.stream)?;
        Ok(Self {
            k: params.k,
            l,
            l2,
            seed: params.seed,
            stream: params.stream,
            nrows,
            ncols,
            next_row: 0,
            omega,
            y: Matrix::zeros(nrows, l),
            w: Matrix::zeros(l2, ncols),
        })
    }

    /// Number of rows consumed so far.
    pub fn rows_seen(&self) -> usize {
        self.next_row
    }

    /// The column-sketch width `ℓ`.
    pub fn sketch_dim(&self) -> usize {
        self.l
    }

    /// Columns `start..start+len` of `Ψ`, regenerated from the global row indices.
    fn psi_block(&self, device: &Device, start: usize, len: usize) -> Matrix {
        let mut p = Matrix::zeros(self.l2, len);
        for j in 0..len {
            let col = fill::gaussian_vec(
                self.seed ^ PSI_SEED_SALT,
                self.stream.wrapping_add((start + j) as u64),
                self.l2,
            );
            p.col_mut(j)
                .expect("psi block is column-major")
                .copy_from_slice(&col);
        }
        // Generation cost mirrors GaussianSketch: one write per variate plus the
        // Box-Muller arithmetic.
        let elems = (self.l2 * len) as u64;
        device.record(KernelCost::new(
            0,
            KernelCost::f64_bytes(elems),
            12 * elems,
            1,
        ));
        p
    }

    /// Consume the next row block (rows `rows_seen()..rows_seen()+block.nrows()`).
    ///
    /// Updates `Y[rows, :] = block · Ω` and `W += Ψ[:, rows] · block`; the block is
    /// read by two GEMMs and then dropped — it is never needed again.
    pub fn push_block(&mut self, device: &Device, block: &Matrix) -> Result<(), LowRankError> {
        if block.ncols() != self.ncols {
            return Err(dim_err(
                "push_block",
                self.ncols,
                block.ncols(),
                format!("block dense {}x{}", block.nrows(), block.ncols()),
            ));
        }
        let mb = block.nrows();
        if self.next_row + mb > self.nrows {
            return Err(dim_err(
                "push_block",
                self.nrows - self.next_row,
                mb,
                format!(
                    "block of {mb} rows overflows the declared {} total (seen {})",
                    self.nrows, self.next_row
                ),
            ));
        }
        let yb = blas3::gemm(device, 1.0, block, &self.omega, 0.0, None)?;
        for j in 0..self.l {
            for i in 0..mb {
                self.y.set(self.next_row + i, j, yb.get(i, j));
            }
        }
        let psi_b = self.psi_block(device, self.next_row, mb);
        self.w = blas3::gemm(device, 1.0, &psi_b, block, 1.0, Some(&self.w))?;
        self.next_row += mb;
        Ok(())
    }

    /// Assemble the truncated SVD from the sketches.
    ///
    /// `Q = qr(Y)`, `X = (ΨQ)† W` (a small least squares solve), and the SVD of the
    /// `ℓ x n` matrix `X` — computed via its transpose — yields
    /// `A ≈ Q X = (Q V_X) Σ U_Xᵀ`, truncated to rank `k`.
    pub fn finalize(self, device: &Device) -> Result<SvdResult, LowRankError> {
        if self.next_row != self.nrows {
            return Err(param_err(format!(
                "stream incomplete: saw {} of {} rows",
                self.next_row, self.nrows
            )));
        }
        let q = geqrf(device, &self.y)?.q_thin(device); // m x l

        // ΨQ, re-derived in row chunks so Ψ (ℓ₂ x m) is never materialised whole.
        let mut psi_q = Matrix::zeros(self.l2, self.l);
        let mut start = 0;
        while start < self.nrows {
            let len = FINALIZE_CHUNK.min(self.nrows - start);
            let psi_c = self.psi_block(device, start, len);
            let q_rows = Matrix::from_fn(len, self.l, Layout::ColMajor, |i, j| q.get(start + i, j));
            psi_q = blas3::gemm(device, 1.0, &psi_c, &q_rows, 1.0, Some(&psi_q))?;
            start += len;
        }

        // X = argmin_X ‖(ΨQ) X − W‖_F, one ℓ₂ x ℓ least squares solve per column.
        let f = geqrf(device, &psi_q)?;
        let mut x = Matrix::zeros(self.l, self.ncols);
        for j in 0..self.ncols {
            let col = self.w.col_to_vec(j);
            let sol = f.solve_ls(device, &col)?;
            x.col_mut(j)
                .expect("X is column-major")
                .copy_from_slice(&sol);
        }

        // X is ℓ x n (wide); factor Xᵀ = U_X Σ V_Xᵀ, so X = V_X Σ U_Xᵀ and
        // A ≈ Q X = (Q V_X) Σ U_Xᵀ.
        let xt = x.reinterpret_transposed(); // free transpose view, n x l
        let svd = jacobi_svd(device, &xt)?;
        let u_full = blas3::gemm_op(device, 1.0, Op::NoTrans, &q, Op::Trans, &svd.vt, 0.0, None)?;
        let k = self.k.min(svd.s.len());
        let u = u_full.submatrix(self.nrows, k)?;
        let s = svd.s[..k].to_vec();
        let vt = Matrix::from_fn(k, self.ncols, Layout::ColMajor, |i, j| svd.u.get(j, i));
        Ok(SvdResult { u, s, vt })
    }
}

/// Drive a [`RowBlockSource`] through the single-pass pipeline: fetch every block
/// exactly once, in order, and finalize.
pub fn streaming_svd<S: RowBlockSource>(
    device: &Device,
    source: &mut S,
    params: &LowRankParams,
) -> Result<SvdResult, LowRankError> {
    let mut state = StreamingSvd::new(device, source.nrows(), source.ncols(), params)?;
    for b in 0..source.num_blocks() {
        let block = source.fetch(b);
        state.push_block(device, block)?;
    }
    state.finalize(device)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_la::norms::frobenius_rel_diff;

    fn device() -> Device {
        Device::unlimited()
    }

    fn rank_k_matrix(m: usize, n: usize, k: usize, seed: u64) -> Matrix {
        sketch_la::cond::rank_k_matrix(&device(), m, n, k, seed).unwrap()
    }

    fn frob_rel_err(a: &Matrix, approx: &Matrix) -> f64 {
        frobenius_rel_diff(&device(), a, approx).unwrap()
    }

    #[test]
    fn row_windows_tile_the_matrix_in_balanced_order() {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let a = Matrix::from_fn(10, 3, layout, |i, j| (i * 10 + j) as f64);
            let mut windows = RowWindows::split(&a, 3);
            // 10 = 4 + 3 + 3.
            let ranges: Vec<_> = (0..3).map(|b| windows.block_range(b)).collect();
            assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
            for (b, range) in ranges.into_iter().enumerate() {
                let block = windows.fetch(b);
                assert_eq!((block.nrows(), block.layout()), (range.len(), layout));
                for (local, global) in range.enumerate() {
                    for j in 0..3 {
                        assert_eq!(block.get(local, j), a.get(global, j));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn more_windows_than_rows_is_rejected() {
        RowWindows::split(&Matrix::zeros(4, 1), 5);
    }

    #[test]
    fn single_pass_recovers_exact_rank_k_matrices() {
        let d = device();
        let a = rank_k_matrix(90, 24, 5, 1);
        let mut source = RowWindows::split(&a, 4);
        let params = LowRankParams::new(5).with_seed(3, 0);
        let svd = streaming_svd(&d, &mut source, &params).unwrap();
        let back = svd.reconstruct(&d).unwrap();
        let err = frob_rel_err(&a, &back);
        assert!(err < 1e-9, "relative error {err}");
    }

    #[test]
    fn result_is_independent_of_the_blocking() {
        let d = device();
        let a = rank_k_matrix(60, 16, 4, 2);
        let params = LowRankParams::new(4).with_seed(9, 4);
        let mut results = Vec::new();
        for blocks in [1, 2, 5] {
            let mut source = RowWindows::split(&a, blocks);
            results.push(streaming_svd(&d, &mut source, &params).unwrap());
        }
        for r in &results[1..] {
            for (a_s, b_s) in results[0].s.iter().zip(r.s.iter()) {
                assert!((a_s - b_s).abs() < 1e-9, "{a_s} vs {b_s}");
            }
        }
    }

    #[test]
    fn counting_wrapper_proves_each_block_read_once() {
        let d = device();
        let a = rank_k_matrix(40, 12, 3, 3);
        let mut source = CountingBlockSource::new(RowWindows::split(&a, 5));
        let _ = streaming_svd(&d, &mut source, &LowRankParams::new(3)).unwrap();
        assert_eq!(source.counts(), &[1, 1, 1, 1, 1]);
    }

    #[test]
    fn push_based_api_matches_the_driver() {
        let d = device();
        let a = rank_k_matrix(30, 10, 3, 4);
        let params = LowRankParams::new(3).with_seed(5, 0);

        let mut source = RowWindows::split(&a, 3);
        let via_driver = streaming_svd(&d, &mut source, &params).unwrap();

        let mut state = StreamingSvd::new(&d, 30, 10, &params).unwrap();
        let mut windows = RowWindows::split(&a, 3);
        for b in 0..windows.num_blocks() {
            state.push_block(&d, windows.fetch(b)).unwrap();
        }
        assert_eq!(state.rows_seen(), 30);
        let via_push = state.finalize(&d).unwrap();

        assert_eq!(via_driver.s, via_push.s);
        assert_eq!(via_driver.u.as_slice(), via_push.u.as_slice());
        assert_eq!(via_driver.vt.as_slice(), via_push.vt.as_slice());
    }

    #[test]
    fn misuse_is_rejected() {
        let d = device();
        let params = LowRankParams::new(2);
        // Wrong column count.
        let mut state = StreamingSvd::new(&d, 10, 6, &params).unwrap();
        assert!(state.push_block(&d, &Matrix::zeros(2, 5)).is_err());
        // Too many rows.
        assert!(state.push_block(&d, &Matrix::zeros(11, 6)).is_err());
        // Finalising before all rows arrived.
        state.push_block(&d, &Matrix::zeros(4, 6)).unwrap();
        assert!(state.finalize(&d).is_err());
    }

    #[test]
    fn finalize_chunking_does_not_change_the_result() {
        // A stream taller than FINALIZE_CHUNK exercises the chunked ΨQ accumulation
        // against the same matrix processed in one block.
        let d = device();
        let a = rank_k_matrix(FINALIZE_CHUNK + 37, 8, 2, 6);
        let params = LowRankParams::new(2).with_oversample(3).with_seed(1, 1);
        let mut one = RowWindows::split(&a, 1);
        let mut many = RowWindows::split(&a, 7);
        let r1 = streaming_svd(&d, &mut one, &params).unwrap();
        let r2 = streaming_svd(&d, &mut many, &params).unwrap();
        for (a_s, b_s) in r1.s.iter().zip(r2.s.iter()) {
            assert!((a_s - b_s).abs() < 1e-9);
        }
    }
}
