//! The CountSketch operator and its three application strategies.
//!
//! Definition 4.1: the CountSketch `S ∈ R^{k x d}` has exactly one `±1` per column, at a
//! uniformly random row.  Applying it to `A ∈ R^{d x n}` therefore adds or subtracts
//! each row of `A` into one row of `Y = S A` (equation (2) of the paper), which is what
//! **Algorithm 2** parallelises with one thread per input row and atomic adds on the
//! output:
//!
//! ```text
//! parallel for j = 1..d:
//!     atomicAdd(Y[r_j, :],  s_j ? A[j, :] : -A[j, :])
//! ```
//!
//! The *cost model* charges exactly that atomic kernel.  The host *execution*,
//! however, gathers over output rows, because atomic f64 adds have a
//! scheduling-dependent fold order under the real thread pool and would break the
//! workspace's bit-exactness contract.  The gather reads the row map inverted once,
//! when the sketch is generated or assembled (`Buckets`: bucket offsets plus each
//! bucket's input rows in ascending order), and folds each output cell's
//! contributions in ascending input-row order — the serial scatter's order — so
//! results are bit-identical for any `RAYON_NUM_THREADS`.
//!
//! Three ways of applying the same operator are provided:
//!
//! * [`SketchOperator::apply_into`] / [`SketchOperator::apply_matrix`] — the paper's
//!   dedicated kernel (Algorithm 2), operand-generic (dense or CSR) and, through
//!   `apply_into`, allocation-free,
//! * [`CountSketch::apply_matrix_gather`] — an atomics-free ablation that first inverts
//!   the row map and then lets every *output* row gather its inputs,
//! * [`CountSketch::apply_matrix_spmm`] — the naive baseline: materialise `S` as a CSR
//!   sparse matrix and call the generic SpMM (the cuSPARSE path of Figures 2–4).
//!
//! [`HashCountSketch`] is the streaming variant of Section 8 (future work in the paper):
//! `r_j` and `s_j` are recomputed from a hash of `j` instead of being stored, trading a
//! little arithmetic for zero generation time and zero index storage.

use crate::error::Error;
use crate::operand::{Operand, OperandShape};
use crate::traits::{apply_stated, try_zeroed, SketchCosts, SketchOperator, STATEMENT_OVERFLOW};
use sketch_gpu_sim::{Checked, Device, KernelCost};
use sketch_la::{Layout, Matrix, MatrixViewMut};
use sketch_rng::fill;
use sketch_sparse::{spmm, CooMatrix, CsrMatrix};
use std::ops::Range;

/// Extra read factor charged when the kernel must stream a column-major `A` row-wise
/// (uncoalesced reads); the row-major layout recommended by Section 6.1 avoids it.
const COL_MAJOR_READ_PENALTY: u64 = 2;

/// How many members ahead of the row it folds the row-major gather prefetches.
/// The gather reads rows of `A` in random order, so without a hint each row's
/// cache misses are only taken when the row is reached.
const PREFETCH_AHEAD: usize = 4;

/// The explicit CountSketch: a stored row map `r` and sign vector `s`, plus the
/// row map inverted into per-output-row buckets.
#[derive(Debug, Clone)]
pub struct CountSketch {
    d: usize,
    k: usize,
    rows: Vec<usize>,
    signs: Vec<bool>,
    buckets: Buckets,
    generation_cost: KernelCost,
}

impl CountSketch {
    /// Generate a CountSketch `S ∈ R^{k x d}` from a seed.
    ///
    /// Only `d` uniform integers and `d` random signs are generated — the cheapness of
    /// this step relative to generating `k·d` Gaussians is half the paper's argument.
    /// Inverting the row map takes `k + 1` words, so an output dimension the host
    /// cannot hold that many words for fails with [`Error::HostAllocationFailed`].
    pub fn generate(device: &Device, d: usize, k: usize, seed: u64) -> Result<Self, Error> {
        if k == 0 {
            return Err(Error::invalid_param(
                "CountSketch output dimension must be positive",
            ));
        }
        let rows = fill::uniform_index_vec(seed, 0, d, k);
        let signs = fill::rademacher_bool_vec(seed, 1, d);
        let buckets = Buckets::new(k, &rows)?;
        let generation_cost = generation_cost(d).ok_or(STATEMENT_OVERFLOW)?;
        device.record(generation_cost);
        Ok(Self {
            d,
            k,
            buckets,
            rows,
            signs,
            generation_cost,
        })
    }

    /// Construct from an explicit row map and signs (used by tests and by
    /// [`HashCountSketch::to_explicit`]).
    ///
    /// # Panics
    /// Panics if the parts do not describe a `d -> k` CountSketch, or if the host
    /// cannot hold the row map's `k + 1`-word inverse.
    pub fn from_parts(d: usize, k: usize, rows: Vec<usize>, signs: Vec<bool>) -> Self {
        assert_eq!(rows.len(), d, "need one target row per input row");
        assert_eq!(signs.len(), d, "need one sign per input row");
        assert!(rows.iter().all(|&r| r < k), "row map entry out of range");
        Self {
            d,
            k,
            buckets: Buckets::new(k, &rows).expect("the host holds the row map's inverse"),
            rows,
            signs,
            generation_cost: KernelCost::zero(),
        }
    }

    /// The stored row map (`r_j` values).
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The stored signs (`true` = `+1`).
    pub fn signs(&self) -> &[bool] {
        &self.signs
    }

    /// What a `d -> k` CountSketch states ([`SketchCosts`]): its generation, and one
    /// Algorithm-2 apply to a `d`-row operand of shape `a` — the atomic scatter,
    /// reading a dense operand row-wise (a column-major one pays the
    /// uncoalesced-read penalty) and a sparse one non-zero by non-zero.
    ///
    /// The apply reads `d` and the shape only, so the multi-device executor
    /// charges a row shard of `r` rows (the rows one [`fold_rows`](Self::fold_rows)
    /// of the range would touch) the statement at `d = r`.
    pub fn costs(d: usize, k: usize, a: OperandShape) -> Result<SketchCosts, Error> {
        let (d64, n, k) = (Checked::from(d), Checked::from(a.cols()), Checked::from(k));
        let idx = std::mem::size_of::<usize>() as u64;
        // Atomic add = read-modify-write on the output row, plus the initial zeroing of
        // Y and the index/sign reads.
        let apply = match a {
            OperandShape::Dense { layout, .. } => {
                let penalty = match layout {
                    Layout::ColMajor => COL_MAJOR_READ_PENALTY,
                    Layout::RowMajor => 1,
                };
                let dn = d64 * n * 8;
                KernelCost::checked(dn * penalty + dn + d64 * 5, dn + k * n * 8, d64 * n, 2)
            }
            OperandShape::Csr { nnz, .. } => {
                let nnz = Checked::from(nnz);
                KernelCost::checked(
                    nnz * 8 + (nnz + d64 + 1) * idx + d64 * 5,
                    nnz * 8 + k * n * 8,
                    nnz,
                    2,
                )
            }
        };
        SketchCosts::checked(generation_cost(d), apply, Checked::ZERO)
    }

    /// `out = S A`, unrecorded: the Algorithm-2 fold of every row.
    pub(crate) fn compute_into(&self, a: Operand<'_>, out: &mut MatrixViewMut<'_>) {
        out.fill(0.0);
        self.fold_rows(a, 0..self.d, out);
    }

    /// Atomics-free ablation: let each *output* row gather and sum the input rows
    /// assigned to it through the inverted row map.
    ///
    /// This trades the atomic RMW traffic for an extra index pass and a less balanced
    /// work distribution; the `ablations` bench compares it against Algorithm 2.  On
    /// the host it runs the same fold as every other apply and differs only in the
    /// cost it records.
    pub fn apply_matrix_gather(&self, device: &Device, a: &Matrix) -> Result<Matrix, Error> {
        self.check_input_dim(a.nrows())?;
        let n = a.ncols();
        let _reservation = device.try_reserve(KernelCost::f64_bytes((self.k * n) as u64))?;

        let mut y = Matrix::zeros_with_layout(self.k, n, Layout::RowMajor);
        self.fold_rows(Operand::Dense(a), 0..self.d, &mut y.view_mut());

        let d = self.d as u64;
        let n64 = n as u64;
        let k = self.k as u64;
        device.record(KernelCost::new(
            // Gathered reads of A (uncoalesced) + index arrays read twice.
            KernelCost::f64_bytes(d * n64) * COL_MAJOR_READ_PENALTY + 2 * d * 13,
            KernelCost::f64_bytes(k * n64) + d * 8,
            d * n64,
            3,
        ));
        Ok(y)
    }

    /// Add `S[:, rows] · A[rows, :]` into `out` **without zeroing it** — the one host
    /// CountSketch row fold.
    ///
    /// `rows` is any contiguous range of the operand `a` (dense in either layout,
    /// CSR, or a CSR row view), indexed like the operand itself.  Each output row
    /// gathers its members of the range in ascending input-row order, so folding
    /// any ordered partition of `0..d` into one accumulator reproduces the serial
    /// scatter's per-cell chain bit for bit, at any thread count.  Each bucket's
    /// members inside the range are found by binary search in the stored inverted
    /// row map, so nothing is sorted here.  This is the property the
    /// multi-device executor's row sharding rests on.
    ///
    /// No cost is recorded: callers charge the [`costs`](Self::costs) statement
    /// of the range themselves.
    ///
    /// # Panics
    /// Panics if `a` does not have `d` rows, if `rows` does not fit inside
    /// `0..d`, or if `out` is not `k x a.ncols()`.
    pub fn fold_rows(&self, a: Operand<'_>, rows: Range<usize>, out: &mut MatrixViewMut<'_>) {
        assert_eq!(a.nrows(), self.d, "operand must have d rows");
        assert!(
            rows.start <= rows.end && rows.end <= self.d,
            "row range {}..{} out of bounds for {} rows",
            rows.start,
            rows.end,
            self.d
        );
        assert_eq!(
            (out.nrows(), out.ncols()),
            (self.k, a.ncols()),
            "output must be k x ncols"
        );
        let signs = &self.signs;
        fold_operand_rows(out, a, &self.buckets, rows, |j| {
            if signs[j] {
                1.0
            } else {
                -1.0
            }
        });
    }

    /// The naive baseline: materialise `S` as CSR and multiply with the generic SpMM.
    pub fn apply_matrix_spmm(&self, device: &Device, a: &Matrix) -> Result<Matrix, Error> {
        self.check_input_dim(a.nrows())?;
        let _reservation =
            device.try_reserve(KernelCost::f64_bytes((self.k * a.ncols()) as u64))?;
        let s = self.to_sparse();
        Ok(spmm(device, &s, a))
    }

    /// Materialise the operator as a `k x d` CSR matrix with one `±1` per column.
    pub fn to_sparse(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.k, self.d, self.d);
        for (j, (&r, &s)) in self.rows.iter().zip(self.signs.iter()).enumerate() {
            coo.push(r, j, if s { 1.0 } else { -1.0 });
        }
        CsrMatrix::from_coo(&coo)
    }
}

/// What generating a `d`-row CountSketch records: write d 4-byte integers and d
/// 1-byte flags; a handful of flops for the rejection sampling.
fn generation_cost(d: usize) -> Option<KernelCost> {
    let d = Checked::from(d);
    KernelCost::checked(Checked::ZERO, d * 5, d, 1)
}

/// The shape a `d`-long vector apply is stated at: a dense `d x 1` row-major operand
/// (its one column read contiguously, as the vector is).
const fn vector_shape(d: usize) -> OperandShape {
    OperandShape::dense(d, 1, Layout::RowMajor)
}

/// A CountSketch row map inverted by counting sort: bucket `r` lists, **in
/// ascending order**, every input row `j` with `r_j = r`.
///
/// The ascending order inside each bucket is load-bearing: [`fold_rows_with`]
/// folds each output cell's contributions in exactly the order the serial
/// scatter would, so its results are bit-for-bit identical for any thread count
/// and for any ordered partition of the input rows.
#[derive(Debug, Clone)]
struct Buckets {
    /// `members[offsets[r]..offsets[r + 1]]` is bucket `r`.
    offsets: Vec<usize>,
    members: Vec<usize>,
}

impl Buckets {
    /// Invert `targets` (every entry `< k`).  The `k + 1` offsets, the cursor and
    /// the members are reserved fallibly: `k` comes from a spec, so a row map the
    /// host cannot invert is [`Error::HostAllocationFailed`].
    fn new(k: usize, targets: &[usize]) -> Result<Self, Error> {
        let words = k
            .checked_add(1)
            .ok_or(Error::HostAllocationFailed { bytes: u64::MAX })?;
        let mut offsets: Vec<usize> = try_zeroed(words)?;
        for &r in targets {
            offsets[r + 1] += 1;
        }
        for i in 0..k {
            offsets[i + 1] += offsets[i];
        }
        let mut members: Vec<usize> = try_zeroed(targets.len())?;
        let mut cursor: Vec<usize> = try_zeroed(words)?;
        cursor.copy_from_slice(&offsets);
        for (j, &r) in targets.iter().enumerate() {
            members[cursor[r]] = j;
            cursor[r] += 1;
        }
        Ok(Self { offsets, members })
    }

    /// Bucket `r`: every input row mapped to output row `r`, ascending.
    fn bucket(&self, r: usize) -> &[usize] {
        &self.members[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Bucket `r`'s members inside `rows`, ascending: two binary searches.
    fn members_in(&self, r: usize, rows: &Range<usize>) -> &[usize] {
        let bucket = self.bucket(r);
        let lo = bucket.partition_point(|&j| j < rows.start);
        let hi = bucket.partition_point(|&j| j < rows.end);
        &bucket[lo..hi]
    }
}

/// The Algorithm-2 row fold shared by the explicit and the hash-based operator:
/// add `sign_of(j) * A[j, :]` into row `r_j` of `out` for every `j` in `rows`,
/// where `buckets` is the operator's inverted row map.
///
/// On the GPU this is the atomic scatter of Algorithm 2 (and the cost model
/// charges it as such); on the host every *output* row gathers its inputs in
/// ascending `j`.  Disjoint output rows make the parallel loop
/// scheduling-order-immune, and the ascending fold reproduces the serial
/// scatter's per-cell accumulation order — so the result is bit-for-bit
/// identical for 1 or N threads.
fn fold_operand_rows(
    out: &mut MatrixViewMut<'_>,
    a: Operand<'_>,
    buckets: &Buckets,
    rows: Range<usize>,
    sign_of: impl Fn(usize) -> f64 + Sync,
) {
    match a {
        Operand::Dense(m) if m.layout() == Layout::RowMajor => {
            let n = m.ncols();
            let data = m.as_slice();
            fold_rows_with(
                out,
                buckets,
                rows,
                sign_of,
                Some((data, n)),
                |j, sign, out_row| {
                    for (slot, &v) in out_row.iter_mut().zip(&data[j * n..(j + 1) * n]) {
                        *slot += sign * v;
                    }
                },
            );
        }
        Operand::Dense(m) => {
            fold_rows_with(out, buckets, rows, sign_of, None, |j, sign, out_row| {
                for (c, slot) in out_row.iter_mut().enumerate() {
                    *slot += sign * m.get(j, c);
                }
            })
        }
        Operand::Csr(s) => fold_rows_with(out, buckets, rows, sign_of, None, |j, sign, out_row| {
            for (c, v) in s.row(j) {
                out_row[c] += sign * v;
            }
        }),
        Operand::CsrRows(v) => {
            fold_rows_with(out, buckets, rows, sign_of, None, |j, sign, out_row| {
                for (c, val) in v.row(j) {
                    out_row[c] += sign * val;
                }
            })
        }
    }
}

/// Ask the cache for `row` ahead of its use: one hint per 64-byte line.  A hint
/// reads nothing, so no value changes.
#[inline(always)]
fn prefetch(row: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    for line in row.chunks(8) {
        // SAFETY: `_mm_prefetch` needs SSE, which every x86_64 target has, and a
        // prefetch never faults or writes; the pointer points into `row`.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                line.as_ptr().cast(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// The gather behind [`fold_operand_rows`]: `add_row(j, sign, out_row)` adds
/// `sign * A[j, :]` into one output row, and each output row receives its
/// members of `rows` in ascending `j`.  Given a row-major operand's
/// `(data, ncols)`, the member [`PREFETCH_AHEAD`] places on is prefetched.
fn fold_rows_with(
    out: &mut MatrixViewMut<'_>,
    buckets: &Buckets,
    rows: Range<usize>,
    sign_of: impl Fn(usize) -> f64 + Sync,
    row_major: Option<(&[f64], usize)>,
    add_row: impl Fn(usize, f64, &mut [f64]) + Sync,
) {
    let n = out.ncols();
    let gather = |r: usize, out_row: &mut [f64]| {
        let members = buckets.members_in(r, &rows);
        for (i, &j) in members.iter().enumerate() {
            if let (Some((data, ncols)), Some(&ahead)) =
                (row_major, members.get(i + PREFETCH_AHEAD))
            {
                prefetch(&data[ahead * ncols..(ahead + 1) * ncols]);
            }
            add_row(j, sign_of(j), out_row);
        }
    };
    if out.layout() == Layout::RowMajor {
        use rayon::prelude::*;
        out.as_mut_slice()
            .par_chunks_mut(n.max(1))
            .enumerate()
            .for_each(|(r, out_row)| gather(r, out_row));
    } else {
        // Column-major rows are strided and cannot be handed out as disjoint
        // slices, so stage each one through a buffer (same per-cell chain).
        let mut row = vec![0.0; n];
        for r in 0..out.nrows() {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = out.get(r, c);
            }
            gather(r, &mut row);
            for (c, &v) in row.iter().enumerate() {
                out.set(r, c, v);
            }
        }
    }
}

impl SketchOperator for CountSketch {
    fn input_dim(&self) -> usize {
        self.d
    }

    fn output_dim(&self) -> usize {
        self.k
    }

    fn name(&self) -> &'static str {
        "CountSketch (Alg 2)"
    }

    /// Apply via **Algorithm 2**: modelled as one parallel task per input row with
    /// atomic adds, executed on the host as a deterministic ordered gather into the
    /// caller-owned output (see the module docs).
    ///
    /// Dense `A` should be row-major for coalesced reads (Section 6.1); a column-major
    /// operand is accepted but charged the uncoalesced-read penalty.  CSR operands are
    /// scattered non-zero by non-zero.  No intermediate output matrix is allocated.
    fn apply_into(
        &self,
        device: &Device,
        a: Operand<'_>,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), Error> {
        self.check_operand(&a)?;
        self.check_output(out, a.ncols())?;
        apply_stated(device, Self::costs(self.d, self.k, a.shape())?, || {
            self.compute_into(a, out);
            Ok(())
        })
    }

    /// Apply to a single vector (the right-hand side sketch of Algorithm 1).
    fn apply_vector(&self, device: &Device, x: &[f64]) -> Result<Vec<f64>, Error> {
        self.check_input_dim(x.len())?;
        let mut y = vec![0.0; self.k];
        {
            use rayon::prelude::*;
            let signs = &self.signs;
            y.par_iter_mut().enumerate().for_each(|(r, slot)| {
                for &j in self.buckets.bucket(r) {
                    // `±x[j]` as a sign-bit flip (what `-x` is): a branch on the
                    // random sign would mispredict half the time.
                    *slot += f64::from_bits(x[j].to_bits() ^ (u64::from(!signs[j]) << 63));
                }
            });
        }
        device.record(Self::costs(self.d, self.k, vector_shape(self.d))?.apply);
        Ok(y)
    }

    fn generation_cost(&self) -> KernelCost {
        self.generation_cost
    }
}

/// The streaming, hash-based CountSketch of Section 8: nothing is stored, `r_j` and
/// `s_j` are recomputed from a hash whenever row `j` is touched.
#[derive(Debug, Clone, Copy)]
pub struct HashCountSketch {
    d: usize,
    k: usize,
    seed: u64,
}

impl HashCountSketch {
    /// Create the operator; no generation work is needed.
    pub fn new(d: usize, k: usize, seed: u64) -> Self {
        assert!(k > 0, "output dimension must be positive");
        Self { d, k, seed }
    }

    /// Hash of row `j`: returns `(target_row, sign)`.
    #[inline]
    pub fn hash(&self, j: usize) -> (usize, f64) {
        let mut x = (j as u64).wrapping_add(self.seed.rotate_left(17));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let row = (x % self.k as u64) as usize;
        let sign = if (x >> 63) & 1 == 1 { 1.0 } else { -1.0 };
        (row, sign)
    }

    /// The row map inverted for one apply: nothing is stored, so every apply sorts.
    fn buckets(&self) -> Result<Buckets, Error> {
        let targets: Vec<usize> = (0..self.d).map(|j| self.hash(j).0).collect();
        Buckets::new(self.k, &targets)
    }

    /// What a `d -> k` hash CountSketch states ([`SketchCosts`]): no generation, and
    /// one apply to a `d`-row operand of shape `a`, the hashes recomputed per row
    /// in place of the stored map's reads.
    pub fn costs(d: usize, k: usize, a: OperandShape) -> Result<SketchCosts, Error> {
        let (d, n, k) = (Checked::from(d), Checked::from(a.cols()), Checked::from(k));
        let apply = match a {
            OperandShape::Dense { .. } => {
                KernelCost::checked(d * n * 16, d * n * 8 + k * n * 8, d * n + d * 6, 2)
            }
            OperandShape::Csr { nnz, .. } => {
                let nnz = Checked::from(nnz);
                let idx_bytes = (nnz + d + 1) * std::mem::size_of::<usize>() as u64;
                KernelCost::checked(nnz * 8 + idx_bytes, nnz * 8 + k * n * 8, nnz + d * 6, 2)
            }
        };
        SketchCosts::checked(Some(KernelCost::zero()), apply, Checked::ZERO)
    }

    /// `out = S A`, unrecorded; the per-apply inverse of the hashed row map is
    /// reserved fallibly.
    pub(crate) fn compute_into(
        &self,
        a: Operand<'_>,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), Error> {
        let buckets = self.buckets()?;
        out.fill(0.0);
        fold_operand_rows(out, a, &buckets, 0..self.d, |j| self.hash(j).1);
        Ok(())
    }

    /// Materialise the equivalent explicit [`CountSketch`] (for testing equivalence and
    /// for reusing the explicit kernels).
    pub fn to_explicit(&self) -> CountSketch {
        let mut rows = Vec::with_capacity(self.d);
        let mut signs = Vec::with_capacity(self.d);
        for j in 0..self.d {
            let (r, s) = self.hash(j);
            rows.push(r);
            signs.push(s > 0.0);
        }
        CountSketch::from_parts(self.d, self.k, rows, signs)
    }
}

impl SketchOperator for HashCountSketch {
    fn input_dim(&self) -> usize {
        self.d
    }

    fn output_dim(&self) -> usize {
        self.k
    }

    fn name(&self) -> &'static str {
        "CountSketch (hash/streaming)"
    }

    fn apply_into(
        &self,
        device: &Device,
        a: Operand<'_>,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), Error> {
        self.check_operand(&a)?;
        self.check_output(out, a.ncols())?;
        apply_stated(device, Self::costs(self.d, self.k, a.shape())?, || {
            self.compute_into(a, out)
        })
    }

    fn apply_vector(&self, device: &Device, x: &[f64]) -> Result<Vec<f64>, Error> {
        self.check_input_dim(x.len())?;
        let mut y = vec![0.0; self.k];
        {
            use rayon::prelude::*;
            let buckets = self.buckets()?;
            y.par_iter_mut().enumerate().for_each(|(r, slot)| {
                for &j in buckets.bucket(r) {
                    let (_, sign) = self.hash(j);
                    *slot += sign * x[j];
                }
            });
        }
        device.record(Self::costs(self.d, self.k, vector_shape(self.d))?.apply);
        Ok(y)
    }

    fn generation_cost(&self) -> KernelCost {
        KernelCost::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn device() -> Device {
        Device::unlimited()
    }

    /// Dense reference implementation of `S A` from the stored row map and signs.
    fn reference_apply(cs: &CountSketch, a: &Matrix) -> Matrix {
        let n = a.ncols();
        let mut y = Matrix::zeros_with_layout(cs.output_dim(), n, Layout::RowMajor);
        for j in 0..cs.input_dim() {
            let sign = if cs.signs()[j] { 1.0 } else { -1.0 };
            for c in 0..n {
                y.add_to(cs.rows()[j], c, sign * a.get(j, c));
            }
        }
        y
    }

    /// CSR copy of a dense matrix (every entry stored explicitly).
    fn csr_of(a: &Matrix) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nrows() * a.ncols());
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                let v = a.get(i, j);
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn algorithm2_matches_dense_reference() {
        let d = device();
        let a = Matrix::random_gaussian(300, 5, Layout::RowMajor, 1, 0);
        let cs = CountSketch::generate(&d, 300, 32, 9).unwrap();
        let y = cs.apply_matrix(&d, &a).unwrap();
        let expect = reference_apply(&cs, &a);
        assert!(y.max_abs_diff(&expect).unwrap() < 1e-12);
    }

    #[test]
    fn row_major_and_col_major_inputs_agree() {
        let d = device();
        let a_rm = Matrix::random_gaussian(200, 4, Layout::RowMajor, 2, 0);
        let a_cm = a_rm.to_layout(&d, Layout::ColMajor);
        let cs = CountSketch::generate(&d, 200, 16, 3).unwrap();
        let y1 = cs.apply_matrix(&d, &a_rm).unwrap();
        let y2 = cs.apply_matrix(&d, &a_cm).unwrap();
        assert!(y1.max_abs_diff(&y2).unwrap() < 1e-12);
    }

    #[test]
    fn apply_into_reused_buffer_is_bit_identical_to_apply_matrix() {
        let d = device();
        let a = Matrix::random_gaussian(250, 6, Layout::RowMajor, 4, 0);
        let cs = CountSketch::generate(&d, 250, 40, 5).unwrap();
        let y = cs.apply_matrix(&d, &a).unwrap();
        // Dirty buffer: apply_into must overwrite every element.
        let mut out = Matrix::from_fn(40, 6, Layout::RowMajor, |_, _| f64::NAN);
        cs.apply_into(&d, Operand::Dense(&a), &mut out.view_mut())
            .unwrap();
        assert_eq!(out.as_slice(), y.as_slice());
    }

    #[test]
    fn csr_operand_matches_dense_operand() {
        let d = device();
        let a = Matrix::random_gaussian(120, 4, Layout::RowMajor, 6, 0);
        let sparse = csr_of(&a);
        let cs = CountSketch::generate(&d, 120, 24, 7).unwrap();
        let y_dense = cs.apply_matrix(&d, &a).unwrap();
        let y_sparse = cs.apply_operand(&d, Operand::Csr(&sparse)).unwrap();
        assert!(y_dense.max_abs_diff(&y_sparse).unwrap() < 1e-12);
    }

    #[test]
    fn apply_into_performs_zero_device_allocations() {
        let d = device();
        let a = Matrix::random_gaussian(200, 4, Layout::RowMajor, 3, 0);
        let cs = CountSketch::generate(&d, 200, 16, 1).unwrap();
        let mut out = Matrix::zeros_with_layout(16, 4, Layout::RowMajor);
        let before = d.memory().allocations();
        cs.apply_into(&d, Operand::Dense(&a), &mut out.view_mut())
            .unwrap();
        assert_eq!(
            d.memory().allocations(),
            before,
            "apply_into must not reserve device memory"
        );
        // The allocating wrapper reserves the output buffer.
        let _ = cs.apply_matrix(&d, &a).unwrap();
        assert!(d.memory().allocations() > before);

        // A disabled recorder must keep the hot path allocation-free too: the
        // launch site reads one relaxed flag and does nothing else.
        d.set_recorder(Some(std::sync::Arc::new(sketch_gpu_sim::obs::NoopRecorder)));
        let with_noop = d.memory().allocations();
        cs.apply_into(&d, Operand::Dense(&a), &mut out.view_mut())
            .unwrap();
        assert_eq!(
            d.memory().allocations(),
            with_noop,
            "a NoopRecorder must not change the zero-allocation certification"
        );
    }

    #[test]
    fn gather_and_spmm_variants_match_algorithm2() {
        let d = device();
        let a = Matrix::random_gaussian(250, 6, Layout::RowMajor, 4, 0);
        let cs = CountSketch::generate(&d, 250, 40, 5).unwrap();
        let y_atomic = cs.apply_matrix(&d, &a).unwrap();
        let y_gather = cs.apply_matrix_gather(&d, &a).unwrap();
        let y_spmm = cs.apply_matrix_spmm(&d, &a).unwrap();
        assert!(y_atomic.max_abs_diff(&y_gather).unwrap() < 1e-12);
        assert!(y_atomic.max_abs_diff(&y_spmm).unwrap() < 1e-12);
    }

    #[test]
    fn vector_apply_matches_matrix_apply_on_single_column() {
        let d = device();
        let x: Vec<f64> = (0..150).map(|i| (i as f64 * 0.1).sin()).collect();
        let a = Matrix::from_fn(150, 1, Layout::RowMajor, |i, _| x[i]);
        let cs = CountSketch::generate(&d, 150, 20, 6).unwrap();
        let yv = cs.apply_vector(&d, &x).unwrap();
        let ym = cs.apply_matrix(&d, &a).unwrap();
        for i in 0..20 {
            assert!((yv[i] - ym.get(i, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_materialisation_has_one_entry_per_column() {
        let d = device();
        let cs = CountSketch::generate(&d, 100, 16, 7).unwrap();
        let s = cs.to_sparse();
        assert_eq!(s.nrows(), 16);
        assert_eq!(s.ncols(), 100);
        assert_eq!(s.nnz(), 100);
        let dense = s.to_dense();
        for j in 0..100 {
            let nonzeros: Vec<f64> = (0..16).map(|i| dense[i][j]).filter(|&v| v != 0.0).collect();
            assert_eq!(
                nonzeros.len(),
                1,
                "column {j} must have exactly one nonzero"
            );
            assert!(nonzeros[0] == 1.0 || nonzeros[0] == -1.0);
        }
    }

    #[test]
    fn sketch_is_linear() {
        let d = device();
        let a = Matrix::random_gaussian(120, 3, Layout::RowMajor, 8, 0);
        let b = Matrix::random_gaussian(120, 3, Layout::RowMajor, 8, 1);
        let cs = CountSketch::generate(&d, 120, 24, 9).unwrap();
        // S(A + 2B) == SA + 2 SB
        let apb = Matrix::from_fn(120, 3, Layout::RowMajor, |i, j| {
            a.get(i, j) + 2.0 * b.get(i, j)
        });
        let left = cs.apply_matrix(&d, &apb).unwrap();
        let sa = cs.apply_matrix(&d, &a).unwrap();
        let sb = cs.apply_matrix(&d, &b).unwrap();
        let right = Matrix::from_fn(24, 3, Layout::RowMajor, |i, j| {
            sa.get(i, j) + 2.0 * sb.get(i, j)
        });
        assert!(left.max_abs_diff(&right).unwrap() < 1e-10);
    }

    #[test]
    fn preserves_norms_in_expectation_band() {
        // With k = 8 n^2 the distortion should comfortably be below 0.5 for one vector.
        let d = device();
        let dim = 4096;
        let x: Vec<f64> = fill::gaussian_vec(3, 3, dim);
        let cs = CountSketch::generate(&d, dim, 512, 11).unwrap();
        let y = cs.apply_vector(&d, &x).unwrap();
        let nx: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        let ny: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((ny / nx - 1.0).abs() < 0.5, "distortion {}", ny / nx - 1.0);
    }

    #[test]
    fn dimension_mismatch_is_rejected_with_context() {
        let d = device();
        let cs = CountSketch::generate(&d, 50, 8, 1).unwrap();
        let a = Matrix::zeros_with_layout(40, 2, Layout::RowMajor);
        let err = cs.apply_matrix(&d, &a).unwrap_err();
        match &err {
            Error::DimensionMismatch {
                op,
                expected,
                found,
                operand,
            } => {
                assert_eq!(op, "CountSketch (Alg 2)");
                assert_eq!((*expected, *found), (50, 40));
                assert!(operand.contains("dense 40x2"), "operand was {operand}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The rendered message names the operator and the operand shape.
        let msg = err.to_string();
        assert!(msg.contains("CountSketch (Alg 2)") && msg.contains("dense 40x2"));
        assert!(cs.apply_vector(&d, &[0.0; 49]).is_err());
    }

    #[test]
    fn oom_is_reported_when_output_does_not_fit() {
        use sketch_gpu_sim::DeviceSpec;
        let mut spec = DeviceSpec::h100();
        spec.memory_bytes = 1024; // tiny device
        let d = Device::new(spec);
        let cs = CountSketch::generate(&d, 64, 1024, 1).unwrap();
        let a = Matrix::zeros_with_layout(64, 8, Layout::RowMajor);
        assert!(matches!(
            cs.apply_matrix(&d, &a),
            Err(Error::WouldExceedMemory(_))
        ));
    }

    #[test]
    fn generation_cost_is_tiny_compared_to_gaussian() {
        let d = device();
        let cs = CountSketch::generate(&d, 10_000, 128, 1).unwrap();
        let gen = cs.generation_cost();
        // 5 bytes per input row, no reads.
        assert_eq!(gen.bytes_written, 50_000);
        assert_eq!(gen.bytes_read, 0);
    }

    #[test]
    fn from_parts_validates_inputs() {
        let cs = CountSketch::from_parts(3, 4, vec![0, 3, 1], vec![true, false, true]);
        assert_eq!(cs.input_dim(), 3);
        assert_eq!(cs.output_dim(), 4);
    }

    #[test]
    #[should_panic(expected = "row map entry out of range")]
    fn from_parts_rejects_out_of_range_rows() {
        CountSketch::from_parts(2, 2, vec![0, 5], vec![true, true]);
    }

    #[test]
    fn hash_variant_matches_its_explicit_materialisation() {
        let d = device();
        let h = HashCountSketch::new(200, 32, 77);
        let explicit = h.to_explicit();
        let a = Matrix::random_gaussian(200, 4, Layout::RowMajor, 13, 0);
        let y_hash = h.apply_matrix(&d, &a).unwrap();
        let y_explicit = explicit.apply_matrix(&d, &a).unwrap();
        assert!(y_hash.max_abs_diff(&y_explicit).unwrap() < 1e-12);

        let sparse = csr_of(&a);
        let y_hash_csr = h.apply_operand(&d, Operand::Csr(&sparse)).unwrap();
        assert!(y_hash_csr.max_abs_diff(&y_explicit).unwrap() < 1e-12);

        let x: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let v_hash = h.apply_vector(&d, &x).unwrap();
        let v_explicit = explicit.apply_vector(&d, &x).unwrap();
        for (a, b) in v_hash.iter().zip(&v_explicit) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn hash_variant_has_zero_generation_cost_and_signs_both_occur() {
        let h = HashCountSketch::new(1000, 64, 5);
        assert_eq!(h.generation_cost(), KernelCost::zero());
        assert_eq!(h.name(), "CountSketch (hash/streaming)");
        let mut plus = 0;
        let mut minus = 0;
        for j in 0..1000 {
            let (r, s) = h.hash(j);
            assert!(r < 64);
            if s > 0.0 {
                plus += 1;
            } else {
                minus += 1;
            }
        }
        assert!(
            plus > 300 && minus > 300,
            "signs unbalanced: {plus}/{minus}"
        );
    }

    #[test]
    fn hash_variant_rejects_bad_dimensions() {
        let d = device();
        let h = HashCountSketch::new(10, 4, 1);
        assert!(h.apply_vector(&d, &[0.0; 9]).is_err());
        let a = Matrix::zeros_with_layout(11, 2, Layout::RowMajor);
        assert!(h.apply_matrix(&d, &a).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_all_variants_agree(d_dim in 10usize..200, n in 1usize..6, k in 2usize..32, seed in 0u64..500) {
            let dev = device();
            let a = Matrix::random_gaussian(d_dim, n, Layout::RowMajor, seed, 0);
            let cs = CountSketch::generate(&dev, d_dim, k, seed + 1).unwrap();
            let y1 = cs.apply_matrix(&dev, &a).unwrap();
            let y2 = cs.apply_matrix_gather(&dev, &a).unwrap();
            let y3 = cs.apply_matrix_spmm(&dev, &a).unwrap();
            prop_assert!(y1.max_abs_diff(&y2).unwrap() < 1e-10);
            prop_assert!(y1.max_abs_diff(&y3).unwrap() < 1e-10);
        }

        #[test]
        fn prop_column_sums_are_preserved_up_to_sign(d_dim in 10usize..100, seed in 0u64..500) {
            // Summing all rows of Y equals the signed sum of all rows of A.
            let dev = device();
            let a = Matrix::random_gaussian(d_dim, 3, Layout::RowMajor, seed, 0);
            let cs = CountSketch::generate(&dev, d_dim, 16, seed).unwrap();
            let y = cs.apply_matrix(&dev, &a).unwrap();
            for c in 0..3 {
                let sum_y: f64 = (0..16).map(|i| y.get(i, c)).sum();
                let signed_sum_a: f64 = (0..d_dim)
                    .map(|j| if cs.signs()[j] { a.get(j, c) } else { -a.get(j, c) })
                    .sum();
                prop_assert!((sum_y - signed_sum_a).abs() < 1e-9);
            }
        }
    }
}
