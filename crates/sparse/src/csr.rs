//! Compressed sparse row storage.

use crate::coo::CooMatrix;
use std::collections::TryReserveError;

/// An empty `Vec` with room for exactly `len` elements.
fn reserved<T>(len: usize) -> Result<Vec<T>, TryReserveError> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)?;
    Ok(v)
}

/// A sparse matrix in CSR format: `row_ptr` (length `nrows + 1`), `col_idx` and `values`
/// (length `nnz`).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are structurally inconsistent.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(
            row_ptr.len(),
            nrows + 1,
            "row_ptr must have nrows + 1 entries"
        );
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx / values length mismatch"
        );
        assert_eq!(
            *row_ptr.last().unwrap(),
            values.len(),
            "row_ptr must end at nnz"
        );
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be monotone"
        );
        assert!(
            col_idx.iter().all(|&j| j < ncols),
            "column index out of bounds"
        );
        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Convert from COO, summing duplicate coordinates.
    ///
    /// # Panics
    /// Panics if the host refuses an allocation; [`CsrMatrix::try_from_coo`] returns
    /// that as an error.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        Self::try_from_coo(coo).expect("the CSR buffers fit in memory")
    }

    /// [`CsrMatrix::from_coo`], reserving every buffer with `try_reserve_exact` so an
    /// allocation the host refuses is an error instead of an abort.
    pub fn try_from_coo(coo: &CooMatrix) -> Result<Self, TryReserveError> {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        // Sort triplets by (row, col); duplicates become adjacent and are merged.
        let mut entries = reserved(coo.nnz())?;
        entries.extend_from_slice(coo.entries());
        entries.sort_unstable_by_key(|&(i, j, _)| (i, j));

        let mut row_ptr = reserved(nrows.saturating_add(1))?;
        row_ptr.resize(nrows + 1, 0usize);
        let mut col_idx = reserved(entries.len())?;
        let mut values = reserved(entries.len())?;
        let mut prev: Option<(usize, usize)> = None;
        for &(i, j, v) in &entries {
            if prev == Some((i, j)) {
                *values.last_mut().expect("previous entry exists") += v;
            } else {
                col_idx.push(j);
                values.push(v);
                row_ptr[i + 1] += 1;
                prev = Some((i, j));
            }
        }
        // Prefix-sum the per-row counts into offsets.
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Ok(Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row pointer array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterate over `(col, value)` pairs of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let start = self.row_ptr[i];
        let end = self.row_ptr[i + 1];
        self.col_idx[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Transpose the matrix, producing a new CSR matrix (CSR→CSR via counting sort).
    ///
    /// Row `i` of the result holds the entries of column `i` of `self`, ordered by
    /// their original row index — the standard two-pass histogram/scatter used by
    /// cuSPARSE's `csr2csc`.  Cost is `O(nnz + ncols)` and the output is a fully
    /// canonical CSR (sorted column indices within each row, no duplicates beyond
    /// those already present).
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        // Pass 1: histogram of entries per output row (= input column).
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for &j in &self.col_idx {
            row_ptr[j + 1] += 1;
        }
        for j in 0..self.ncols {
            row_ptr[j + 1] += row_ptr[j];
        }
        // Pass 2: scatter, walking the input in row order so each output row ends up
        // sorted by the original row index.
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for i in 0..self.nrows {
            for (j, v) in self.row(i) {
                let slot = next[j];
                col_idx[slot] = i;
                values[slot] = v;
                next[j] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// A zero-copy view of the contiguous row range `rows` of this matrix.
    ///
    /// The view borrows a window of `row_ptr` (plus the matching `col_idx`/`values`
    /// span) — no index or value is copied, which is what makes block-row sharding
    /// of CSR operands free.
    ///
    /// # Panics
    /// Panics if `rows.end > nrows` or the range is backwards.
    pub fn slice_rows(&self, rows: std::ops::Range<usize>) -> CsrRowsView<'_> {
        assert!(rows.start <= rows.end, "row range must be forward");
        assert!(
            rows.end <= self.nrows,
            "row range {}..{} out of bounds for {} rows",
            rows.start,
            rows.end,
            self.nrows
        );
        let lo = self.row_ptr[rows.start];
        let hi = self.row_ptr[rows.end];
        CsrRowsView {
            ncols: self.ncols,
            base: lo,
            row_ptr: &self.row_ptr[rows.start..=rows.end],
            col_idx: &self.col_idx[lo..hi],
            values: &self.values[lo..hi],
        }
    }

    /// Materialise the contiguous column range `cols` as a new CSR matrix whose
    /// column indices are rebased to start at zero.
    ///
    /// Unlike [`slice_rows`](Self::slice_rows) this cannot be a view — CSR stores
    /// rows contiguously, so carving a column panel builds per-panel CSC-style
    /// buffers (one `O(nnz)` filtering pass).  Callers that model device traffic
    /// must charge the copy; `sketch_core::Operand::slice_cols` does so.
    ///
    /// # Panics
    /// Panics if `cols.end > ncols` or the range is backwards.
    pub fn slice_cols(&self, cols: std::ops::Range<usize>) -> CsrMatrix {
        // The whole-range row view shares the filtering loop with the view type.
        self.slice_rows(0..self.nrows).slice_cols(cols)
    }

    /// Bytes occupied by the index + value arrays (used by traffic modelling).
    pub fn size_bytes(&self) -> u64 {
        (self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Dense representation for tests.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; self.ncols]; self.nrows];
        for i in 0..self.nrows {
            for (j, v) in self.row(i) {
                dense[i][j] += v;
            }
        }
        dense
    }
}

/// A borrowed, zero-copy view over a contiguous row range of a [`CsrMatrix`]
/// (the sparse analogue of a block-row slice).
///
/// `row_ptr` is a window of the parent's row pointer array, so local offsets are
/// recovered by subtracting `base` (= the parent's `row_ptr` at the window start).
/// The view is `Copy` — three slices and two integers — so a row shard's
/// window costs nothing to take.
#[derive(Debug, Clone, Copy)]
pub struct CsrRowsView<'a> {
    ncols: usize,
    base: usize,
    row_ptr: &'a [usize],
    col_idx: &'a [usize],
    values: &'a [f64],
}

/// The whole-range view of a matrix, so kernels that read a view in place
/// ([`spmm_transpose`](crate::spmm_transpose)) take either.
impl<'a> From<&'a CsrMatrix> for CsrRowsView<'a> {
    fn from(a: &'a CsrMatrix) -> Self {
        a.slice_rows(0..a.nrows)
    }
}

impl<'a> CsrRowsView<'a> {
    /// Number of rows in the view.
    pub fn nrows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns (inherited from the parent matrix).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros inside the viewed rows.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices of the viewed rows' non-zeros, row by row.
    pub fn col_idx(&self) -> &'a [usize] {
        self.col_idx
    }

    /// Iterate over `(col, value)` pairs of local row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + 'a {
        let start = self.row_ptr[i] - self.base;
        let end = self.row_ptr[i + 1] - self.base;
        self.col_idx[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Narrow the view to a sub-range of its rows — still zero-copy (the
    /// window over the parent's arrays just shrinks).
    ///
    /// # Panics
    /// Panics if `rows.end > self.nrows()` or the range is backwards.
    pub fn slice_rows(&self, rows: std::ops::Range<usize>) -> CsrRowsView<'a> {
        assert!(rows.start <= rows.end, "row range must be forward");
        assert!(
            rows.end <= self.nrows(),
            "row range {}..{} out of bounds for {} rows",
            rows.start,
            rows.end,
            self.nrows()
        );
        let lo = self.row_ptr[rows.start] - self.base;
        let hi = self.row_ptr[rows.end] - self.base;
        CsrRowsView {
            ncols: self.ncols,
            base: self.row_ptr[rows.start],
            row_ptr: &self.row_ptr[rows.start..=rows.end],
            col_idx: &self.col_idx[lo..hi],
            values: &self.values[lo..hi],
        }
    }

    /// Materialise the contiguous column range `cols` of the viewed rows as a new
    /// CSR matrix with rebased column indices — the one `O(nnz)` column-panel
    /// filtering pass of the workspace ([`CsrMatrix::slice_cols`] delegates here
    /// through its whole-range row view).
    ///
    /// # Panics
    /// Panics if `cols.end > self.ncols()` or the range is backwards.
    pub fn slice_cols(&self, cols: std::ops::Range<usize>) -> CsrMatrix {
        assert!(cols.start <= cols.end, "column range must be forward");
        assert!(
            cols.end <= self.ncols,
            "column range {}..{} out of bounds for {} columns",
            cols.start,
            cols.end,
            self.ncols
        );
        let nrows = self.nrows();
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..nrows {
            for (j, v) in self.row(i) {
                if cols.contains(&j) {
                    col_idx.push(j - cols.start);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows,
            ncols: cols.len(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Materialise the view as an owned [`CsrMatrix`] (used by the generic
    /// matrix-product fallbacks; the sketching hot paths iterate the view
    /// directly).
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix {
            nrows: self.nrows(),
            ncols: self.ncols,
            row_ptr: self.row_ptr.iter().map(|&p| p - self.base).collect(),
            col_idx: self.col_idx.to_vec(),
            values: self.values.to_vec(),
        }
    }

    /// Bytes occupied by the viewed index + value spans.
    pub fn size_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.row_ptr)
            + std::mem::size_of_val(self.col_idx)
            + std::mem::size_of_val(self.values)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> CooMatrix {
        let mut coo = CooMatrix::new(3, 4);
        coo.push(0, 1, 1.0);
        coo.push(0, 3, 2.0);
        coo.push(2, 0, -1.0);
        coo.push(1, 2, 4.0);
        coo
    }

    #[test]
    fn coo_to_csr_preserves_dense_form() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.to_dense(), coo.to_dense());
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.row_ptr(), &[0, 2, 3, 4]);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.5);
        coo.push(1, 1, 1.0);
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.to_dense()[0][0], 3.5);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut coo = CooMatrix::new(4, 2);
        coo.push(3, 1, 7.0);
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.row_ptr(), &[0, 0, 0, 0, 1]);
        assert_eq!(csr.row(0).count(), 0);
        assert_eq!(csr.row(3).collect::<Vec<_>>(), vec![(1, 7.0)]);
    }

    #[test]
    fn from_raw_validates_structure() {
        let csr = CsrMatrix::from_raw(2, 3, vec![0, 1, 2], vec![0, 2], vec![1.0, 2.0]);
        assert_eq!(
            csr.to_dense(),
            vec![vec![1.0, 0.0, 0.0], vec![0.0, 0.0, 2.0]]
        );
        assert!(csr.size_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "row_ptr must end at nnz")]
    fn from_raw_rejects_inconsistent_nnz() {
        CsrMatrix::from_raw(1, 1, vec![0, 2], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "column index out of bounds")]
    fn from_raw_rejects_bad_column() {
        CsrMatrix::from_raw(1, 1, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let t = csr.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 3);
        assert_eq!(t.nnz(), csr.nnz());
        let dense = csr.to_dense();
        let dense_t = t.to_dense();
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(dense[i][j], dense_t[j][i]);
            }
        }
    }

    #[test]
    fn transpose_is_canonical_and_involutive() {
        let mut coo = CooMatrix::new(5, 3);
        coo.push(4, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 0, 3.0);
        coo.push(2, 2, -1.0);
        coo.push(1, 1, 0.5);
        let csr = CsrMatrix::from_coo(&coo);
        let t = csr.transpose();
        // Column indices inside every row of the transpose must be sorted.
        for i in 0..t.nrows() {
            let cols: Vec<usize> = t.row(i).map(|(j, _)| j).collect();
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} unsorted");
        }
        assert_eq!(t.transpose(), csr);
    }

    #[test]
    fn transpose_of_empty_and_empty_rows() {
        let empty = CsrMatrix::from_coo(&CooMatrix::new(3, 7));
        let t = empty.transpose();
        assert_eq!(t.nrows(), 7);
        assert_eq!(t.ncols(), 3);
        assert_eq!(t.nnz(), 0);

        let mut coo = CooMatrix::new(4, 2);
        coo.push(3, 1, 7.0);
        let t = CsrMatrix::from_coo(&coo).transpose();
        assert_eq!(t.row_ptr(), &[0, 0, 1]);
        assert_eq!(t.row(1).collect::<Vec<_>>(), vec![(3, 7.0)]);
    }

    #[test]
    fn row_slices_are_views_and_tile_the_matrix() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let dense = csr.to_dense();
        for split in [1usize, 2] {
            let mid = split;
            let top = csr.slice_rows(0..mid);
            let bottom = csr.slice_rows(mid..3);
            assert_eq!(top.nrows() + bottom.nrows(), 3);
            assert_eq!(top.nnz() + bottom.nnz(), csr.nnz());
            assert_eq!(top.ncols(), 4);
            for (view, offset) in [(&top, 0usize), (&bottom, mid)] {
                for i in 0..view.nrows() {
                    let got: Vec<(usize, f64)> = view.row(i).collect();
                    let want: Vec<(usize, f64)> = csr.row(offset + i).collect();
                    assert_eq!(got, want);
                }
                let owned = view.to_csr();
                for (i, row) in owned.to_dense().iter().enumerate() {
                    assert_eq!(row, &dense[offset + i]);
                }
                assert!(view.size_bytes() > 0);
            }
        }
        // Whole-range view round-trips exactly.
        assert_eq!(csr.slice_rows(0..3).to_csr(), csr);
        // Empty view is fine.
        assert_eq!(csr.slice_rows(1..1).nrows(), 0);
        // Re-slicing a view stays zero-copy and matches slicing the parent.
        let nested = csr.slice_rows(1..3).slice_rows(1..2);
        assert_eq!(nested.to_csr(), csr.slice_rows(2..3).to_csr());
    }

    #[test]
    fn col_slices_rebase_indices_and_tile_the_matrix() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let dense = csr.to_dense();
        let left = csr.slice_cols(0..2);
        let right = csr.slice_cols(2..4);
        assert_eq!(left.ncols(), 2);
        assert_eq!(right.ncols(), 2);
        assert_eq!(left.nnz() + right.nnz(), csr.nnz());
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(left.to_dense()[i][j], dense[i][j]);
                assert_eq!(right.to_dense()[i][j], dense[i][j + 2]);
            }
        }
        assert_eq!(csr.slice_cols(0..4), csr);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_slice_out_of_bounds_is_rejected() {
        CsrMatrix::from_coo(&sample_coo()).slice_rows(0..4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn col_slice_out_of_bounds_is_rejected() {
        CsrMatrix::from_coo(&sample_coo()).slice_cols(3..5);
    }

    #[test]
    fn empty_matrix_conversion() {
        let coo = CooMatrix::new(3, 3);
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.row_ptr(), &[0, 0, 0, 0]);
    }
}
