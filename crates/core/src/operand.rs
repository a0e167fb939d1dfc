//! The [`Operand`] abstraction: one borrowed view over dense and sparse inputs.
//!
//! Every hot path in the workspace multiplies *something* by a tall-and-skinny
//! operand that is either a dense [`Matrix`] or a [`CsrMatrix`].  `Operand` is the
//! shared, copyable view both sides use:
//! [`SketchOperator::apply_into`](crate::SketchOperator::apply_into) consumes it
//! on the sketching side, and the low-rank pipeline's `MatVecLike` resolves to it on
//! the workload side, so the dense/CSR split is handled exactly once.

use crate::error::Error;
use sketch_gpu_sim::{Device, KernelCost};
use sketch_la::{blas3, Layout, Matrix, Op};
use sketch_sparse::{spmm, CsrMatrix, CsrRowsView};
use std::ops::Range;

/// A borrowed sketching/multiplication operand: dense, CSR, or a zero-copy
/// block-row window of a CSR matrix.
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// A dense matrix (either layout).
    Dense(&'a Matrix),
    /// A sparse matrix in CSR form.
    Csr(&'a CsrMatrix),
    /// A contiguous row range of a CSR matrix, borrowed without copying
    /// (the [`ShardAxis::Rows`](crate::ShardAxis::Rows) slice produced by
    /// [`Operand::slice_rows`]).
    CsrRows(CsrRowsView<'a>),
}

/// All a sketch's cost statement reads of an operand: its shape, and its dense
/// layout or its stored non-zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandShape {
    /// A dense `rows x cols` operand in `layout`.
    Dense {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
        /// Storage order.
        layout: Layout,
    },
    /// A sparse `rows x cols` operand (CSR, or a CSR row window) with `nnz` stored
    /// entries.
    Csr {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
        /// Stored non-zeros.
        nnz: usize,
    },
}

impl OperandShape {
    /// A dense `rows x cols` shape in `layout`.
    pub const fn dense(rows: usize, cols: usize, layout: Layout) -> Self {
        OperandShape::Dense { rows, cols, layout }
    }

    /// A sparse `rows x cols` shape with `nnz` stored entries.
    pub const fn csr(rows: usize, cols: usize, nnz: usize) -> Self {
        OperandShape::Csr { rows, cols, nnz }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match *self {
            OperandShape::Dense { cols, .. } | OperandShape::Csr { cols, .. } => cols,
        }
    }
}

impl<'a> Operand<'a> {
    /// The operand's [`OperandShape`].
    pub fn shape(&self) -> OperandShape {
        match self {
            Operand::Dense(m) => OperandShape::dense(m.nrows(), m.ncols(), m.layout()),
            Operand::Csr(s) => OperandShape::csr(s.nrows(), s.ncols(), s.nnz()),
            Operand::CsrRows(v) => OperandShape::csr(v.nrows(), v.ncols(), v.nnz()),
        }
    }

    /// Number of rows (the leading dimension a sketch checks against).
    pub fn nrows(&self) -> usize {
        match self {
            Operand::Dense(a) => a.nrows(),
            Operand::Csr(a) => a.nrows(),
            Operand::CsrRows(v) => v.nrows(),
        }
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        match self {
            Operand::Dense(a) => a.ncols(),
            Operand::Csr(a) => a.ncols(),
            Operand::CsrRows(v) => v.ncols(),
        }
    }

    /// Short human-readable shape description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            Operand::Dense(a) => format!("dense {}x{}", a.nrows(), a.ncols()),
            Operand::Csr(a) => format!("CSR {}x{} nnz={}", a.nrows(), a.ncols(), a.nnz()),
            Operand::CsrRows(v) => {
                format!("CSR rows view {}x{} nnz={}", v.nrows(), v.ncols(), v.nnz())
            }
        }
    }

    /// Compute `A · B` with `B` dense `ncols x p`; the result is `nrows x p`.
    ///
    /// Dense operands route through the GEMM kernel, CSR operands through SpMM.
    /// A [`CsrRows`](Operand::CsrRows) view is materialised before the SpMM
    /// (a real SpMM reads the window through offset pointers, so the copy is
    /// not charged); the sketching hot paths iterate the view directly instead
    /// of coming through here.
    pub fn mul_right(&self, device: &Device, b: &Matrix) -> Result<Matrix, Error> {
        if b.nrows() != self.ncols() {
            return Err(Error::dimension_mismatch(
                match self {
                    Operand::Dense(_) => "gemm",
                    Operand::Csr(_) | Operand::CsrRows(_) => "spmm",
                },
                self.ncols(),
                b.nrows(),
                format!(
                    "B dense {}x{} against {}",
                    b.nrows(),
                    b.ncols(),
                    self.describe()
                ),
            ));
        }
        match self {
            Operand::Dense(a) => Ok(blas3::gemm(device, 1.0, a, b, 0.0, None)?),
            Operand::Csr(a) => Ok(spmm(device, a, b)),
            Operand::CsrRows(v) => Ok(spmm(device, &v.to_csr(), b)),
        }
    }

    /// Compute `Aᵀ · B` with `B` dense `nrows x p`; the result is `ncols x p`.
    ///
    /// The CSR path materialises the transpose (counting sort) on every call; callers
    /// that repeat the product should cache the transpose themselves (as
    /// `sketch-lowrank`'s `SparseOperand` does).
    pub fn mul_transpose_right(&self, device: &Device, b: &Matrix) -> Result<Matrix, Error> {
        if b.nrows() != self.nrows() {
            return Err(Error::dimension_mismatch(
                match self {
                    Operand::Dense(_) => "gemm_t",
                    Operand::Csr(_) | Operand::CsrRows(_) => "spmm_t",
                },
                self.nrows(),
                b.nrows(),
                format!(
                    "B dense {}x{} against {}ᵀ",
                    b.nrows(),
                    b.ncols(),
                    self.describe()
                ),
            ));
        }
        match self {
            Operand::Dense(a) => Ok(blas3::gemm_op(
                device,
                1.0,
                Op::Trans,
                a,
                Op::NoTrans,
                b,
                0.0,
                None,
            )?),
            Operand::Csr(a) => Ok(spmm(device, &a.transpose(), b)),
            Operand::CsrRows(v) => Ok(spmm(device, &v.to_csr().transpose(), b)),
        }
    }

    /// Bytes the operand occupies on the device.
    pub fn size_bytes(&self) -> u64 {
        match self {
            Operand::Dense(a) => a.size_bytes(),
            Operand::Csr(a) => {
                KernelCost::f64_bytes(a.nnz() as u64)
                    + (std::mem::size_of::<usize>() as u64) * (a.nnz() + a.nrows() + 1) as u64
            }
            Operand::CsrRows(v) => v.size_bytes(),
        }
    }

    /// Slice the contiguous row range `rows` of the operand, as a view wherever
    /// the storage allows it.
    ///
    /// This is the [`ShardAxis::Rows`](crate::ShardAxis::Rows) half of the sharding
    /// contract: CSR operands produce a genuine zero-copy [`CsrRowsView`] over the
    /// parent `row_ptr`, and a full-range slice of any operand is the operand
    /// itself.  Dense sub-ranges materialise a block (layout preserved); on real
    /// hardware that block is a pointer-offset view, so no [`KernelCost`] is
    /// charged — matching the executor's block-row convention.
    ///
    /// # Panics
    /// Panics if the range does not fit inside `0..self.nrows()`.
    pub fn slice_rows(&self, rows: Range<usize>) -> OperandSlice<'a> {
        assert!(
            rows.start <= rows.end && rows.end <= self.nrows(),
            "row range {}..{} out of bounds for {} rows",
            rows.start,
            rows.end,
            self.nrows()
        );
        if rows == (0..self.nrows()) {
            return OperandSlice::Borrowed(*self);
        }
        match self {
            Operand::Dense(m) => OperandSlice::Dense(Matrix::from_fn(
                rows.len(),
                m.ncols(),
                m.layout(),
                |i, j| m.get(rows.start + i, j),
            )),
            Operand::Csr(s) => OperandSlice::Borrowed(Operand::CsrRows(s.slice_rows(rows))),
            // Re-slicing a view just narrows the window — still zero-copy.
            Operand::CsrRows(v) => OperandSlice::Borrowed(Operand::CsrRows(v.slice_rows(rows))),
        }
    }

    /// Slice the contiguous column range `cols` of the operand.
    ///
    /// This is the [`ShardAxis::Cols`](crate::ShardAxis::Cols) half of the sharding
    /// contract (the Gaussian/SRHT panel axis).  A full-range slice is free; dense
    /// sub-panels materialise a layout-preserving block (view-equivalent on real
    /// hardware, uncharged, like [`slice_rows`](Self::slice_rows)); CSR sub-panels
    /// must build per-panel CSC-style buffers, so the `O(nnz)` filtering pass **is**
    /// charged to `device` as a [`KernelCost`].
    ///
    /// # Panics
    /// Panics if the range does not fit inside `0..self.ncols()`.
    pub fn slice_cols(&self, device: &Device, cols: Range<usize>) -> OperandSlice<'a> {
        assert!(
            cols.start <= cols.end && cols.end <= self.ncols(),
            "column range {}..{} out of bounds for {} columns",
            cols.start,
            cols.end,
            self.ncols()
        );
        if cols == (0..self.ncols()) {
            return OperandSlice::Borrowed(*self);
        }
        match self {
            Operand::Dense(m) => OperandSlice::Dense(Matrix::from_fn(
                m.nrows(),
                cols.len(),
                m.layout(),
                |i, j| m.get(i, cols.start + j),
            )),
            Operand::Csr(s) => {
                let panel = s.slice_cols(cols);
                device.record(csr_col_slice_cost(s.nnz(), s.nrows(), panel.nnz()));
                OperandSlice::Csr(panel)
            }
            Operand::CsrRows(v) => {
                let panel = v.slice_cols(cols);
                device.record(csr_col_slice_cost(v.nnz(), v.nrows(), panel.nnz()));
                OperandSlice::Csr(panel)
            }
        }
    }
}

/// Modelled cost of carving a CSC-style column panel out of a CSR matrix: stream
/// every stored entry (value + column index) plus the row pointers, write the
/// panel's entries and its fresh row pointer array.
fn csr_col_slice_cost(parent_nnz: usize, nrows: usize, panel_nnz: usize) -> KernelCost {
    let idx = std::mem::size_of::<usize>() as u64;
    KernelCost::new(
        KernelCost::f64_bytes(parent_nnz as u64) + idx * (parent_nnz + nrows + 1) as u64,
        KernelCost::f64_bytes(panel_nnz as u64) + idx * (panel_nnz + nrows + 1) as u64,
        parent_nnz as u64,
        1,
    )
}

/// The result of slicing an [`Operand`]: either a borrowed view (free) or a
/// materialised panel, itself viewable as an [`Operand`] via
/// [`as_operand`](Self::as_operand).
#[derive(Debug)]
pub enum OperandSlice<'a> {
    /// A zero-copy view: the full-range slice of any operand, or a
    /// [`CsrRowsView`] row window.
    Borrowed(Operand<'a>),
    /// A materialised dense block or panel.
    Dense(Matrix),
    /// A materialised CSR panel (rebased column indices).
    Csr(CsrMatrix),
}

impl OperandSlice<'_> {
    /// View the slice as an [`Operand`] for `apply_into` / the product helpers.
    pub fn as_operand(&self) -> Operand<'_> {
        match self {
            OperandSlice::Borrowed(op) => *op,
            OperandSlice::Dense(m) => Operand::Dense(m),
            OperandSlice::Csr(s) => Operand::Csr(s),
        }
    }

    /// Whether the slice borrowed the parent storage (no copy was made).
    pub fn is_borrowed(&self) -> bool {
        matches!(self, OperandSlice::Borrowed(_))
    }
}

impl<'a> From<&'a Matrix> for Operand<'a> {
    fn from(a: &'a Matrix) -> Self {
        Operand::Dense(a)
    }
}

impl<'a> From<&'a CsrMatrix> for Operand<'a> {
    fn from(a: &'a CsrMatrix) -> Self {
        Operand::Csr(a)
    }
}

impl<'a> From<CsrRowsView<'a>> for Operand<'a> {
    fn from(v: CsrRowsView<'a>) -> Self {
        Operand::CsrRows(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_la::Layout;
    use sketch_sparse::CooMatrix;

    fn device() -> Device {
        Device::unlimited()
    }

    fn sample_csr() -> CsrMatrix {
        let mut coo = CooMatrix::new(4, 3);
        coo.push(0, 0, 2.0);
        coo.push(1, 2, -1.0);
        coo.push(3, 1, 0.5);
        coo.push(3, 2, 4.0);
        CsrMatrix::from_coo(&coo)
    }

    fn dense_of(csr: &CsrMatrix) -> Matrix {
        let rows = csr.to_dense();
        Matrix::from_fn(csr.nrows(), csr.ncols(), Layout::ColMajor, |i, j| {
            rows[i][j]
        })
    }

    #[test]
    fn shapes_and_descriptions() {
        let m = Matrix::zeros(7, 2);
        let d = Operand::from(&m);
        assert_eq!(d.nrows(), 7);
        assert_eq!(d.ncols(), 2);
        assert!(d.describe().contains("dense 7x2"));

        let s = sample_csr();
        let c = Operand::from(&s);
        assert_eq!((c.nrows(), c.ncols()), (4, 3));
        assert!(c.describe().contains("CSR 4x3"));
        assert!(c.describe().contains("nnz=4"));
        assert!(c.size_bytes() > 0);
        assert_eq!(d.size_bytes(), m.size_bytes());
    }

    #[test]
    fn sparse_products_match_dense_products() {
        let d = device();
        let s = sample_csr();
        let a = dense_of(&s);
        let b = Matrix::random_gaussian(3, 2, Layout::ColMajor, 1, 0);
        let bt = Matrix::random_gaussian(4, 2, Layout::ColMajor, 1, 1);

        let sparse = Operand::Csr(&s).mul_right(&d, &b).unwrap();
        let dense = Operand::Dense(&a).mul_right(&d, &b).unwrap();
        assert!(sparse.max_abs_diff(&dense).unwrap() < 1e-14);

        let sparse_t = Operand::Csr(&s).mul_transpose_right(&d, &bt).unwrap();
        let dense_t = Operand::Dense(&a).mul_transpose_right(&d, &bt).unwrap();
        assert!(sparse_t.max_abs_diff(&dense_t).unwrap() < 1e-14);
    }

    #[test]
    fn dimension_mismatches_are_errors_not_panics() {
        let d = device();
        let s = sample_csr();
        let a = dense_of(&s);
        let wrong = Matrix::zeros(5, 2);
        for op in [Operand::Csr(&s), Operand::Dense(&a)] {
            let e = op.mul_right(&d, &wrong).unwrap_err();
            assert!(e.is_dimension_mismatch(), "{e}");
            assert!(op.mul_transpose_right(&d, &wrong).is_err());
        }
    }

    #[test]
    fn full_range_slices_are_borrowed_views() {
        let d = device();
        let s = sample_csr();
        let a = dense_of(&s);
        for op in [Operand::Dense(&a), Operand::Csr(&s)] {
            assert!(op.slice_rows(0..op.nrows()).is_borrowed());
            assert!(op.slice_cols(&d, 0..op.ncols()).is_borrowed());
        }
    }

    #[test]
    fn csr_row_slices_are_zero_copy_views() {
        let s = sample_csr();
        let op = Operand::Csr(&s);
        let slice = op.slice_rows(1..4);
        assert!(slice.is_borrowed(), "CSR row slicing must not copy");
        let view = slice.as_operand();
        assert_eq!((view.nrows(), view.ncols()), (3, 3));
        assert!(view.describe().contains("CSR rows view"));
        assert!(view.size_bytes() > 0);
        // The view's rows match the parent's.
        if let Operand::CsrRows(v) = view {
            for i in 0..3 {
                let got: Vec<(usize, f64)> = v.row(i).collect();
                let want: Vec<(usize, f64)> = s.row(1 + i).collect();
                assert_eq!(got, want);
            }
        } else {
            panic!("expected a CsrRows view");
        }
    }

    #[test]
    fn sliced_products_match_the_parent_range() {
        let d = device();
        let s = sample_csr();
        let a = dense_of(&s);
        let b = Matrix::random_gaussian(3, 2, Layout::ColMajor, 4, 0);
        for op in [Operand::Dense(&a), Operand::Csr(&s)] {
            let slice = op.slice_rows(1..3);
            let got = slice.as_operand().mul_right(&d, &b).unwrap();
            let full = op.mul_right(&d, &b).unwrap();
            for i in 0..2 {
                for j in 0..2 {
                    assert_eq!(got.get(i, j), full.get(1 + i, j));
                }
            }
        }
    }

    #[test]
    fn csr_col_slices_materialise_and_charge_the_copy() {
        let d = device();
        let s = sample_csr();
        let before = d.tracker().snapshot();
        let panel = Operand::Csr(&s).slice_cols(&d, 1..3);
        let cost = d.tracker().snapshot() - before;
        assert!(cost.bytes_read > 0, "CSR column panel must charge its copy");
        assert!(!panel.is_borrowed());
        let dense = dense_of(&s);
        let dense_panel = Operand::Dense(&dense).slice_cols(&d, 1..3);
        let view = panel.as_operand();
        assert_eq!((view.nrows(), view.ncols()), (4, 2));
        for i in 0..4 {
            for j in 0..2 {
                let dp = match dense_panel.as_operand() {
                    Operand::Dense(m) => m.get(i, j),
                    _ => unreachable!(),
                };
                let sp = match view {
                    Operand::Csr(c) => c.to_dense()[i][j],
                    _ => unreachable!(),
                };
                assert_eq!(sp, dp);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_rows_out_of_bounds_panics() {
        let s = sample_csr();
        Operand::Csr(&s).slice_rows(2..5);
    }
}
