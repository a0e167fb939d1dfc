//! Dense `f64` matrices with explicit storage layout.
//!
//! Storage layout is a first-class citizen here because it is a first-class citizen in
//! the paper: Section 6.1 stores `A` row-major so the CountSketch's row-wise reads
//! coalesce, converts the sketched result to column-major for cuBLAS/cuSOLVER, and in
//! the multisketch deliberately interprets a row-major `Y` as the transpose of a
//! column-major `Y` to postpone (and shrink) the conversion.

use crate::error::{dim_err, LaError};
use sketch_gpu_sim::{Device, KernelCost};
use sketch_rng::fill;

/// Whether an operand enters a BLAS call as itself or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Use the transpose of the operand.
    Trans,
}

impl Op {
    /// Logical number of rows of `op(A)`.
    #[inline]
    pub fn rows(&self, a: &Matrix) -> usize {
        match self {
            Op::NoTrans => a.nrows(),
            Op::Trans => a.ncols(),
        }
    }

    /// Logical number of columns of `op(A)`.
    #[inline]
    pub fn cols(&self, a: &Matrix) -> usize {
        match self {
            Op::NoTrans => a.ncols(),
            Op::Trans => a.nrows(),
        }
    }

    /// Element `(i, j)` of `op(A)`.
    #[inline(always)]
    pub fn get(&self, a: &Matrix, i: usize, j: usize) -> f64 {
        match self {
            Op::NoTrans => a.get(i, j),
            Op::Trans => a.get(j, i),
        }
    }
}

/// Storage order of a [`Matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Row-major: element `(i, j)` lives at `i * ncols + j`.
    RowMajor,
    /// Column-major: element `(i, j)` lives at `i + j * nrows`.
    ColMajor,
}

impl Layout {
    /// The opposite layout.
    #[inline]
    pub fn transposed(self) -> Layout {
        match self {
            Layout::RowMajor => Layout::ColMajor,
            Layout::ColMajor => Layout::RowMajor,
        }
    }
}

/// A dense matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    layout: Layout,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a zero matrix with the given layout.
    pub fn zeros_with_layout(nrows: usize, ncols: usize, layout: Layout) -> Self {
        Self {
            nrows,
            ncols,
            layout,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Create a zero matrix in column-major layout (the library default).
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self::zeros_with_layout(nrows, ncols, Layout::ColMajor)
    }

    /// Create a matrix from existing data in the given layout.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, layout: Layout, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "data length {} does not match {}x{}",
            data.len(),
            nrows,
            ncols
        );
        Self {
            nrows,
            ncols,
            layout,
            data,
        }
    }

    /// Build a matrix from row slices (row-major input, column-major storage).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut m = Self::zeros(nrows, ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "ragged rows");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Build a matrix by evaluating `f(i, j)`.
    pub fn from_fn(
        nrows: usize,
        ncols: usize,
        layout: Layout,
        f: impl Fn(usize, usize) -> f64,
    ) -> Self {
        let mut m = Self::zeros_with_layout(nrows, ncols, layout);
        for i in 0..nrows {
            for j in 0..ncols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// The identity matrix of order `n` (column-major).
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// A matrix with i.i.d. standard Gaussian entries, generated deterministically from
    /// `(seed, stream)` with the Philox generator (cuRAND substitute).
    pub fn random_gaussian(
        nrows: usize,
        ncols: usize,
        layout: Layout,
        seed: u64,
        stream: u64,
    ) -> Self {
        let data = fill::gaussian_vec(seed, stream, nrows * ncols);
        Self::from_vec(nrows, ncols, layout, data)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Storage layout.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Total number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of bytes the matrix occupies (used for device memory reservations).
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Flat index of `(i, j)` under the current layout.
    #[inline(always)]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nrows && j < self.ncols);
        match self.layout {
            Layout::RowMajor => i * self.ncols + j,
            Layout::ColMajor => i + j * self.nrows,
        }
    }

    /// Read element `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[self.idx(i, j)]
    }

    /// Write element `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        let idx = self.idx(i, j);
        self.data[idx] = value;
    }

    /// Add `value` to element `(i, j)`.
    #[inline(always)]
    pub fn add_to(&mut self, i: usize, j: usize, value: f64) {
        let idx = self.idx(i, j);
        self.data[idx] += value;
    }

    /// Immutable view of the underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its storage.
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Contiguous row `i`; only available in row-major layout.
    #[inline]
    pub fn row(&self, i: usize) -> Option<&[f64]> {
        match self.layout {
            Layout::RowMajor => {
                let start = i * self.ncols;
                Some(&self.data[start..start + self.ncols])
            }
            Layout::ColMajor => None,
        }
    }

    /// Contiguous column `j`; only available in column-major layout.
    #[inline]
    pub fn col(&self, j: usize) -> Option<&[f64]> {
        match self.layout {
            Layout::ColMajor => {
                let start = j * self.nrows;
                Some(&self.data[start..start + self.nrows])
            }
            Layout::RowMajor => None,
        }
    }

    /// Mutable contiguous column `j`; only available in column-major layout.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> Option<&mut [f64]> {
        match self.layout {
            Layout::ColMajor => {
                let start = j * self.nrows;
                Some(&mut self.data[start..start + self.nrows])
            }
            Layout::RowMajor => None,
        }
    }

    /// Copy column `j` into a new vector regardless of layout.
    pub fn col_to_vec(&self, j: usize) -> Vec<f64> {
        (0..self.nrows).map(|i| self.get(i, j)).collect()
    }

    /// Copy row `i` into a new vector regardless of layout.
    pub fn row_to_vec(&self, i: usize) -> Vec<f64> {
        (0..self.ncols).map(|j| self.get(i, j)).collect()
    }

    /// The storage seen as a row-major matrix: `(nrows, ncols)` for row-major,
    /// `(ncols, nrows)` for column-major.
    fn storage_shape(&self) -> (usize, usize) {
        match self.layout {
            Layout::RowMajor => (self.nrows, self.ncols),
            Layout::ColMajor => (self.ncols, self.nrows),
        }
    }

    /// Return a copy converted to the requested layout, recording the conversion
    /// traffic on `device` (a layout conversion reads and writes every element once).
    ///
    /// A change of layout is a transpose of the storage, done as one cache-blocked tile
    /// copy.
    pub fn to_layout(&self, device: &Device, layout: Layout) -> Matrix {
        if self.layout == layout {
            return self.clone();
        }
        let mut out = Matrix::zeros_with_layout(self.nrows, self.ncols, layout);
        let (rows, cols) = self.storage_shape();
        transpose_tiles(&self.data, rows, cols, &mut out.data);
        device.record(copy_cost(self.data.len()));
        out
    }

    /// The per-element `get`/`set` conversion [`to_layout`](Self::to_layout) replaced.
    ///
    /// Retained as the `fig_kernels` baseline and the oracle of the bitwise proptests;
    /// records the same modelled cost.
    pub fn to_layout_naive(&self, device: &Device, layout: Layout) -> Matrix {
        if self.layout == layout {
            return self.clone();
        }
        let mut out = Matrix::zeros_with_layout(self.nrows, self.ncols, layout);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                out.set(i, j, self.get(i, j));
            }
        }
        device.record(copy_cost(self.data.len()));
        out
    }

    /// Reinterpret the matrix as its transpose *without moving any data*.
    ///
    /// A row-major `m x n` buffer is exactly a column-major `n x m` buffer; this is the
    /// "interpret Y stored in row-major as the transpose of Y stored in column-major"
    /// trick of Section 6.1, and it is free.
    pub fn reinterpret_transposed(self) -> Matrix {
        Matrix {
            nrows: self.ncols,
            ncols: self.nrows,
            layout: self.layout.transposed(),
            data: self.data,
        }
    }

    /// Materialise the transpose (moves data), recording the traffic on `device`.
    pub fn transpose(&self, device: &Device) -> Matrix {
        let mut out = Matrix::zeros_with_layout(self.ncols, self.nrows, self.layout);
        self.transpose_into(device, &mut out.view_mut())
            .expect("freshly allocated transpose target always matches");
        out
    }

    /// Write the transpose into an existing buffer (same traffic model as
    /// [`transpose`](Self::transpose), no allocation).
    ///
    /// Into the opposite layout the transpose is a straight copy of the storage;
    /// into the same layout it is one cache-blocked tile copy.
    pub fn transpose_into(
        &self,
        device: &Device,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), LaError> {
        self.check_transpose_target(out)?;
        if out.layout() == self.layout {
            let (rows, cols) = self.storage_shape();
            transpose_tiles(&self.data, rows, cols, out.as_mut_slice());
        } else {
            out.as_mut_slice().copy_from_slice(&self.data);
        }
        device.record(copy_cost(self.data.len()));
        Ok(())
    }

    /// The per-element `get`/`set` transpose [`transpose_into`](Self::transpose_into)
    /// replaced.
    ///
    /// Retained as the `fig_kernels` baseline and the oracle of the bitwise proptests;
    /// records the same modelled cost.
    pub fn transpose_into_naive(
        &self,
        device: &Device,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), LaError> {
        self.check_transpose_target(out)?;
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                out.set(j, i, self.get(i, j));
            }
        }
        device.record(copy_cost(self.data.len()));
        Ok(())
    }

    fn check_transpose_target(&self, out: &MatrixViewMut<'_>) -> Result<(), LaError> {
        if out.nrows() != self.ncols || out.ncols() != self.nrows {
            return Err(dim_err(
                "transpose_into",
                format!(
                    "source is {}x{} but target is {}x{}",
                    self.nrows,
                    self.ncols,
                    out.nrows(),
                    out.ncols()
                ),
            ));
        }
        Ok(())
    }

    /// Mutable view of the whole matrix (used by the buffer-reusing `*_into` kernels).
    pub fn view_mut(&mut self) -> MatrixViewMut<'_> {
        MatrixViewMut {
            nrows: self.nrows,
            ncols: self.ncols,
            layout: self.layout,
            data: &mut self.data,
        }
    }

    /// Extract the leading `rows x cols` block as a new matrix.
    pub fn submatrix(&self, rows: usize, cols: usize) -> Result<Matrix, LaError> {
        if rows > self.nrows || cols > self.ncols {
            return Err(dim_err(
                "submatrix",
                format!(
                    "requested {}x{} from {}x{}",
                    rows, cols, self.nrows, self.ncols
                ),
            ));
        }
        Ok(Matrix::from_fn(rows, cols, self.layout, |i, j| {
            self.get(i, j)
        }))
    }

    /// Maximum absolute difference with another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64, LaError> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(dim_err(
                "max_abs_diff",
                format!(
                    "{}x{} vs {}x{}",
                    self.nrows, self.ncols, other.nrows, other.ncols
                ),
            ));
        }
        let mut max = 0.0f64;
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                max = max.max((self.get(i, j) - other.get(i, j)).abs());
            }
        }
        Ok(max)
    }
}

/// Rows of the source panel [`transpose_tiles`] copies through at a time: the panel's
/// cache lines (one per row) stay in L1 while each of their eight `f64`s is read.
const TRANSPOSE_TILE: usize = 32;

/// Write the row-major `rows x cols` matrix `src` into `dst` as its row-major
/// `cols x rows` transpose, one [`TRANSPOSE_TILE`]-row panel of `src` at a time:
/// every write is a contiguous run, and every source line is loaded once.
fn transpose_tiles(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for ib in (0..rows).step_by(TRANSPOSE_TILE) {
        let ie = (ib + TRANSPOSE_TILE).min(rows);
        for j in 0..cols {
            let out = &mut dst[j * rows + ib..j * rows + ie];
            for (o, i) in out.iter_mut().zip(ib..ie) {
                *o = src[i * cols + j];
            }
        }
    }
}

/// The modelled cost of a layout conversion or transpose of `elems` elements, which
/// reads and writes every element once: what [`Matrix::to_layout`],
/// [`Matrix::transpose`] and their siblings record.
pub fn copy_cost(elems: usize) -> KernelCost {
    let bytes = KernelCost::f64_bytes(elems as u64);
    KernelCost::new(bytes, bytes, 0, 1)
}

/// A mutable view over a caller-owned dense buffer with matrix shape and layout.
///
/// This is the output type of the buffer-reusing kernels (`gemm_into`, `spmm_into`,
/// `SketchOperator::apply_into`): the caller allocates (and reserves device memory
/// for) the buffer once and reuses it across calls, so the hot path performs no
/// intermediate matrix allocations.
#[derive(Debug)]
pub struct MatrixViewMut<'a> {
    nrows: usize,
    ncols: usize,
    layout: Layout,
    data: &'a mut [f64],
}

impl<'a> MatrixViewMut<'a> {
    /// Wrap a raw buffer as an `nrows x ncols` matrix view in the given layout.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn new(nrows: usize, ncols: usize, layout: Layout, data: &'a mut [f64]) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "buffer length {} does not match {}x{}",
            data.len(),
            nrows,
            ncols
        );
        Self {
            nrows,
            ncols,
            layout,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Storage layout of the viewed buffer.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Flat index of `(i, j)` under the view's layout.
    #[inline(always)]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nrows && j < self.ncols);
        match self.layout {
            Layout::RowMajor => i * self.ncols + j,
            Layout::ColMajor => i + j * self.nrows,
        }
    }

    /// Read element `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[self.idx(i, j)]
    }

    /// Write element `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        let idx = self.idx(i, j);
        self.data[idx] = value;
    }

    /// Add `value` to element `(i, j)`.
    #[inline(always)]
    pub fn add_to(&mut self, i: usize, j: usize, value: f64) {
        let idx = self.idx(i, j);
        self.data[idx] += value;
    }

    /// Overwrite every element with `value` (kernels that scatter-accumulate call
    /// this with `0.0` first, mirroring the zeroing of a fresh output buffer).
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// The underlying storage, immutably.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.data
    }

    /// The underlying storage, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data
    }

    /// Reborrow the view (so it can be passed to helpers without consuming it).
    pub fn reborrow(&mut self) -> MatrixViewMut<'_> {
        MatrixViewMut {
            nrows: self.nrows,
            ncols: self.ncols,
            layout: self.layout,
            data: self.data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn indexing_round_trips_in_both_layouts() {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let mut m = Matrix::zeros_with_layout(3, 4, layout);
            let mut v = 0.0;
            for i in 0..3 {
                for j in 0..4 {
                    m.set(i, j, v);
                    v += 1.0;
                }
            }
            let mut expect = 0.0;
            for i in 0..3 {
                for j in 0..4 {
                    assert_eq!(m.get(i, j), expect);
                    expect += 1.0;
                }
            }
        }
    }

    #[test]
    fn from_rows_matches_explicit_sets() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row_to_vec(1), vec![4.0, 5.0, 6.0]);
        assert_eq!(m.col_to_vec(1), vec![2.0, 5.0]);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let eye = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(eye.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn layout_conversion_preserves_elements_and_records_traffic() {
        let device = Device::h100();
        let m = Matrix::from_fn(5, 7, Layout::RowMajor, |i, j| (i * 10 + j) as f64);
        let c = m.to_layout(&device, Layout::ColMajor);
        assert_eq!(c.layout(), Layout::ColMajor);
        assert_eq!(m.max_abs_diff(&c).unwrap(), 0.0);
        let cost = device.tracker().snapshot();
        assert_eq!(cost.bytes_read, 5 * 7 * 8);
        assert_eq!(cost.bytes_written, 5 * 7 * 8);
    }

    #[test]
    fn to_layout_same_layout_is_free() {
        let device = Device::h100();
        let m = Matrix::identity(3);
        let c = m.to_layout(&device, Layout::ColMajor);
        assert_eq!(m, c);
        assert_eq!(device.tracker().snapshot().total_bytes(), 0);
    }

    #[test]
    fn reinterpret_transposed_is_a_true_transpose_view() {
        let m = Matrix::from_fn(3, 5, Layout::RowMajor, |i, j| (i * 100 + j) as f64);
        let t = m.clone().reinterpret_transposed();
        assert_eq!(t.nrows(), 5);
        assert_eq!(t.ncols(), 3);
        assert_eq!(t.layout(), Layout::ColMajor);
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(t.get(j, i), m.get(i, j));
            }
        }
    }

    #[test]
    fn materialised_transpose_matches_reinterpretation() {
        let device = Device::h100();
        let m = Matrix::from_fn(4, 6, Layout::ColMajor, |i, j| (i as f64) - (j as f64) * 0.5);
        let t1 = m.transpose(&device);
        let t2 = m.clone().reinterpret_transposed();
        // Same logical contents, possibly different layout.
        for i in 0..6 {
            for j in 0..4 {
                assert_eq!(t1.get(i, j), t2.get(i, j));
            }
        }
    }

    #[test]
    fn row_and_col_views_respect_layout() {
        let rm = Matrix::from_fn(2, 3, Layout::RowMajor, |i, j| (i * 3 + j) as f64);
        assert_eq!(rm.row(1).unwrap(), &[3.0, 4.0, 5.0]);
        assert!(rm.col(0).is_none());

        let cm = rm.to_layout(&Device::unlimited(), Layout::ColMajor);
        assert_eq!(cm.col(2).unwrap(), &[2.0, 5.0]);
        assert!(cm.row(0).is_none());
    }

    #[test]
    fn col_mut_writes_through() {
        let mut m = Matrix::zeros(3, 2);
        m.col_mut(1).unwrap().copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(m.get(2, 1), 3.0);
        assert_eq!(m.get(2, 0), 0.0);
    }

    #[test]
    fn submatrix_extracts_leading_block() {
        let m = Matrix::from_fn(4, 4, Layout::ColMajor, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(2, 3).unwrap();
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.ncols(), 3);
        assert_eq!(s.get(1, 2), m.get(1, 2));
        assert!(m.submatrix(5, 1).is_err());
    }

    #[test]
    fn random_gaussian_is_reproducible() {
        let a = Matrix::random_gaussian(10, 10, Layout::ColMajor, 3, 1);
        let b = Matrix::random_gaussian(10, 10, Layout::ColMajor, 3, 1);
        let c = Matrix::random_gaussian(10, 10, Layout::ColMajor, 3, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn size_bytes_counts_doubles() {
        let m = Matrix::zeros(10, 3);
        assert_eq!(m.size_bytes(), 240);
        assert_eq!(m.len(), 30);
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_wrong_length() {
        Matrix::from_vec(2, 2, Layout::ColMajor, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn view_mut_writes_through_in_both_layouts() {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let mut m = Matrix::zeros_with_layout(3, 4, layout);
            {
                let mut v = m.view_mut();
                assert_eq!(v.nrows(), 3);
                assert_eq!(v.ncols(), 4);
                assert_eq!(v.layout(), layout);
                v.set(1, 2, 5.0);
                v.add_to(1, 2, 0.5);
                assert_eq!(v.get(1, 2), 5.5);
            }
            assert_eq!(m.get(1, 2), 5.5);
        }
    }

    #[test]
    fn view_fill_and_reborrow() {
        let mut buf = vec![1.0; 6];
        let mut v = MatrixViewMut::new(2, 3, Layout::RowMajor, &mut buf);
        v.reborrow().fill(0.0);
        assert!(v.as_slice().iter().all(|&x| x == 0.0));
        v.as_mut_slice()[0] = 2.0;
        assert_eq!(v.get(0, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn view_rejects_wrong_buffer_length() {
        let mut buf = vec![0.0; 5];
        MatrixViewMut::new(2, 3, Layout::RowMajor, &mut buf);
    }

    #[test]
    fn transpose_into_matches_transpose_and_rejects_bad_shapes() {
        let device = Device::unlimited();
        let m = Matrix::from_fn(3, 5, Layout::RowMajor, |i, j| (i * 10 + j) as f64);
        let t = m.transpose(&device);
        let mut out = Matrix::zeros_with_layout(5, 3, Layout::ColMajor);
        m.transpose_into(&device, &mut out.view_mut()).unwrap();
        assert_eq!(out.max_abs_diff(&t).unwrap(), 0.0);

        let mut wrong = Matrix::zeros(3, 5);
        assert!(m.transpose_into(&device, &mut wrong.view_mut()).is_err());
    }

    #[test]
    fn add_to_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_to(0, 1, 1.5);
        m.add_to(0, 1, 2.5);
        assert_eq!(m.get(0, 1), 4.0);
    }

    proptest! {
        #[test]
        fn prop_layout_round_trip(nrows in 1usize..20, ncols in 1usize..20, seed in 0u64..1000) {
            let device = Device::unlimited();
            let m = Matrix::random_gaussian(nrows, ncols, Layout::RowMajor, seed, 0);
            let there = m.to_layout(&device, Layout::ColMajor);
            let back = there.to_layout(&device, Layout::RowMajor);
            prop_assert_eq!(m, back);
        }

        #[test]
        fn prop_double_reinterpret_is_identity(nrows in 1usize..16, ncols in 1usize..16, seed in 0u64..1000) {
            let m = Matrix::random_gaussian(nrows, ncols, Layout::ColMajor, seed, 0);
            let twice = m.clone().reinterpret_transposed().reinterpret_transposed();
            prop_assert_eq!(m, twice);
        }

        #[test]
        fn prop_transpose_of_transpose_is_identity(nrows in 1usize..12, ncols in 1usize..12, seed in 0u64..1000) {
            let device = Device::unlimited();
            let m = Matrix::random_gaussian(nrows, ncols, Layout::ColMajor, seed, 0);
            let tt = m.transpose(&device).transpose(&device);
            prop_assert!(m.max_abs_diff(&tt).unwrap() == 0.0);
        }
    }
}
