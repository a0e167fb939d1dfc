//! Sparse kernels: SpMV and SpMM with device cost accounting.
//!
//! The SpMM here is the *baseline* the paper measures against its dedicated CountSketch
//! kernel.  Its cost model charges the "gather penalty" that a generic row-parallel
//! SpMM pays when it pulls rows of the dense operand through uncoalesced accesses: a
//! CountSketch's sparsity pattern is uniformly random, so consecutive non-zeros of an
//! output row touch unrelated rows of `A`, and the achieved bandwidth collapses to the
//! ~20 % of peak the paper reports in Figure 3.

use crate::csr::CsrMatrix;
use rayon::prelude::*;
use sketch_gpu_sim::{Device, KernelCost};
use sketch_la::{Layout, Matrix, MatrixViewMut};

/// Multiplier applied to the dense-operand read traffic of [`spmm`] to model the
/// uncoalesced (gather) access pattern of a random sparsity structure.
///
/// Calibration: with this factor the generic SpMM lands at roughly 20 % of peak memory
/// throughput when measured against its useful (Table 1) traffic, which is where the
/// paper's Figure 3 places the cuSPARSE CountSketch baseline.
pub const SPMM_GATHER_PENALTY: u64 = 8;

/// Sparse matrix-vector product `y = S x`.
///
/// # Panics
/// Panics if `x.len() != s.ncols()`.
pub fn spmv(device: &Device, s: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), s.ncols(), "spmv: x length must equal ncols");
    let mut y = vec![0.0; s.nrows()];
    y.par_iter_mut().enumerate().for_each(|(i, yi)| {
        let mut acc = 0.0;
        for (j, v) in s.row(i) {
            acc += v * x[j];
        }
        *yi = acc;
    });

    let nnz = s.nnz() as u64;
    let idx_bytes = (std::mem::size_of::<usize>() as u64) * (nnz + s.nrows() as u64 + 1);
    device.record(KernelCost::new(
        KernelCost::f64_bytes(nnz) + idx_bytes + KernelCost::f64_bytes(nnz) * SPMM_GATHER_PENALTY,
        KernelCost::f64_bytes(s.nrows() as u64),
        2 * nnz,
        1,
    ));
    y
}

/// Sparse matrix times dense matrix: `Y = S A`, with `A` dense `ncols x n`.
///
/// The result is a dense row-major `s.nrows() x n` matrix.  This is the cuSPARSE
/// SpMM baseline of the paper's Figures 2–4, as a thin allocating wrapper over
/// [`spmm_into`].
///
/// # Panics
/// Panics if `a.nrows() != s.ncols()`.
pub fn spmm(device: &Device, s: &CsrMatrix, a: &Matrix) -> Matrix {
    let mut y = Matrix::zeros_with_layout(s.nrows(), a.ncols(), Layout::RowMajor);
    spmm_into(device, s, a, &mut y.view_mut());
    y
}

/// Buffer-reusing SpMM: `out <- S A`, written into a caller-owned buffer.
///
/// The row-major fast path is bit-for-bit identical to [`spmm`]; a column-major
/// output buffer is also accepted (same values, element-indexed writes).
///
/// # Panics
/// Panics if `a.nrows() != s.ncols()` or `out` is not `s.nrows() x a.ncols()`.
pub fn spmm_into(device: &Device, s: &CsrMatrix, a: &Matrix, out: &mut MatrixViewMut<'_>) {
    assert_eq!(a.nrows(), s.ncols(), "spmm: A must have {} rows", s.ncols());
    let n = a.ncols();
    let k = s.nrows();
    assert_eq!(
        (out.nrows(), out.ncols()),
        (k, n),
        "spmm: output buffer must be {k}x{n}"
    );

    // Pack the dense operand so its rows are contiguous (the same packing `blas3`
    // applies before its dot-product loops): every non-zero then pulls one contiguous
    // slice instead of `n` strided loads when `A` arrives column-major.
    let packed_storage;
    let packed: &[f64] = match a.layout() {
        Layout::RowMajor => a.as_slice(),
        Layout::ColMajor => {
            let mut buf = vec![0.0; a.nrows() * n];
            buf.par_chunks_mut(n.max(1))
                .enumerate()
                .for_each(|(i, row)| {
                    for (c, slot) in row.iter_mut().enumerate() {
                        *slot = a.get(i, c);
                    }
                });
            packed_storage = buf;
            &packed_storage
        }
    };

    // Row-parallel SpMM (each task owns one output row), mirroring the natural CUDA
    // mapping of one warp per output row.  The accumulation order per output row
    // (non-zeros outer, columns inner) is identical to the sequential reference, so
    // results are bit-for-bit reproducible.
    out.fill(0.0);
    match out.layout() {
        Layout::RowMajor => {
            out.as_mut_slice()
                .par_chunks_mut(n.max(1))
                .enumerate()
                .for_each(|(i, out_row)| {
                    for (j, v) in s.row(i) {
                        let arow = &packed[j * n..j * n + n];
                        for (slot, aj) in out_row.iter_mut().zip(arow.iter()) {
                            *slot += v * aj;
                        }
                    }
                });
        }
        Layout::ColMajor => {
            // Same per-element accumulation order, element-indexed writes.
            for i in 0..k {
                for (j, v) in s.row(i) {
                    let arow = &packed[j * n..j * n + n];
                    for (c, aj) in arow.iter().enumerate() {
                        out.add_to(i, c, v * aj);
                    }
                }
            }
        }
    }

    device.record(spmm_cost(k, s.nnz(), n));
}

/// The modelled cost of `S A` for a `k`-row `S` with `nnz` stored entries and an
/// `n`-column `A`: every non-zero pulls a full dense row of `A` through a gather;
/// the output is written once (and re-read for accumulation when rows collide,
/// which the penalty term absorbs).
pub fn spmm_cost(k: usize, nnz: usize, n: usize) -> KernelCost {
    let (k, nnz, n) = (k as u64, nnz as u64, n as u64);
    let idx_bytes = (std::mem::size_of::<usize>() as u64) * (nnz + k + 1);
    KernelCost::new(
        KernelCost::f64_bytes(nnz)
            + idx_bytes
            + KernelCost::f64_bytes(nnz * n) * SPMM_GATHER_PENALTY,
        KernelCost::f64_bytes(k * n),
        2 * nnz * n,
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn device() -> Device {
        Device::unlimited()
    }

    fn sample_csr() -> CsrMatrix {
        // [ 2 0 1 ]
        // [ 0 0 0 ]
        // [ 0 3 0 ]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(0, 2, 1.0);
        coo.push(2, 1, 3.0);
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn spmv_matches_dense_product() {
        let d = device();
        let s = sample_csr();
        let y = spmv(&d, &s, &[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![5.0, 0.0, 6.0]);
    }

    #[test]
    fn spmv_empty_matrix_gives_zero_vector() {
        let d = device();
        let s = CsrMatrix::from_coo(&CooMatrix::new(4, 2));
        assert_eq!(spmv(&d, &s, &[1.0, 1.0]), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn spmv_rejects_wrong_length() {
        let d = device();
        let s = sample_csr();
        spmv(&d, &s, &[1.0, 2.0]);
    }

    #[test]
    fn spmm_matches_column_by_column_spmv() {
        let d = device();
        let s = sample_csr();
        let a = Matrix::from_rows(&[&[1.0, 0.5], &[-1.0, 2.0], &[0.0, 1.0]]);
        let y = spmm(&d, &s, &a);
        for c in 0..2 {
            let col: Vec<f64> = a.col_to_vec(c);
            let expect = spmv(&d, &s, &col);
            for i in 0..3 {
                assert!((y.get(i, c) - expect[i]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn spmm_output_is_row_major() {
        let d = device();
        let s = sample_csr();
        let a = Matrix::identity(3);
        let y = spmm(&d, &s, &a);
        assert_eq!(y.layout(), Layout::RowMajor);
        assert_eq!(y.to_dense_rows(), s.to_dense());
    }

    #[test]
    fn spmm_records_gather_penalty_traffic() {
        let d = device();
        let s = sample_csr();
        let a = Matrix::identity(3);
        let _ = spmm(&d, &s, &a);
        let cost = d.tracker().snapshot();
        // Dense reads must include the gather penalty factor.
        let nnz = s.nnz() as u64;
        assert!(cost.bytes_read >= 8 * nnz * 3 * SPMM_GATHER_PENALTY);
        assert_eq!(cost.flops, 2 * nnz * 3);
    }

    #[test]
    fn spmm_is_bit_identical_to_sequential_reference_in_both_layouts() {
        let d = device();
        let mut coo = CooMatrix::new(6, 5);
        // A denser pattern with repeated target rows exercises the accumulation order.
        for (i, j, v) in [
            (0, 0, 0.3),
            (0, 4, -1.2),
            (1, 2, 2.0),
            (2, 1, 0.7),
            (2, 3, 1e-3),
            (2, 4, -7.5),
            (4, 0, 1.1),
            (4, 1, 0.9),
            (5, 3, 4.0),
        ] {
            coo.push(i, j, v);
        }
        let s = CsrMatrix::from_coo(&coo);
        let a_rm = Matrix::from_fn(5, 3, Layout::RowMajor, |i, j| ((i * 7 + j) as f64).sin());
        let a_cm = a_rm.to_layout(&d, Layout::ColMajor);

        // Sequential reference with the documented accumulation order.
        let mut reference = Matrix::zeros_with_layout(6, 3, Layout::RowMajor);
        for i in 0..6 {
            for (j, v) in s.row(i) {
                for c in 0..3 {
                    let acc = reference.get(i, c) + v * a_rm.get(j, c);
                    reference.set(i, c, acc);
                }
            }
        }

        let y_rm = spmm(&d, &s, &a_rm);
        let y_cm = spmm(&d, &s, &a_cm);
        assert_eq!(y_rm.as_slice(), reference.as_slice());
        assert_eq!(y_cm.as_slice(), reference.as_slice());
    }

    #[test]
    fn spmm_into_reused_buffer_is_bit_identical_to_spmm() {
        let d = device();
        let s = sample_csr();
        let a = Matrix::from_rows(&[&[1.0, 0.5], &[-1.0, 2.0], &[0.0, 1.0]]);
        let reference = spmm(&d, &s, &a);
        let mut out = Matrix::from_fn(3, 2, Layout::RowMajor, |_, _| f64::NAN);
        spmm_into(&d, &s, &a, &mut out.view_mut());
        assert_eq!(out.as_slice(), reference.as_slice());

        // Column-major output buffers hold the same values.
        let mut out_cm = Matrix::from_fn(3, 2, Layout::ColMajor, |_, _| f64::NAN);
        spmm_into(&d, &s, &a, &mut out_cm.view_mut());
        assert_eq!(out_cm.max_abs_diff(&reference).unwrap(), 0.0);
    }

    #[test]
    #[should_panic(expected = "output buffer must be")]
    fn spmm_into_rejects_wrong_output_shape() {
        let d = device();
        let s = sample_csr();
        let a = Matrix::identity(3);
        let mut out = Matrix::zeros(2, 2);
        spmm_into(&d, &s, &a, &mut out.view_mut());
    }

    #[test]
    #[should_panic(expected = "A must have")]
    fn spmm_rejects_mismatched_shapes() {
        let d = device();
        let s = sample_csr();
        spmm(&d, &s, &Matrix::identity(2));
    }

    /// Helper used by the layout test above.
    trait DenseRows {
        fn to_dense_rows(&self) -> Vec<Vec<f64>>;
    }

    impl DenseRows for Matrix {
        fn to_dense_rows(&self) -> Vec<Vec<f64>> {
            (0..self.nrows()).map(|i| self.row_to_vec(i)).collect()
        }
    }
}
