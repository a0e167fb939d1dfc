//! The [`MatVecLike`] abstraction: one operand interface for dense and sparse inputs.
//!
//! The entire low-rank pipeline only ever touches the input matrix through two
//! products — `A·B` (sketching the range) and `Aᵀ·B` (projecting back / power
//! iteration) — and both are provided by the workspace-wide
//! [`sketch_core::Operand`] view.  `MatVecLike` is therefore a thin adapter: a type
//! says how to view itself as an `Operand` and inherits the shared dense/CSR
//! product implementations (dense routes through `sketch-la` GEMM, CSR through
//! `sketch-sparse`: SpMM for `A·B`, and for `Aᵀ·B` the transpose-free
//! `spmm_transpose`, which streams `A` without building `Aᵀ`), instead of each
//! operand re-implementing the split.  So a CSR operand needs no wrapper: the
//! repeated `Aᵀ·B` products of power iteration never build a transpose to cache.

use crate::error::LowRankError;
use sketch_core::Operand;
use sketch_gpu_sim::Device;
use sketch_la::Matrix;
use sketch_sparse::CsrMatrix;

/// An operand the low-rank routines can multiply by a thin dense matrix from the
/// right, both as itself and transposed.
///
/// Implementors only provide [`as_operand`](Self::as_operand); the products come
/// from the shared [`Operand`] implementation.
pub trait MatVecLike {
    /// View this operand as the shared dense/CSR [`Operand`].
    fn as_operand(&self) -> Operand<'_>;

    /// Number of rows of the operand.
    fn nrows(&self) -> usize {
        self.as_operand().nrows()
    }

    /// Number of columns of the operand.
    fn ncols(&self) -> usize {
        self.as_operand().ncols()
    }

    /// Compute `A · B` with `B` dense `ncols x p`; the result is `nrows x p`.
    fn mul_right(&self, device: &Device, b: &Matrix) -> Result<Matrix, LowRankError> {
        self.as_operand().mul_right(device, b)
    }

    /// Compute `Aᵀ · B` with `B` dense `nrows x p`; the result is `ncols x p`.
    fn mul_transpose_right(&self, device: &Device, b: &Matrix) -> Result<Matrix, LowRankError> {
        self.as_operand().mul_transpose_right(device, b)
    }
}

impl MatVecLike for Matrix {
    fn as_operand(&self) -> Operand<'_> {
        Operand::Dense(self)
    }
}

impl MatVecLike for CsrMatrix {
    fn as_operand(&self) -> Operand<'_> {
        Operand::Csr(self)
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
    fn sparse_products_match_dense_products() {
        let d = device();
        let s = sample_csr();
        let a = dense_of(&s);
        let b = Matrix::random_gaussian(3, 2, Layout::ColMajor, 1, 0);
        let bt = Matrix::random_gaussian(4, 2, Layout::ColMajor, 1, 1);

        let sparse = MatVecLike::mul_right(&s, &d, &b).unwrap();
        let dense = MatVecLike::mul_right(&a, &d, &b).unwrap();
        assert!(sparse.max_abs_diff(&dense).unwrap() < 1e-14);

        let sparse_t = s.mul_transpose_right(&d, &bt).unwrap();
        let dense_t = a.mul_transpose_right(&d, &bt).unwrap();
        assert!(sparse_t.max_abs_diff(&dense_t).unwrap() < 1e-14);
    }

    #[test]
    fn dimension_mismatches_are_errors_not_panics() {
        let d = device();
        let s = sample_csr();
        let wrong = Matrix::zeros(5, 2);
        assert!(MatVecLike::mul_right(&s, &d, &wrong).is_err());
        assert!(s.mul_transpose_right(&d, &wrong).is_err());
        let a = Matrix::zeros(4, 3);
        assert!(MatVecLike::mul_right(&a, &d, &wrong).is_err());
    }

    #[test]
    fn trait_reports_dimensions() {
        let s = sample_csr();
        assert_eq!(MatVecLike::nrows(&s), 4);
        assert_eq!(MatVecLike::ncols(&s), 3);
        let a = Matrix::zeros(7, 2);
        assert_eq!(MatVecLike::nrows(&a), 7);
        assert_eq!(MatVecLike::ncols(&a), 2);
        assert!(matches!(a.as_operand(), Operand::Dense(_)));
        assert!(matches!(s.as_operand(), Operand::Csr(_)));
    }
}
