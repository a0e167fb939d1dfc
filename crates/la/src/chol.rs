//! Cholesky factorisation (POTRF), the backbone of the normal equations solver.
//!
//! The paper solves the normal equations by forming the Gram matrix `G = AᵀA`, running
//! cuSOLVER's `POTRF`, and back-substituting (Section 6.1/6.3).  The same factorisation
//! appears inside rand_cholQR (Algorithm 4, step 5).  The factorisation fails — exactly
//! as it should — when `κ(A)` exceeds `u^{-1/2}` and the Gram matrix loses numerical
//! positive definiteness, which is the mechanism behind the normal-equation failures in
//! Figure 8.

use crate::error::{dim_err, LaError};
use crate::matrix::{Layout, Matrix};
use sketch_gpu_sim::{Device, KernelCost};

/// Compute the upper triangular Cholesky factor `R` with `G = Rᵀ R`.
///
/// Only the upper triangle of `g` is read; `g` must be square and symmetric positive
/// definite (to working precision), otherwise [`LaError::NotPositiveDefinite`] is
/// returned with the offending pivot.
pub fn potrf_upper(device: &Device, g: &Matrix) -> Result<Matrix, LaError> {
    let n = g.nrows();
    if g.ncols() != n {
        return Err(dim_err(
            "potrf",
            format!("G is {}x{}", g.nrows(), g.ncols()),
        ));
    }

    let mut r = Matrix::zeros_with_layout(n, n, Layout::ColMajor);
    for j in 0..n {
        // Diagonal entry.
        let mut diag = g.get(j, j);
        for k in 0..j {
            let rkj = r.get(k, j);
            diag -= rkj * rkj;
        }
        if diag <= 0.0 || !diag.is_finite() {
            return Err(LaError::NotPositiveDefinite {
                column: j,
                pivot: diag,
            });
        }
        let rjj = diag.sqrt();
        r.set(j, j, rjj);

        // Off-diagonal entries of row j (columns j+1..n of the upper factor).
        for i in j + 1..n {
            let mut val = g.get(j, i);
            for k in 0..j {
                val -= r.get(k, j) * r.get(k, i);
            }
            r.set(j, i, val / rjj);
        }
    }

    device.record(potrf_cost(n));
    Ok(r)
}

/// The modelled cost of the Cholesky factorisation of an `n x n` Gram matrix (the
/// matrix read once, the upper factor written once, `n³/3 + 2n²` flops): what
/// [`potrf_upper`] records.
pub fn potrf_cost(n: usize) -> KernelCost {
    let n = n as u64;
    KernelCost::new(
        KernelCost::f64_bytes(n * n),
        KernelCost::f64_bytes(n * (n + 1) / 2),
        n * n * n / 3 + 2 * n * n,
        1,
    )
}

/// Lower triangular Cholesky factor `L` with `G = L Lᵀ` (transpose of [`potrf_upper`]).
pub fn potrf_lower(device: &Device, g: &Matrix) -> Result<Matrix, LaError> {
    let r = potrf_upper(device, g)?;
    Ok(r.transpose(device))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{gemm_op, gram_gemm};
    use crate::matrix::Op;
    use proptest::prelude::*;

    fn device() -> Device {
        Device::unlimited()
    }

    fn spd_matrix(n: usize, seed: u64) -> Matrix {
        // AᵀA + n*I is safely positive definite.
        let d = device();
        let a = Matrix::random_gaussian(2 * n, n, Layout::ColMajor, seed, 0);
        let mut g = gram_gemm(&d, &a).unwrap();
        for i in 0..n {
            g.add_to(i, i, n as f64);
        }
        g
    }

    #[test]
    fn cholesky_reconstructs_spd_matrix() {
        let d = device();
        let g = spd_matrix(8, 1);
        let r = potrf_upper(&d, &g).unwrap();
        let rtr = gemm_op(&d, 1.0, Op::Trans, &r, Op::NoTrans, &r, 0.0, None).unwrap();
        assert!(rtr.max_abs_diff(&g).unwrap() < 1e-9);
    }

    #[test]
    fn cholesky_factor_is_upper_triangular_with_positive_diagonal() {
        let d = device();
        let g = spd_matrix(6, 2);
        let r = potrf_upper(&d, &g).unwrap();
        for i in 0..6 {
            assert!(r.get(i, i) > 0.0);
            for j in 0..i {
                assert_eq!(r.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn lower_factor_is_transpose_of_upper() {
        let d = device();
        let g = spd_matrix(5, 3);
        let r = potrf_upper(&d, &g).unwrap();
        let l = potrf_lower(&d, &g).unwrap();
        assert!(l.max_abs_diff(&r.transpose(&d)).unwrap() < 1e-14);
    }

    #[test]
    fn identity_factors_to_identity() {
        let d = device();
        let r = potrf_upper(&d, &Matrix::identity(4)).unwrap();
        assert!(r.max_abs_diff(&Matrix::identity(4)).unwrap() < 1e-15);
    }

    #[test]
    fn indefinite_matrix_is_rejected_with_pivot_information() {
        let d = device();
        let g = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        let err = potrf_upper(&d, &g).unwrap_err();
        match err {
            LaError::NotPositiveDefinite { column, pivot } => {
                assert_eq!(column, 1);
                assert!(pivot <= 0.0);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn zero_matrix_is_rejected_at_first_column() {
        let d = device();
        let err = potrf_upper(&d, &Matrix::zeros(3, 3)).unwrap_err();
        assert!(matches!(
            err,
            LaError::NotPositiveDefinite { column: 0, .. }
        ));
    }

    #[test]
    fn non_square_input_is_rejected() {
        let d = device();
        assert!(potrf_upper(&d, &Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn records_cubic_flop_count() {
        let d = device();
        let g = spd_matrix(10, 4);
        d.tracker().reset();
        let _ = potrf_upper(&d, &g).unwrap();
        let flops = d.tracker().snapshot().flops;
        assert!(flops >= 1000 / 3);
        assert!(flops < 10_000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_cholesky_round_trip(n in 1usize..10, seed in 0u64..200) {
            let d = device();
            let g = spd_matrix(n, seed);
            let r = potrf_upper(&d, &g).unwrap();
            let rtr = gemm_op(&d, 1.0, Op::Trans, &r, Op::NoTrans, &r, 0.0, None).unwrap();
            prop_assert!(rtr.max_abs_diff(&g).unwrap() < 1e-8 * (n as f64));
        }
    }
}
