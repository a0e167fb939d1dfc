//! Construction of test matrices with a prescribed condition number.
//!
//! Figure 8 of the paper sweeps `κ(A)` from 1 to 10²⁰ on a `2¹⁷ x 16` problem and shows
//! that the normal equations collapse beyond `κ ≈ 10⁸` while QR and the sketch-and-solve
//! solvers keep producing accurate solutions.  To run that experiment we need matrices
//! whose condition number we control exactly: `A = Q₁ Σ Q₂ᵀ` with orthonormal `Q₁`,
//! orthogonal `Q₂`, and geometrically decaying singular values from `1` to `1/κ`.

use crate::blas3::gemm_op;
use crate::error::LaError;
use crate::matrix::{Layout, Matrix, Op};
use crate::qr::geqrf_owned;
use sketch_gpu_sim::Device;

/// A random matrix with orthonormal columns, obtained as the thin Q factor of a random
/// Gaussian matrix.
pub fn orthonormal_columns(
    device: &Device,
    nrows: usize,
    ncols: usize,
    seed: u64,
) -> Result<Matrix, LaError> {
    let g = Matrix::random_gaussian(nrows, ncols, Layout::ColMajor, seed, 0);
    Ok(geqrf_owned(device, g)?.into_q_thin(device))
}

/// Geometrically decaying singular values from `1` down to `1/kappa`.
pub fn geometric_singular_values(n: usize, kappa: f64) -> Vec<f64> {
    assert!(kappa >= 1.0, "condition number must be >= 1");
    assert!(n > 0, "need at least one singular value");
    if n == 1 {
        return vec![1.0];
    }
    let ratio = (1.0 / kappa).powf(1.0 / (n as f64 - 1.0));
    (0..n).map(|i| ratio.powi(i as i32)).collect()
}

/// An `m x n` matrix of exact rank `k`, with singular values `k, k−1, …, 1` followed
/// by zeros — the canonical test input for the low-rank approximation routines.
pub fn rank_k_matrix(
    device: &Device,
    m: usize,
    n: usize,
    k: usize,
    seed: u64,
) -> Result<Matrix, LaError> {
    assert!(k <= n, "rank {k} exceeds the column count {n}");
    let mut sigma = vec![0.0; n];
    for (i, s) in sigma.iter_mut().take(k).enumerate() {
        *s = (k - i) as f64;
    }
    matrix_with_singular_values(device, m, n, &sigma, seed)
}

/// Build an `m x n` matrix with exactly the given singular values (up to roundoff):
/// `A = Q₁ diag(σ) Q₂ᵀ`.
pub fn matrix_with_singular_values(
    device: &Device,
    m: usize,
    n: usize,
    sigma: &[f64],
    seed: u64,
) -> Result<Matrix, LaError> {
    assert_eq!(sigma.len(), n, "need one singular value per column");
    let q1 = orthonormal_columns(device, m, n, seed)?;
    let q2 = orthonormal_columns(device, n, n, seed ^ 0x9E37_79B9_7F4A_7C15)?;

    // Scale the columns of Q1 by the singular values, then multiply by Q2ᵀ.
    let mut scaled = q1;
    for (j, &s) in sigma.iter().enumerate() {
        for v in scaled.col_mut(j).expect("col-major").iter_mut() {
            *v *= s;
        }
    }
    gemm_op(device, 1.0, Op::NoTrans, &scaled, Op::Trans, &q2, 0.0, None)
}

/// Build an `m x n` matrix with condition number `kappa` (geometric singular value decay).
pub fn matrix_with_cond(
    device: &Device,
    m: usize,
    n: usize,
    kappa: f64,
    seed: u64,
) -> Result<Matrix, LaError> {
    let sigma = geometric_singular_values(n, kappa);
    matrix_with_singular_values(device, m, n, &sigma, seed)
}

/// Estimate the largest singular value of `A` by power iteration on `AᵀA`.
pub fn power_sigma_max(device: &Device, a: &Matrix, iterations: usize, seed: u64) -> f64 {
    use crate::blas1::nrm2_unrecorded;
    use crate::blas2::gemv;

    let n = a.ncols();
    if n == 0 || a.nrows() == 0 {
        return 0.0;
    }
    let mut v = sketch_rng::fill::gaussian_vec(seed, 0, n);
    let norm = nrm2_unrecorded(&v);
    if norm == 0.0 {
        return 0.0;
    }
    for vi in v.iter_mut() {
        *vi /= norm;
    }
    let mut sigma = 0.0;
    for _ in 0..iterations {
        let av = gemv(device, 1.0, Op::NoTrans, a, &v, 0.0, None).expect("shape checked");
        let atav = gemv(device, 1.0, Op::Trans, a, &av, 0.0, None).expect("shape checked");
        let norm = nrm2_unrecorded(&atav);
        if norm == 0.0 {
            return 0.0;
        }
        sigma = nrm2_unrecorded(&av);
        v = atav;
        for vi in v.iter_mut() {
            *vi /= norm;
        }
    }
    sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas2::gemv;
    use crate::norms::vec_norm2;
    use proptest::prelude::*;

    fn device() -> Device {
        Device::unlimited()
    }

    #[test]
    fn geometric_values_span_kappa() {
        let s = geometric_singular_values(5, 1e4);
        assert!((s[0] - 1.0).abs() < 1e-15);
        assert!((s[4] - 1e-4).abs() < 1e-12);
        for w in s.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert_eq!(geometric_singular_values(1, 10.0), vec![1.0]);
        let flat = geometric_singular_values(4, 1.0);
        assert!(flat.iter().all(|&x| (x - 1.0).abs() < 1e-15));
    }

    #[test]
    #[should_panic(expected = "condition number must be >= 1")]
    fn kappa_below_one_is_rejected() {
        geometric_singular_values(3, 0.5);
    }

    #[test]
    fn orthonormal_columns_are_orthonormal() {
        let d = device();
        let q = orthonormal_columns(&d, 30, 6, 1).unwrap();
        let qtq = gemm_op(&d, 1.0, Op::Trans, &q, Op::NoTrans, &q, 0.0, None).unwrap();
        assert!(qtq.max_abs_diff(&Matrix::identity(6)).unwrap() < 1e-10);
    }

    #[test]
    fn constructed_matrix_maps_right_singular_vectors_to_scaled_left_vectors() {
        let d = device();
        let sigma = vec![1.0, 0.5, 0.01];
        let a = matrix_with_singular_values(&d, 40, 3, &sigma, 7).unwrap();
        // The singular values of A are exactly sigma: check ||A|| via power iteration.
        let est = power_sigma_max(&d, &a, 50, 3);
        assert!((est - 1.0).abs() < 1e-6, "sigma_max estimate {est}");
    }

    #[test]
    fn matrix_with_cond_is_well_scaled() {
        let d = device();
        let a = matrix_with_cond(&d, 64, 8, 1e6, 3).unwrap();
        assert_eq!(a.nrows(), 64);
        assert_eq!(a.ncols(), 8);
        let smax = power_sigma_max(&d, &a, 60, 11);
        assert!((smax - 1.0).abs() < 1e-4, "largest singular value {smax}");
        // The smallest singular value must make some direction nearly invisible:
        // min over unit basis images is an upper bound on sigma_min * sqrt factor.
        let mut min_image = f64::INFINITY;
        for j in 0..8 {
            let mut e = vec![0.0; 8];
            e[j] = 1.0;
            let img = gemv(&d, 1.0, Op::NoTrans, &a, &e, 0.0, None).unwrap();
            min_image = min_image.min(vec_norm2(&img));
        }
        assert!(min_image < 1e-1);
    }

    #[test]
    fn power_iteration_on_identity_returns_one() {
        let d = device();
        let est = power_sigma_max(&d, &Matrix::identity(6), 20, 5);
        assert!((est - 1.0).abs() < 1e-10);
    }

    #[test]
    fn power_iteration_handles_zero_matrix() {
        let d = device();
        assert_eq!(power_sigma_max(&d, &Matrix::zeros(5, 3), 10, 1), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_condition_number_is_realised(kappa_exp in 0u32..8, seed in 0u64..100) {
            let d = device();
            let kappa = 10f64.powi(kappa_exp as i32);
            let n = 4;
            let a = matrix_with_cond(&d, 32, n, kappa, seed).unwrap();
            // sigma_max should be ~1 regardless of kappa.
            let smax = power_sigma_max(&d, &a, 80, seed + 1);
            prop_assert!((smax - 1.0).abs() < 1e-3);
        }
    }
}
