//! Empirical subspace-embedding checks (Definitions 1.1 and 1.2).
//!
//! The guarantees the paper relies on — `√(1-ε)‖b - Ax‖ ≤ ‖S(b - Ax)‖ ≤ √(1+ε)‖b - Ax‖`
//! and the `O(1)` distortion of the sketch-and-solve residual — all flow from the sketch
//! being an ε-subspace embedding.  This module measures those distortions empirically so
//! the integration tests and the accuracy experiments (Figures 6–8) can verify that each
//! operator actually embeds the subspaces it is given.

use crate::error::SketchError;
use crate::traits::SketchOperator;
use sketch_gpu_sim::Device;
use sketch_la::blas1::dot_unrecorded;
use sketch_la::norms::vec_norm2;
use sketch_la::{blas3, Matrix, Op};

/// Maximum relative norm distortion `max_i |‖S x_i‖² / ‖x_i‖² − 1|` over a set of
/// vectors given as the columns of `vectors`.
pub fn max_norm_distortion<S: SketchOperator + ?Sized>(
    device: &Device,
    sketch: &S,
    vectors: &Matrix,
) -> Result<f64, SketchError> {
    let sketched = sketch.apply_matrix(device, vectors)?;
    let mut worst = 0.0f64;
    for j in 0..vectors.ncols() {
        let x = vectors.col_to_vec(j);
        let sx = sketched.col_to_vec(j);
        let nx = vec_norm2(&x);
        if nx == 0.0 {
            continue;
        }
        let ratio = (vec_norm2(&sx) / nx).powi(2);
        worst = worst.max((ratio - 1.0).abs());
    }
    Ok(worst)
}

/// Maximum inner-product distortion `|⟨Sx, Sy⟩ − ⟨x, y⟩| / (‖x‖‖y‖)` over all column
/// pairs of `vectors` — the quantity bounded by Definition 1.1.
pub fn max_inner_product_distortion<S: SketchOperator + ?Sized>(
    device: &Device,
    sketch: &S,
    vectors: &Matrix,
) -> Result<f64, SketchError> {
    let sketched = sketch.apply_matrix(device, vectors)?;
    let n = vectors.ncols();
    let mut worst = 0.0f64;
    for i in 0..n {
        let xi = vectors.col_to_vec(i);
        let si = sketched.col_to_vec(i);
        let ni = vec_norm2(&xi);
        if ni == 0.0 {
            continue;
        }
        for j in i..n {
            let xj = vectors.col_to_vec(j);
            let sj = sketched.col_to_vec(j);
            let nj = vec_norm2(&xj);
            if nj == 0.0 {
                continue;
            }
            let exact = dot_unrecorded(&xi, &xj);
            let approx = dot_unrecorded(&si, &sj);
            worst = worst.max((approx - exact).abs() / (ni * nj));
        }
    }
    Ok(worst)
}

/// Subspace embedding distortion of a basis: `‖(SV)ᵀ(SV) − VᵀV‖_F / ‖VᵀV‖_F`.
///
/// When the columns of `basis` are orthonormal this is exactly the Frobenius-norm
/// deviation of the sketched Gram matrix from the identity, a standard proxy for the
/// embedding constant ε of Definition 1.2.
pub fn subspace_embedding_distortion<S: SketchOperator + ?Sized>(
    device: &Device,
    sketch: &S,
    basis: &Matrix,
) -> Result<f64, SketchError> {
    let sv = sketch.apply_matrix(device, basis)?;
    let gram_sketched = blas3::gemm_op(device, 1.0, Op::Trans, &sv, Op::NoTrans, &sv, 0.0, None)?;
    let gram_exact = blas3::gemm_op(device, 1.0, Op::Trans, basis, Op::NoTrans, basis, 0.0, None)?;

    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for i in 0..gram_exact.nrows() {
        for j in 0..gram_exact.ncols() {
            num += (gram_sketched.get(i, j) - gram_exact.get(i, j)).powi(2);
            den += gram_exact.get(i, j).powi(2);
        }
    }
    if den == 0.0 {
        return Ok(num.sqrt());
    }
    Ok((num / den).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::countsketch::CountSketch;
    use crate::gaussian::GaussianSketch;
    use crate::srht::Srht;
    use crate::{EmbeddingDim, Pipeline};
    use sketch_la::cond::orthonormal_columns;
    use sketch_la::Layout;

    fn device() -> Device {
        Device::unlimited()
    }

    #[test]
    fn gaussian_sketch_embeds_a_small_subspace() {
        let d = device();
        let dim = 2048;
        let n = 4;
        let basis = orthonormal_columns(&d, dim, n, 1).unwrap();
        let g = GaussianSketch::generate(&d, dim, 32 * n, 2).unwrap();
        let eps = subspace_embedding_distortion(&d, &g, &basis).unwrap();
        assert!(eps < 0.6, "distortion {eps}");
    }

    #[test]
    fn countsketch_embeds_with_k_proportional_to_n_squared() {
        let d = device();
        let dim = 4096;
        let n = 4;
        let basis = orthonormal_columns(&d, dim, n, 3).unwrap();
        let cs = CountSketch::generate(&d, dim, 8 * n * n, 4).unwrap();
        let eps = subspace_embedding_distortion(&d, &cs, &basis).unwrap();
        assert!(eps < 0.7, "distortion {eps}");
    }

    #[test]
    fn srht_embeds_a_small_subspace() {
        let d = device();
        let dim = 2048;
        let n = 4;
        let basis = orthonormal_columns(&d, dim, n, 5).unwrap();
        let s = Srht::generate(&d, dim, 64 * n, 6).unwrap();
        let eps = subspace_embedding_distortion(&d, &s, &basis).unwrap();
        assert!(eps < 0.6, "distortion {eps}");
    }

    #[test]
    fn multisketch_embeds_a_small_subspace() {
        let d = device();
        let dim = 4096;
        let n = 4;
        let basis = orthonormal_columns(&d, dim, n, 7).unwrap();
        let ms = Pipeline::count_gauss(dim, EmbeddingDim::Square(16), EmbeddingDim::Ratio(16), 8)
            .build_for(&d, n)
            .unwrap();
        let eps = subspace_embedding_distortion(&d, ms.as_ref(), &basis).unwrap();
        assert!(eps < 0.8, "distortion {eps}");
    }

    #[test]
    fn norm_and_inner_product_distortions_are_bounded_for_gaussian() {
        let d = device();
        let dim = 1024;
        let vectors = Matrix::random_gaussian(dim, 5, Layout::ColMajor, 9, 0);
        let g = GaussianSketch::generate(&d, dim, 256, 10).unwrap();
        let nd = max_norm_distortion(&d, &g, &vectors).unwrap();
        let ipd = max_inner_product_distortion(&d, &g, &vectors).unwrap();
        assert!(nd < 0.8, "norm distortion {nd}");
        assert!(ipd < 0.8, "inner product distortion {ipd}");
    }

    #[test]
    fn zero_vectors_are_ignored_gracefully() {
        let d = device();
        let dim = 256;
        let vectors = Matrix::zeros(dim, 3);
        let cs = CountSketch::generate(&d, dim, 64, 1).unwrap();
        assert_eq!(max_norm_distortion(&d, &cs, &vectors).unwrap(), 0.0);
        assert_eq!(
            max_inner_product_distortion(&d, &cs, &vectors).unwrap(),
            0.0
        );
        let eps = subspace_embedding_distortion(&d, &cs, &vectors).unwrap();
        assert_eq!(eps, 0.0);
    }

    #[test]
    fn distortion_shrinks_as_k_grows() {
        let d = device();
        let dim = 4096;
        let n = 3;
        let basis = orthonormal_columns(&d, dim, n, 11).unwrap();
        let small = CountSketch::generate(&d, dim, 4 * n * n, 12).unwrap();
        let large = CountSketch::generate(&d, dim, 64 * n * n, 12).unwrap();
        let eps_small = subspace_embedding_distortion(&d, &small, &basis).unwrap();
        let eps_large = subspace_embedding_distortion(&d, &large, &basis).unwrap();
        assert!(
            eps_large < eps_small + 0.05,
            "eps_small {eps_small}, eps_large {eps_large}"
        );
    }
}
