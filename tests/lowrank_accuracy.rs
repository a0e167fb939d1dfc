//! Integration tests for the `sketch-lowrank` subsystem, pinning the acceptance
//! criteria of the low-rank PR:
//!
//! 1. `rsvd` recovers an exactly rank-k matrix to ≤ 1e-8 Frobenius relative error,
//! 2. the rangefinder obeys an HMT-style spectral bound `‖A − QQᵀA‖₂ ≤ C·σ_{k+1}`,
//! 3. the single-pass streaming SVD reads each row block exactly once (asserted via
//!    the counting wrapper),
//! 4. Nyström matches RSVD within its PSD error bound on a random Gram matrix,
//! 5. every path (dense, sparse, streaming) is bit-for-bit seed-deterministic.

use gpu_countsketch::la::blas3::{gemm, gemm_op, gram_gemm};
use gpu_countsketch::la::cond::{geometric_singular_values, matrix_with_singular_values};
use gpu_countsketch::la::norms::frobenius_rel_diff;
use gpu_countsketch::la::{jacobi_svd, SmallSvd};
use gpu_countsketch::lowrank::SvdResult;
use gpu_countsketch::prelude::*;
use gpu_countsketch::sparse::{CooMatrix, CsrMatrix};

fn device() -> Device {
    Device::unlimited()
}

/// An m x n matrix with exactly `k` nonzero singular values `k, k-1, …, 1`.
fn rank_k_matrix(m: usize, n: usize, k: usize, seed: u64) -> Matrix {
    gpu_countsketch::la::cond::rank_k_matrix(&device(), m, n, k, seed).expect("valid spectrum")
}

fn frob_rel_err(a: &Matrix, approx: &Matrix) -> f64 {
    frobenius_rel_diff(&device(), a, approx).expect("matching shapes")
}

/// Spectral norm via the dense Jacobi SVD (inputs here are small and tall).
fn spectral_norm(a: &Matrix) -> f64 {
    let d = device();
    let svd: SmallSvd = jacobi_svd(&d, a).expect("tall input");
    svd.s[0]
}

#[test]
fn rsvd_recovers_exact_rank_k_to_1e8() {
    let d = device();
    let (m, n, k) = (200, 60, 8);
    let a = rank_k_matrix(m, n, k, 1);
    for sketch in [
        RangeSketch::Gaussian,
        RangeSketch::CountSketch,
        RangeSketch::Srht,
    ] {
        let params = LowRankParams::new(k).with_sketch(sketch).with_seed(11, 0);
        let svd = rsvd(&d, &a, &params).expect("rsvd succeeds");
        let back = svd.reconstruct(&d).expect("shapes agree");
        let err = frob_rel_err(&a, &back);
        assert!(
            err <= 1e-8,
            "{}: rank-{k} matrix not recovered, rel err {err}",
            sketch.name()
        );
    }
}

#[test]
fn rangefinder_satisfies_hmt_spectral_bound() {
    let d = device();
    let (m, n, k, p) = (150, 40, 8, 8);
    let sigma = geometric_singular_values(n, 1e4);
    let a = matrix_with_singular_values(&d, m, n, &sigma, 3).expect("valid spectrum");
    let params = LowRankParams::new(k).with_oversample(p).with_seed(5, 0);
    let q = range_finder(
        &DevicePool::unlimited(1),
        &a,
        &params,
        &ExecutorOptions::default(),
    )
    .expect("rangefinder succeeds");

    // Residual A − QQᵀA, materialised densely.
    let qta = gemm_op(&d, 1.0, Op::Trans, &q, Op::NoTrans, &a, 0.0, None).expect("QᵀA");
    let qqta = gemm(&d, 1.0, &q, &qta, 0.0, None).expect("QQᵀA");
    let resid = Matrix::from_fn(m, n, Layout::ColMajor, |i, j| a.get(i, j) - qqta.get(i, j));
    let err = spectral_norm(&resid);

    // HMT Theorem 10.6 expectation bound with a generous slack factor of 3:
    // (1 + 4 √(k+p) √(min(m,n)) / (p−1)) σ_{k+1}.
    let hmt = 1.0 + 4.0 * ((k + p) as f64).sqrt() * (m.min(n) as f64).sqrt() / ((p - 1) as f64);
    let bound = 3.0 * hmt * sigma[k];
    assert!(
        err <= bound,
        "‖A − QQᵀA‖₂ = {err} exceeds 3x the HMT bound {bound} (σ_k+1 = {})",
        sigma[k]
    );
    // Sanity: the error cannot beat the best rank-l approximation.
    let l = k + p;
    assert!(err >= 0.99 * sigma[l.min(n - 1)]);
}

#[test]
fn streaming_svd_reads_each_block_exactly_once_and_is_accurate() {
    let d = device();
    let (m, n, k) = (180, 48, 6);
    let a = rank_k_matrix(m, n, k, 7);
    let mut source = CountingBlockSource::new(RowWindows::split(&a, 9));
    let params = LowRankParams::new(k).with_seed(21, 3);
    let svd = streaming_svd(&d, &mut source, &params).expect("stream succeeds");

    // Single-pass: every one of the 9 row blocks fetched exactly once.
    assert_eq!(source.counts(), &[1usize; 9], "pipeline is not single-pass");

    let back = svd.reconstruct(&d).expect("shapes agree");
    let err = frob_rel_err(&a, &back);
    assert!(err <= 1e-8, "streaming rel err {err}");
}

#[test]
fn nystrom_matches_rsvd_within_psd_bound_on_gram_matrix() {
    let d = device();
    // A random Gram matrix with a decaying spectrum: eigenvalues are σ_i².
    let n = 40;
    let k = 6;
    let sigma = geometric_singular_values(n, 1e3);
    let factor = matrix_with_singular_values(&d, 2 * n, n, &sigma, 13).expect("valid spectrum");
    let g = gram_gemm(&d, &factor).expect("gram");

    let params = LowRankParams::new(k).with_seed(17, 0);
    let nys = nystrom(&d, &g, &params).expect("gram matrix is PSD");
    let svd = rsvd(&d, &g, &params).expect("rsvd succeeds");

    let nys_err = frob_rel_err(&g, &nys.reconstruct(&d).expect("shapes agree"));
    let svd_err = frob_rel_err(&g, &svd.reconstruct(&d).expect("shapes agree"));

    // The PSD-specialised path must land in the same error class as RSVD: within
    // a 10x factor plus the λ_{k+1}-level floor both methods share.
    let lambda_tail = sigma[k] * sigma[k];
    assert!(
        nys_err <= 10.0 * svd_err + lambda_tail,
        "nystrom err {nys_err} vs rsvd err {svd_err} (λ_k+1 = {lambda_tail})"
    );
    // Structural eigenvalue checks: the Nyström approximation never exceeds A in
    // the Loewner order, so each eigenvalue estimate under-approximates the truth,
    // and by Weyl's inequality the deviation is bounded by ‖A − Â‖₂ ≲ λ_{k+1}.
    for (computed, s) in nys.eigs.iter().zip(sigma.iter()) {
        let expected = s * s;
        assert!(
            *computed <= expected * (1.0 + 1e-9) + 1e-12,
            "Nyström over-estimated: {computed} vs {expected}"
        );
        assert!(
            expected - computed <= lambda_tail,
            "{computed} vs {expected} deviates beyond λ_k+1 = {lambda_tail}"
        );
    }
}

fn assert_bit_identical(a: &SvdResult, b: &SvdResult) {
    assert_eq!(a.s, b.s, "singular values differ");
    assert_eq!(a.u.as_slice(), b.u.as_slice(), "U differs");
    assert_eq!(a.vt.as_slice(), b.vt.as_slice(), "Vᵀ differs");
}

#[test]
fn rsvd_is_bit_for_bit_seed_deterministic_on_every_path() {
    let d = device();
    let (m, n, k) = (120, 36, 5);
    let a = rank_k_matrix(m, n, k, 9);
    for sketch in [
        RangeSketch::Gaussian,
        RangeSketch::CountSketch,
        RangeSketch::Srht,
    ] {
        let params = LowRankParams::new(k)
            .with_sketch(sketch)
            .with_power_iters(1)
            .with_seed(123, 7);

        // Dense path: two runs, identical bits.
        let r1 = rsvd(&d, &a, &params).expect("rsvd succeeds");
        let r2 = rsvd(&d, &a, &params).expect("rsvd succeeds");
        assert_bit_identical(&r1, &r2);

        // A different stream must change the factors.
        let r3 = rsvd(&d, &a, &params.with_seed(123, 8)).expect("rsvd succeeds");
        assert_ne!(r1.u.as_slice(), r3.u.as_slice(), "{}", sketch.name());
    }

    // Sparse path.
    let mut coo = CooMatrix::new(80, 24);
    for i in 0..80 {
        coo.push(i, i % 24, 1.0 + i as f64 * 0.05);
        coo.push(i, (i * 7 + 3) % 24, -0.25);
    }
    let csr = CsrMatrix::from_coo(&coo);
    let params = LowRankParams::new(6).with_seed(31, 2);
    let s1 = rsvd(&d, &csr, &params).expect("sparse rsvd succeeds");
    let s2 = rsvd(&d, &csr, &params).expect("sparse rsvd succeeds");
    assert_bit_identical(&s1, &s2);

    // Streaming path (fixed blocking): two runs, identical bits.
    let a2 = rank_k_matrix(96, 20, 4, 4);
    let params = LowRankParams::new(4).with_seed(77, 1);
    let run = |params: &LowRankParams| {
        let mut source = RowWindows::split(&a2, 6);
        streaming_svd(&d, &mut source, params).expect("stream succeeds")
    };
    assert_bit_identical(&run(&params), &run(&params));
}

#[test]
fn error_estimator_supports_adaptive_rank_growth() {
    let d = device();
    // Spectrum with a sharp knee at rank 6.
    let n = 30;
    let mut sigma = vec![1e-9; n];
    for (i, s) in sigma.iter_mut().take(6).enumerate() {
        *s = 10.0 / (1 << i) as f64;
    }
    let a = matrix_with_singular_values(&d, 90, n, &sigma, 19).expect("valid spectrum");

    // Zero oversampling so the basis width equals k exactly: the estimator must
    // reject every basis that cannot span the rank-6 head, and accept k = 6.
    let mut accepted = 0;
    for k in [2, 4, 6] {
        let params = LowRankParams::new(k).with_oversample(0).with_seed(3, 0);
        let q = range_finder(
            &DevicePool::unlimited(1),
            &a,
            &params,
            &ExecutorOptions::default(),
        )
        .expect("rangefinder succeeds");
        let est = estimate_range_error(&d, &a, &q, 6, 999, 0).expect("probes fit");
        if est < 1e-5 {
            accepted = k;
            break;
        }
    }
    // Only the k that clears the knee may be accepted.
    assert_eq!(accepted, 6, "adaptive search accepted the wrong rank");
}
