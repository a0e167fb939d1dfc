//! Randomized low-rank approximation tour: RSVD with every test-matrix family,
//! the single-pass streaming SVD, Nyström on a PSD Gram matrix, and the posterior
//! error estimator driving an adaptive rank search.
//!
//! Run with: `cargo run --release --example low_rank_approx`

use gpu_countsketch::la::blas3::gram_gemm;
use gpu_countsketch::la::cond::{geometric_singular_values, matrix_with_singular_values};
use gpu_countsketch::la::norms::frobenius_rel_diff;
use gpu_countsketch::prelude::*;

fn frob_rel_err(device: &Device, a: &Matrix, approx: &Matrix) -> f64 {
    frobenius_rel_diff(device, a, approx).expect("matching shapes")
}

fn main() {
    let device = Device::h100();
    let (m, n, k) = (2048, 128, 10);

    // A low-rank-plus-noise test matrix: 10 strong directions, then a noise floor
    // five orders of magnitude down.
    let mut sigma = geometric_singular_values(k, 1e2);
    sigma.resize(n, 1e-7);
    let a = matrix_with_singular_values(&device, m, n, &sigma, 42).expect("valid spectrum");
    println!("A is {m} x {n} with numerical rank {k} (noise floor 1e-7)\n");

    // --- RSVD with each test-matrix family -------------------------------------
    for sketch in [
        RangeSketch::Gaussian,
        RangeSketch::CountSketch,
        RangeSketch::Srht,
    ] {
        let device = Device::h100();
        let params = LowRankParams::new(k)
            .with_sketch(sketch)
            .with_power_iters(1)
            .with_seed(7, 0);
        let svd = rsvd(&device, &a, &params).expect("rsvd succeeds");
        let back = svd.reconstruct(&device).expect("shapes agree");
        println!(
            "RSVD {:>11}: rel err {:.2e}   sigma_1 {:.4}   modelled H100 time {:.3} ms",
            sketch.name(),
            frob_rel_err(&device, &a, &back),
            svd.s[0],
            device.model_time(&device.tracker().snapshot()) * 1e3,
        );
    }

    // --- Deterministic truncated QR baseline ------------------------------------
    {
        let device = Device::h100();
        let det = gpu_countsketch::lowrank::deterministic_svd(&device, &a, k).expect("tall input");
        let back = det.reconstruct(&device).expect("shapes agree");
        println!(
            "Truncated QR SVD : rel err {:.2e}   sigma_1 {:.4}   modelled H100 time {:.3} ms\n",
            frob_rel_err(&device, &a, &back),
            det.s[0],
            device.model_time(&device.tracker().snapshot()) * 1e3,
        );
    }

    // --- Single-pass streaming SVD ----------------------------------------------
    {
        let device = Device::h100();
        let params = LowRankParams::new(k).with_seed(7, 0);
        let mut source = CountingBlockSource::new(RowWindows::split(&a, 16));
        let svd = streaming_svd(&device, &mut source, &params).expect("stream succeeds");
        let back = svd.reconstruct(&device).expect("shapes agree");
        println!(
            "Streaming SVD    : rel err {:.2e}   over 16 blocks, each read {} time(s)",
            frob_rel_err(&device, &a, &back),
            source.counts().iter().max().expect("non-empty"),
        );
    }

    // --- Nyström on the PSD Gram matrix -----------------------------------------
    {
        let device = Device::h100();
        let g = gram_gemm(&device, &a).expect("gram of tall matrix");
        let params = LowRankParams::new(k).with_seed(9, 0);
        let nys = nystrom(&device, &g, &params).expect("gram matrix is PSD");
        let back = nys.reconstruct(&device).expect("shapes agree");
        println!(
            "Nystrom on AᵀA   : rel err {:.2e}   lambda_1 {:.4}  (= sigma_1² {:.4})\n",
            frob_rel_err(&device, &g, &back),
            nys.eigs[0],
            sigma[0] * sigma[0],
        );
    }

    // --- Adaptive rank search via the posterior error estimator ------------------
    // The probe norms amplify the 1e-7 noise floor by ~10·√n, so a tolerance of
    // 1e-4 asks for "everything above the noise" without chasing the floor itself.
    let device = Device::h100();
    let tol = 1e-4;
    let mut rank = 2;
    println!("Adaptive rangefinder: grow k until the posterior estimate drops below {tol:.0e}");
    loop {
        let params = LowRankParams::new(rank).with_oversample(4).with_seed(3, 0);
        let q = range_finder(
            &DevicePool::h100(1),
            &a,
            &params,
            &ExecutorOptions::default(),
        )
        .expect("rangefinder succeeds");
        let est = estimate_range_error(&device, &a, &q, 6, 1234, 0).expect("probes fit");
        println!("  k = {rank:>2}  ->  estimated ‖A − QQᵀA‖₂ ≲ {est:.3e}");
        if est < tol || rank >= n {
            println!("  accepted k = {rank}");
            break;
        }
        rank += 2;
    }
}
