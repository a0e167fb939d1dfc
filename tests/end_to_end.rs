//! Cross-crate integration tests: the full pipelines the paper's evaluation exercises,
//! from random problem generation through sketching to the least squares solution.

use gpu_countsketch::la::norms::vec_norm2;
use gpu_countsketch::prelude::*;

/// The full sketch-and-solve pipeline with every sketch type agrees with the direct QR
/// solution up to the documented O(1) distortion, and never beats it.
#[test]
fn sketch_and_solve_pipeline_respects_the_distortion_envelope() {
    let pool = DevicePool::unlimited(1);
    let device = pool.device(0);
    let problem = LsqProblem::easy(device, 1 << 13, 12, 1).unwrap();
    let qr = solve(&pool, &problem, Method::Qr, 1).unwrap();
    let best = qr.relative_residual(device, &problem).unwrap();

    for method in [
        Method::Gaussian,
        Method::CountSketch,
        Method::MultiSketch,
        Method::Srht,
    ] {
        let sol = solve(&pool, &problem, method, 3).unwrap();
        let res = sol.relative_residual(device, &problem).unwrap();
        assert!(res + 1e-12 >= best, "{}: beat the optimum", method.label());
        assert!(
            res < 2.0 * best,
            "{}: residual {res} too far above the optimum {best}",
            method.label()
        );
    }
}

/// rand_cholQR (Algorithm 5) produces the true least squares solution through a
/// completely different path than Householder QR.
#[test]
fn rand_cholqr_matches_householder_qr() {
    let pool = DevicePool::unlimited(1);
    let problem = LsqProblem::hard(pool.device(0), 1 << 12, 8, 2).unwrap();
    let qr = solve(&pool, &problem, Method::Qr, 1).unwrap();
    let rc = solve(&pool, &problem, Method::RandCholQr, 1).unwrap();
    for (a, b) in rc.x.iter().zip(&qr.x) {
        assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }
}

/// The Figure 8 story end to end: at kappa = 1e10 the normal equations either fail or
/// lose many digits, the multisketched solver does not.
#[test]
fn ill_conditioning_breaks_normal_equations_but_not_multisketch() {
    let pool = DevicePool::unlimited(1);
    let device = pool.device(0);
    let problem = LsqProblem::conditioned(device, 1 << 12, 8, 1e10, 3).unwrap();

    let multi = solve(&pool, &problem, Method::MultiSketch, 5).unwrap();
    let multi_res = multi.relative_residual(device, &problem).unwrap();
    assert!(multi_res < 1e-5, "multisketch residual {multi_res}");

    match solve(&pool, &problem, Method::NormalEquations, 5) {
        Err(e) => assert!(e.is_gram_breakdown()),
        Ok(sol) => {
            let res = sol.relative_residual(device, &problem).unwrap();
            assert!(
                res > 10.0 * multi_res,
                "normal equations should be much less accurate: {res} vs {multi_res}"
            );
        }
    }
}

/// The device cost accounting is consistent across the whole pipeline: the breakdown
/// phases sum to the tracker totals for a full solve.
#[test]
fn breakdown_phases_cover_the_tracked_device_costs() {
    let pool = DevicePool::h100(1);
    let device = pool.device(0);
    let problem = LsqProblem::performance(device, 1 << 12, 8, 4).unwrap();
    device.tracker().reset();
    let sol = solve(&pool, &problem, Method::CountSketch, 6).unwrap();
    let tracked = device.tracker().snapshot();
    let from_phases = sol.breakdown.total_cost();
    // The phases must account for at least the large majority of the device traffic
    // (small glue operations like residual checks run outside named phases).
    assert!(from_phases.total_bytes() * 10 >= tracked.total_bytes() * 9);
    assert!(from_phases.flops <= tracked.flops);
}

/// Sketching is reproducible end to end: same seeds give the same solution up to the
/// non-associativity of the atomic reduction (the CUDA kernel the paper describes has
/// exactly the same property — the summation order inside `atomicAdd` is unordered).
#[test]
fn full_pipeline_is_reproducible() {
    let run = || {
        let pool = DevicePool::unlimited(1);
        let problem = LsqProblem::easy(pool.device(0), 1 << 12, 8, 9).unwrap();
        solve(&pool, &problem, Method::MultiSketch, 11).unwrap().x
    };
    let (a, b) = (run(), run());
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()), "{x} vs {y}");
    }
}

/// The executor with one shard per device reproduces the single-device sketch results
/// exactly and the reduced results feed the same downstream QR.
#[test]
fn sharded_multisketch_feeds_the_same_least_squares_solution() {
    let device = Device::unlimited();
    let d = 1 << 12;
    let n = 8;
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 7, 0);
    let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 8);
    let multi = plan.build_for(&device, n).unwrap();

    let single = multi.apply_matrix(&device, &a).unwrap();
    let pool = DevicePool::unlimited(4);
    let opts = ExecutorOptions::default().with_shards_per_device(1);
    let reduced = pipelined_sketch(&pool, &a, &plan, &opts).unwrap();
    assert!(reduced.result.max_abs_diff(&single).unwrap() < 1e-9);
    assert!(vec_norm2(reduced.result.as_slice()) > 0.0);
}

/// The modelled device refuses operations that the real 80 GB card would refuse.
#[test]
fn modelled_memory_limits_are_enforced() {
    let mut spec = DeviceSpec::h100();
    spec.memory_bytes = 1 << 20; // 1 MiB toy device
    let device = Device::new(spec);
    let err = SketchSpec::gaussian(1 << 16, EmbeddingDim::Exact(64), 1)
        .build_gaussian(&device)
        .unwrap_err();
    assert!(matches!(err, SketchError::WouldExceedMemory(_)));
}
