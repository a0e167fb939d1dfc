//! Randomized Cholesky QR (Algorithms 4 and 5).
//!
//! rand_cholQR forms a true QR factorisation of `A` using one sketch, one small QR, one
//! Gram matrix and one Cholesky factorisation; it is stable whenever `κ(A) < u⁻¹`
//! (Balabanov; Higgins, Szyld, Boman & Yamazaki), unlike the normal equations which
//! need `κ(A) < u⁻¹ᐟ²`.  The least squares variant (Algorithm 5) skips forming `Q`
//! explicitly and is mathematically equivalent to the preconditioned normal equations
//! of Ipsen (2025).

use crate::error::LsqError;
use crate::problem::LsqProblem;
use crate::solvers::{pooled_matrix_sketch, LsqSolution};
use sketch_core::{Pipeline, SketchOperator};
use sketch_dist::{ExecutorOptions, PipelinedRun};
use sketch_gpu_sim::{Device, DevicePool, Phase, Profiler};
use sketch_la::blas2::{gemv, trsv, Triangle};
use sketch_la::blas3::{gemm, gram_gemm, trsm_right};
use sketch_la::chol::potrf_upper;
use sketch_la::qr::geqrf;
use sketch_la::{Layout, Matrix, Op};

/// The factors produced by [`rand_cholqr`]: `A = Q R` with orthonormal `Q`.
#[derive(Debug, Clone)]
pub struct RandCholQrFactors {
    /// The thin orthogonal factor (`d x n`).
    pub q: Matrix,
    /// The upper triangular factor (`n x n`), `R = R₁ R₀`.
    pub r: Matrix,
}

/// Algorithm 4 — randomized Cholesky QR.
///
/// 1. `Y = S A`          (sketch)
/// 2. `[~, R₀] = qr(Y)`   (small QR)
/// 3. `A₀ = A R₀⁻¹`       (precondition)
/// 4. `G = A₀ᵀ A₀`        (Gram)
/// 5. `R₁ = chol(G)`      (Cholesky)
/// 6. `Q = A₀ R₁⁻¹`, `R = R₁ R₀`
pub fn rand_cholqr<S: SketchOperator + ?Sized>(
    device: &Device,
    a: &Matrix,
    sketch: &S,
) -> Result<RandCholQrFactors, LsqError> {
    let y = sketch.apply_matrix(device, a)?;
    let y_cm = y.to_layout(device, Layout::ColMajor);
    let r0 = geqrf(device, &y_cm)?.r();
    let a0 = trsm_right(device, Triangle::Upper, Op::NoTrans, &r0, a)?;
    let gram = gram_gemm(device, &a0)?;
    let r1 = potrf_upper(device, &gram)?;
    let q = trsm_right(device, Triangle::Upper, Op::NoTrans, &r1, &a0)?;
    let r = gemm(device, 1.0, &r1, &r0, 0.0, None)?;
    Ok(RandCholQrFactors { q, r })
}

/// Algorithm 5 — rand_cholQR least squares (one TRSM, no explicit `Q`) — on the
/// unified execution engine.
///
/// The sketch `Y = S A` (the only step that touches the tall matrix with a random
/// operator) runs across the pool through [`sketch_dist::pipelined_sketch`]; everything else —
/// QR of the small sketched matrix, TRSM preconditioning, Gram, Cholesky,
/// triangular solves — runs on pool device 0, where the preconditioned problem is
/// small.  Serial execution is a pool of one; the solution is bit-identical for
/// every pool size because the executor's sketch is bit-identical to the
/// single-device kernel.
///
/// Produces the breakdown phases the Figure 5 harness expects: sketch gen, matrix
/// sketch (charged at the pipelined makespan), GEQRF (on the sketched matrix),
/// TRSM (preconditioning), Gram matrix, `A₀ᵀb`, POTRF and the final triangular
/// solves.  The executor's [`PipelinedRun`] rides along for timeline inspection.
pub fn rand_cholqr_least_squares(
    pool: &DevicePool,
    problem: &LsqProblem,
    plan: &Pipeline,
    opts: &ExecutorOptions,
) -> Result<(LsqSolution, PipelinedRun), LsqError> {
    let device = pool.device(0);
    let mut prof = Profiler::new(device);
    // Generate the operator once, in its own phase (the Figure-5 "Sketch
    // gen" segment).  Step 1: the executor runs it as built to sketch the
    // coefficient matrix on the pool; nothing else needs it.
    let (run, sketch_phase) = {
        let sketch = prof.phase(Phase::SketchGen, || {
            plan.compose_for(device, problem.ncols())
        })?;
        pooled_matrix_sketch(pool, &problem.a, &sketch, opts)?
    };
    prof.record(sketch_phase);

    // Step 2: economy QR of the sketched matrix (only R₀ is needed), converting a
    // row-major sketch inside the phase.
    let r0 = prof.phase(Phase::Geqrf, || geqrf(device, &run.result))?.r();

    // Step 3: precondition A₀ = A R₀⁻¹.
    let a0 = prof.phase(Phase::Trsm, || {
        trsm_right(device, Triangle::Upper, Op::NoTrans, &r0, &problem.a)
    })?;

    // Step 4: Gram matrix and right-hand side in the preconditioned basis.
    let gram = prof.phase(Phase::GramMatrix, || gram_gemm(device, &a0))?;
    let z = prof.phase(Phase::ATransposeB, || {
        gemv(device, 1.0, Op::Trans, &a0, &problem.b, 0.0, None)
    })?;

    // Step 5: Cholesky of the (nearly orthonormal) Gram matrix.
    let r1 = prof.phase(Phase::Potrf, || potrf_upper(device, &gram))?;

    // Steps 6–8: R = R₁R₀ (only needed implicitly), y = R₁⁻ᵀ z, x = R⁻¹ y = R₀⁻¹ R₁⁻¹ y.
    let y1 = prof.phase(Phase::Trsv, || {
        trsv(device, Triangle::Upper, Op::Trans, &r1, &z)
    })?;
    let y2 = prof.phase(Phase::Trsv, || {
        trsv(device, Triangle::Upper, Op::NoTrans, &r1, &y1)
    })?;
    let x = prof.phase(Phase::Trsv, || {
        trsv(device, Triangle::Upper, Op::NoTrans, &r0, &y2)
    })?;

    Ok((
        LsqSolution {
            x,
            method: "rand_cholQR",
            breakdown: prof.finish(),
        },
        run,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::qr_direct;
    use sketch_core::{EmbeddingDim, Pipeline, SketchSpec};
    use sketch_la::blas3::gemm_op;

    fn device() -> Device {
        Device::unlimited()
    }

    /// The Count→Gauss pipeline with the `8n²`/`8n` oversized test dimensions.
    fn multisketch_of(dev: &Device, d: usize, n: usize, seed: u64) -> Box<dyn SketchOperator> {
        Pipeline::count_gauss(d, EmbeddingDim::Square(8), EmbeddingDim::Ratio(8), seed)
            .build_for(dev, n)
            .unwrap()
    }

    #[test]
    fn rand_cholqr_produces_orthonormal_q_and_reconstructs_a() {
        let dev = device();
        let a = Matrix::random_gaussian(1024, 6, Layout::RowMajor, 1, 0);
        let ms = multisketch_of(&dev, 1024, 6, 2);
        let f = rand_cholqr(&dev, &a, ms.as_ref()).unwrap();

        let qtq = gemm_op(&dev, 1.0, Op::Trans, &f.q, Op::NoTrans, &f.q, 0.0, None).unwrap();
        assert!(qtq.max_abs_diff(&Matrix::identity(6)).unwrap() < 1e-8);

        let qr = gemm(&dev, 1.0, &f.q, &f.r, 0.0, None).unwrap();
        let a_cm = a.to_layout(&dev, Layout::ColMajor);
        assert!(qr.max_abs_diff(&a_cm).unwrap() < 1e-8);
    }

    #[test]
    fn r_factor_is_upper_triangular() {
        let dev = device();
        let a = Matrix::random_gaussian(512, 4, Layout::RowMajor, 3, 0);
        let cs = SketchSpec::countsketch(512, EmbeddingDim::Square(8), 4)
            .build_for(&dev, 4)
            .unwrap();
        let f = rand_cholqr(&dev, &a, cs.as_ref()).unwrap();
        for i in 0..4 {
            for j in 0..i {
                assert!(f.r.get(i, j).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn least_squares_solution_matches_direct_qr() {
        let dev = device();
        let p = LsqProblem::easy(&dev, 2048, 5, 5).unwrap();
        let qr = qr_direct(&dev, &p).unwrap();
        let plan = Pipeline::count_gauss(
            p.nrows(),
            EmbeddingDim::Square(8),
            EmbeddingDim::Ratio(8),
            6,
        );
        let pool = DevicePool::unlimited(1);
        let (rc, _run) =
            rand_cholqr_least_squares(&pool, &p, &plan, &ExecutorOptions::default()).unwrap();
        for (a, b) in rc.x.iter().zip(&qr.x) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
        assert_eq!(rc.method, "rand_cholQR");
    }

    #[test]
    fn least_squares_is_bit_identical_across_pool_sizes() {
        let dev = device();
        let p = LsqProblem::easy(&dev, 1024, 4, 5).unwrap();
        let plan = Pipeline::single(SketchSpec::countsketch(
            p.nrows(),
            EmbeddingDim::Square(8),
            9,
        ));
        let pool1 = DevicePool::unlimited(1);
        let (reference, _) =
            rand_cholqr_least_squares(&pool1, &p, &plan, &ExecutorOptions::default()).unwrap();
        for devices in [2usize, 4] {
            let pool = DevicePool::unlimited(devices);
            let (rc, run) =
                rand_cholqr_least_squares(&pool, &p, &plan, &ExecutorOptions::default()).unwrap();
            for (a, b) in rc.x.iter().zip(&reference.x) {
                assert_eq!(a.to_bits(), b.to_bits(), "drifted on {devices} devices");
            }
            assert!(run.pipelined_seconds <= run.serial_seconds);
        }
    }

    #[test]
    fn least_squares_has_no_distortion_unlike_sketch_and_solve() {
        let dev = device();
        let p = LsqProblem::hard(&dev, 4096, 4, 7).unwrap();
        let best = qr_direct(&dev, &p)
            .unwrap()
            .relative_residual(&dev, &p)
            .unwrap();
        let plan = Pipeline::single(SketchSpec::countsketch(
            p.nrows(),
            EmbeddingDim::Square(8),
            8,
        ));
        let pool = DevicePool::unlimited(1);
        let (rc, _run) =
            rand_cholqr_least_squares(&pool, &p, &plan, &ExecutorOptions::default()).unwrap();
        let res = rc.relative_residual(&dev, &p).unwrap();
        assert!(
            (res - best).abs() / best < 1e-6,
            "rand_cholQR {res} vs QR {best}"
        );
    }

    #[test]
    fn breakdown_contains_trsm_and_gram_phases() {
        let dev = device();
        let p = LsqProblem::performance(&dev, 1024, 4, 9).unwrap();
        let plan = Pipeline::single(SketchSpec::countsketch(
            p.nrows(),
            EmbeddingDim::Square(4),
            10,
        ));
        let pool = DevicePool::unlimited(2);
        let (rc, _run) =
            rand_cholqr_least_squares(&pool, &p, &plan, &ExecutorOptions::default()).unwrap();
        assert!(rc.breakdown.model_seconds_of(Phase::Trsm) > 0.0);
        assert!(rc.breakdown.model_seconds_of(Phase::GramMatrix) > 0.0);
        assert!(rc.breakdown.model_seconds_of(Phase::Potrf) > 0.0);
        // The engine splices the pooled matrix sketch in after generation.
        assert_eq!(rc.breakdown.phases[0].phase, Phase::SketchGen);
        assert_eq!(rc.breakdown.phases[1].phase, Phase::MatrixSketch);
        assert!(rc.breakdown.phases[1].model_seconds > 0.0);
    }

    #[test]
    fn works_on_moderately_ill_conditioned_problems() {
        // kappa = 1e8 breaks the normal equations but not rand_cholQR.
        let dev = device();
        let p = LsqProblem::conditioned(&dev, 2048, 4, 1e8, 11).unwrap();
        let plan = Pipeline::count_gauss(
            p.nrows(),
            EmbeddingDim::Square(16),
            EmbeddingDim::Ratio(16),
            12,
        );
        let pool = DevicePool::unlimited(1);
        let (rc, _run) =
            rand_cholqr_least_squares(&pool, &p, &plan, &ExecutorOptions::default()).unwrap();
        let res = rc.relative_residual(&dev, &p).unwrap();
        assert!(res < 1e-6, "residual {res}");
    }

    #[test]
    fn sketch_dimension_mismatch_is_an_error() {
        let dev = device();
        let p = LsqProblem::performance(&dev, 256, 4, 1).unwrap();
        let plan = Pipeline::single(SketchSpec::countsketch(128, EmbeddingDim::Exact(64), 1));
        let pool = DevicePool::unlimited(1);
        assert!(rand_cholqr_least_squares(&pool, &p, &plan, &ExecutorOptions::default()).is_err());
        let wrong = SketchSpec::countsketch(128, EmbeddingDim::Exact(64), 1)
            .build(&dev)
            .unwrap();
        assert!(rand_cholqr(&dev, &p.a, wrong.as_ref()).is_err());
    }
}
