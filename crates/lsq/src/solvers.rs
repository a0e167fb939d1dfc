//! The normal equations, sketch-and-solve (Algorithm 1) and direct QR solvers.
//!
//! Algorithm 1 runs through the **unified execution engine**: the expensive
//! `W = S A` step goes to [`sketch_dist::pipelined_sketch`] across a
//! [`DevicePool`], and the reduced `k x n` problem (vector sketch, QR,
//! triangular solve) finishes on pool device 0.  Serial execution is simply a
//! pool of one ([`DevicePool::single`]), which the executor runs as bare device
//! launches — the solution is bit-for-bit identical to the retired
//! single-device code path, and scaling out changes the modelled timeline,
//! never the answer.

use crate::error::LsqError;
use crate::problem::LsqProblem;
use sketch_core::{ComposedSketch, Pipeline, SketchOperator};
use sketch_dist::{pipelined_sketch, ExecutorOptions, PipelinedRun};
use sketch_gpu_sim::obs::Stopwatch;
use sketch_gpu_sim::{Device, DevicePool, Phase, PhaseRecord, Profiler, RunBreakdown};
use sketch_la::blas2::{gemv, trsv, Triangle};
use sketch_la::blas3::gram_gemm;
use sketch_la::chol::potrf_upper;
use sketch_la::norms::relative_residual;
use sketch_la::qr::geqrf;
use sketch_la::Op;

/// The result of a least squares solve: the solution vector plus the phase breakdown
/// used by the Figure 5 harness.
#[must_use = "an LsqSolution carries the solution vector and the phase breakdown"]
#[derive(Debug, Clone)]
pub struct LsqSolution {
    /// Solution vector of length `n`.
    pub x: Vec<f64>,
    /// Name of the method that produced it.
    pub method: &'static str,
    /// Per-phase cost/time breakdown.
    pub breakdown: RunBreakdown,
}

impl LsqSolution {
    /// Relative residual `||b - A x|| / ||b||` of this solution on `problem`.
    pub fn relative_residual(
        &self,
        device: &Device,
        problem: &LsqProblem,
    ) -> Result<f64, LsqError> {
        Ok(relative_residual(device, &problem.a, &self.x, &problem.b)?)
    }

    /// Total modelled device time in milliseconds.
    pub fn model_ms(&self) -> f64 {
        self.breakdown.total_model_ms()
    }
}

/// Solve via the normal equations: `G = AᵀA`, `y = Aᵀb`, `G = RᵀR`, `x = R⁻¹ R⁻ᵀ y`.
///
/// The paper times exactly this sequence with GeMM + GeMV + POTRF + 2×TRSV and calls it
/// "typically the fastest direct least squares solver in practice"; its weakness is that
/// it squares the condition number.
pub fn normal_equations(device: &Device, problem: &LsqProblem) -> Result<LsqSolution, LsqError> {
    let mut prof = Profiler::new(device);
    let gram = prof.phase(Phase::GramMatrix, || gram_gemm(device, &problem.a))?;
    let atb = prof.phase(Phase::ATransposeB, || {
        gemv(device, 1.0, Op::Trans, &problem.a, &problem.b, 0.0, None)
    })?;
    let r = prof.phase(Phase::Potrf, || potrf_upper(device, &gram))?;
    let y = prof.phase(Phase::Trsv, || {
        trsv(device, Triangle::Upper, Op::Trans, &r, &atb)
    })?;
    let x = prof.phase(Phase::Trsv, || {
        trsv(device, Triangle::Upper, Op::NoTrans, &r, &y)
    })?;
    Ok(LsqSolution {
        x,
        method: "Normal Eq",
        breakdown: prof.finish(),
    })
}

/// Run the built matrix sketch on the pool and produce the [`PhaseRecord`]
/// both engine-routed solvers record right after `SketchGen`
/// ([`Profiler::record`]): pool-wide cost delta, wall-clock window, and the
/// **pipelined** (not serial) modelled makespan, so multi-device speedups show
/// up directly in Figure-5-style stacks.
pub(crate) fn pooled_matrix_sketch(
    pool: &DevicePool,
    a: &sketch_la::Matrix,
    sketch: &ComposedSketch,
    opts: &ExecutorOptions,
) -> Result<(PipelinedRun, PhaseRecord), LsqError> {
    let total_before = pool.total_cost();
    let wall_start = Stopwatch::start();
    let run = pipelined_sketch(pool, a, sketch, opts)?;
    let record = PhaseRecord {
        phase: Phase::MatrixSketch,
        cost: pool.total_cost() - total_before,
        model_seconds: run.pipelined_seconds,
        wall_seconds: wall_start.elapsed_seconds(),
    };
    Ok((run, record))
}

/// Algorithm 1 — sketch-and-solve — on the unified execution engine: sketch `A`
/// across the pool with [`pipelined_sketch`], sketch `b` and QR-solve the reduced
/// problem with GEQRF + ORMQR + TRSV (the cuSOLVER sequence of Section 6.1) on
/// pool device 0.
///
/// Serial execution is a pool of one (e.g. [`DevicePool::single`]); the solution
/// is **bit-identical** for every pool size and shard count because the
/// executor's sketch is bit-identical to the single-device kernel.  The returned
/// [`PipelinedRun`] exposes the multi-device timeline; the solution's breakdown
/// charges the matrix-sketch phase at the *pipelined* makespan, so multi-device
/// speedups show up directly in Figure-5-style stacks.
pub fn sketch_and_solve(
    pool: &DevicePool,
    problem: &LsqProblem,
    plan: &Pipeline,
    opts: &ExecutorOptions,
) -> Result<(LsqSolution, PipelinedRun), LsqError> {
    let device = pool.device(0);
    let mut prof = Profiler::new(device);

    // Generate the operator once, on pool device 0, inside its own SketchGen
    // phase (the paper's "Sketch gen" stack segment).  The executor runs it as
    // built (charging only the other devices' replicas), and it then sketches
    // `b`.
    let sketch = prof.phase(Phase::SketchGen, || {
        plan.compose_for(device, problem.ncols())
    })?;

    // Matrix sketch on the pool, wall-clock timed like a Profiler phase.
    let (run, sketch_phase) = pooled_matrix_sketch(pool, &problem.a, &sketch, opts)?;
    prof.record(sketch_phase);

    // The remaining Algorithm-1 steps run on device 0: the reduced problem is
    // k x n with k = O(n²) at most — not worth sharding.
    let z = prof.phase(Phase::VectorSketch, || {
        sketch.apply_vector(device, &problem.b)
    })?;
    // The QR converts a row-major sketch (the CountSketch's) to column-major inside
    // its phase, mirroring the conversion the paper performs.
    let factors = prof.phase(Phase::Geqrf, || geqrf(device, &run.result))?;
    let qtz = prof.phase(Phase::Ormqr, || factors.apply_qt_vec(device, &z))?;
    let r = factors.r();
    let x = prof.phase(Phase::Trsv, || {
        trsv(
            device,
            Triangle::Upper,
            Op::NoTrans,
            &r,
            &qtz[..problem.ncols()],
        )
    })?;

    Ok((
        LsqSolution {
            x,
            method: "Sketch-and-solve",
            breakdown: prof.finish(),
        },
        run,
    ))
}

/// Direct Householder QR on the full matrix — the accuracy reference ("QR" in Figures
/// 6–8); much slower than everything else, which is why the paper leaves it out of the
/// runtime plots.
pub fn qr_direct(device: &Device, problem: &LsqProblem) -> Result<LsqSolution, LsqError> {
    let mut prof = Profiler::new(device);
    let factors = prof.phase(Phase::Geqrf, || geqrf(device, &problem.a))?;
    let qtb = prof.phase(Phase::Ormqr, || factors.apply_qt_vec(device, &problem.b))?;
    let r = factors.r();
    let x = prof.phase(Phase::Trsv, || {
        trsv(
            device,
            Triangle::Upper,
            Op::NoTrans,
            &r,
            &qtb[..problem.ncols()],
        )
    })?;
    Ok(LsqSolution {
        x,
        method: "QR",
        breakdown: prof.finish(),
    })
}

/// Build the residual-norm comparison the paper's accuracy sections rely on: the
/// theoretical guarantee is `||b - A x_s|| <= sqrt((1+eps)/(1-eps)) * ||b - A x_t||`.
pub fn distortion_bound(eps: f64) -> f64 {
    ((1.0 + eps) / (1.0 - eps)).sqrt()
}

/// Helper shared by tests and benches: the residual of the exact solution (via QR).
pub fn best_residual(device: &Device, problem: &LsqProblem) -> Result<f64, LsqError> {
    let x = qr_direct(device, problem)?;
    x.relative_residual(device, problem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_core::{EmbeddingDim, Pipeline, SketchSpec};
    use sketch_gpu_sim::Device;
    use sketch_la::Layout;

    fn device() -> Device {
        Device::unlimited()
    }

    fn problem(d: usize, n: usize, seed: u64) -> LsqProblem {
        LsqProblem::easy(&device(), d, n, seed).unwrap()
    }

    #[test]
    fn normal_equations_match_qr_on_well_conditioned_problems() {
        let dev = device();
        let p = problem(1024, 6, 1);
        let ne = normal_equations(&dev, &p).unwrap();
        let qr = qr_direct(&dev, &p).unwrap();
        for (a, b) in ne.x.iter().zip(&qr.x) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        assert_eq!(ne.method, "Normal Eq");
        assert!(ne.model_ms() > 0.0);
    }

    #[test]
    fn normal_equations_breakdown_has_expected_phases() {
        let dev = device();
        let p = problem(512, 4, 2);
        let ne = normal_equations(&dev, &p).unwrap();
        assert!(ne.breakdown.model_seconds_of(Phase::GramMatrix) > 0.0);
        assert!(ne.breakdown.model_seconds_of(Phase::Potrf) > 0.0);
        assert!(ne.breakdown.model_seconds_of(Phase::Trsv) > 0.0);
        assert_eq!(ne.breakdown.model_seconds_of(Phase::Geqrf), 0.0);
    }

    #[test]
    fn qr_solution_is_near_the_planted_solution_for_low_noise() {
        let dev = device();
        let p = LsqProblem::with_noise(&dev, 2048, 5, 10.0, 0.0, 1e-3, 3).unwrap();
        let qr = qr_direct(&dev, &p).unwrap();
        for xi in &qr.x {
            assert!((xi - 1.0).abs() < 0.05, "{xi}");
        }
    }

    fn pool1() -> DevicePool {
        DevicePool::unlimited(1)
    }

    #[test]
    fn countsketch_sketch_and_solve_residual_is_close_to_optimal() {
        let dev = device();
        let p = problem(4096, 6, 4);
        let best = best_residual(&dev, &p).unwrap();
        let plan = Pipeline::single(SketchSpec::countsketch(
            p.nrows(),
            EmbeddingDim::Square(2),
            11,
        ));
        let (sol, _run) =
            sketch_and_solve(&pool1(), &p, &plan, &ExecutorOptions::default()).unwrap();
        let res = sol.relative_residual(&dev, &p).unwrap();
        assert!(res >= best * (1.0 - 1e-12));
        assert!(res < 1.5 * best, "sketched {res} vs best {best}");
    }

    #[test]
    fn gaussian_and_srht_sketch_and_solve_are_accurate() {
        let dev = device();
        let p = problem(2048, 4, 5);
        let best = best_residual(&dev, &p).unwrap();

        for spec in [
            SketchSpec::gaussian(p.nrows(), EmbeddingDim::Ratio(8), 7),
            SketchSpec::srht(p.nrows(), EmbeddingDim::Ratio(8), 8),
        ] {
            let plan = Pipeline::single(spec);
            let (sol, _run) =
                sketch_and_solve(&pool1(), &p, &plan, &ExecutorOptions::default()).unwrap();
            assert!(sol.relative_residual(&dev, &p).unwrap() < 1.6 * best);
        }
    }

    #[test]
    fn multisketch_sketch_and_solve_is_accurate_and_has_all_phases() {
        let dev = device();
        let p = problem(4096, 6, 6);
        let best = best_residual(&dev, &p).unwrap();
        let plan = Pipeline::count_gauss(
            p.nrows(),
            EmbeddingDim::Square(8),
            EmbeddingDim::Ratio(8),
            9,
        );
        let (sol, _run) =
            sketch_and_solve(&pool1(), &p, &plan, &ExecutorOptions::default()).unwrap();
        let res = sol.relative_residual(&dev, &p).unwrap();
        assert!(res < 1.6 * best, "multisketch {res} vs best {best}");
        for phase in [
            Phase::SketchGen,
            Phase::MatrixSketch,
            Phase::VectorSketch,
            Phase::Geqrf,
            Phase::Ormqr,
            Phase::Trsv,
        ] {
            assert!(
                sol.breakdown.phases.iter().any(|p| p.phase == phase),
                "missing phase {phase:?}"
            );
        }
        // The engine splices the matrix sketch in right after generation.
        assert_eq!(sol.breakdown.phases[0].phase, Phase::SketchGen);
        assert_eq!(sol.breakdown.phases[1].phase, Phase::MatrixSketch);
    }

    #[test]
    fn sketch_and_solve_residual_never_beats_the_true_minimum() {
        let dev = device();
        let p = LsqProblem::hard(&dev, 2048, 4, 7).unwrap();
        let best = best_residual(&dev, &p).unwrap();
        let plan = Pipeline::single(SketchSpec::countsketch(
            p.nrows(),
            EmbeddingDim::Square(4),
            3,
        ));
        let (sol, _run) =
            sketch_and_solve(&pool1(), &p, &plan, &ExecutorOptions::default()).unwrap();
        let res = sol.relative_residual(&dev, &p).unwrap();
        assert!(res + 1e-12 >= best);
        // And it obeys the theoretical distortion bound for a generous eps.
        assert!(res <= distortion_bound(0.9) * best * 1.1);
    }

    #[test]
    fn distortion_bound_is_monotone() {
        assert!(distortion_bound(0.1) < distortion_bound(0.5));
        assert!((distortion_bound(0.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn sketch_dimension_mismatch_propagates_as_error() {
        let p = problem(256, 4, 8);
        let plan = Pipeline::single(SketchSpec::countsketch(128, EmbeddingDim::Exact(32), 1));
        let err = sketch_and_solve(&pool1(), &p, &plan, &ExecutorOptions::default()).unwrap_err();
        assert!(err.is_dimension_mismatch(), "{err}");
        // The unified error carries the rejecting stage and the operand shape.
        assert!(err.to_string().contains("dense 256x4"), "{err}");
    }

    /// The acceptance pin of the engine unification: a 1-device pool reproduces
    /// the retired serial Algorithm-1 implementation **bit for bit** — here the
    /// serial path is written out by hand (build, apply, QR, solve) exactly as
    /// `sketch_and_solve(&device, …)` used to execute it.
    #[test]
    fn pool_of_one_is_bit_identical_to_the_retired_serial_algorithm1() {
        let p = problem(1 << 10, 8, 42);
        for plan in [
            Pipeline::single(SketchSpec::countsketch(
                p.nrows(),
                EmbeddingDim::Square(2),
                7,
            )),
            Pipeline::count_gauss(
                p.nrows(),
                EmbeddingDim::Square(2),
                EmbeddingDim::Ratio(2),
                7,
            ),
        ] {
            // The pre-refactor serial sequence, inlined.
            let dev = device();
            let sketch = plan.build_for(&dev, p.ncols()).unwrap();
            let w = sketch.apply_matrix(&dev, &p.a).unwrap();
            let z = sketch.apply_vector(&dev, &p.b).unwrap();
            let w_cm = w.to_layout(&dev, Layout::ColMajor);
            let factors = geqrf(&dev, &w_cm).unwrap();
            let qtz = factors.apply_qt_vec(&dev, &z).unwrap();
            let r = factors.r();
            let reference =
                trsv(&dev, Triangle::Upper, Op::NoTrans, &r, &qtz[..p.ncols()]).unwrap();

            // The engine, on pools of 1 and 3 devices.
            for devices in [1usize, 3] {
                let pool = DevicePool::unlimited(devices);
                let (sol, run) =
                    sketch_and_solve(&pool, &p, &plan, &ExecutorOptions::default()).unwrap();
                assert_eq!(sol.x.len(), reference.len());
                for (a, b) in sol.x.iter().zip(reference.iter()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "solution drifted on {devices} devices"
                    );
                }
                assert!(run.pipelined_seconds <= run.serial_seconds);
            }
        }
    }

    #[test]
    fn traced_sketching_solves_put_every_phase_on_the_phase_track() {
        use sketch_gpu_sim::obs::{TraceCollector, Track};
        let p = problem(4096, 6, 10);
        let plan = Pipeline::count_gauss(
            p.nrows(),
            EmbeddingDim::Square(8),
            EmbeddingDim::Ratio(8),
            11,
        );
        let opts = ExecutorOptions::default();
        type Solver = fn(
            &DevicePool,
            &LsqProblem,
            &Pipeline,
            &ExecutorOptions,
        ) -> Result<(LsqSolution, PipelinedRun), LsqError>;
        let solvers: [(&str, Solver); 2] = [
            ("sketch_and_solve", sketch_and_solve),
            (
                "rand_cholqr_least_squares",
                crate::rand_cholqr::rand_cholqr_least_squares,
            ),
        ];
        for (name, solver) in solvers {
            let pool = pool1();
            let collector = TraceCollector::shared();
            pool.attach_recorder(collector.clone());
            let (sol, _run) = solver(&pool, &p, &plan, &opts).unwrap();
            let events: Vec<_> = collector
                .snapshot()
                .into_iter()
                .filter(|e| e.track == Track::Phase)
                .collect();
            let phases = &sol.breakdown.phases;
            assert_eq!(events.len(), phases.len(), "{name}: one span per phase");
            let mut clock = 0.0f64;
            for (event, phase) in events.iter().zip(phases) {
                assert_eq!(event.name, phase.phase.label(), "{name}");
                let (start, end) = event.sim.expect("phase spans are modelled");
                assert_eq!(start.to_bits(), clock.to_bits(), "{name}: spans abut");
                assert_eq!(
                    end.to_bits(),
                    (start + phase.model_seconds).to_bits(),
                    "{name}: {} lasts its modelled time",
                    event.name
                );
                clock = end;
            }
            assert_eq!(
                (clock * 1e3).to_bits(),
                sol.breakdown.total_model_ms().to_bits(),
                "{name}: the track ends at the breakdown's total"
            );
            assert_eq!(events[1].name, Phase::MatrixSketch.label());
        }
    }
}
