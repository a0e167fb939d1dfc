//! A single dispatch point over every solver the paper compares.
//!
//! The Figure 5/6/7/8 harnesses all iterate over the same method list (Normal Eq,
//! Gauss, Count, Multi, SRHT, rand_cholQR, QR).  Each sketched method's embedding
//! dimension convention (Section 6: `k = 2n` for Gaussian/SRHT/multisketch, `k = 2n²`
//! for the CountSketch) lives in the declarative
//! [`sketch_pipeline`](Method::sketch_pipeline) — a [`Pipeline`] of
//! [`SketchSpec`]s — and [`solve`] simply builds that pipeline for the problem at
//! hand, so every harness, example, and JSON config constructs exactly the
//! configuration the paper evaluated.

use crate::error::LsqError;
use crate::problem::LsqProblem;
use crate::rand_cholqr::rand_cholqr_least_squares;
use crate::solvers::{normal_equations, qr_direct, sketch_and_solve, LsqSolution};
use sketch_core::{EmbeddingDim, Pipeline, SketchSpec};
use sketch_dist::ExecutorOptions;
use sketch_gpu_sim::DevicePool;

/// The least squares methods compared in the paper's evaluation.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Gram matrix + Cholesky (the baseline of Figures 5–8).
    NormalEquations,
    /// Sketch-and-solve with a dense Gaussian sketch, `k = 2n`.
    Gaussian,
    /// Sketch-and-solve with the Algorithm 2 CountSketch, `k = 2n²`.
    CountSketch,
    /// Sketch-and-solve with the Count-Gauss multisketch, `k₁ = 2n²`, `k₂ = 2n`.
    MultiSketch,
    /// Sketch-and-solve with the SRHT, `k = 2n`.
    Srht,
    /// rand_cholQR least squares (Algorithm 5) driven by the multisketch.
    RandCholQr,
    /// Direct Householder QR (accuracy reference).
    Qr,
}

impl Method {
    /// All methods in the order the paper's figures list them.
    pub const ALL: [Method; 7] = [
        Method::NormalEquations,
        Method::Gaussian,
        Method::CountSketch,
        Method::MultiSketch,
        Method::Srht,
        Method::RandCholQr,
        Method::Qr,
    ];

    /// The methods shown in the performance breakdown of Figure 5 (QR is excluded there
    /// because it "destroys the scaling of the figures").
    pub const FIGURE5: [Method; 6] = [
        Method::NormalEquations,
        Method::Gaussian,
        Method::CountSketch,
        Method::MultiSketch,
        Method::Srht,
        Method::RandCholQr,
    ];

    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Method::NormalEquations => "Normal Eq",
            Method::Gaussian => "Gauss",
            Method::CountSketch => "Count",
            Method::MultiSketch => "Multi",
            Method::Srht => "SRHT",
            Method::RandCholQr => "rand_cholQR",
            Method::Qr => "QR",
        }
    }

    /// Whether the solution carries the sketch-and-solve `O(1)` residual distortion.
    pub fn has_distortion(&self) -> bool {
        matches!(
            self,
            Method::Gaussian | Method::CountSketch | Method::MultiSketch | Method::Srht
        )
    }

    /// The sketch this method uses, as a declarative [`Pipeline`] carrying the
    /// paper's Section 6 embedding-dimension conventions; `None` for the direct
    /// (sketch-free) solvers.
    ///
    /// `input_dim` is the operand's row count `d`; the `2n`/`2n²` rules resolve
    /// against the operand width when the pipeline is built.
    pub fn sketch_pipeline(&self, input_dim: usize, seed: u64) -> Option<Pipeline> {
        match self {
            Method::NormalEquations | Method::Qr => None,
            Method::Gaussian => Some(Pipeline::single(SketchSpec::gaussian(
                input_dim,
                EmbeddingDim::Ratio(2),
                seed,
            ))),
            Method::CountSketch => Some(Pipeline::single(SketchSpec::countsketch(
                input_dim,
                EmbeddingDim::Square(2),
                seed,
            ))),
            Method::Srht => Some(Pipeline::single(SketchSpec::srht(
                input_dim,
                EmbeddingDim::Ratio(2),
                seed,
            ))),
            Method::MultiSketch | Method::RandCholQr => Some(Pipeline::count_gauss(
                input_dim,
                EmbeddingDim::Square(2),
                EmbeddingDim::Ratio(2),
                seed,
            )),
        }
    }
}

/// Solve `problem` with `method` on a [`DevicePool`], constructing the method's
/// sketch through its declarative [`Pipeline`] (the paper's embedding-dimension
/// conventions) and executing it on the unified engine.
///
/// Serial execution is a pool of one (e.g.
/// [`DevicePool::single`](sketch_gpu_sim::DevicePool::single)); larger pools
/// shard the matrix sketch with the pipelined executor.  The solution vector is
/// bit-identical for every pool size.  The direct (sketch-free) methods run on
/// pool device 0.
///
/// `seed` drives the sketch generation so repeated runs are reproducible.
pub fn solve(
    pool: &DevicePool,
    problem: &LsqProblem,
    method: Method,
    seed: u64,
) -> Result<LsqSolution, LsqError> {
    let opts = &ExecutorOptions::default();
    let device = pool.device(0);
    let d = problem.nrows();
    match method {
        Method::NormalEquations => normal_equations(device, problem),
        Method::Qr => qr_direct(device, problem),
        Method::RandCholQr => {
            let plan = method
                .sketch_pipeline(d, seed)
                .expect("rand_cholQR is sketched");
            let (sol, _run) = rand_cholqr_least_squares(pool, problem, &plan, opts)?;
            Ok(sol)
        }
        Method::Gaussian | Method::CountSketch | Method::MultiSketch | Method::Srht => {
            let plan = method
                .sketch_pipeline(d, seed)
                .expect("sketch-and-solve methods are sketched");
            let (mut sol, _run) = sketch_and_solve(pool, problem, &plan, opts)?;
            sol.method = method.label();
            Ok(sol)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::best_residual;
    use sketch_core::SketchKind;
    use sketch_gpu_sim::Device;

    fn device() -> Device {
        Device::unlimited()
    }

    fn pool() -> DevicePool {
        DevicePool::unlimited(1)
    }

    #[test]
    fn labels_match_the_paper_legend() {
        let labels: Vec<&str> = Method::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Normal Eq",
                "Gauss",
                "Count",
                "Multi",
                "SRHT",
                "rand_cholQR",
                "QR"
            ]
        );
        assert_eq!(Method::FIGURE5.len(), 6);
        assert!(!Method::FIGURE5.contains(&Method::Qr));
    }

    #[test]
    fn distortion_classification() {
        assert!(Method::MultiSketch.has_distortion());
        assert!(Method::CountSketch.has_distortion());
        assert!(!Method::NormalEquations.has_distortion());
        assert!(!Method::RandCholQr.has_distortion());
        assert!(!Method::Qr.has_distortion());
    }

    #[test]
    fn pipelines_encode_the_section6_conventions() {
        // Direct solvers carry no sketch.
        assert!(Method::NormalEquations.sketch_pipeline(100, 1).is_none());
        assert!(Method::Qr.sketch_pipeline(100, 1).is_none());
        // k = 2n for Gaussian/SRHT, k = 2n² for CountSketch.
        let g = Method::Gaussian.sketch_pipeline(100, 1).unwrap();
        assert_eq!(g.stages[0].output_dim, EmbeddingDim::Ratio(2));
        let c = Method::CountSketch.sketch_pipeline(100, 1).unwrap();
        assert_eq!(c.stages[0].output_dim, EmbeddingDim::Square(2));
        let s = Method::Srht.sketch_pipeline(100, 1).unwrap();
        assert_eq!(s.stages[0].kind, SketchKind::Srht);
        // Multisketch and rand_cholQR share the Count→Gauss pipeline.
        for m in [Method::MultiSketch, Method::RandCholQr] {
            let p = m.sketch_pipeline(100, 1).unwrap();
            assert!(p.is_count_gauss());
            assert_eq!(p.input_dim(), 100);
        }
        // Built for n = 8, the dimensions match the paper.
        let dev = device();
        let op = Method::MultiSketch
            .sketch_pipeline(1024, 1)
            .unwrap()
            .build_for(&dev, 8)
            .unwrap();
        assert_eq!(op.output_dim(), 16);
    }

    #[test]
    fn every_method_solves_a_small_easy_problem() {
        let dev = device();
        let p = LsqProblem::easy(&dev, 1024, 4, 1).unwrap();
        let best = best_residual(&dev, &p).unwrap();
        for method in Method::ALL {
            let sol = solve(&pool(), &p, method, 7).unwrap();
            let res = sol.relative_residual(&dev, &p).unwrap();
            // With the paper's k = 2n convention and this deliberately tiny n, the
            // subspace-embedding ε is large, so allow the full sketch-and-solve
            // distortion envelope for the distorted methods.
            let slack = if method.has_distortion() {
                2.8
            } else {
                1.0 + 1e-6
            };
            assert!(
                res <= slack * best + 1e-12,
                "{}: residual {res} vs best {best}",
                method.label()
            );
        }
    }

    #[test]
    fn undistorted_methods_agree_with_each_other() {
        let dev = device();
        let p = LsqProblem::hard(&dev, 2048, 5, 2).unwrap();
        let qr = solve(&pool(), &p, Method::Qr, 1).unwrap();
        let ne = solve(&pool(), &p, Method::NormalEquations, 1).unwrap();
        let rc = solve(&pool(), &p, Method::RandCholQr, 1).unwrap();
        for (a, b) in ne.x.iter().zip(&qr.x) {
            assert!((a - b).abs() < 1e-7);
        }
        for (a, b) in rc.x.iter().zip(&qr.x) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn every_sketched_method_is_bit_identical_across_pool_sizes() {
        let dev = device();
        let p = LsqProblem::easy(&dev, 1024, 4, 9).unwrap();
        for method in [
            Method::Gaussian,
            Method::CountSketch,
            Method::MultiSketch,
            Method::Srht,
            Method::RandCholQr,
        ] {
            let reference = solve(&pool(), &p, method, 3).unwrap();
            for devices in [2usize, 3] {
                let big = DevicePool::unlimited(devices);
                let sol = solve(&big, &p, method, 3).unwrap();
                for (a, b) in sol.x.iter().zip(&reference.x) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} drifted on {devices} devices",
                        method.label()
                    );
                }
            }
        }
    }

    #[test]
    fn solves_are_reproducible_for_a_fixed_seed() {
        let dev = device();
        let p = LsqProblem::easy(&dev, 1024, 4, 3).unwrap();
        let a = solve(&pool(), &p, Method::MultiSketch, 42).unwrap();
        let b = solve(&pool(), &p, Method::MultiSketch, 42).unwrap();
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn normal_equations_break_down_on_ill_conditioned_problems_but_sketches_do_not() {
        // This is the Figure 8 story in miniature: kappa = 1e12 > u^{-1/2} ~ 1e8.
        let dev = device();
        let p = LsqProblem::conditioned(&dev, 1024, 8, 1e12, 4).unwrap();
        let ne = solve(&pool(), &p, Method::NormalEquations, 1);
        let ne_failed_or_inaccurate = match ne {
            Err(e) => e.is_gram_breakdown(),
            Ok(sol) => sol.relative_residual(&dev, &p).unwrap() > 1e-4,
        };
        assert!(
            ne_failed_or_inaccurate,
            "normal equations should struggle at kappa=1e12"
        );

        let multi = solve(&pool(), &p, Method::MultiSketch, 1).unwrap();
        let res = multi.relative_residual(&dev, &p).unwrap();
        assert!(res < 1e-4, "multisketch stays accurate: {res}");
    }
}
