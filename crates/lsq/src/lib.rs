//! # sketch-lsq
//!
//! Least squares solvers built on the sketch operators — the application half of the
//! paper (Sections 2 and 6.3).
//!
//! Four solver families are provided, matching the paper's comparison:
//!
//! * [`normal_equations`] — Gram matrix + Cholesky + two triangular solves; the fastest
//!   deterministic direct solver, but only stable while `κ(A) < u^{-1/2}`,
//! * [`sketch_and_solve`] — **Algorithm 1**: sketch `A` and `b`, QR-solve the reduced
//!   problem; stable, fast, but introduces an `O(1)` distortion in the residual,
//! * [`rand_cholqr_least_squares`] — **Algorithm 5** (randomized Cholesky QR): a true
//!   least squares solution with no distortion, stable up to `κ(A) < u^{-1}`,
//! * [`qr_direct`] — Householder QR on the full matrix; the accuracy gold standard and
//!   the slowest method (the paper omits it from the performance plots for that reason).
//!
//! Every sketched solver runs on the **unified execution engine**: it takes a
//! [`DevicePool`](sketch_gpu_sim::DevicePool) and routes the matrix sketch
//! through [`sketch_dist::pipelined_sketch`].  Serial execution is simply a pool
//! of one ([`DevicePool::single`](sketch_gpu_sim::DevicePool::single)); larger
//! pools shard the sketch with comm/compute overlap, and the solution is
//! **bit-identical** at every pool size.
//!
//! [`solve`] dispatches on [`Method`] and returns both the solution and the per-phase
//! [`RunBreakdown`](sketch_gpu_sim::RunBreakdown) that the Figure 5 harness prints.
//! Each sketched method's configuration is declarative: [`Method::sketch_pipeline`]
//! yields the [`sketch_core::Pipeline`] of [`sketch_core::SketchSpec`]s encoding the
//! paper's embedding-dimension conventions, and [`solve`] builds it for the problem
//! at hand.  Errors are the workspace-wide [`sketch_core::Error`] (re-exported as
//! [`LsqError`]).
//!
//! ```
//! use sketch_gpu_sim::DevicePool;
//! use sketch_lsq::{problem::LsqProblem, solve, Method};
//!
//! let pool = DevicePool::h100(1); // serial = pool of one; try h100(4) to scale out
//! let device = pool.device(0);
//! let problem = LsqProblem::easy(device, 2048, 8, 42).unwrap();
//! let normal = solve(&pool, &problem, Method::NormalEquations, 1).unwrap();
//! let multi = solve(&pool, &problem, Method::MultiSketch, 1).unwrap();
//! // The sketched residual stays within the O(1) distortion envelope of the true one.
//! assert!(multi.relative_residual(device, &problem).unwrap()
//!     < 3.0 * normal.relative_residual(device, &problem).unwrap() + 1e-6);
//! ```

pub mod error;
pub mod method;
pub mod problem;
pub mod rand_cholqr;
pub mod solvers;

pub use error::LsqError;
pub use method::{solve, Method};
pub use problem::LsqProblem;
pub use rand_cholqr::{rand_cholqr, rand_cholqr_least_squares, RandCholQrFactors};
pub use solvers::{normal_equations, qr_direct, sketch_and_solve, LsqSolution};
