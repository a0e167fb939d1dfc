//! # sketch-lowrank
//!
//! Randomized low-rank approximation — the second workload built on the workspace's
//! sketching substrate, after the least squares solvers of `sketch-lsq`.  The crate
//! follows the Halko–Martinsson–Tropp (HMT) blueprint:
//!
//! * [`range_finder`] — draw a test matrix `Ω ∈ R^{n x ℓ}` ([`RangeSketch`]:
//!   Gaussian, CountSketch, or SRHT, built from the `sketch-core` operators), form
//!   `Y = AΩ`, orthonormalise with Householder QR, optionally stabilised power
//!   iteration.  Runs on the unified execution engine: it takes a
//!   [`sketch_gpu_sim::DevicePool`] — serial is a pool of one, and on 2+ devices
//!   the CountSketch/SRHT families shard `Y = (S Aᵀ)ᵀ` through
//!   [`sketch_dist::pipelined_sketch`],
//! * [`rsvd()`] — rangefinder plus a small dense SVD (`sketch-la::svd::jacobi_svd`)
//!   giving the truncated factorisation `A ≈ U Σ Vᵀ`,
//! * [`StreamingSvd`] / [`streaming_svd`] — a *single-pass* variant that consumes `A`
//!   row-block-by-row-block (one [`RowWindows`] window at a time),
//!   maintaining left/right sketches so `A` is read exactly once,
//! * [`nystrom()`] — the PSD-specialised Nyström approximation via
//!   `sketch-la::chol`,
//! * [`estimate_range_error`] — a posterior Gaussian-probe estimate of
//!   `‖A − QQᵀA‖₂` so callers can adaptively grow `k`.
//!
//! Inputs are anything implementing [`MatVecLike`], which is a thin adapter over the
//! workspace-wide [`sketch_core::Operand`] view: dense [`sketch_la::Matrix`] and
//! sparse [`sketch_sparse::CsrMatrix`] share one dense/CSR product implementation
//! (the sparse path routes through `sketch-sparse`'s SpMM, and `Aᵀ·B` through its
//! transpose-free `spmm_transpose`).  All randomness comes from explicit Philox
//! seeds/streams, so equal parameters give bit-for-bit equal factorisations.
//!
//! ## Error bound
//!
//! For the Gaussian rangefinder with target rank `k` and oversampling `p ≥ 2`, HMT
//! Theorem 10.6 gives
//!
//! ```text
//! E ‖A − QQᵀA‖₂ ≤ (1 + 4·√(k+p)·√(min(m,n)) / (p−1)) · σ_{k+1}(A),
//! ```
//!
//! i.e. the error is a modest multiple of the best possible rank-`k` error
//! `σ_{k+1}`, and `q` power iterations sharpen the factor towards 1 at the rate
//! `(σ_{k+1}/σ_k)^{2q}`.  The integration tests pin exactly this shape of bound
//! (with generous constants) plus *exact* recovery of rank-`k` inputs.
//!
//! ## Example
//!
//! ```
//! use sketch_gpu_sim::Device;
//! use sketch_la::{Layout, Matrix};
//! use sketch_lowrank::{rsvd, LowRankParams};
//!
//! let device = Device::h100();
//! // A rank-2 matrix: outer product of two pairs of vectors.
//! let a = Matrix::from_fn(40, 12, Layout::ColMajor, |i, j| {
//!     let (x, y) = (i as f64, j as f64);
//!     (x + 1.0) * (y + 2.0) + 0.5 * (x - 3.0) * (y - 1.0)
//! });
//! let svd = rsvd(&device, &a, &LowRankParams::new(2)).unwrap();
//! assert_eq!(svd.rank(), 2);
//! let back = svd.reconstruct(&device).unwrap();
//! assert!(a.max_abs_diff(&back).unwrap() < 1e-8);
//! ```

pub mod error;
pub mod matvec;
pub mod nystrom;
pub mod rangefinder;
pub mod rsvd;
pub mod streaming;

pub use error::LowRankError;
pub use matvec::MatVecLike;
pub use nystrom::{nystrom, NystromResult};
pub use rangefinder::{estimate_range_error, range_finder, LowRankParams, RangeSketch};
pub use rsvd::{deterministic_svd, rsvd, SvdResult};
pub use streaming::{streaming_svd, CountingBlockSource, RowBlockSource, RowWindows, StreamingSvd};
