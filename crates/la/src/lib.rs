//! # sketch-la
//!
//! Dense linear algebra substrate for the GPU CountSketch reproduction — the stand-in
//! for the cuBLAS and cuSOLVER routines the paper calls (Section 6.1):
//!
//! * [`Matrix`] — a dense, column-major or row-major `f64` matrix (the paper is explicit
//!   about layouts: the CountSketch wants row-major `A`, everything downstream wants
//!   column-major),
//! * BLAS-1/2/3 kernels — [`blas1`], [`blas2`] (GEMV, TRSV), [`blas3`] (GEMM, SYRK,
//!   TRSM), all multi-threaded and all reporting exact byte/flop costs to the simulated
//!   device; the level-3 kernels share the cache-blocked packing/microkernel
//!   infrastructure in [`gebp`],
//! * [`qr`] — Householder QR (GEQRF), application of the reflectors (ORMQR) and
//!   economy-QR helpers,
//! * [`chol`] — Cholesky factorisation (POTRF),
//! * [`svd`] — small dense SVD via one-sided Jacobi (GeSVDJ substitute), the
//!   factorisation the randomized low-rank pipeline reduces to,
//! * [`cond`] — construction of test matrices with a prescribed condition number
//!   (Figure 8) and randomized condition estimation,
//! * [`norms`] — vector/matrix norms and residual helpers.
//!
//! Every routine takes a [`sketch_gpu_sim::Device`] handle and records the cost it would
//! incur on the modelled GPU, which is how the benchmark harness regenerates the paper's
//! runtime breakdowns without CUDA hardware.  The costs the least-squares solvers
//! record are stated from the shapes alone by a public function beside each kernel
//! ([`blas2::gemv_cost`], [`blas2::trsv_cost`], [`blas3::gemm_cost`],
//! [`blas3::trsm_cost`], [`chol::potrf_cost`], [`qr::geqrf_cost`], [`qr::ormqr_cost`],
//! [`matrix::copy_cost`]), which the paper-scale projection evaluates at sizes nothing
//! could allocate.
//!
//! ```
//! use sketch_gpu_sim::Device;
//! use sketch_la::{Matrix, blas3};
//!
//! let device = Device::h100();
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = blas3::gemm(&device, 1.0, &a, &b, 0.0, None).unwrap();
//! assert_eq!(c.get(1, 0), 3.0);
//! ```

pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod chol;
pub mod cond;
pub mod error;
pub mod gebp;
pub mod matrix;
pub mod norms;
pub mod qr;
pub mod svd;

pub use error::LaError;
pub use matrix::{Layout, Matrix, MatrixViewMut, Op};
pub use qr::QrFactors;
pub use svd::{jacobi_svd, SmallSvd};
