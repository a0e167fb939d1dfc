//! # sketch-sparse
//!
//! Sparse matrix substrate — the cuSPARSE substitute used by the paper's baseline
//! CountSketch implementation.
//!
//! The paper's Section 3 observes that "most CountSketches investigated in the
//! randomized linear algebra literature use a simple sparse matrix multiply (SpMM or
//! SpMV)", and then shows (Figures 2–3) that a vendor SpMM applied to a matrix with the
//! CountSketch's random sparsity structure only reaches ~20 % of peak memory bandwidth,
//! versus 50–60 % for the dedicated kernel.  To reproduce that comparison we need an
//! actual sparse engine:
//!
//! * [`CooMatrix`] — triplet assembly format,
//! * [`CsrMatrix`] — compressed sparse row storage with conversion from COO,
//! * [`CsrRowsView`] — a zero-copy block-row window over a CSR matrix (the sparse
//!   side of the executor's `ShardAxis::Rows` contract),
//! * [`spmv`] / [`spmm`] — row-parallel sparse kernels with device cost accounting,
//!   including the *gather penalty* that models the uncoalesced row accesses a generic
//!   SpMM performs when its sparsity pattern is random,
//! * [`spmm_transpose`] — `Aᵀ B` without building `Aᵀ`: it streams `A` once per
//!   output column panel and scatters each row of `B` into the output rows its
//!   entries name, bit-for-bit equal to SpMM of the transpose.

pub mod coo;
pub mod csr;
pub mod ops;

pub use coo::CooMatrix;
pub use csr::{CsrMatrix, CsrRowsView};
pub use ops::{spmm, spmm_cost, spmm_into, spmm_transpose, spmv, SPMM_GATHER_PENALTY};
