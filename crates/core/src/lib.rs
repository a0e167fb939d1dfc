//! # sketch-core
//!
//! The paper's primary contribution: a high performance CountSketch kernel and the
//! sketch operators it is compared against and combined with.
//!
//! * [`CountSketch`] — the dedicated atomic-reduction kernel of **Algorithm 2** (row
//!   `j` of `A` is added to or subtracted from row `r_j` of `Y`), plus the SpMM baseline
//!   the paper measures against and a gather-based ablation variant,
//! * [`HashCountSketch`] — the "build the CountSketch on the fly with a hash" streaming
//!   variant the paper lists as future work (Section 8),
//! * [`GaussianSketch`] — the dense `k x d` Gaussian sketch applied with GEMM,
//! * [`Srht`] — the subsampled randomized Hadamard transform of **Section 5**, built on
//!   the radix-4 fast Walsh–Hadamard transform of **Algorithm 3** with a shared-memory
//!   tile model,
//! * the Count-Gauss multisketch (CountSketch down to `k₁ = 2n²`, Gaussian down to
//!   `k₂ = 2n`) — the two-stage [`Pipeline::count_gauss`], whose Gaussian GEMM reads
//!   the row-major CountSketch output in place (the layout point of Section 6.1),
//! * [`ComposedSketch`] — the built pipeline: every [`Pipeline`] builds one, holding
//!   each resolved stage's spec and typed [`StageOperator`].  It is generated once
//!   per solve, applied to `A` and `b`, and handed to the multi-device executor,
//!   which then builds nothing,
//! * [`embedding`] — empirical subspace-embedding distortion checks (Definitions
//!   1.1–1.2).
//!
//! All operators implement [`SketchOperator`] so the least squares solvers in
//! `sketch-lsq` and the pipelined executor in `sketch-dist` are generic over the sketch.
//! Sketches are normally constructed *declaratively*: a [`SketchSpec`] (or a
//! multi-stage [`Pipeline`]) names the kind, dimensions (exact or as the paper's
//! `2n` / `2n²` embedding rules), and Philox seed, serializes to JSON, and builds the
//! live operator on a device.  The hot path is [`SketchOperator::apply_into`]:
//! operand-generic (dense or CSR via [`Operand`]) and allocation-free.  A
//! [`CountSketch`] inverts its row map once, when it is generated, so no apply
//! sorts.  Every kind states its costs from the operand's shape alone
//! ([`SketchSpec::costs`], [`Pipeline::costs`] → [`SketchCosts`]): each
//! `apply_into` computes, then records exactly that statement, and the
//! executor and the paper-scale projections read the same statements.
//!
//! ```
//! use sketch_core::{EmbeddingDim, SketchSpec, SketchOperator};
//! use sketch_gpu_sim::Device;
//! use sketch_la::{Layout, Matrix};
//!
//! let device = Device::h100();
//! let d = 1024;
//! let n = 8;
//! let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 42, 0);
//! // CountSketch with the paper's k = 2n² convention, built from a declarative spec.
//! let spec = SketchSpec::countsketch(d, EmbeddingDim::Square(2), 7);
//! let sketch = spec.build_for(&device, n).unwrap();
//! let y = sketch.apply_matrix(&device, &a).unwrap();
//! assert_eq!(y.nrows(), 2 * n * n);
//! assert_eq!(y.ncols(), n);
//! ```

pub mod countsketch;
pub mod embedding;
pub mod error;
pub mod fwht;
pub mod gaussian;
pub mod operand;
pub mod spec;
pub mod srht;
pub mod streaming;
pub mod traits;

pub use countsketch::{CountSketch, HashCountSketch};
pub use error::{Error, SketchError};
pub use gaussian::GaussianSketch;
pub use operand::{Operand, OperandShape, OperandSlice};
pub use spec::{
    json::JsonValue, ComposedSketch, EmbeddingDim, Pipeline, ShardAxis, SketchKind, SketchSpec,
    StageOperator,
};
pub use srht::Srht;
pub use streaming::FrequencyCountSketch;
pub use traits::{SketchCosts, SketchOperator};
