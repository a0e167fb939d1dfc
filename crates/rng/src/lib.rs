//! # sketch-rng
//!
//! Counter-based random number generation for the GPU CountSketch reproduction.
//!
//! The paper uses NVIDIA's cuRAND library to generate the random ingredients of each
//! sketch operator (Gaussian entries, Rademacher signs, uniform row indices).  cuRAND's
//! default device generator is the Philox4x32-10 counter-based generator, so this crate
//! implements **Philox4x32-10 from scratch** and layers the distributions the paper
//! needs on top of it:
//!
//! * [`Philox4x32`] — the raw counter-based block generator, one block or a
//!   structure-of-arrays batch of them at a time,
//! * [`PhiloxRng`] — a buffered [`rand::RngCore`] adaptor with O(1) `jump-ahead`,
//! * [`distributions`] — uniform doubles, Box–Muller Gaussians, Rademacher signs and
//!   bounded uniform integers,
//! * [`fill`] — deterministic *parallel* fills of large slices, mirroring how a GPU
//!   generates one value per thread from `(seed, counter)` without any sequential
//!   dependency,
//! * [`Tier`] — the instruction-set tier every SIMD loop of the workspace selects once
//!   per call.
//!
//! Every value is a pure function of `(seed, stream, index)`, the same at any thread
//! count and in every tier.  Gaussians are also the same on every IEEE-754 host: the
//! Box–Muller transform builds its logarithm, sine and cosine from `+ − × ÷`, `sqrt`
//! and integer bit operations instead of calling libm, and never fuses a multiply into
//! an add.
//!
//! Counter-based generation is what makes the "sketch generation time" lines of the
//! paper's Figure 2 and Figure 5 meaningful: generating the `2n·d` Gaussians of a
//! Gaussian sketch is embarrassingly parallel but still costs far more than the `d`
//! integers + `d` signs of a CountSketch, and both costs are reproduced faithfully here.
//!
//! ## Example
//!
//! ```
//! use sketch_rng::{PhiloxRng, fill};
//!
//! let mut rng = PhiloxRng::seed_from(42);
//! let x = rng.next_f64();
//! assert!((0.0..1.0).contains(&x));
//!
//! // Deterministic parallel fill: same seed -> same vector, regardless of thread count.
//! let gauss = fill::gaussian_vec(42, 7, 1024);
//! let again = fill::gaussian_vec(42, 7, 1024);
//! assert_eq!(gauss, again);
//! ```

pub mod distributions;
pub mod fill;
pub mod philox;
pub mod stream;
pub mod tier;

pub use distributions::{BoxMuller, Rademacher, UniformIndex};
pub use philox::{Philox4x32, PhiloxRng, PHILOX_ROUNDS};
pub use stream::StreamFactory;
pub use tier::Tier;

/// Convenience re-export of the `rand` traits used throughout the workspace.
pub use rand::{Rng, RngCore, SeedableRng};
