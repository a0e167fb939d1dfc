//! The randomized rangefinder (HMT Algorithm 4.1/4.4) and its posterior error
//! estimator (HMT Algorithm 4.3).
//!
//! `range_finder` draws a test matrix `Ω ∈ R^{n x ℓ}` with `ℓ = k + p`, forms
//! `Y = AΩ`, and orthonormalises it with Householder QR (`sketch-la::qr::geqrf`).
//! Optional power iteration replaces `Y` by `(AAᵀ)^q AΩ`, re-orthonormalising after
//! every application of `A` or `Aᵀ` so rounding does not collapse the small singular
//! directions.
//!
//! The test matrix is selected by [`RangeSketch`]: i.i.d. Gaussian columns, a
//! CountSketch, or an SRHT — the latter two built through their declarative
//! [`SketchSpec`]s so the rangefinder exercises exactly the operators the rest of
//! the workspace benchmarks.

use crate::error::{dim_err, param_err, LowRankError};
use crate::matvec::MatVecLike;
use sketch_core::{EmbeddingDim, Operand, Pipeline, SketchSpec};
use sketch_dist::{pipelined_sketch, ExecutorOptions};
use sketch_gpu_sim::{Device, DevicePool, KernelCost};
use sketch_la::norms::vec_norm2;
use sketch_la::qr::geqrf_owned;
use sketch_la::{blas3, Layout, Matrix, Op};

/// Seed salt for the posterior estimator's probe vectors, so that reusing the
/// rangefinder's own `(seed, stream)` — the natural call — cannot alias the probes
/// with the columns of the test matrix `Ω` (aliased probes would lie inside
/// `span(Q)` by construction and certify any basis as perfect).
const PROBE_SEED_SALT: u64 = 0x50B3_57E1_0A7E_D00D;

/// Which random test matrix the rangefinder draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangeSketch {
    /// Dense i.i.d. `N(0, 1)` test matrix — the HMT default, strongest guarantees.
    Gaussian,
    /// CountSketch test matrix (one `±1` per row of `Ω`), materialised via
    /// `sketch-core`'s Algorithm 2 operator — cheapest to generate and apply.
    CountSketch,
    /// Subsampled randomized Hadamard transform test matrix (Section 5 operator).
    Srht,
}

impl RangeSketch {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            RangeSketch::Gaussian => "Gaussian",
            RangeSketch::CountSketch => "CountSketch",
            RangeSketch::Srht => "SRHT",
        }
    }

    /// The declarative [`SketchSpec`] for the `l x n` operator `S` whose transpose is
    /// the test matrix `Ω`; `None` for the plain Gaussian (which is a direct Philox
    /// fill, not a `sketch-core` operator).
    ///
    /// The `sketch-core` specs take a single seed; the stream is folded in with a
    /// golden-ratio mix so `(seed, stream)` pairs stay distinct.
    pub fn spec(&self, n: usize, l: usize, seed: u64, stream: u64) -> Option<SketchSpec> {
        let mixed = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match self {
            RangeSketch::Gaussian => None,
            RangeSketch::CountSketch => {
                Some(SketchSpec::countsketch(n, EmbeddingDim::Exact(l), mixed))
            }
            RangeSketch::Srht => Some(SketchSpec::srht(n, EmbeddingDim::Exact(l), mixed)),
        }
    }

    /// Materialise the `n x l` test matrix `Ω` for `(seed, stream)`.
    ///
    /// Gaussian columns are filled directly with the Philox generator.  CountSketch
    /// and SRHT build the corresponding `sketch-core` operator `S ∈ R^{l x n}`
    /// through its [`SketchSpec`] and materialise `Ω = Sᵀ`, so the rangefinder
    /// reuses the exact kernels (and cost accounting) of the sketching layer.
    pub fn test_matrix(
        &self,
        device: &Device,
        n: usize,
        l: usize,
        seed: u64,
        stream: u64,
    ) -> Result<Matrix, LowRankError> {
        if n == 0 || l == 0 {
            return Err(param_err("test matrix dimensions must be positive"));
        }
        match self {
            RangeSketch::Gaussian => Ok(Matrix::random_gaussian(
                n,
                l,
                Layout::ColMajor,
                seed,
                stream,
            )),
            RangeSketch::CountSketch => {
                // Ω = Sᵀ has exactly one ±1 per row, so scatter it directly from the
                // operator's row map instead of applying S to a dense n x n identity.
                let cs = self
                    .spec(n, l, seed, stream)
                    .expect("CountSketch has a spec")
                    .build_countsketch(device)?;
                let mut omega = Matrix::zeros(n, l);
                for (j, (&row, &sign)) in cs.rows().iter().zip(cs.signs().iter()).enumerate() {
                    omega.set(j, row, if sign { 1.0 } else { -1.0 });
                }
                device.record(KernelCost::new(
                    (n as u64) * 5,
                    KernelCost::f64_bytes((n * l) as u64),
                    0,
                    1,
                ));
                Ok(omega)
            }
            RangeSketch::Srht => {
                let op = self
                    .spec(n, l, seed, stream)
                    .expect("SRHT has a spec")
                    .build(device)?;
                let st = op.apply_matrix(device, &Matrix::identity(n))?;
                Ok(st.transpose(device))
            }
        }
    }
}

/// Parameters shared by every routine in the crate.
///
/// The defaults follow HMT's practical recommendations: oversampling `p = 8` and no
/// power iteration (add 1–2 iterations for slowly decaying spectra).  Seeds and
/// streams feed the Philox generator directly, so equal parameters produce
/// bit-identical factorisations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowRankParams {
    /// Target rank `k` of the approximation.
    pub k: usize,
    /// Oversampling `p`; the sketch dimension is `ℓ = k + p` (clamped to `min(m, n)`).
    pub oversample: usize,
    /// Number of power (subspace) iterations `q`.
    pub power_iters: usize,
    /// Which test matrix to draw.
    pub sketch: RangeSketch,
    /// Philox seed.
    pub seed: u64,
    /// Philox stream.
    pub stream: u64,
}

impl LowRankParams {
    /// Parameters for target rank `k` with the HMT defaults.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            oversample: 8,
            power_iters: 0,
            sketch: RangeSketch::Gaussian,
            seed: 0x5EED,
            stream: 0,
        }
    }

    /// Set the oversampling parameter `p`.
    pub fn with_oversample(mut self, p: usize) -> Self {
        self.oversample = p;
        self
    }

    /// Set the number of power iterations `q`.
    pub fn with_power_iters(mut self, q: usize) -> Self {
        self.power_iters = q;
        self
    }

    /// Select the test matrix family.
    pub fn with_sketch(mut self, sketch: RangeSketch) -> Self {
        self.sketch = sketch;
        self
    }

    /// Set the Philox seed and stream.
    pub fn with_seed(mut self, seed: u64, stream: u64) -> Self {
        self.seed = seed;
        self.stream = stream;
        self
    }

    /// The sketch dimension `ℓ = min(k + p, m, n)`, validated against the operand.
    pub(crate) fn sketch_dim(&self, m: usize, n: usize) -> Result<usize, LowRankError> {
        if self.k == 0 {
            return Err(param_err("target rank k must be positive"));
        }
        if self.k > m.min(n) {
            return Err(param_err(format!(
                "target rank {} exceeds min dimension of a {m}x{n} operand",
                self.k
            )));
        }
        Ok((self.k + self.oversample).min(m.min(n)))
    }
}

/// Orthonormalise the columns of `y` via Householder QR, returning the thin `Q`.
///
/// Takes `y` by value: the factorisation runs in its buffer and `Q` overwrites the
/// factors, so one orthonormalisation holds a single `m x ℓ` buffer.
pub(crate) fn orthonormalize(device: &Device, y: Matrix) -> Result<Matrix, LowRankError> {
    Ok(geqrf_owned(device, y)?.into_q_thin(device))
}

/// Randomized rangefinder on the unified execution engine: an `m x ℓ` matrix `Q`
/// with orthonormal columns such that `A ≈ Q Qᵀ A`, computed on a [`DevicePool`].
///
/// **Serial is a pool of one** (e.g.
/// [`DevicePool::single`](sketch_gpu_sim::DevicePool::single)): the classic HMT
/// sequence — draw `Ω`, form `Y = A Ω`, orthonormalise — runs on pool device 0,
/// bit-for-bit identical to the pre-engine serial implementation for every test
/// matrix family including the plain Gaussian.
///
/// **On 2+ devices** the test-matrix product is recast as a *sketch application*:
/// with the CountSketch/SRHT test matrix `Ω = Sᵀ` (where `S` is the `ℓ x n`
/// operator from [`RangeSketch::spec`]), `Y = A Ω = (S Aᵀ)ᵀ` — exactly the
/// operation [`pipelined_sketch`] shards, overlaps and prices across the pool,
/// for dense *and* CSR operands.  Power iterations and the orthonormalisations
/// run on device 0.  The plain-Gaussian test matrix is a direct Philox fill with
/// no `sketch-core` operator to shard, so it is rejected with an
/// [`InvalidParameter`](sketch_core::Error::InvalidParameter) error on
/// multi-device pools — use the CountSketch/SRHT families there.
///
/// With a Gaussian test matrix, HMT Theorem 10.6 bounds the expected error by
/// `E‖A − QQᵀA‖ ≤ (1 + 4√(k+p)·√(min(m,n))/(p−1))·σ_{k+1}`, and each power iteration
/// drives the constant towards 1 like `(σ_{k+1}/σ_k)^{2q}`.
pub fn range_finder<M: MatVecLike + ?Sized>(
    pool: &DevicePool,
    a: &M,
    params: &LowRankParams,
    opts: &ExecutorOptions,
) -> Result<Matrix, LowRankError> {
    let device = pool.device(0);
    if pool.num_devices() == 1 {
        // The degenerate pool runs the exact serial HMT sequence on device 0.
        return range_finder_on(device, a, params);
    }
    let (m, n) = (a.nrows(), a.ncols());
    let l = params.sketch_dim(m, n)?;
    let Some(spec) = params.sketch.spec(n, l, params.seed, params.stream) else {
        return Err(param_err(
            "the plain Gaussian test matrix has no sketch-core operator to shard \
             across a multi-device pool; use RangeSketch::CountSketch / \
             RangeSketch::Srht, or a pool of one",
        ));
    };
    // Y = A Ω = (S Aᵀ)ᵀ: hand the transposed operand to the executor.  The
    // dense transpose charges itself through the device; the CSR counting-sort
    // transpose is charged here so the sparse path prices its O(nnz) passes
    // like the dense one does.
    let at_dense;
    let at_csr;
    let at: Operand<'_> = match a.as_operand() {
        Operand::Dense(d) => {
            at_dense = d.transpose(device);
            Operand::Dense(&at_dense)
        }
        Operand::Csr(s) => {
            at_csr = s.transpose();
            device.record(csr_transpose_cost(s.nnz(), s.nrows(), s.ncols()));
            Operand::Csr(&at_csr)
        }
        Operand::CsrRows(v) => {
            at_csr = v.to_csr().transpose();
            device.record(csr_transpose_cost(v.nnz(), v.nrows(), v.ncols()));
            Operand::Csr(&at_csr)
        }
    };
    let run = pipelined_sketch(pool, at, &Pipeline::single(spec), opts)?;
    // run.result = S Aᵀ = Ωᵀ Aᵀ = Yᵀ.
    let y = run.result.transpose(device);
    let mut q = orthonormalize(device, y)?;
    for _ in 0..params.power_iters {
        let z = orthonormalize(device, a.mul_transpose_right(device, &q)?)?;
        q = orthonormalize(device, a.mul_right(device, &z)?)?;
    }
    Ok(q)
}

/// Modelled cost of the CSR→CSR counting-sort transpose (cuSPARSE `csr2csc`):
/// two passes over the nonzeros (histogram + scatter), index and value traffic
/// on both sides.
fn csr_transpose_cost(nnz: usize, nrows: usize, ncols: usize) -> KernelCost {
    let idx = std::mem::size_of::<usize>() as u64;
    let nnz64 = nnz as u64;
    KernelCost::new(
        2 * (KernelCost::f64_bytes(nnz64) + idx * nnz64) + idx * (nrows as u64 + 1),
        KernelCost::f64_bytes(nnz64) + idx * nnz64 + idx * (ncols as u64 + 1),
        nnz64,
        2,
    )
}

/// The serial HMT rangefinder on one device — the pool-of-one body of
/// [`range_finder`], kept crate-private so single-device drivers ([`crate::rsvd`])
/// reuse it without constructing a pool.
pub(crate) fn range_finder_on<M: MatVecLike + ?Sized>(
    device: &Device,
    a: &M,
    params: &LowRankParams,
) -> Result<Matrix, LowRankError> {
    let (m, n) = (a.nrows(), a.ncols());
    let l = params.sketch_dim(m, n)?;
    let omega = params
        .sketch
        .test_matrix(device, n, l, params.seed, params.stream)?;
    let y = a.mul_right(device, &omega)?;
    let mut q = orthonormalize(device, y)?;
    for _ in 0..params.power_iters {
        // Subspace iteration with re-orthonormalisation after every product, the
        // numerically stable form of (A Aᵀ)^q A Ω.
        let z = orthonormalize(device, a.mul_transpose_right(device, &q)?)?;
        q = orthonormalize(device, a.mul_right(device, &z)?)?;
    }
    Ok(q)
}

/// Posterior error estimate for a computed range `Q` (HMT Algorithm 4.3).
///
/// Draws `probes` Gaussian probe vectors `ω_i` and returns
/// `10·√(2/π)·max_i ‖(I − QQᵀ) A ω_i‖₂`, which upper-bounds `‖A − QQᵀA‖₂` with
/// probability at least `1 − 10^{-probes}`.  Callers grow `k` adaptively by checking
/// this estimate against their tolerance and re-running the rangefinder with a larger
/// sketch when it is too big.
///
/// The probe stream is salted internally, so passing the same `(seed, stream)` that
/// produced the rangefinder's test matrix is safe: the probes are always independent
/// of `Ω`.
pub fn estimate_range_error<M: MatVecLike + ?Sized>(
    device: &Device,
    a: &M,
    q: &Matrix,
    probes: usize,
    seed: u64,
    stream: u64,
) -> Result<f64, LowRankError> {
    if probes == 0 {
        return Err(param_err("need at least one probe vector"));
    }
    if q.nrows() != a.nrows() {
        return Err(dim_err(
            "estimate_range_error",
            a.nrows(),
            q.nrows(),
            format!("Q dense {}x{}", q.nrows(), q.ncols()),
        ));
    }
    let omega = Matrix::random_gaussian(
        a.ncols(),
        probes,
        Layout::ColMajor,
        seed ^ PROBE_SEED_SALT,
        stream,
    );
    let y = a.mul_right(device, &omega)?;
    let qty = blas3::gemm_op(device, 1.0, Op::Trans, q, Op::NoTrans, &y, 0.0, None)?;
    // resid = Y - Q (Qᵀ Y).
    let resid = blas3::gemm(device, -1.0, q, &qty, 1.0, Some(&y))?;
    let max_norm = (0..probes)
        .map(|j| vec_norm2(&resid.col_to_vec(j)))
        .fold(0.0, f64::max);
    Ok(10.0 * std::f64::consts::FRAC_2_PI.sqrt() * max_norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_la::cond::{geometric_singular_values, matrix_with_singular_values};

    fn device() -> Device {
        Device::unlimited()
    }

    fn opts() -> ExecutorOptions {
        ExecutorOptions::default()
    }

    fn pool1() -> DevicePool {
        DevicePool::unlimited(1)
    }

    #[test]
    fn pooled_rangefinder_captures_an_exact_low_rank_range() {
        let d = device();
        // Exactly rank-4 matrix: a perfect rangefinder reconstructs it to rounding.
        let mut sigma = geometric_singular_values(4, 1e2);
        sigma.resize(30, 0.0);
        let a = matrix_with_singular_values(&d, 120, 30, &sigma, 9).unwrap();
        for sketch in [RangeSketch::CountSketch, RangeSketch::Srht] {
            let params = LowRankParams::new(4).with_sketch(sketch).with_seed(3, 2);
            for devices in [2usize, 3] {
                let pool = DevicePool::unlimited(devices);
                let q = range_finder(&pool, &a, &params, &opts()).unwrap();
                assert_eq!((q.nrows(), q.ncols()), (120, 12));
                // Orthonormal columns.
                let gram =
                    blas3::gemm_op(&d, 1.0, Op::Trans, &q, Op::NoTrans, &q, 0.0, None).unwrap();
                assert!(gram.max_abs_diff(&Matrix::identity(12)).unwrap() < 1e-10);
                // The projection recovers the rank-4 matrix.
                let qta =
                    blas3::gemm_op(&d, 1.0, Op::Trans, &q, Op::NoTrans, &a, 0.0, None).unwrap();
                let back = blas3::gemm(&d, 1.0, &q, &qta, 0.0, None).unwrap();
                assert!(back.max_abs_diff(&a).unwrap() < 1e-8);
            }
        }
    }

    #[test]
    fn multi_device_rangefinder_accepts_csr_operands() {
        use sketch_sparse::{CooMatrix, CsrMatrix};

        let d = device();
        // A sparse matrix whose range is still low-dimensional-ish: random CSR.
        let mut coo = CooMatrix::new(90, 30);
        for i in 0..90 {
            coo.push(i, i % 30, ((i + 1) as f64 * 0.37).sin());
            coo.push(i, (i * 7 + 3) % 30, ((i + 2) as f64 * 0.11).cos());
        }
        let csr = CsrMatrix::from_coo(&coo);
        let params = LowRankParams::new(6)
            .with_sketch(RangeSketch::CountSketch)
            .with_seed(5, 1);
        let pool = DevicePool::unlimited(3);
        let q = range_finder(&pool, &csr, &params, &opts()).unwrap();
        assert_eq!((q.nrows(), q.ncols()), (90, 14));
        let gram = blas3::gemm_op(&d, 1.0, Op::Trans, &q, Op::NoTrans, &q, 0.0, None).unwrap();
        assert!(gram.max_abs_diff(&Matrix::identity(14)).unwrap() < 1e-10);
    }

    #[test]
    fn multi_device_pool_rejects_the_plain_gaussian_family_but_pool_of_one_allows_it() {
        let a = Matrix::random_gaussian(40, 10, Layout::ColMajor, 1, 0);
        let params = LowRankParams::new(3).with_sketch(RangeSketch::Gaussian);
        let err = range_finder(&DevicePool::unlimited(2), &a, &params, &opts()).unwrap_err();
        assert!(matches!(err, LowRankError::InvalidParameter { .. }));
        // The unified entry point still serves the Gaussian family serially.
        let q = range_finder(&pool1(), &a, &params, &opts()).unwrap();
        assert_eq!((q.nrows(), q.ncols()), (40, 10));
    }

    #[test]
    fn q_has_orthonormal_columns_for_every_sketch() {
        let d = device();
        let a = Matrix::random_gaussian(60, 20, Layout::ColMajor, 3, 0);
        for sketch in [
            RangeSketch::Gaussian,
            RangeSketch::CountSketch,
            RangeSketch::Srht,
        ] {
            let params = LowRankParams::new(5).with_sketch(sketch).with_seed(7, 1);
            let q = range_finder(&pool1(), &a, &params, &opts()).unwrap();
            assert_eq!(q.nrows(), 60);
            assert_eq!(q.ncols(), 13);
            let gram = blas3::gemm_op(&d, 1.0, Op::Trans, &q, Op::NoTrans, &q, 0.0, None).unwrap();
            assert!(
                gram.max_abs_diff(&Matrix::identity(13)).unwrap() < 1e-10,
                "{} Q not orthonormal",
                sketch.name()
            );
        }
    }

    #[test]
    fn pool_of_one_is_bit_identical_to_the_serial_rangefinder() {
        // The acceptance pin: routing through the unified entry point with a
        // 1-device pool reproduces the pre-engine serial path bit for bit.
        let d = device();
        let a = Matrix::random_gaussian(70, 24, Layout::ColMajor, 11, 0);
        for sketch in [
            RangeSketch::Gaussian,
            RangeSketch::CountSketch,
            RangeSketch::Srht,
        ] {
            let params = LowRankParams::new(5)
                .with_sketch(sketch)
                .with_seed(13, 2)
                .with_power_iters(1);
            let serial = range_finder_on(&d, &a, &params).unwrap();
            let pooled = range_finder(&pool1(), &a, &params, &opts()).unwrap();
            assert_eq!(
                serial.as_slice(),
                pooled.as_slice(),
                "{} drifted through the pool-of-one path",
                sketch.name()
            );
        }
    }

    #[test]
    fn exact_rank_k_matrix_is_captured_exactly() {
        let d = device();
        let a = sketch_la::cond::rank_k_matrix(&d, 50, 16, 4, 11).unwrap();
        let params = LowRankParams::new(4).with_oversample(4);
        let q = range_finder(&pool1(), &a, &params, &opts()).unwrap();
        // ‖A − QQᵀA‖ should be at roundoff.
        let est = estimate_range_error(&d, &a, &q, 5, 99, 0).unwrap();
        assert!(est < 1e-10, "estimate {est}");
    }

    #[test]
    fn power_iteration_improves_a_noisy_spectrum() {
        let d = device();
        let sigma = geometric_singular_values(20, 1e3);
        let a = matrix_with_singular_values(&d, 80, 20, &sigma, 5).unwrap();
        let base = LowRankParams::new(6).with_oversample(2).with_seed(1, 0);
        let q0 = range_finder(&pool1(), &a, &base, &opts()).unwrap();
        let q2 = range_finder(&pool1(), &a, &base.with_power_iters(2), &opts()).unwrap();
        let e0 = estimate_range_error(&d, &a, &q0, 6, 42, 0).unwrap();
        let e2 = estimate_range_error(&d, &a, &q2, 6, 42, 0).unwrap();
        assert!(
            e2 <= e0 * 1.5,
            "power iteration should not make things notably worse: {e2} vs {e0}"
        );
    }

    #[test]
    fn estimator_upper_bounds_the_true_residual() {
        let d = device();
        let sigma = geometric_singular_values(12, 1e2);
        let a = matrix_with_singular_values(&d, 40, 12, &sigma, 8).unwrap();
        let params = LowRankParams::new(3).with_oversample(3);
        let q = range_finder(&pool1(), &a, &params, &opts()).unwrap();
        // True spectral residual via the dense SVD of A − QQᵀA.
        let qta = a.mul_transpose_right(&d, &q).unwrap(); // n x l = (QᵀA)ᵀ
        let qqta = blas3::gemm_op(&d, 1.0, Op::NoTrans, &q, Op::Trans, &qta, 0.0, None).unwrap();
        let resid = blas3::gemm(&d, -1.0, &qqta, &Matrix::identity(12), 1.0, Some(&a)).unwrap();
        let true_norm = sketch_la::jacobi_svd(&d, &resid).unwrap().s[0];
        let est = estimate_range_error(&d, &a, &q, 8, 123, 0).unwrap();
        assert!(
            est >= true_norm * 0.9,
            "estimate {est} vs true residual {true_norm}"
        );
    }

    #[test]
    fn parameters_are_validated() {
        let d = device();
        let a = Matrix::zeros(10, 5);
        assert!(range_finder(&pool1(), &a, &LowRankParams::new(0), &opts()).is_err());
        assert!(range_finder(&pool1(), &a, &LowRankParams::new(6), &opts()).is_err());
        let q = Matrix::identity(10).submatrix(10, 2).unwrap();
        assert!(estimate_range_error(&d, &a, &q, 0, 1, 0).is_err());
        let q_bad = Matrix::zeros(9, 2);
        assert!(estimate_range_error(&d, &a, &q_bad, 2, 1, 0).is_err());
    }

    #[test]
    fn estimator_is_not_fooled_by_reusing_the_rangefinder_seed() {
        // Regression: with an unsalted probe stream, probes drawn from the same
        // (seed, stream) as the Gaussian test matrix alias its leading columns and
        // certify ANY basis as perfect.  A deliberately too-small basis must still
        // produce a large estimate when the caller reuses the params seed.
        let d = device();
        let sigma = geometric_singular_values(16, 1e1);
        let a = matrix_with_singular_values(&d, 50, 16, &sigma, 4).unwrap();
        let params = LowRankParams::new(2).with_oversample(0).with_seed(77, 5);
        let q = range_finder(&pool1(), &a, &params, &opts()).unwrap();
        let est = estimate_range_error(&d, &a, &q, 2, params.seed, params.stream).unwrap();
        assert!(
            est > 0.5 * sigma[2],
            "estimate {est} is vacuously small (σ_3 = {})",
            sigma[2]
        );
    }

    #[test]
    fn test_matrices_are_seed_deterministic() {
        let d = device();
        for sketch in [
            RangeSketch::Gaussian,
            RangeSketch::CountSketch,
            RangeSketch::Srht,
        ] {
            let a = sketch.test_matrix(&d, 32, 6, 9, 2).unwrap();
            let b = sketch.test_matrix(&d, 32, 6, 9, 2).unwrap();
            let c = sketch.test_matrix(&d, 32, 6, 9, 3).unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "{}", sketch.name());
            assert_ne!(a.as_slice(), c.as_slice(), "{}", sketch.name());
        }
    }
}
