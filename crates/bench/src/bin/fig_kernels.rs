//! Host kernel harness: the real kernels measured on this host and emitted as
//! `BENCH_kernels.json`.  Every other figure reports *modelled* H100 times; this
//! binary times what the build actually does, with warm-up discarded and median/min
//! over repeated samples per row, in two parts.
//!
//! **Naive reference vs cache-blocked kernels, on one thread**: the speedup cache
//! blocking actually bought over the per-element implementations it replaced, with no
//! parallelism in the frame.  The sweeps:
//!
//! * **GEMM**: [`sketch_la::blas3::gemm_into`] (GEBP packing + register-tiled
//!   microkernel) vs [`sketch_la::blas3::gemm_naive_into`] (one packed dot
//!   product per output element) across square, rectangular and tall-skinny
//!   sketch shapes.
//! * **FWHT**: [`sketch_core::fwht::fwht_tiled_in_place`] (cache-resident final
//!   stages) vs [`sketch_core::fwht::fwht_in_place`] (one whole-vector pass per
//!   radix-4 stage) across SRHT power-of-two lengths.
//! * **Householder**: the orthonormalisation path of the rangefinder on a row-major
//!   tall input — [`sketch_la::qr::geqrf_owned`] (tile-copy layout conversion,
//!   column-grouped reflector updates) then [`sketch_la::QrFactors::into_q_thin`]
//!   (in-place `org2r`) — vs [`sketch_la::qr::geqrf_naive`] (per-element
//!   conversion, per-column updates) then
//!   [`sketch_la::QrFactors::q_thin_naive`] (every reflector on every `e_j`), at
//!   32768x40 and 2048x40 (8192x40 and 2048x40 smoke).
//! * **GEMV**: [`sketch_la::blas2::gemv`] vs [`sketch_la::blas2::gemv_naive`] for
//!   `Aᵀx` on a row-major 65536x32 `A` (the normal equations' `Aᵀb`).
//! * **Gram**: [`sketch_la::blas3::gram_gemm`] (GEBP, one parallel region, AVX2 tier
//!   where the host has it) vs [`sketch_la::blas3::gemm_naive_into`] for `AᵀA` on a
//!   row-major 65536x32 `A` (16384x32 smoke) — the normal equations' Gram.
//! * **TRSM**: [`sketch_la::blas3::trsm_right`] (eight right-hand sides in lockstep)
//!   vs [`sketch_la::blas3::trsm_right_naive`] (one at a time) for `A R⁻¹` on the same
//!   `A` with a 32x32 upper-triangular `R` — rand_cholQR's preconditioning.
//! * **Gaussian fill**: [`sketch_rng::fill::gaussian_fill`] (batched Philox, libm-free
//!   branch-free Box–Muller, AVX2 tier where the host has it) vs the textbook
//!   Box–Muller on the host's libm over the same Philox words, written in this bin, at
//!   2^20 draws (2^18 smoke).  Its `max_rel_diff` is the two fills' rounding gap.
//! * **CSR `Aᵀ·B`**: [`sketch_sparse::spmm_transpose`] (streams `A` once, no
//!   transpose) vs `spmm(&a.transpose(), q)` (counting-sort transpose, then SpMM
//!   gathering rows of `q` through it) at the rangefinder's power-iteration shape:
//!   a 2^15x2048 CSR `A` at 1% fill and a column-major 2^15x40 `q`, in smoke mode too.
//!
//! **Thread sweep**: seven production kernels (dense GEMM, the SYRK-path Gram matrix,
//! the tiled FWHT, the CountSketch ordered-gather scatter, CSR SpMM, the
//! transpose-free CSR `Aᵀ·B`, and the end-to-end `sketch_and_solve` least-squares
//! solve) each run under explicit pools of 1/2/4 threads (`--smoke`: 1/2), with the
//! modelled H100 time alongside for scale.
//!
//! Gates (exit non-zero on failure, so CI pins the speedup):
//!
//! * blocked GEMM must be **>= 2x** the naive reference at 512x512x128 on one
//!   thread (the shape the thread sweep's GEMM row times);
//! * tiled FWHT must be **strictly faster** than the un-tiled kernel at the
//!   largest swept length (d = 2^20 full, 2^18 smoke);
//! * blocked and naive GEMM and Gram values must agree within `1e-12 * max|C|` on
//!   every swept shape (the kernels may round differently, but never drift);
//! * every Householder, GEMV, TRSM and CSR `Aᵀ·B` row must be **bitwise-equal** to
//!   its reference (`max_rel_diff == 0`);
//! * the Householder path must be **>= 1.5x** its reference at the largest swept
//!   shape on one thread;
//! * the lockstep TRSM must be **>= 1.5x** the per-vector reference on one thread;
//! * the transpose-free CSR `Aᵀ·B` must be **>= 2x** transpose + SpMM on one thread;
//! * the Gaussian fill must be within **1e-14** (absolute) of the libm reference at
//!   every draw and **>= 1.5x** its speed on one thread;
//! * **sharding**: a Gaussian and an SRHT plan, built once and run through
//!   [`sketch_dist::pipelined_sketch`] on a 2^16x16 operand (one thread, samples
//!   interleaved), must take at most **1.1x** on a pool of four what they take on a
//!   pool of one: shards are charges, not host work;
//! * **thread bitwise** (unconditional): every thread-sweep kernel's output at every
//!   thread count must be bit-for-bit identical to its 1-thread output — the
//!   threading model's core promise (deterministic task boundaries + ordered
//!   reduction);
//! * **thread speedup** (only when the host has more than one core): the best
//!   multi-thread speedup among thread-sweep rows of at least 2^20 elements (any row
//!   under `--smoke`, whose sizes are smaller) must exceed 1.0 (0.5 smoke).  On a
//!   single-core host a measured speedup is physically impossible, so the gate is
//!   skipped and recorded as such in the JSON.
//!
//! `--trace PATH` writes a Perfetto-compatible trace: one wall-track event per timed
//! thread-sweep sample, plus the metrics summary (host shape and thread-pool
//! activity).
//!
//! Run with: `cargo run --release -p sketch-bench --bin fig_kernels [-- --smoke] [--out PATH] [--trace PATH]`

use sketch_bench::report::{ms, Table};
use sketch_bench::walltime::{
    bits_of, host_cores, time_fn, time_fn_traced, time_interleaved, with_thread_pool, Sample,
};
use sketch_bench::{cli, config::random_csr};
use sketch_core::fwht::{fwht_in_place, fwht_matrix_columns, fwht_tiled_in_place, DEFAULT_TILE};
use sketch_core::{
    CountSketch, EmbeddingDim, JsonValue, Operand, Pipeline, SketchOperator, SketchSpec,
};
use sketch_dist::{pipelined_sketch, ExecutorOptions};
use sketch_gpu_sim::{Device, DevicePool};
use sketch_la::blas2::{gemv, gemv_naive, Triangle};
use sketch_la::blas3::{
    gemm, gemm_into, gemm_naive_into, gram_gemm, syrk_gram, trsm_right, trsm_right_naive,
};
use sketch_la::qr::{geqrf_naive, geqrf_owned};
use sketch_la::{Layout, Matrix, Op};
use sketch_lsq::{sketch_and_solve, LsqProblem};
use sketch_obs::{chrome_trace_with_metrics, write_json, MetricsRegistry, RecorderHandle};
use sketch_rng::fill::{self, BLOCKS_PER_ELEMENT, CHUNK};
use sketch_rng::StreamFactory;
use sketch_sparse::{spmm, spmm_into, spmm_transpose};

/// The GEMM gate shape (m, k, n): the thread sweep's GEMM shape.
const GATE_GEMM: (usize, usize, usize) = (512, 512, 128);

/// Required blocked-over-naive speedup at [`GATE_GEMM`] on one thread.
const GATE_GEMM_SPEEDUP: f64 = 2.0;

/// Required Householder-path speedup over the reference at the largest swept shape.
const GATE_QR_SPEEDUP: f64 = 1.5;

/// The GEMV row's shape `(m, n)`: `Aᵀx` with a row-major `m x n` `A`.
const GEMV_SHAPE: (usize, usize) = (65536, 32);

/// Required lockstep-TRSM speedup over the per-vector reference on one thread.
const GATE_TRSM_SPEEDUP: f64 = 1.5;

/// The CSR `Aᵀ·B` row's shape `(m, k, n, density)`: the rangefinder workload's
/// `m x k` operand and its power iteration's `m x n` basis.
const SPMM_T_SHAPE: (usize, usize, usize, f64) = (1 << 15, 2048, 40, 0.01);

/// Required transpose-free `Aᵀ·B` speedup over transpose + SpMM on one thread.
const GATE_SPMM_T_SPEEDUP: f64 = 2.0;

/// Required Gaussian-fill speedup over the libm reference on one thread.
const GATE_GAUSSIAN_SPEEDUP: f64 = 1.5;

/// Largest absolute difference the Gaussian fill may have from the libm reference.
const GATE_GAUSSIAN_ABS_DIFF: f64 = 1e-14;

/// Most a pool of four may take, in median host time, over a pool of one.
const GATE_SHARDING_RATIO: f64 = 1.1;

/// Thread-sweep kernels must reach this many elements before they count toward the
/// full-run speedup gate (small problems are launch-overhead-bound).
const GATE_THREAD_MIN_ELEMS: usize = 1 << 20;

/// One naive-vs-blocked measurement.
struct KernelRow {
    kernel: &'static str,
    shape: String,
    /// Output elements (GEMM: m*n; FWHT: d) — the scale axis.
    elems: usize,
    naive: Sample,
    blocked: Sample,
    /// Blocked-over-naive ratio of minimum times (least noise-contaminated).
    speedup_min: f64,
    /// Blocked-over-naive ratio of median times.
    speedup_median: f64,
    /// `max|blocked - naive| / max(1, max|naive|)` over the output (0 when the
    /// two kernels are bitwise identical, as the FWHT pair is; see
    /// [`bitwise_rel_diff`] for the rows that must be).
    max_rel_diff: f64,
}

impl KernelRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("kernel".into(), JsonValue::Str(self.kernel.into())),
            ("shape".into(), JsonValue::Str(self.shape.clone())),
            ("elems".into(), JsonValue::UInt(self.elems as u64)),
            (
                "naive_median_ms".into(),
                JsonValue::Float(self.naive.median_ms()),
            ),
            ("naive_min_ms".into(), JsonValue::Float(self.naive.min_ms())),
            (
                "blocked_median_ms".into(),
                JsonValue::Float(self.blocked.median_ms()),
            ),
            (
                "blocked_min_ms".into(),
                JsonValue::Float(self.blocked.min_ms()),
            ),
            ("speedup_min".into(), JsonValue::Float(self.speedup_min)),
            (
                "speedup_median".into(),
                JsonValue::Float(self.speedup_median),
            ),
            ("max_rel_diff".into(), JsonValue::Float(self.max_rel_diff)),
        ])
    }
}

/// Time `blocked` against the naive GEMM of `op(A) · op(B)`, both on one thread, and
/// compare their values (the kernels may round differently, but never drift).
fn bench_product(
    kernel: &'static str,
    shape: String,
    (op_a, a): (Op, &Matrix),
    (op_b, b): (Op, &Matrix),
    blocked: impl Fn(&mut Matrix),
) -> KernelRow {
    let device = Device::unlimited();
    let (m, n) = (op_a.rows(a), op_b.cols(b));
    let mut naive_out = Matrix::zeros(m, n);
    let mut blocked_out = Matrix::zeros(m, n);

    let (naive, blocked) = with_thread_pool(1, || {
        let naive = time_fn(|| {
            gemm_naive_into(
                &device,
                1.0,
                op_a,
                a,
                op_b,
                b,
                0.0,
                None,
                &mut naive_out.view_mut(),
            )
            .expect("naive gemm dims are valid");
        });
        let blocked = time_fn(|| blocked(&mut blocked_out));
        (naive, blocked)
    });

    let scale = naive_out
        .as_slice()
        .iter()
        .fold(1.0f64, |acc, v| acc.max(v.abs()));
    let max_rel_diff = blocked_out.max_abs_diff(&naive_out).expect("same shape") / scale;

    KernelRow {
        kernel,
        shape,
        elems: m * n,
        naive,
        blocked,
        speedup_min: naive.min_ns / blocked.min_ns,
        speedup_median: naive.median_ns / blocked.median_ns,
        max_rel_diff,
    }
}

/// Measure one GEMM shape: the blocked kernel against the naive reference.
fn bench_gemm_shape(m: usize, k: usize, n: usize, seed: u64) -> KernelRow {
    let device = Device::unlimited();
    let a = Matrix::random_gaussian(m, k, Layout::RowMajor, seed, 0);
    let b = Matrix::random_gaussian(k, n, Layout::ColMajor, seed, 1);
    bench_product(
        "gemm",
        format!("{m}x{k}x{n}"),
        (Op::NoTrans, &a),
        (Op::NoTrans, &b),
        |out| {
            gemm_into(
                &device,
                1.0,
                Op::NoTrans,
                &a,
                Op::NoTrans,
                &b,
                0.0,
                None,
                &mut out.view_mut(),
            )
            .expect("blocked gemm dims are valid");
        },
    )
}

/// `0` when `got` and `want` agree in every bit; otherwise their largest relative
/// difference, floored at `f64::MIN_POSITIVE` so a sign-of-zero mismatch still counts.
fn bitwise_rel_diff(got: &[f64], want: &[f64]) -> f64 {
    if got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
    {
        return 0.0;
    }
    let scale = want.iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
    let diff = got
        .iter()
        .zip(want)
        .fold(0.0f64, |acc, (g, w)| acc.max((g - w).abs()));
    (diff / scale).max(f64::MIN_POSITIVE)
}

/// Time `fast` against the `reference` it must reproduce, both on one thread, and
/// compare their outputs bit for bit.
fn bench_exact(
    kernel: &'static str,
    shape: String,
    elems: usize,
    reference: impl Fn() -> Vec<f64>,
    fast: impl Fn() -> Vec<f64>,
) -> KernelRow {
    let (naive, blocked, max_rel_diff) = with_thread_pool(1, || {
        let naive = time_fn(|| {
            std::hint::black_box(reference());
        });
        let blocked = time_fn(|| {
            std::hint::black_box(fast());
        });
        (naive, blocked, bitwise_rel_diff(&fast(), &reference()))
    });
    KernelRow {
        kernel,
        shape,
        elems,
        naive,
        blocked,
        speedup_min: naive.min_ns / blocked.min_ns,
        speedup_median: naive.median_ns / blocked.median_ns,
        max_rel_diff,
    }
}

/// The Householder orthonormalisation of a row-major `m x n` input, as the
/// rangefinder runs it, against the per-element references.
fn bench_householder(m: usize, n: usize, seed: u64) -> KernelRow {
    let device = Device::unlimited();
    let a = Matrix::random_gaussian(m, n, Layout::RowMajor, seed, 0);
    bench_exact(
        "householder",
        format!("{m}x{n}"),
        m * n,
        || {
            let f = geqrf_naive(&device, &a).expect("tall input");
            f.q_thin_naive(&device).into_vec()
        },
        || {
            let f = geqrf_owned(&device, a.clone()).expect("tall input");
            f.into_q_thin(&device).into_vec()
        },
    )
}

/// `Aᵀx` on a row-major `m x n` `A`: storage-order GEMV against the per-element
/// reference.
fn bench_gemv(m: usize, n: usize, seed: u64) -> KernelRow {
    let device = Device::unlimited();
    let a = Matrix::random_gaussian(m, n, Layout::RowMajor, seed, 0);
    let x = fill::gaussian_vec(seed, 1, m);
    bench_exact(
        "gemv_t",
        format!("{m}x{n}"),
        n,
        || gemv_naive(&device, 1.0, Op::Trans, &a, &x, 0.0, None).expect("gemv dims are valid"),
        || gemv(&device, 1.0, Op::Trans, &a, &x, 0.0, None).expect("gemv dims are valid"),
    )
}

/// `AᵀA` on a row-major `m x n` `A`: `gram_gemm` against the naive GEMM.
fn bench_gram(m: usize, n: usize, seed: u64) -> KernelRow {
    let device = Device::unlimited();
    let a = Matrix::random_gaussian(m, n, Layout::RowMajor, seed, 0);
    bench_product(
        "gram",
        format!("{m}x{n}"),
        (Op::Trans, &a),
        (Op::NoTrans, &a),
        |out| *out = gram_gemm(&device, &a).expect("Gram dims are valid"),
    )
}

/// `A R⁻¹` on a row-major `m x n` `A` with an upper-triangular `R`: the lockstep
/// right solve against the per-vector reference.
fn bench_trsm_right(m: usize, n: usize, seed: u64) -> KernelRow {
    let device = Device::unlimited();
    let a = Matrix::random_gaussian(m, n, Layout::RowMajor, seed, 0);
    let g = Matrix::random_gaussian(n, n, Layout::ColMajor, seed, 1);
    let r = Matrix::from_fn(n, n, Layout::ColMajor, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Less => 0.3 * g.get(i, j),
        std::cmp::Ordering::Equal => 2.0 + g.get(i, j).abs(),
        std::cmp::Ordering::Greater => 0.0,
    });
    let solve = |f: fn(&Device, Triangle, Op, &Matrix, &Matrix) -> Result<Matrix, _>| {
        f(&device, Triangle::Upper, Op::NoTrans, &r, &a)
            .expect("square triangle")
            .into_vec()
    };
    bench_exact(
        "trsm_right",
        format!("{m}x{n}"),
        m * n,
        || solve(trsm_right_naive),
        || solve(trsm_right),
    )
}

/// `Aᵀq` on a CSR `A` at `density` fill and a column-major `q`, as the rangefinder's
/// power iteration forms it: the transpose-free kernel against transpose + SpMM.
fn bench_spmm_transpose((m, k, n, density): (usize, usize, usize, f64), seed: u64) -> KernelRow {
    let device = Device::unlimited();
    let a = random_csr(m, k, density, seed);
    let q = Matrix::random_gaussian(m, n, Layout::ColMajor, seed, 1);
    bench_exact(
        "spmm_transpose",
        format!("{m}x{k} nnz={} x{n}", a.nnz()),
        k * n,
        || spmm(&device, &a.transpose(), &q).into_vec(),
        || spmm_transpose(&device, &a, &q).into_vec(),
    )
}

/// The textbook Box–Muller on the host's libm over the Gaussian fill's counter map:
/// pair `p` of chunk `c` reads block `c·CHUNK·BLOCKS_PER_ELEMENT + p`, and
/// `ρ·(cos θ, sin θ)` with `ρ = √(−2 ln u1)`, `θ = 2πu2`.
fn libm_gaussian_fill(seed: u64, stream: u64, out: &mut [f64]) {
    let factory = StreamFactory::new(seed);
    for (ci, chunk) in out.chunks_mut(CHUNK).enumerate() {
        let mut rng = factory.stream_at(stream, ci as u64 * CHUNK as u64 * BLOCKS_PER_ELEMENT);
        for pair in chunk.chunks_mut(2) {
            let u1 = rng.next_f64_open();
            let u2 = rng.next_f64();
            let radius = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            pair[0] = radius * theta.cos();
            if let Some(z1) = pair.get_mut(1) {
                *z1 = radius * theta.sin();
            }
        }
    }
}

/// `len` standard normal draws: the Gaussian fill against the libm reference, both on
/// one thread.  Returns the row and the largest absolute difference of any draw.
fn bench_gaussian_fill(len: usize, seed: u64) -> (KernelRow, f64) {
    let mut reference = vec![0.0; len];
    let mut fast = vec![0.0; len];
    let (naive, blocked) = with_thread_pool(1, || {
        let naive = time_fn(|| libm_gaussian_fill(seed, 0, &mut reference));
        let blocked = time_fn(|| fill::gaussian_fill(seed, 0, &mut fast));
        (naive, blocked)
    });
    let max_abs_diff = fast
        .iter()
        .zip(&reference)
        .fold(0.0f64, |acc, (f, r)| acc.max((f - r).abs()));
    let scale = reference.iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
    let row = KernelRow {
        kernel: "gaussian_fill",
        shape: format!("2^{}", len.trailing_zeros()),
        elems: len,
        naive,
        blocked,
        speedup_min: naive.min_ns / blocked.min_ns,
        speedup_median: naive.median_ns / blocked.median_ns,
        max_rel_diff: max_abs_diff / scale,
    };
    (row, max_abs_diff)
}

/// Measure one FWHT length: un-tiled whole-vector stages vs the cache-tiled
/// schedule, both on one thread, restored from a pristine copy each iteration.
fn bench_fwht_length(d: usize, seed: u64) -> KernelRow {
    let pristine = fill::gaussian_vec(seed, 0, d);
    let mut work = pristine.clone();

    let (naive, blocked) = with_thread_pool(1, || {
        let naive = time_fn(|| {
            work.copy_from_slice(&pristine);
            fwht_in_place(&mut work);
        });
        let untiled_result = work.clone();
        let blocked = time_fn(|| {
            work.copy_from_slice(&pristine);
            fwht_tiled_in_place(&mut work, DEFAULT_TILE);
        });
        // The two schedules are bitwise identical by construction; hold that
        // line here too, not just in unit tests.
        assert!(
            work.iter()
                .zip(&untiled_result)
                .all(|(t, u)| t.to_bits() == u.to_bits()),
            "tiled FWHT diverged from the un-tiled kernel at d={d}"
        );
        (naive, blocked)
    });

    KernelRow {
        kernel: "fwht",
        shape: format!("2^{}", d.trailing_zeros()),
        elems: d,
        naive,
        blocked,
        speedup_min: naive.min_ns / blocked.min_ns,
        speedup_median: naive.median_ns / blocked.median_ns,
        max_rel_diff: 0.0,
    }
}

/// Time the plan `kind(2^16, k = 2n)`, built once, through `pipelined_sketch` on a
/// row-major 2^16x16 operand on a pool of one and a pool of four devices (one
/// thread, samples interleaved).  Returns its JSON row and the pool of four's
/// median over the pool of one's.
fn bench_sharding(kind: fn(usize, EmbeddingDim, u64) -> SketchSpec, seed: u64) -> (JsonValue, f64) {
    let (d, n) = (1 << 16, 16);
    let spec = kind(d, EmbeddingDim::Ratio(2), seed);
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, seed, 0);
    let built = Pipeline::single(spec.clone())
        .compose_for(&Device::unlimited(), n)
        .expect("the sharding plans build");
    let opts = ExecutorOptions::default();
    let run = |devices: usize| {
        let pool = DevicePool::unlimited(devices);
        let (a, built, opts) = (&a, &built, &opts);
        move || {
            let run = pipelined_sketch(&pool, a, built, opts).expect("the plan runs");
            drop(std::hint::black_box(run));
        }
    };
    let (mut one, mut four) = (run(1), run(4));
    let [one, four] = with_thread_pool(1, || time_interleaved(&mut [&mut one, &mut four]))[..]
    else {
        unreachable!("two routines give two samples")
    };
    let ratio = four.median_ns / one.median_ns;
    let (plan, shape) = (spec.kind.as_str(), format!("2^{}x{n}", d.trailing_zeros()));
    println!(
        "pipelined_sketch, built {plan} plan, {shape}, 1 thread: pool of 1 {} ms, pool of 4 {} ms (interleaved medians), {ratio:.2}x",
        ms(one.median_ms()),
        ms(four.median_ms())
    );
    let row = JsonValue::Object(vec![
        ("plan".into(), JsonValue::Str(plan.into())),
        ("shape".into(), JsonValue::Str(shape)),
        ("pool1_median_ms".into(), JsonValue::Float(one.median_ms())),
        ("pool1_min_ms".into(), JsonValue::Float(one.min_ms())),
        ("pool4_median_ms".into(), JsonValue::Float(four.median_ms())),
        ("pool4_min_ms".into(), JsonValue::Float(four.min_ms())),
        ("ratio".into(), JsonValue::Float(ratio)),
    ]);
    (row, ratio)
}

/// One thread-sweep measurement: a (kernel, thread count) pair.
struct ThreadRow {
    kernel: &'static str,
    threads: usize,
    /// Problem size in f64 elements (nnz for sparse operands) — the scale axis.
    elems: usize,
    sample: Sample,
    modelled_h100_ms: f64,
    /// Median-time ratio vs the 1-thread row of the same kernel.
    speedup_vs_1t: f64,
    /// Output bits identical to the 1-thread output of the same kernel.
    bitwise_equal: bool,
}

impl ThreadRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("kernel".into(), JsonValue::Str(self.kernel.into())),
            ("threads".into(), JsonValue::UInt(self.threads as u64)),
            ("elems".into(), JsonValue::UInt(self.elems as u64)),
            (
                "median_ms".into(),
                JsonValue::Float(self.sample.median_ms()),
            ),
            ("min_ms".into(), JsonValue::Float(self.sample.min_ms())),
            (
                "samples".into(),
                JsonValue::UInt(self.sample.samples as u64),
            ),
            (
                "modelled_h100_ms".into(),
                JsonValue::Float(self.modelled_h100_ms),
            ),
            ("speedup_vs_1t".into(), JsonValue::Float(self.speedup_vs_1t)),
            ("bitwise_equal".into(), JsonValue::Bool(self.bitwise_equal)),
        ])
    }
}

/// Time `routine` under a pool of each thread count in `grid`, emitting wall-track
/// trace events named `{kernel} @{t}t` when `trace` is set, and fold the samples and
/// the bits `output` reads from `state` into rows: speedups and bitwise equality are
/// both computed against the 1-thread entry (always the first in `grid`).  One extra
/// run of `routine`, measured on `device`, gives the modelled H100 time.
fn sweep<S>(
    (kernel, elems): (&'static str, usize),
    device: &Device,
    (grid, trace): (&[usize], Option<&RecorderHandle>),
    mut state: S,
    mut routine: impl FnMut(&mut S),
    output: impl Fn(&S) -> Vec<u64>,
) -> Vec<ThreadRow> {
    let (_, cost) = device.tracker().measure(|| routine(&mut state));
    let modelled_h100_ms = device.model_time(&cost) * 1e3;
    let mut measured = Vec::new();
    for &t in grid {
        let name = format!("{kernel} @{t}t");
        let mut run = || routine(&mut state);
        let sample = with_thread_pool(t, || match trace {
            Some(recorder) => time_fn_traced(recorder, &name, &mut run),
            None => time_fn(&mut run),
        });
        measured.push((t, sample, output(&state)));
    }
    let (base_median, base_bits) = (measured[0].1.median_ns, measured[0].2.clone());
    measured
        .into_iter()
        .map(|(threads, sample, bits)| ThreadRow {
            kernel,
            threads,
            elems,
            sample,
            modelled_h100_ms,
            speedup_vs_1t: base_median / sample.median_ns,
            bitwise_equal: bits == base_bits,
        })
        .collect()
}

/// The thread sweep: seven production kernels, each timed on every pool of `on.0`.
fn thread_sweep(smoke: bool, on: (&[usize], Option<&RecorderHandle>)) -> Vec<ThreadRow> {
    let device = Device::h100();
    let mut rows = Vec::new();

    // Dense GEMM: `C = A B` with a fresh output each iteration.
    let (m, k, n) = if smoke { (256, 256, 64) } else { GATE_GEMM };
    let a = Matrix::random_gaussian(m, k, Layout::RowMajor, 11, 0);
    let b = Matrix::random_gaussian(k, n, Layout::RowMajor, 12, 0);
    rows.extend(sweep(
        ("gemm", m * k),
        &device,
        on,
        None,
        |c| *c = Some(gemm(&device, 1.0, &a, &b, 0.0, None).expect("gemm fits")),
        |c| bits_of(c.as_ref().expect("the sweep ran").as_slice()),
    ));

    // Gram matrix `G = AᵀA` through the SYRK path (upper triangle computed, lower
    // mirrored) — the bottleneck of `sketch_and_solve`'s normal-equations phase.
    let (d, n) = if smoke { (2048, 128) } else { (4096, 256) };
    let a = Matrix::random_gaussian(d, n, Layout::ColMajor, 61, 0);
    rows.extend(sweep(
        ("gram", d * n),
        &device,
        on,
        None,
        |g| *g = Some(syrk_gram(&device, &a)),
        |g| bits_of(g.as_ref().expect("the sweep ran").as_slice()),
    ));

    // Tiled FWHT over the columns of a tall matrix, restored from a pristine copy
    // each iteration (the transform is in-place).
    let (d, n) = (if smoke { 1 << 15 } else { 1 << 18 }, 4);
    let pristine = Matrix::random_gaussian(d, n, Layout::ColMajor, 21, 0);
    rows.extend(sweep(
        ("fwht", d * n),
        &device,
        on,
        pristine.clone(),
        |work| {
            work.as_mut_slice().copy_from_slice(pristine.as_slice());
            fwht_matrix_columns(&device, work, DEFAULT_TILE);
        },
        |work| bits_of(work.as_slice()),
    ));

    // The CountSketch kernel (ordered gather) into a reused output buffer.
    let (d, n, k) = (if smoke { 1 << 14 } else { 1 << 17 }, 8, 4096);
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 31, 0);
    let cs = CountSketch::generate(&device, d, k, 32).expect("the CountSketch fits the host");
    rows.extend(sweep(
        ("countsketch_scatter", d * n),
        &device,
        on,
        Matrix::zeros_with_layout(k, n, Layout::RowMajor),
        |out| {
            cs.apply_into(&device, Operand::Dense(&a), &mut out.view_mut())
                .expect("countsketch fits");
        },
        |out| bits_of(out.as_slice()),
    ));

    // Row-parallel CSR SpMM into a reused output buffer.
    let (k, d, n) = if smoke {
        (1024, 1 << 14, 8)
    } else {
        (4096, 1 << 17, 8)
    };
    let s = random_csr(k, d, 0.002, 41);
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 42, 0);
    rows.extend(sweep(
        ("spmm_csr", s.nnz()),
        &device,
        on,
        Matrix::zeros_with_layout(k, n, Layout::RowMajor),
        |out| spmm_into(&device, &s, &a, &mut out.view_mut()),
        |out| bits_of(out.as_slice()),
    ));

    // Transpose-free CSR `Aᵀ·B` at the rangefinder's power-iteration shape.
    let (m, k, n, density) = SPMM_T_SHAPE;
    let a = random_csr(m, k, density, 43);
    let q = Matrix::random_gaussian(m, n, Layout::ColMajor, 44, 0);
    rows.extend(sweep(
        ("spmm_transpose", a.nnz()),
        &device,
        on,
        None,
        |z| *z = Some(spmm_transpose(&device, &a, &q)),
        |z| bits_of(z.as_ref().expect("the sweep ran").as_slice()),
    ));

    // End-to-end sketch-and-solve with the Count-Gauss pipeline.
    let (d, n) = (if smoke { 1 << 12 } else { 1 << 14 }, 16);
    let pool = DevicePool::h100(1);
    let problem = LsqProblem::performance(pool.device(0), d, n, 51)
        .expect("problem fits the modelled device");
    let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 52);
    let opts = ExecutorOptions::default();
    rows.extend(sweep(
        ("sketch_and_solve", d * n),
        pool.device(0),
        on,
        None,
        |x| {
            let (solution, _) =
                sketch_and_solve(&pool, &problem, &plan, &opts).expect("solver succeeds");
            *x = Some(solution.x);
        },
        |x| bits_of(x.as_ref().expect("the sweep ran")),
    ));
    rows
}

/// Status of a one-thread speedup gate: `row` must run at least `required` times
/// faster than its reference (ratio of minimum times).
fn speedup_gate(row: &KernelRow, required: f64) -> String {
    let (speedup, at) = (row.speedup_min, &row.shape);
    if speedup >= required {
        format!("passed ({speedup:.2}x >= {required}x at {at})")
    } else {
        format!("FAILED ({speedup:.2}x < {required}x at {at})")
    }
}

fn main() {
    let args = cli::FIG_KERNELS.from_env();
    let smoke = args.smoke;
    let out_path = args.out.unwrap_or_else(|| "BENCH_kernels.json".into());

    let grid: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let cores = host_cores();
    println!("host cores: {cores}; thread grid: {grid:?}; smoke: {smoke}");

    // GEMM sweep: the gate shape always runs; full mode adds a square shape and
    // the tall-skinny sketch shape (S · A with a short-wide product).
    let mut gemm_shapes: Vec<(usize, usize, usize)> = vec![GATE_GEMM];
    if smoke {
        gemm_shapes.push((4096, 128, 16));
    } else {
        gemm_shapes.push((256, 256, 256));
        gemm_shapes.push((32768, 256, 16));
        gemm_shapes.push((128, 4096, 64));
    }
    // FWHT sweep: SRHT power-of-two lengths; the gate rides the largest.
    let fwht_pows: &[u32] = if smoke { &[14, 16, 18] } else { &[16, 18, 20] };

    // Householder sweep: the rangefinder's tall orthonormalisations; the gate rides
    // the largest.
    let qr_shapes: &[(usize, usize)] = if smoke {
        &[(8192, 40), (2048, 40)]
    } else {
        &[(32768, 40), (2048, 40)]
    };

    let mut rows: Vec<KernelRow> = Vec::new();
    for (i, &(m, k, n)) in gemm_shapes.iter().enumerate() {
        rows.push(bench_gemm_shape(m, k, n, 60 + i as u64));
    }
    for &pow in fwht_pows {
        rows.push(bench_fwht_length(1usize << pow, 70 + pow as u64));
    }
    for (i, &(m, n)) in qr_shapes.iter().enumerate() {
        rows.push(bench_householder(m, n, 80 + i as u64));
    }
    rows.push(bench_gemv(GEMV_SHAPE.0, GEMV_SHAPE.1, 90));
    // Gram and TRSM: the least-squares solvers' level-3 steps on a tall 32-column A.
    let tall = if smoke { 16384 } else { GEMV_SHAPE.0 };
    rows.push(bench_gram(tall, GEMV_SHAPE.1, 91));
    rows.push(bench_trsm_right(tall, GEMV_SHAPE.1, 92));
    rows.push(bench_spmm_transpose(SPMM_T_SHAPE, 96));
    let (gaussian_row, gaussian_abs_diff) =
        bench_gaussian_fill(if smoke { 1 << 18 } else { 1 << 20 }, 93);
    rows.push(gaussian_row);
    let (sharding_rows, ratios): (Vec<JsonValue>, Vec<f64>) = [
        (SketchSpec::gaussian as fn(_, _, _) -> _, 94),
        (SketchSpec::srht, 95),
    ]
    .into_iter()
    .map(|(kind, seed)| bench_sharding(kind, seed))
    .unzip();

    let collector = args
        .trace
        .as_ref()
        .map(|_| sketch_obs::TraceCollector::shared());
    let trace: Option<RecorderHandle> = collector.clone().map(|c| c as RecorderHandle);
    let thread_rows = thread_sweep(smoke, (grid, trace.as_ref()));

    // Text report.
    let mut table = Table::new(
        "Naive-reference vs cache-blocked / grouped kernels (1 thread)".to_string(),
        &[
            "kernel",
            "shape",
            "naive med ms",
            "blocked med ms",
            "naive min ms",
            "blocked min ms",
            "speedup(min)",
            "max rel diff",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.kernel.to_string(),
            r.shape.clone(),
            ms(r.naive.median_ms()),
            ms(r.blocked.median_ms()),
            ms(r.naive.min_ms()),
            ms(r.blocked.min_ms()),
            format!("{:.2}", r.speedup_min),
            format!("{:.2e}", r.max_rel_diff),
        ]);
    }
    table.print();

    let mut table = Table::new(
        format!("Thread sweep (host cores: {cores})"),
        &[
            "kernel",
            "threads",
            "elems",
            "median ms",
            "min ms",
            "n",
            "H100 model ms",
            "speedup",
            "bitwise",
        ],
    );
    for r in &thread_rows {
        table.push_row(vec![
            r.kernel.to_string(),
            r.threads.to_string(),
            r.elems.to_string(),
            ms(r.sample.median_ms()),
            ms(r.sample.min_ms()),
            r.sample.samples.to_string(),
            ms(r.modelled_h100_ms),
            format!("{:.2}", r.speedup_vs_1t),
            if r.bitwise_equal { "ok" } else { "MISMATCH" }.to_string(),
        ]);
    }
    table.print();

    // Gate 1: blocked GEMM >= 2x naive at the gate shape.
    let gate_shape = format!("{}x{}x{}", GATE_GEMM.0, GATE_GEMM.1, GATE_GEMM.2);
    let gate_row = rows
        .iter()
        .find(|r| r.kernel == "gemm" && r.shape == gate_shape)
        .expect("the gate shape always runs");

    // Gate 2: tiled FWHT strictly faster than un-tiled at the largest length.
    let fwht_row = rows
        .iter()
        .filter(|r| r.kernel == "fwht")
        .max_by_key(|r| r.elems)
        .expect("at least one FWHT length runs");
    let fwht_status = if fwht_row.speedup_min > 1.0 {
        format!(
            "passed ({:.2}x > 1x at d={})",
            fwht_row.speedup_min, fwht_row.shape
        )
    } else {
        format!(
            "FAILED ({:.2}x <= 1x at d={})",
            fwht_row.speedup_min, fwht_row.shape
        )
    };

    // Gate 3: blocked values never drift from the naive reference.
    let worst_diff = rows.iter().fold(0.0f64, |acc, r| acc.max(r.max_rel_diff));
    let values_status = if worst_diff <= 1e-12 {
        format!("passed (worst rel diff {worst_diff:.2e} <= 1e-12)")
    } else {
        format!("FAILED (worst rel diff {worst_diff:.2e} > 1e-12)")
    };

    // Gate 4: the Householder, GEMV, TRSM and CSR `Aᵀ·B` rows are bitwise-equal to
    // their references.
    let inexact: Vec<String> = rows
        .iter()
        .filter(|r| {
            matches!(
                r.kernel,
                "householder" | "gemv_t" | "trsm_right" | "spmm_transpose"
            ) && r.max_rel_diff != 0.0
        })
        .map(|r| format!("{} {}", r.kernel, r.shape))
        .collect();
    let bitwise_status = if inexact.is_empty() {
        "passed (householder, gemv, trsm and spmm_transpose rows bitwise-equal to their references)"
            .to_string()
    } else {
        format!("FAILED (not bitwise-equal: {})", inexact.join(", "))
    };

    // Gate 5: the Householder path >= 1.5x its reference at the largest shape.
    let qr_row = rows
        .iter()
        .filter(|r| r.kernel == "householder")
        .max_by_key(|r| r.elems)
        .expect("at least one Householder shape runs");

    // Gate 6: the lockstep TRSM >= 1.5x the per-vector reference.
    let trsm_row = rows
        .iter()
        .find(|r| r.kernel == "trsm_right")
        .expect("the TRSM row always runs");

    // Gate 7: the transpose-free CSR `Aᵀ·B` >= 2x transpose + SpMM.
    let spmm_t_row = rows
        .iter()
        .find(|r| r.kernel == "spmm_transpose")
        .expect("the CSR transpose row always runs");

    // Gate 8: the Gaussian fill stays within 1e-14 of libm and >= 1.5x its speed.
    let gaussian_row = rows
        .iter()
        .find(|r| r.kernel == "gaussian_fill")
        .expect("the Gaussian row always runs");
    let gaussian_accuracy_status = if gaussian_abs_diff <= GATE_GAUSSIAN_ABS_DIFF {
        format!(
            "passed (max |fill - libm| {gaussian_abs_diff:.2e} <= {GATE_GAUSSIAN_ABS_DIFF:.0e} at {})",
            gaussian_row.shape
        )
    } else {
        format!(
            "FAILED (max |fill - libm| {gaussian_abs_diff:.2e} > {GATE_GAUSSIAN_ABS_DIFF:.0e} at {})",
            gaussian_row.shape
        )
    };

    // Gate 9: a pool of four costs the host at most 1.1x a pool of one.
    let worst = ratios.iter().fold(0.0f64, |acc, &r| acc.max(r));
    let sharding_status = if worst <= GATE_SHARDING_RATIO {
        format!("passed (pool of 4 / pool of 1 at most {worst:.2}x <= {GATE_SHARDING_RATIO}x)")
    } else {
        format!("FAILED (pool of 4 / pool of 1 up to {worst:.2}x > {GATE_SHARDING_RATIO}x)")
    };

    // Gate 10 (unconditional): every thread-sweep row is bit-for-bit equal to the
    // 1-thread run of its kernel.
    let mismatches: Vec<&ThreadRow> = thread_rows.iter().filter(|r| !r.bitwise_equal).collect();
    for r in &mismatches {
        eprintln!(
            "VIOLATION: {} at {} threads is not bitwise-identical to 1 thread",
            r.kernel, r.threads
        );
    }
    let thread_bitwise_status = if mismatches.is_empty() {
        "passed (every kernel identical at every thread count)".to_string()
    } else {
        format!(
            "FAILED ({} row(s) differ from 1 thread — thread-count-dependent results)",
            mismatches.len()
        )
    };

    // Gate 11 (only meaningful on a multi-core host): some large kernel must show a
    // sane multi-thread speedup.  Smoke runs use reduced sizes, so the smoke gate
    // drops the size floor and only rejects pathological slowdowns.
    let threshold = if smoke { 0.5 } else { 1.0 };
    let best = thread_rows
        .iter()
        .filter(|r| r.threads > 1 && (smoke || r.elems >= GATE_THREAD_MIN_ELEMS))
        .fold(0.0f64, |acc, r| acc.max(r.speedup_vs_1t));
    let thread_speedup_status = if cores <= 1 {
        format!("skipped (single-core host; best observed {best:.2}x)")
    } else if best > threshold {
        format!("passed (best {best:.2}x > {threshold})")
    } else {
        format!("FAILED (best {best:.2}x <= {threshold})")
    };

    let gates = [
        (
            "gemm_speedup_gate",
            speedup_gate(gate_row, GATE_GEMM_SPEEDUP),
        ),
        ("fwht_speedup_gate", fwht_status),
        ("values_gate", values_status),
        ("bitwise_gate", bitwise_status),
        (
            "householder_speedup_gate",
            speedup_gate(qr_row, GATE_QR_SPEEDUP),
        ),
        (
            "trsm_speedup_gate",
            speedup_gate(trsm_row, GATE_TRSM_SPEEDUP),
        ),
        (
            "spmm_transpose_speedup_gate",
            speedup_gate(spmm_t_row, GATE_SPMM_T_SPEEDUP),
        ),
        ("gaussian_accuracy_gate", gaussian_accuracy_status),
        (
            "gaussian_speedup_gate",
            speedup_gate(gaussian_row, GATE_GAUSSIAN_SPEEDUP),
        ),
        ("sharding_host_gate", sharding_status),
        ("thread_bitwise_gate", thread_bitwise_status),
        ("thread_speedup_gate", thread_speedup_status),
    ];

    // The `host` header pins the machine the numbers came from: measured times
    // are only comparable against the same host shape and compiler.
    let mut doc = vec![
        ("experiment".into(), JsonValue::Str("fig_kernels".into())),
        (
            "host".into(),
            JsonValue::Object(vec![
                ("cores".into(), JsonValue::UInt(cores as u64)),
                (
                    "thread_grid".into(),
                    JsonValue::Array(grid.iter().map(|&t| JsonValue::UInt(t as u64)).collect()),
                ),
                ("rustc".into(), JsonValue::Str(sketch_obs::rustc_version())),
            ]),
        ),
        ("smoke".into(), JsonValue::Bool(smoke)),
    ];
    doc.extend(
        gates
            .iter()
            .map(|(key, status)| (key.to_string(), JsonValue::Str(status.clone()))),
    );
    doc.push((
        "rows".into(),
        JsonValue::Array(rows.iter().map(KernelRow::to_json).collect()),
    ));
    doc.push(("sharding_rows".into(), JsonValue::Array(sharding_rows)));
    doc.push((
        "thread_rows".into(),
        JsonValue::Array(thread_rows.iter().map(ThreadRow::to_json).collect()),
    ));
    std::fs::write(&out_path, JsonValue::Object(doc).render()).expect("write kernels JSON");
    println!("wrote {out_path}");

    // Perfetto-compatible trace: one wall event per timed thread-sweep sample,
    // plus the metrics summary (host shape and thread-pool activity).
    if let (Some(path), Some(collector)) = (&args.trace, &collector) {
        let metrics = MetricsRegistry::new();
        metrics.add("host.cores", cores as u64);
        let stats = rayon::pool_stats();
        metrics.add("rayon.batches", stats.batches);
        metrics.add("rayon.tasks", stats.tasks);
        metrics.add("rayon.inline_tasks", stats.inline_tasks);
        for r in &thread_rows {
            metrics.observe(
                "walltime.median_ms",
                r.sample.median_ms(),
                &[0.01, 0.1, 1.0, 10.0, 100.0],
            );
        }
        let trace_doc = chrome_trace_with_metrics(&collector.snapshot(), Some(&metrics));
        write_json(std::path::Path::new(path), &trace_doc).expect("write trace JSON");
        println!("wrote {path}");
    }

    let mut failed = false;
    for (key, status) in &gates {
        let name = key.replace('_', " ");
        if status.starts_with("FAILED") {
            eprintln!("{name} {status}");
            failed = true;
        } else {
            println!("{name} {status}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
