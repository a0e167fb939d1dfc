//! Kernel-speed regression harness: naive-reference vs cache-blocked kernels,
//! measured on this host and emitted as `BENCH_kernels.json`.
//!
//! `fig_walltime` tracks thread scaling of the production kernels; this binary
//! tracks the *single-threaded* speedup of the cache-blocked kernels over the
//! per-element reference implementations they replaced — the number that cache
//! blocking actually bought, with no parallelism in the frame.  Four sweeps:
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
//!
//! Gates (exit non-zero on failure, so CI pins the speedup):
//!
//! * blocked GEMM must be **>= 2x** the naive reference at 512x512x128 on one
//!   thread (the shape `BENCH_walltime.json` has always tracked);
//! * tiled FWHT must be **strictly faster** than the un-tiled kernel at the
//!   largest swept length (d = 2^20 full, 2^18 smoke);
//! * blocked and naive GEMM and Gram values must agree within `1e-12 * max|C|` on
//!   every swept shape (the kernels may round differently, but never drift);
//! * every Householder, GEMV and TRSM row must be **bitwise-equal** to its reference
//!   (`max_rel_diff == 0`);
//! * the Householder path must be **>= 1.5x** its reference at the largest swept
//!   shape on one thread;
//! * the lockstep TRSM must be **>= 1.5x** the per-vector reference on one thread.
//!
//! Run with: `cargo run --release -p sketch-bench --bin fig_kernels [-- --smoke] [--out PATH]`

use sketch_bench::report::{ms, Table};
use sketch_bench::walltime::{host_cores, time_fn, with_thread_pool, Sample};
use sketch_core::fwht::{fwht_in_place, fwht_tiled_in_place, DEFAULT_TILE};
use sketch_core::JsonValue;
use sketch_gpu_sim::Device;
use sketch_la::blas2::{gemv, gemv_naive, Triangle};
use sketch_la::blas3::{gemm_into, gemm_naive_into, gram_gemm, trsm_right, trsm_right_naive};
use sketch_la::qr::{geqrf_naive, geqrf_owned};
use sketch_la::{Layout, Matrix, Op};
use sketch_rng::fill;

/// The GEMM gate shape (m, k, n): the row `BENCH_walltime.json` has always tracked.
const GATE_GEMM: (usize, usize, usize) = (512, 512, 128);

/// Required blocked-over-naive speedup at [`GATE_GEMM`] on one thread.
const GATE_GEMM_SPEEDUP: f64 = 2.0;

/// Required Householder-path speedup over the reference at the largest swept shape.
const GATE_QR_SPEEDUP: f64 = 1.5;

/// The GEMV row's shape `(m, n)`: `Aᵀx` with a row-major `m x n` `A`.
const GEMV_SHAPE: (usize, usize) = (65536, 32);

/// Required lockstep-TRSM speedup over the per-vector reference on one thread.
const GATE_TRSM_SPEEDUP: f64 = 1.5;

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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_kernels.json", String::as_str)
        .to_string();

    let cores = host_cores();
    println!("host cores: {cores}; smoke: {smoke} (all measurements single-threaded)");

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

    // Gate 1: blocked GEMM >= 2x naive at the gate shape.
    let gate_shape = format!("{}x{}x{}", GATE_GEMM.0, GATE_GEMM.1, GATE_GEMM.2);
    let gate_row = rows
        .iter()
        .find(|r| r.kernel == "gemm" && r.shape == gate_shape)
        .expect("the gate shape always runs");
    let gemm_status = if gate_row.speedup_min >= GATE_GEMM_SPEEDUP {
        format!(
            "passed ({:.2}x >= {GATE_GEMM_SPEEDUP}x at {gate_shape})",
            gate_row.speedup_min
        )
    } else {
        format!(
            "FAILED ({:.2}x < {GATE_GEMM_SPEEDUP}x at {gate_shape})",
            gate_row.speedup_min
        )
    };

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

    // Gate 4: the Householder, GEMV and TRSM rows are bitwise-equal to their
    // references.
    let inexact: Vec<String> = rows
        .iter()
        .filter(|r| {
            matches!(r.kernel, "householder" | "gemv_t" | "trsm_right") && r.max_rel_diff != 0.0
        })
        .map(|r| format!("{} {}", r.kernel, r.shape))
        .collect();
    let bitwise_status = if inexact.is_empty() {
        "passed (householder, gemv and trsm rows bitwise-equal to their references)".to_string()
    } else {
        format!("FAILED (not bitwise-equal: {})", inexact.join(", "))
    };

    // Gate 5: the Householder path >= 1.5x its reference at the largest shape.
    let qr_row = rows
        .iter()
        .filter(|r| r.kernel == "householder")
        .max_by_key(|r| r.elems)
        .expect("at least one Householder shape runs");
    let qr_status = if qr_row.speedup_min >= GATE_QR_SPEEDUP {
        format!(
            "passed ({:.2}x >= {GATE_QR_SPEEDUP}x at {})",
            qr_row.speedup_min, qr_row.shape
        )
    } else {
        format!(
            "FAILED ({:.2}x < {GATE_QR_SPEEDUP}x at {})",
            qr_row.speedup_min, qr_row.shape
        )
    };

    // Gate 6: the lockstep TRSM >= 1.5x the per-vector reference.
    let trsm_row = rows
        .iter()
        .find(|r| r.kernel == "trsm_right")
        .expect("the TRSM row always runs");
    let trsm_status = if trsm_row.speedup_min >= GATE_TRSM_SPEEDUP {
        format!(
            "passed ({:.2}x >= {GATE_TRSM_SPEEDUP}x at {})",
            trsm_row.speedup_min, trsm_row.shape
        )
    } else {
        format!(
            "FAILED ({:.2}x < {GATE_TRSM_SPEEDUP}x at {})",
            trsm_row.speedup_min, trsm_row.shape
        )
    };

    let doc = JsonValue::Object(vec![
        ("experiment".into(), JsonValue::Str("fig_kernels".into())),
        (
            "host".into(),
            JsonValue::Object(vec![
                ("cores".into(), JsonValue::UInt(cores as u64)),
                ("rustc".into(), JsonValue::Str(sketch_obs::rustc_version())),
            ]),
        ),
        ("smoke".into(), JsonValue::Bool(smoke)),
        (
            "gemm_speedup_gate".into(),
            JsonValue::Str(gemm_status.clone()),
        ),
        (
            "fwht_speedup_gate".into(),
            JsonValue::Str(fwht_status.clone()),
        ),
        ("values_gate".into(), JsonValue::Str(values_status.clone())),
        (
            "bitwise_gate".into(),
            JsonValue::Str(bitwise_status.clone()),
        ),
        (
            "householder_speedup_gate".into(),
            JsonValue::Str(qr_status.clone()),
        ),
        (
            "trsm_speedup_gate".into(),
            JsonValue::Str(trsm_status.clone()),
        ),
        (
            "rows".into(),
            JsonValue::Array(rows.iter().map(KernelRow::to_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, doc.render()).expect("write kernels JSON");
    println!("wrote {out_path}");

    let mut failed = false;
    for (name, status) in [
        ("gemm speedup gate", &gemm_status),
        ("fwht speedup gate", &fwht_status),
        ("values gate", &values_status),
        ("bitwise gate", &bitwise_status),
        ("householder speedup gate", &qr_status),
        ("trsm speedup gate", &trsm_status),
    ] {
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
