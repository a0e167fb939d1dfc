//! Bit-for-bit pins of the fast `sketch-la` kernels against the per-element
//! references they replaced (`geqrf_naive`, `QrFactors::q_thin_naive`,
//! `Matrix::to_layout_naive`, `Matrix::transpose_into_naive`, `gemv_naive`).
//!
//! The column-grouped Householder QR, the in-place thin `Q`, the tile-copy layout
//! conversion and the storage-order GEMV keep every output's exact operation
//! sequence, so each must match its reference in every bit — and record the same
//! modelled cost — at any thread count.  Every case runs on pools of 1 and 3
//! threads through `ThreadPoolBuilder::install`.

use proptest::prelude::*;
use sketch_gpu_sim::{Device, KernelCost};
use sketch_la::blas2::{gemv, gemv_naive};
use sketch_la::qr::{geqrf, geqrf_naive, geqrf_owned, QrFactors};
use sketch_la::{Layout, Matrix, Op};

const THREADS: [usize; 2] = [1, 3];

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(f)
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Run `f` on a fresh device and return its result with the cost it recorded.
fn costed<R>(f: impl FnOnce(&Device) -> R) -> (R, KernelCost) {
    let device = Device::unlimited();
    let out = f(&device);
    (out, device.tracker().snapshot())
}

/// A Gaussian `m x n` matrix, optionally with column `j % n` set to the signed zero
/// `z`, which drives the `tau == 0` path.
fn qr_input(m: usize, n: usize, layout: Layout, seed: u64, zero: Option<(usize, f64)>) -> Matrix {
    let mut a = Matrix::random_gaussian(m, n, layout, seed, 0);
    if let Some((j, z)) = zero {
        for i in 0..m {
            a.set(i, j % n, z);
        }
    }
    a
}

/// Every QR output of the fast path equals the reference's, bit for bit.
fn check_qr(a: &Matrix) {
    let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.37).sin()).collect();
    let qt = |f: &QrFactors| f.apply_qt_vec(&Device::unlimited(), &b).expect("length m");
    let ((reference, q_ref), ref_cost) = costed(|d| {
        let f = geqrf_naive(d, a).expect("m >= n");
        let q = f.q_thin_naive(d);
        (f, q)
    });
    let qtb_ref = qt(&reference);
    let same = |f: &QrFactors| {
        prop_assert_eq!(
            bits(f.factors().as_slice()),
            bits(reference.factors().as_slice())
        );
        prop_assert_eq!(bits(f.taus()), bits(reference.taus()));
        prop_assert_eq!(bits(f.r().as_slice()), bits(reference.r().as_slice()));
        prop_assert_eq!(bits(&qt(f)), bits(&qtb_ref));
    };
    for threads in THREADS {
        with_threads(threads, || {
            let ((f, q), cost) = costed(|d| {
                let f = geqrf(d, a).expect("m >= n");
                let q = f.q_thin(d);
                (f, q)
            });
            same(&f);
            prop_assert_eq!(bits(q.as_slice()), bits(q_ref.as_slice()));
            prop_assert_eq!(q.layout(), q_ref.layout());
            prop_assert_eq!(cost, ref_cost);

            // The owned path: factor in the caller's buffer, Q over the factors.
            let ((owned, q_owned), cost) = costed(|d| {
                let f = geqrf_owned(d, a.clone()).expect("m >= n");
                (f.clone(), f.into_q_thin(d))
            });
            same(&owned);
            prop_assert_eq!(bits(q_owned.as_slice()), bits(q_ref.as_slice()));
            prop_assert_eq!(cost, ref_cost);
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_qr_is_bitwise_the_reference(
        n in 1usize..14,
        extra in 0usize..288,
        square in 0u8..2,
        row_major in 0u8..2,
        zero in 0u8..3,
        zero_col in 0usize..13,
        seed in 0u64..10_000,
    ) {
        // m in n..=300 (n + extra) or m == n; n crosses the group width.
        let m = if square == 1 { n } else { n + extra };
        let layout = if row_major == 1 { Layout::RowMajor } else { Layout::ColMajor };
        let zero = match zero {
            0 => None,
            1 => Some((zero_col, 0.0)),
            _ => Some((zero_col, -0.0)),
        };
        check_qr(&qr_input(m, n, layout, seed, zero));
    }

    #[test]
    fn prop_layout_copy_is_bitwise_the_reference(
        m in 1usize..101,
        n in 1usize..101,
        shape in 0u8..3,
        from_row_major in 0u8..2,
        seed in 0u64..10_000,
    ) {
        // 1 x n, m x 1, and general shapes (mostly not multiples of the tile).
        let (m, n) = match shape {
            0 => (1, n),
            1 => (m, 1),
            _ => (m, n),
        };
        let from = if from_row_major == 1 { Layout::RowMajor } else { Layout::ColMajor };
        let a = Matrix::random_gaussian(m, n, from, seed, 0);
        let to = from.transposed();
        let (reference, ref_cost) = costed(|d| a.to_layout_naive(d, to));
        for threads in THREADS {
            let (got, cost) = with_threads(threads, || costed(|d| a.to_layout(d, to)));
            prop_assert_eq!(got.layout(), to);
            prop_assert_eq!(bits(got.as_slice()), bits(reference.as_slice()));
            prop_assert_eq!(cost, ref_cost);
        }
        for target in [Layout::RowMajor, Layout::ColMajor] {
            let mut reference = Matrix::zeros_with_layout(n, m, target);
            let ((), ref_cost) = costed(|d| {
                a.transpose_into_naive(d, &mut reference.view_mut()).expect("n x m target")
            });
            for threads in THREADS {
                let mut got = Matrix::zeros_with_layout(n, m, target);
                let ((), cost) = with_threads(threads, || {
                    costed(|d| a.transpose_into(d, &mut got.view_mut()).expect("n x m target"))
                });
                prop_assert_eq!(bits(got.as_slice()), bits(reference.as_slice()));
                prop_assert_eq!(cost, ref_cost);
            }
        }
    }

    #[test]
    fn prop_gemv_is_bitwise_the_reference(
        m in 0usize..71,
        k in 0usize..71,
        trans in 0u8..2,
        row_major in 0u8..2,
        with_y in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let op = if trans == 1 { Op::Trans } else { Op::NoTrans };
        let layout = if row_major == 1 { Layout::RowMajor } else { Layout::ColMajor };
        let a = Matrix::random_gaussian(m, k, layout, seed, 0);
        let x = sketch_rng::fill::gaussian_vec(seed, 1, op.cols(&a));
        let y0 = sketch_rng::fill::gaussian_vec(seed, 2, op.rows(&a));
        let (alpha, beta, y) = if with_y == 1 { (-1.5, 0.75, Some(&y0[..])) } else { (1.0, 0.0, None) };
        let (reference, ref_cost) =
            costed(|d| gemv_naive(d, alpha, op, &a, &x, beta, y).expect("shapes match"));
        for threads in THREADS {
            let (got, cost) = with_threads(threads, || {
                costed(|d| gemv(d, alpha, op, &a, &x, beta, y).expect("shapes match"))
            });
            prop_assert_eq!(bits(&got), bits(&reference));
            prop_assert_eq!(cost, ref_cost);
        }
    }
}

/// Shapes large enough that the trailing updates and `Q` formation run as parallel
/// column-group tasks (the proptest shapes all stay on the calling thread).
#[test]
fn parallel_qr_shapes_are_bitwise_the_reference() {
    for (m, n, layout, zero) in [
        (1, 1, Layout::ColMajor, None),
        (7, 7, Layout::ColMajor, Some((3, -0.0))),
        (37, 5, Layout::RowMajor, None),
        (2600, 13, Layout::ColMajor, Some((4, 0.0))),
        (2048, 40, Layout::RowMajor, Some((17, -0.0))),
        (4099, 21, Layout::ColMajor, None),
    ] {
        check_qr(&qr_input(m, n, layout, (m * n) as u64, zero));
    }
}

/// Inputs whose exact and signed zeros reach every sign-sensitive step: a positive
/// first column (so the first reflector's `v` is all positive) ahead of `-0.0`
/// columns, where the GEQRF chain's `0 + 1·t[k]` start decides the sign of `w`; and
/// upper-triangular inputs, whose reflectors have exact-zero tails that `Q` turns
/// into `0 - tau·0 = +0.0`.
#[test]
fn signed_zero_inputs_are_bitwise_the_reference() {
    for (m, n) in [(2, 2), (9, 6), (3000, 13)] {
        for layout in [Layout::ColMajor, Layout::RowMajor] {
            let gaussian = Matrix::random_gaussian(m, n, layout, (m + n) as u64, 0);
            let signed = Matrix::from_fn(m, n, layout, |i, j| match j {
                0 => gaussian.get(i, 0).abs(),
                j if j % 2 == 1 => -0.0,
                _ => gaussian.get(i, j),
            });
            check_qr(&signed);
            let upper =
                Matrix::from_fn(
                    m,
                    n,
                    layout,
                    |i, j| if i <= j { gaussian.get(i, j) } else { 0.0 },
                );
            check_qr(&upper);
        }
    }
}
