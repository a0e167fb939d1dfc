//! Bit-for-bit pins of the transpose-free `spmm_transpose` against SpMM of the
//! counting-sort transpose, `spmm(&a.transpose(), b)`: the values' bits and the
//! recorded cost, on random shapes with empty rows and columns, `n` of 0, 1 and an
//! odd width, rows with unsorted and repeated columns, `±0.0` entries, `B` in both
//! layouts, and a row window read in place at an offset, on pools of 1 and 3
//! threads.

use proptest::prelude::*;
use sketch_gpu_sim::{Device, KernelCost};
use sketch_la::{Layout, Matrix};
use sketch_sparse::{spmm, spmm_transpose, CsrMatrix, CsrRowsView};

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
fn costed(f: impl FnOnce(&Device) -> Matrix) -> (Matrix, KernelCost) {
    let device = Device::unlimited();
    let out = f(&device);
    (out, device.tracker().snapshot())
}

/// splitmix64, the test's deterministic draw.
fn draw(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A value that is `+0.0`, `-0.0` or a signed fraction.
fn value(state: &mut u64) -> f64 {
    match draw(state) % 8 {
        0 => 0.0,
        1 => -0.0,
        r => (r as f64 - 4.5) * (draw(state) % 1000) as f64 / 997.0,
    }
}

/// An `m x k` matrix built with `from_raw`: each row holds up to `per_row` entries
/// at drawn columns, so rows are unsorted, repeat columns, or are empty, and
/// columns no row names stay empty.
fn raw_csr(m: usize, k: usize, per_row: u64, seed: u64) -> CsrMatrix {
    let mut state = seed;
    let mut row_ptr = vec![0];
    let (mut col_idx, mut values) = (Vec::new(), Vec::new());
    for _ in 0..m {
        if k > 0 {
            for _ in 0..draw(&mut state) % (per_row + 1) {
                col_idx.push(draw(&mut state) as usize % k);
                values.push(value(&mut state));
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw(m, k, row_ptr, col_idx, values)
}

/// A dense `m x n` operand in `layout` with some signed zeros.
fn dense(m: usize, n: usize, layout: Layout, seed: u64) -> Matrix {
    Matrix::from_fn(m, n, layout, |i, j| {
        let mut state = seed ^ ((i * n + j) as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
        value(&mut state)
    })
}

/// `spmm_transpose` of the view equals SpMM of its owned copy's transpose in every
/// bit and in the recorded cost, at every thread count.
fn check(a: CsrRowsView<'_>, b: &Matrix) {
    let (want, want_cost) = costed(|d| spmm(d, &a.to_csr().transpose(), b));
    for threads in THREADS {
        let (got, cost) = with_threads(threads, || costed(|d| spmm_transpose(d, a, b)));
        assert_eq!((got.nrows(), got.ncols()), (a.ncols(), b.ncols()));
        assert_eq!(got.layout(), want.layout());
        assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
        assert_eq!(cost, want_cost);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spmm_transpose_is_spmm_of_the_transpose(
        m in 0usize..48,
        k in 0usize..40,
        per_row in 0u64..6,
        half in 1usize..5,
        offset in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        // The parent has `offset` rows above the window and two below.
        let parent = raw_csr(offset + m + 2, k, per_row, seed);
        let window = parent.slice_rows(offset..offset + m);
        let whole = window.to_csr();
        for n in [0, 1, 2 * half + 1] {
            for layout in [Layout::RowMajor, Layout::ColMajor] {
                let b = dense(m, n, layout, seed ^ n as u64);
                check(window, &b);
                check((&whole).into(), &b);
            }
        }
    }
}

/// Long rows with many repeated columns, cut into two column panels.
#[test]
fn a_split_output_is_still_one_chain_per_element() {
    let (m, k, n) = (300, 700, 5);
    let a = raw_csr(m, k, 40, 17);
    for layout in [Layout::RowMajor, Layout::ColMajor] {
        check((&a).into(), &dense(m, n, layout, 18));
    }
}

#[test]
#[should_panic(expected = "B must have 4 rows")]
fn a_mismatched_operand_is_rejected() {
    let a = raw_csr(4, 3, 2, 1);
    spmm_transpose(&Device::unlimited(), &a, &Matrix::zeros(5, 2));
}
