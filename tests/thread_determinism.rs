//! The thread-count determinism suite: every parallel entry point in the
//! workspace must produce **bit-for-bit identical** results whether the rayon
//! shim schedules 1, 2, 4 or 7 real threads.
//!
//! This is the threading model's core contract (see ARCHITECTURE.md, "Threading
//! & determinism model"): task boundaries are a pure function of problem size —
//! never of thread count — and every reduction folds its per-task partials in
//! ascending task order.  Changing `RAYON_NUM_THREADS` may change wall-clock
//! time; it must never change a single bit of any result.
//!
//! The grid deliberately includes 7 (prime, and more threads than the container
//! has cores) so task-to-thread assignment is maximally ragged: if any kernel's
//! result depended on which thread ran which task, these tests would flake.

use gpu_countsketch::dist::{pipelined_sketch, ExecutorOptions};
use gpu_countsketch::gpu::{Device, DevicePool};
use gpu_countsketch::la::{blas3, Layout, Matrix};
use gpu_countsketch::lowrank::{range_finder, LowRankParams, RangeSketch};
use gpu_countsketch::lsq::{sketch_and_solve, LsqProblem};
use gpu_countsketch::sketch::{fwht, EmbeddingDim, Operand, Pipeline, SketchSpec};
use gpu_countsketch::sparse::{spmm, spmm_transpose, CooMatrix, CsrMatrix};
use proptest::prelude::*;

/// The ISSUE's thread grid: 1 (serial reference), 2/4 (powers of two), 7
/// (prime and oversubscribed, so task-stealing order is maximally varied).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Run `f` with every parallel operation dispatched to a pool of exactly
/// `threads` threads.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(f)
}

/// Assert that `f` returns the same bits under every thread count in the grid.
fn assert_identical_across_threads(label: &str, f: impl Fn() -> Vec<u64>) {
    let reference = with_threads(THREAD_COUNTS[0], &f);
    for &t in &THREAD_COUNTS[1..] {
        let got = with_threads(t, &f);
        assert_eq!(
            got, reference,
            "{label}: result bits drifted at {t} threads"
        );
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// A 1000 x 9 operand: neither dimension divides the shim's task grid evenly.
fn odd_operand() -> Matrix {
    Matrix::random_gaussian(1000, 9, Layout::RowMajor, 21, 0)
}

/// A sparse 1000 x 9 operand with an irregular pattern (~2.5 nnz per row).
fn odd_csr_operand() -> CsrMatrix {
    let dense = odd_operand();
    let mut coo = CooMatrix::new(dense.nrows(), dense.ncols());
    for i in 0..dense.nrows() {
        coo.push(i, i % 9, dense.get(i, i % 9));
        coo.push(i, (i * 5 + 2) % 9, dense.get(i, (i * 5 + 2) % 9));
        if i % 2 == 0 {
            coo.push(i, (i * 3 + 7) % 9, dense.get(i, (i * 3 + 7) % 9));
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// One plan per sketch kind, plus the two-stage Count-Gauss pipeline.
fn all_plans(d: usize) -> Vec<(&'static str, Pipeline)> {
    vec![
        (
            "CountSketch",
            Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), 7)),
        ),
        (
            "HashCountSketch",
            Pipeline::single(SketchSpec::hash_countsketch(d, EmbeddingDim::Exact(48), 11)),
        ),
        (
            "Gaussian",
            Pipeline::single(SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), 5)),
        ),
        (
            "SRHT",
            Pipeline::single(SketchSpec::srht(d, EmbeddingDim::Ratio(2), 3)),
        ),
        (
            "Count-Gauss",
            Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 13),
        ),
    ]
}

#[test]
fn random_fills_are_thread_count_invariant() {
    // Philox fills are counter-based, but the parallel fill loops must also cut
    // identical blocks at every thread count.
    assert_identical_across_threads("random_gaussian fill", || {
        bits(&Matrix::random_gaussian(1000, 9, Layout::RowMajor, 99, 3))
    });
    assert_identical_across_threads("random_gaussian fill (col-major)", || {
        bits(&Matrix::random_gaussian(513, 7, Layout::ColMajor, 17, 1))
    });
}

#[test]
fn gemm_is_thread_count_invariant() {
    let a = Matrix::random_gaussian(200, 150, Layout::RowMajor, 1, 0);
    let b = Matrix::random_gaussian(150, 40, Layout::RowMajor, 2, 0);
    let c = Matrix::random_gaussian(200, 40, Layout::RowMajor, 3, 0);
    assert_identical_across_threads("gemm", || {
        let device = Device::unlimited();
        bits(&blas3::gemm(&device, 1.5, &a, &b, -0.5, Some(&c)).expect("gemm succeeds"))
    });
}

#[test]
fn fwht_is_thread_count_invariant() {
    let pristine = Matrix::random_gaussian(1 << 12, 3, Layout::ColMajor, 5, 0);
    assert_identical_across_threads("fwht", || {
        let device = Device::unlimited();
        let mut work = pristine.clone();
        fwht::fwht_matrix_columns(&device, &mut work, fwht::DEFAULT_TILE);
        bits(&work)
    });
}

#[test]
fn spmm_is_thread_count_invariant() {
    let s = odd_csr_operand();
    let a = Matrix::random_gaussian(9, 6, Layout::RowMajor, 7, 0);
    assert_identical_across_threads("spmm", || {
        let device = Device::unlimited();
        bits(&spmm(&device, &s, &a))
    });
}

#[test]
fn spmm_transpose_is_thread_count_invariant() {
    let s = odd_csr_operand();
    for layout in [Layout::RowMajor, Layout::ColMajor] {
        let b = Matrix::random_gaussian(s.nrows(), 6, layout, 8, 0);
        assert_identical_across_threads("spmm_transpose", || {
            let device = Device::unlimited();
            bits(&spmm_transpose(&device, &s, &b))
        });
    }
}

#[test]
fn every_sketch_kind_is_thread_count_invariant_on_dense_operands() {
    let a = odd_operand();
    for (label, plan) in all_plans(a.nrows()) {
        assert_identical_across_threads(label, || {
            let device = Device::unlimited();
            let sketch = plan.build_for(&device, a.ncols()).expect("plan builds");
            bits(&sketch.apply_matrix(&device, &a).expect("plan applies"))
        });
    }
}

#[test]
fn every_sketch_kind_is_thread_count_invariant_on_csr_operands() {
    let a = odd_csr_operand();
    for (label, plan) in all_plans(a.nrows()) {
        assert_identical_across_threads(&format!("{label}/CSR"), || {
            let device = Device::unlimited();
            let sketch = plan.build_for(&device, a.ncols()).expect("plan builds");
            bits(
                &sketch
                    .apply_operand(&device, Operand::Csr(&a))
                    .expect("plan applies to CSR"),
            )
        });
    }
}

#[test]
fn countsketch_vector_apply_is_thread_count_invariant() {
    // `apply_vector` has its own ordered-gather path, separate from the matrix
    // kernel — pin it too.
    let d = 1000;
    let x = Matrix::random_gaussian(d, 1, Layout::ColMajor, 23, 0);
    for (label, plan) in &all_plans(d)[..2] {
        assert_identical_across_threads(&format!("{label}/vector"), || {
            let device = Device::unlimited();
            let sketch = plan.build_for(&device, 1).expect("plan builds");
            let y = sketch
                .apply_vector(&device, x.as_slice())
                .expect("vector applies");
            y.iter().map(|v| v.to_bits()).collect()
        });
    }
}

#[test]
fn countsketch_of_csr_end_to_end_is_thread_count_invariant() {
    // The ISSUE's named end-to-end case: a CountSketch of a CSR operand through
    // the full pipelined executor on a multi-device pool, swept across thread
    // counts — sharding and threading must compose without changing bits.
    let a = odd_csr_operand();
    let plan = Pipeline::single(SketchSpec::countsketch(
        a.nrows(),
        EmbeddingDim::Square(2),
        7,
    ));
    for devices in [1usize, 4] {
        assert_identical_across_threads(
            &format!("CountSketch/CSR e2e @ {devices} devices"),
            || {
                let pool = DevicePool::unlimited(devices);
                let run = pipelined_sketch(&pool, &a, &plan, &ExecutorOptions::default())
                    .expect("executes");
                bits(&run.result)
            },
        );
    }
}

#[test]
fn sketch_and_solve_is_thread_count_invariant() {
    let device = Device::unlimited();
    let problem = LsqProblem::performance(&device, 512, 8, 31).expect("problem builds");
    let plan = Pipeline::count_gauss(512, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 33);
    assert_identical_across_threads("sketch_and_solve", || {
        let pool = DevicePool::unlimited(1);
        let (solution, _) = sketch_and_solve(&pool, &problem, &plan, &ExecutorOptions::default())
            .expect("solver succeeds");
        solution.x.iter().map(|v| v.to_bits()).collect()
    });
}

#[test]
fn lowrank_range_finder_is_thread_count_invariant() {
    let a = Matrix::random_gaussian(300, 40, Layout::RowMajor, 41, 0);
    // CountSketch test matrix: the one range sketch that shards across a
    // multi-device pool, so both pool sizes run the same operator.
    let mut params = LowRankParams::new(5);
    params.sketch = RangeSketch::CountSketch;
    for devices in [1usize, 3] {
        assert_identical_across_threads(&format!("range_finder @ {devices} devices"), || {
            let pool = DevicePool::unlimited(devices);
            bits(&range_finder(&pool, &a, &params, &ExecutorOptions::default()).expect("runs"))
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary shapes and seeds: a CountSketch of a dense operand is bitwise
    /// thread-count-invariant.  Shapes straddle the shim's task-granularity
    /// thresholds so both the serial-inline and the multi-task paths run.
    #[test]
    fn countsketch_any_shape_is_thread_count_invariant(
        d in 64usize..600,
        n in 1usize..10,
        seed in 0u64..1000,
    ) {
        let a = Matrix::random_gaussian(d, n, Layout::RowMajor, seed, 0);
        let spec = SketchSpec::countsketch(d, EmbeddingDim::Exact(32), seed.wrapping_add(1));
        let reference = with_threads(1, || {
            let device = Device::unlimited();
            bits(&spec.build(&device).expect("builds").apply_matrix(&device, &a).expect("applies"))
        });
        for &t in &THREAD_COUNTS[1..] {
            let got = with_threads(t, || {
                let device = Device::unlimited();
                bits(&spec.build(&device).expect("builds").apply_matrix(&device, &a).expect("applies"))
            });
            prop_assert_eq!(&got, &reference, "d={} n={} seed={} t={}", d, n, seed, t);
        }
    }

    /// The shim's own entry points (`into_par_iter().map().sum()`,
    /// `par_iter_mut`, `par_chunks_mut`, `collect_into_vec`) are bitwise
    /// thread-count-invariant on float work of arbitrary length.
    #[test]
    fn shim_entry_points_are_thread_count_invariant(len in 1usize..5000, seed in 0u64..100) {
        use rayon::prelude::*;
        let run = || {
            // Non-associative float work: any reassociation of the fold order
            // or re-cut of the chunk boundaries changes the low bits.
            let mut data: Vec<f64> = (0..len)
                .map(|i| ((i as f64) + (seed as f64) * 0.1).sin())
                .collect();
            data.par_iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = x.mul_add(1.0000001, (i % 17) as f64 * 1e-7));
            data.par_chunks_mut(13).enumerate().for_each(|(c, chunk)| {
                let mut acc = c as f64;
                for x in chunk.iter_mut() {
                    acc += *x * 0.5;
                    *x = acc;
                }
            });
            let total: f64 = (0..len).into_par_iter().map(|i| data[i] / 3.0).sum::<f64>();
            let mut collected = Vec::new();
            (0..len)
                .into_par_iter()
                .map(|i| data[i] + total)
                .collect_into_vec(&mut collected);
            collected.push(total);
            collected.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        };
        let reference = with_threads(1, run);
        for &t in &THREAD_COUNTS[1..] {
            prop_assert_eq!(&with_threads(t, run), &reference, "len={} t={}", len, t);
        }
    }
}
