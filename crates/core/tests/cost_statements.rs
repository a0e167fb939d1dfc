//! The one cost model: what each sketch kind states from an operand's shape alone
//! (`SketchSpec::costs`, `Pipeline::costs`) is exactly what building its operator
//! and one `apply_into` record — every launch, byte and flop — and reserve on the
//! device.  Every kind and the Count→Gauss and Count→SRHT pipelines, on dense
//! operands in both layouts, on CSR and on a CSR row window, at random shapes and
//! fills; and one `apply_vector`, as a dense `d x 1` operand.
//!
//! The multi-device executor charges its shards these statements instead of
//! running their kernels, and the paper-scale projections evaluate them at sizes
//! nothing could allocate, so this is the check that keeps both honest.  Admission
//! states tenant shapes with them, so they are total too: at any shape a statement
//! is exact or a typed error, never a wrapped count or a panic.

use proptest::prelude::*;
use sketch_core::{
    CountSketch, EmbeddingDim, Error, GaussianSketch, HashCountSketch, Operand, OperandShape,
    Pipeline, SketchCosts, SketchOperator, SketchSpec, Srht,
};
use sketch_gpu_sim::Device;
use sketch_la::{Layout, Matrix};
use sketch_sparse::{CooMatrix, CsrMatrix};

/// A `d x n` CSR operand storing about `fill` percent of its entries.
fn random_csr(d: usize, n: usize, fill: usize, seed: u64) -> CsrMatrix {
    let values = Matrix::random_gaussian(d, n, Layout::RowMajor, seed, 3);
    let mut coo = CooMatrix::new(d, n);
    for i in 0..d {
        for j in 0..n {
            if (i * 37 + j * 11 + seed as usize) % 100 < fill {
                coo.push(i, j, values.get(i, j));
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Build `op` on a fresh device and apply it once to `a`, checking the recorded
/// generation, the recorded apply and the apply's peak reservation against
/// `stated`.
fn check(
    stated: SketchCosts,
    a: Operand<'_>,
    build: impl FnOnce(&Device) -> Box<dyn SketchOperator>,
) {
    let device = Device::unlimited();
    let (op, generation) = device.tracker().measure(|| build(&device));
    prop_assert_eq!(generation, stated.generation, "generation of {}", op.name());
    prop_assert_eq!(
        device.memory().peak(),
        0,
        "{} reserved at generation",
        op.name()
    );

    let mut out = Matrix::zeros_with_layout(op.output_dim(), a.ncols(), op.output_layout());
    let (applied, apply) = device
        .tracker()
        .measure(|| op.apply_into(&device, a, &mut out.view_mut()));
    prop_assert!(applied.is_ok(), "{} failed on {}", op.name(), a.describe());
    prop_assert_eq!(apply, stated.apply, "{} on {}", op.name(), a.describe());
    prop_assert_eq!(
        device.memory().peak(),
        stated.apply_reserve,
        "{} reservation on {}",
        op.name(),
        a.describe()
    );
    prop_assert_eq!(
        device.memory().in_use(),
        0,
        "{} kept a reservation",
        op.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_recorded_costs_equal_the_statement(
        d in 1usize..300,
        n in 1usize..10,
        k in 1usize..48,
        k2 in 1usize..24,
        fill in 0usize..100,
        seed in 0u64..1000,
    ) {
        let dense = Matrix::random_gaussian(d, n, Layout::RowMajor, seed, 0);
        let dense_cm = dense.to_layout(&Device::unlimited(), Layout::ColMajor);
        let sparse = random_csr(d, n, fill, seed);
        // A CSR row window: the middle d rows of a taller parent.
        let parent = random_csr(d + 4, n, fill, seed + 1);
        let window = parent.slice_rows(2..d + 2);
        let operands = [
            Operand::Dense(&dense),
            Operand::Dense(&dense_cm),
            Operand::Csr(&sparse),
            Operand::CsrRows(window),
        ];

        let specs = [
            SketchSpec::countsketch(d, EmbeddingDim::Exact(k), seed),
            SketchSpec::hash_countsketch(d, EmbeddingDim::Exact(k), seed + 1),
            SketchSpec::gaussian(d, EmbeddingDim::Exact(k), seed + 2),
            SketchSpec::srht(d, EmbeddingDim::Exact(k), seed + 3),
        ];
        let count_gauss =
            Pipeline::count_gauss(d, EmbeddingDim::Exact(k), EmbeddingDim::Exact(k2), seed + 5);
        // The SRHT's work matrix is reserved while the intermediate it reads still is.
        let count_srht = Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Exact(k), seed))
            .then(SketchSpec::srht(0, EmbeddingDim::Exact(k2), seed + 6));
        for a in operands {
            for spec in &specs {
                check(spec.costs(a.shape()).unwrap(), a, |device| spec.build(device).unwrap());
            }
            for chain in [&count_gauss, &count_srht] {
                check(chain.costs(a.shape()).unwrap(), a, |device| {
                    chain.build_for(device, n).unwrap()
                });
            }
        }
    }

    /// `apply_vector` records what the resolved pipeline states for a dense `d x 1`
    /// row-major operand: the statement `sketch_bench::analytic` projects the
    /// least-squares solvers' vector sketch with.  (The Gaussian's GEMV records
    /// `gemv_cost(k, d, false)`, which equals the statement's `gemm_cost(k, d, 1,
    /// false)` by formula only; this keeps it so.)
    #[test]
    fn prop_vector_applies_record_the_statement_at_one_column(
        d in 1usize..300,
        k in 1usize..48,
        k2 in 1usize..24,
        seed in 0u64..1000,
    ) {
        let x = Matrix::random_gaussian(d, 1, Layout::RowMajor, seed, 0);
        let column = Operand::Dense(&x).shape();
        let plans = [
            Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Exact(k), seed)),
            Pipeline::single(SketchSpec::hash_countsketch(d, EmbeddingDim::Exact(k), seed + 1)),
            Pipeline::single(SketchSpec::gaussian(d, EmbeddingDim::Exact(k), seed + 2)),
            Pipeline::single(SketchSpec::srht(d, EmbeddingDim::Exact(k), seed + 3)),
            Pipeline::count_gauss(d, EmbeddingDim::Exact(k), EmbeddingDim::Exact(k2), seed + 4),
        ];
        for plan in &plans {
            let device = Device::unlimited();
            let op = plan.build_for(&device, 1).unwrap();
            let (applied, recorded) = device
                .tracker()
                .measure(|| op.apply_vector(&device, x.as_slice()));
            prop_assert!(applied.is_ok(), "{} failed on a vector", op.name());
            prop_assert_eq!(recorded, plan.costs(column).unwrap().apply, "{}", op.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every kind and Count→Gauss, at `d`, `k`, `n` and `nnz` drawn from the whole
    /// `usize` range (each shifted right by a random amount, so every magnitude
    /// comes up): the statement and the bytes it holds are `Ok`, or a typed
    /// `Err` — never a panic, which a debug build raises on any overflow.
    #[test]
    fn prop_statements_are_total(
        d in 0usize..usize::MAX,
        k in 0usize..usize::MAX,
        k2 in 0usize..usize::MAX,
        n in 0usize..usize::MAX,
        nnz in 0usize..usize::MAX,
        shifts in 0u64..u64::MAX,
    ) {
        let shift = |i: u32| (shifts >> (6 * i)) as u32 % 64;
        let (d, k, k2) = (d >> shift(0), k >> shift(1), k2 >> shift(2));
        let (n, nnz) = (n >> shift(3), nnz >> shift(4));
        let shapes = [
            OperandShape::Dense { rows: d, cols: n, layout: Layout::RowMajor },
            OperandShape::Dense { rows: d, cols: n, layout: Layout::ColMajor },
            OperandShape::Csr { rows: d, cols: n, nnz },
        ];
        let exact = EmbeddingDim::Exact;
        let plans = [
            Pipeline::single(SketchSpec::countsketch(d, exact(k), 1)),
            Pipeline::single(SketchSpec::hash_countsketch(d, exact(k), 2)),
            Pipeline::single(SketchSpec::gaussian(d, exact(k), 3)),
            Pipeline::single(SketchSpec::srht(d, exact(k), 4)),
            Pipeline::count_gauss(d, exact(k), exact(k2), 5),
        ];
        for a in shapes {
            for plan in &plans {
                let stated = plan.costs(a);
                let held = stated.as_ref().map(|costs| costs.held_bytes(k2, n));
                prop_assert!(
                    matches!(
                        stated,
                        Ok(_) | Err(Error::SizeOverflow { .. } | Error::InvalidParameter { .. })
                    ),
                    "{stated:?}"
                );
                prop_assert!(
                    matches!(held, Ok(Ok(_) | Err(Error::SizeOverflow { .. })) | Err(_)),
                    "{held:?}"
                );
            }
            // The kinds' own statements, which `SketchSpec::costs` guards with
            // `exact_dims`, at the raw dimensions.
            for stated in [
                CountSketch::costs(d, k, a),
                HashCountSketch::costs(d, k, a),
                GaussianSketch::costs(d, k, a),
                Srht::costs(d, k, a),
            ] {
                prop_assert!(
                    matches!(stated, Ok(_) | Err(Error::SizeOverflow { .. })),
                    "{stated:?}"
                );
            }
        }
    }
}

#[test]
fn a_spec_that_cannot_build_states_nothing() {
    let unresolved = SketchSpec::gaussian(64, EmbeddingDim::Ratio(2), 1);
    let shape = Operand::Dense(&Matrix::zeros(64, 4)).shape();
    assert!(unresolved.costs(shape).is_err());
    assert!(unresolved.resolve(4).costs(shape).is_ok());
}

#[test]
fn a_gaussian_past_u64_flops_states_a_typed_overflow() {
    // 2·k·d·n = 2^80 flops on an operand of 2^62 bytes, which admission accepts.
    let shape = OperandShape::Dense {
        rows: 1 << 29,
        cols: 1 << 30,
        layout: Layout::RowMajor,
    };
    let plan = Pipeline::single(SketchSpec::gaussian(
        1 << 29,
        EmbeddingDim::Exact(1 << 20),
        1,
    ));
    assert_eq!(
        plan.costs(shape),
        Err(Error::SizeOverflow {
            quantity: "cost statement"
        })
    );
}
