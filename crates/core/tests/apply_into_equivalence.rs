//! Property tests for the operand-generic, buffer-reusing apply path.
//!
//! For all four operators (CountSketch, Gaussian, SRHT, the Count→Gauss pipeline):
//! `apply_into` into a *reused, dirty* buffer must be bit-for-bit identical to the
//! allocating `apply_matrix` / `apply_operand` wrappers, on both dense and CSR
//! operands — and the CountSketch/Gaussian hot paths must perform zero device
//! allocations.

use proptest::prelude::*;
use sketch_core::{EmbeddingDim, Operand, Pipeline, SketchOperator, SketchSpec};
use sketch_gpu_sim::Device;
use sketch_la::{Layout, Matrix};
use sketch_sparse::{CooMatrix, CsrMatrix};

fn device() -> Device {
    Device::unlimited()
}

/// A sparse CSR copy of a dense matrix with some entries dropped (so the CSR
/// structure is non-trivial).
fn sparsified(a: &Matrix) -> CsrMatrix {
    let mut coo = CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nrows() * a.ncols());
    for i in 0..a.nrows() {
        for j in 0..a.ncols() {
            if (i + j) % 3 != 0 {
                coo.push(i, j, a.get(i, j));
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Dense twin of a CSR matrix.
fn densified(s: &CsrMatrix) -> Matrix {
    let rows = s.to_dense();
    Matrix::from_fn(s.nrows(), s.ncols(), Layout::RowMajor, |i, j| rows[i][j])
}

/// The four operators the paper compares, built through specs for a `d`-row operand
/// with `n` columns.
fn operators(device: &Device, d: usize, n: usize, seed: u64) -> Vec<Box<dyn SketchOperator>> {
    vec![
        SketchSpec::countsketch(d, EmbeddingDim::Square(2), seed)
            .build_for(device, n)
            .unwrap(),
        SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), seed + 1)
            .build_for(device, n)
            .unwrap(),
        SketchSpec::srht(d, EmbeddingDim::Ratio(2), seed + 2)
            .build_for(device, n)
            .unwrap(),
        Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), seed + 3)
            .build_for(device, n)
            .unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// apply_into into a reused buffer == allocating apply_matrix, bitwise, for every
    /// operator on a dense operand.
    #[test]
    fn apply_into_matches_apply_matrix_on_dense_operands(
        d in 16usize..128,
        n in 2usize..6,
        seed in 0u64..1000,
    ) {
        let dev = device();
        let a = Matrix::random_gaussian(d, n, Layout::RowMajor, seed, 0);
        for op in operators(&dev, d, n, seed) {
            let allocated = op.apply_matrix(&dev, &a).unwrap();
            // Dirty buffer in the operator's natural layout.
            let mut reused =
                Matrix::from_fn(op.output_dim(), n, op.output_layout(), |_, _| f64::NAN);
            op.apply_into(&dev, Operand::Dense(&a), &mut reused.view_mut()).unwrap();
            prop_assert_eq!(
                reused.as_slice(), allocated.as_slice(),
                "{} differs between apply_into and apply_matrix", op.name()
            );
        }
    }

    /// apply_into into a reused buffer == allocating apply_operand, bitwise, for every
    /// operator on a CSR operand.
    #[test]
    fn apply_into_matches_apply_operand_on_csr_operands(
        d in 16usize..96,
        n in 2usize..6,
        seed in 0u64..1000,
    ) {
        let dev = device();
        let dense = Matrix::random_gaussian(d, n, Layout::RowMajor, seed, 1);
        let csr = sparsified(&dense);
        for op in operators(&dev, d, n, seed) {
            let allocated = op.apply_operand(&dev, Operand::Csr(&csr)).unwrap();
            let mut reused =
                Matrix::from_fn(op.output_dim(), n, op.output_layout(), |_, _| f64::NAN);
            op.apply_into(&dev, Operand::Csr(&csr), &mut reused.view_mut()).unwrap();
            prop_assert_eq!(
                reused.as_slice(), allocated.as_slice(),
                "{} differs between apply_into and apply_operand on CSR", op.name()
            );
        }
    }

    /// The CSR path computes the same values as the dense path (up to roundoff from
    /// the different accumulation orders).
    #[test]
    fn csr_and_dense_operands_agree_numerically(
        d in 16usize..96,
        n in 2usize..5,
        seed in 0u64..1000,
    ) {
        let dev = device();
        let base = Matrix::random_gaussian(d, n, Layout::RowMajor, seed, 2);
        let csr = sparsified(&base);
        let dense = densified(&csr);
        for op in operators(&dev, d, n, seed) {
            let y_dense = op.apply_matrix(&dev, &dense).unwrap();
            let y_csr = op.apply_operand(&dev, Operand::Csr(&csr)).unwrap();
            prop_assert!(
                y_dense.max_abs_diff(&y_csr).unwrap() < 1e-9,
                "{} CSR/dense drift", op.name()
            );
        }
    }
}

/// The acceptance-criterion certification: zero intermediate device allocations on
/// the CountSketch and Gaussian apply_into hot paths.
#[test]
fn apply_into_is_allocation_free_on_the_hot_paths() {
    let dev = device();
    let d = 1 << 10;
    let n = 8;
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 3, 0);
    let csr = sparsified(&a);

    let count = SketchSpec::countsketch(d, EmbeddingDim::Square(2), 1)
        .build_for(&dev, n)
        .unwrap();
    let gauss = SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), 2)
        .build_for(&dev, n)
        .unwrap();

    for op in [&count, &gauss] {
        let mut out = Matrix::zeros_with_layout(op.output_dim(), n, op.output_layout());
        for operand in [Operand::Dense(&a), Operand::Csr(&csr)] {
            let before = dev.memory().allocations();
            op.apply_into(&dev, operand, &mut out.view_mut()).unwrap();
            assert_eq!(
                dev.memory().allocations(),
                before,
                "{} apply_into allocated device memory",
                op.name()
            );
        }
        // The allocating wrapper, by contrast, reserves the output.
        let before = dev.memory().allocations();
        let _ = op.apply_matrix(&dev, &a).unwrap();
        assert!(dev.memory().allocations() > before);
    }
}
