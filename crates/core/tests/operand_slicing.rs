//! Property tests for the `Operand` slicing contract: slices taken along a
//! sketch kind's `ShardAxis` recompose **bit-for-bit** to the unsliced
//! `apply_into`, for dense and CSR operands, under uneven (prime-size) splits.
//!
//! This is the substrate the executor's sharding stands on:
//!
//! * column-sharded kinds (Gaussian, SRHT) applied to `slice_cols` panels must
//!   produce bitwise slices of the full result (`slice ∘ apply_into ==
//!   apply_into`), because their per-column kernels never see other columns —
//!   for balanced panels and for panels cut at random points, empty and
//!   one-column panels among them.  The executor computes a column stage once
//!   and only charges its panels, so this is where the panel kernels are
//!   pinned;
//! * row-sharded kinds (CountSketch, hash CountSketch) must reproduce the exact
//!   single-device accumulation chain when their row ranges are folded into one
//!   shared accumulator in shard order — the ordered ring fold — whether the
//!   fold is the operator's own `CountSketch::fold_rows` or a serial reference
//!   over `slice_rows` views.  The row ranges are balanced, and also cut at
//!   random points with empty and one-row ranges among them: the edges of the
//!   binary searches `fold_rows` makes into the stored row map.

use proptest::prelude::*;
use sketch_core::{CountSketch, EmbeddingDim, Operand, SketchKind, SketchOperator, SketchSpec};
use sketch_gpu_sim::Device;
use sketch_la::{Layout, Matrix};
use sketch_sparse::{CooMatrix, CsrMatrix};

fn device() -> Device {
    Device::unlimited()
}

/// Sparse copy of a dense matrix with a deterministic ~60% fill pattern.
fn csr_of(a: &Matrix) -> CsrMatrix {
    let mut coo = CooMatrix::new(a.nrows(), a.ncols());
    for i in 0..a.nrows() {
        for j in 0..a.ncols() {
            if (i * 31 + j * 17) % 5 != 0 {
                coo.push(i, j, a.get(i, j));
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && (0..a.nrows())
            .all(|i| (0..a.ncols()).all(|j| a.get(i, j).to_bits() == b.get(i, j).to_bits()))
}

/// Cut `extent` into `pieces` contiguous ranges, first `extent % pieces` one
/// element longer (the executor's balanced split).
fn balanced_ranges(extent: usize, pieces: usize) -> Vec<std::ops::Range<usize>> {
    let pieces = pieces.clamp(1, extent);
    let base = extent / pieces;
    let extra = extent % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0;
    for i in 0..pieces {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Cut `0..extent` (non-zero) into contiguous ranges at uneven points: every
/// `cuts` entry modulo `extent + 1`, plus `c = cuts[0] % extent` twice and
/// `c + 1`, so an empty range `c..c` and a one-row range `c..c + 1` are always
/// among them.
fn cut_ranges(extent: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let c = cuts[0] % extent;
    let mut points: Vec<usize> = cuts.iter().map(|&x| x % (extent + 1)).collect();
    points.extend([0, c, c, c + 1, extent]);
    points.sort_unstable();
    points.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Column recomposition: apply the *full* operator to each column slice of a
/// partition of the columns (`ranges`) and stitch the panels side by side; must
/// equal the unsliced apply bit-for-bit.
fn check_col_recomposition(
    spec: &SketchSpec,
    operand: Operand<'_>,
    ranges: &[std::ops::Range<usize>],
) -> bool {
    let dev = device();
    let op = spec.build(&dev).expect("spec builds");
    let n = operand.ncols();
    let k = op.output_dim();

    let mut full = Matrix::zeros_with_layout(k, n, op.output_layout());
    op.apply_into(&dev, operand, &mut full.view_mut())
        .expect("full apply");

    let mut stitched = Matrix::zeros_with_layout(k, n, op.output_layout());
    for range in ranges.iter().cloned() {
        let slice = operand.slice_cols(&dev, range.clone());
        let mut panel = Matrix::zeros_with_layout(k, range.len(), op.output_layout());
        op.apply_into(&dev, slice.as_operand(), &mut panel.view_mut())
            .expect("panel apply");
        for (j, global) in range.enumerate() {
            for i in 0..k {
                stitched.set(i, global, panel.get(i, j));
            }
        }
    }
    bits_equal(&full, &stitched)
}

/// Row recomposition: fold a partition of the rows (`ranges`, in order) into one
/// shared accumulator in shard order — through the operator's own fold
/// (`CountSketch::fold_rows`, the executor's shard kernel, into a row-major and
/// a column-major accumulator) and through a hand-written serial reference over
/// `slice_rows` views — and compare every result against the unsliced
/// Algorithm-2 apply, of the explicit operator and of the kind's own operator.
fn check_row_recomposition(
    spec: &SketchSpec,
    operand: Operand<'_>,
    ranges: &[std::ops::Range<usize>],
) -> bool {
    let dev = device();
    let sketch: CountSketch = match spec.kind {
        SketchKind::CountSketch => spec.build_countsketch(&dev).expect("builds"),
        SketchKind::HashCountSketch => spec
            .build_hash_countsketch(&dev)
            .expect("builds")
            .to_explicit(),
        _ => unreachable!("row recomposition only covers the CountSketch families"),
    };
    let n = operand.ncols();
    let k = sketch.output_dim();

    let mut full = Matrix::zeros_with_layout(k, n, Layout::RowMajor);
    sketch
        .apply_into(&dev, operand, &mut full.view_mut())
        .expect("full apply");
    let mut own = Matrix::zeros_with_layout(k, n, Layout::RowMajor);
    spec.build(&dev)
        .expect("spec builds")
        .apply_into(&dev, operand, &mut own.view_mut())
        .expect("own apply");

    let mut kernel = Matrix::zeros_with_layout(k, n, Layout::RowMajor);
    let mut kernel_cm = Matrix::zeros_with_layout(k, n, Layout::ColMajor);
    for range in ranges {
        sketch.fold_rows(operand, range.clone(), &mut kernel.view_mut());
        sketch.fold_rows(operand, range.clone(), &mut kernel_cm.view_mut());
    }

    let rows = sketch.rows();
    let signs = sketch.signs();
    let mut folded = Matrix::zeros_with_layout(k, n, Layout::RowMajor);
    for range in ranges.iter().cloned() {
        let slice = operand.slice_rows(range.clone());
        match slice.as_operand() {
            Operand::Dense(block) => {
                for (local, global) in range.enumerate() {
                    let sign = if signs[global] { 1.0 } else { -1.0 };
                    for c in 0..n {
                        folded.add_to(rows[global], c, sign * block.get(local, c));
                    }
                }
            }
            Operand::CsrRows(view) => {
                for (local, global) in range.enumerate() {
                    let sign = if signs[global] { 1.0 } else { -1.0 };
                    for (c, v) in view.row(local) {
                        folded.add_to(rows[global], c, sign * v);
                    }
                }
            }
            Operand::Csr(s) => {
                for (local, global) in range.enumerate() {
                    let sign = if signs[global] { 1.0 } else { -1.0 };
                    for (c, v) in s.row(local) {
                        folded.add_to(rows[global], c, sign * v);
                    }
                }
            }
        }
    }
    bits_equal(&full, &folded)
        && bits_equal(&full, &kernel)
        && bits_equal(&full, &kernel_cm)
        && bits_equal(&full, &own)
}

/// The four sketch kinds at a given input dimension, paired with their shard
/// axis handler.
fn specs(d: usize, seed: u64) -> Vec<SketchSpec> {
    vec![
        SketchSpec::countsketch(d, EmbeddingDim::Exact(13), seed),
        SketchSpec::hash_countsketch(d, EmbeddingDim::Exact(13), seed + 1),
        SketchSpec::gaussian(d, EmbeddingDim::Exact(11), seed + 2),
        SketchSpec::srht(d, EmbeddingDim::Exact(11), seed + 3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// slice ∘ apply_into == apply_into along each kind's ShardAxis, for dense
    /// (both layouts), CSR and CSR-view operands, with uneven splits (prime
    /// piece counts included) and random cut points.
    #[test]
    fn prop_slices_recompose_bit_for_bit(
        d in 31usize..160,
        n in 5usize..12,
        pieces in 2usize..8,
        seed in 0u64..200,
        cut_a in 0usize..1000,
        cut_b in 0usize..1000,
        cut_c in 0usize..1000,
    ) {
        let dense = Matrix::random_gaussian(d, n, Layout::RowMajor, seed, 0);
        let dense_cm = dense.to_layout(&device(), Layout::ColMajor);
        let sparse = csr_of(&dense);
        // A CSR view: the middle d rows of a taller parent.
        let parent = csr_of(&Matrix::random_gaussian(d + 5, n, Layout::RowMajor, seed, 2));
        let view = parent.slice_rows(2..d + 2);
        for spec in specs(d, seed) {
            for operand in [
                Operand::Dense(&dense),
                Operand::Dense(&dense_cm),
                Operand::Csr(&sparse),
                Operand::CsrRows(view),
            ] {
                let ok = match spec.shard_axis() {
                    sketch_core::ShardAxis::Rows =>
                        check_row_recomposition(&spec, operand, &balanced_ranges(d, pieces))
                            && check_row_recomposition(&spec, operand, &cut_ranges(d, &[cut_a, cut_b, cut_c])),
                    sketch_core::ShardAxis::Cols =>
                        check_col_recomposition(&spec, operand, &balanced_ranges(n, pieces))
                            && check_col_recomposition(&spec, operand, &cut_ranges(n, &[cut_a, cut_b, cut_c])),
                };
                prop_assert!(
                    ok,
                    "{} drifted under {pieces}-way slicing of a {} operand",
                    spec.kind.as_str(),
                    operand.describe()
                );
            }
        }
    }

    /// Row slices of a CSR operand are zero-copy views whose rows match the
    /// parent exactly, and column slices tile the parent's entries.
    #[test]
    fn prop_csr_slices_view_the_parent_exactly(
        d in 17usize..97,
        n in 4usize..10,
        pieces in 2usize..6,
        seed in 0u64..100,
    ) {
        let dense = Matrix::random_gaussian(d, n, Layout::RowMajor, seed, 1);
        let sparse = csr_of(&dense);
        let operand = Operand::Csr(&sparse);
        let dev = device();

        let mut nnz_sum = 0usize;
        for range in balanced_ranges(d, pieces) {
            let slice = operand.slice_rows(range.clone());
            prop_assert!(slice.is_borrowed(), "CSR row slices must not copy");
            if let Operand::CsrRows(view) = slice.as_operand() {
                nnz_sum += view.nnz();
                for (local, global) in range.enumerate() {
                    let got: Vec<(usize, f64)> = view.row(local).collect();
                    let want: Vec<(usize, f64)> = sparse.row(global).collect();
                    prop_assert_eq!(got, want);
                }
            } else {
                prop_assert!(false, "expected a CsrRows view");
            }
        }
        prop_assert_eq!(nnz_sum, sparse.nnz());

        let mut col_nnz = 0usize;
        for range in balanced_ranges(n, pieces) {
            let slice = operand.slice_cols(&dev, range.clone());
            if let Operand::Csr(panel) = slice.as_operand() {
                col_nnz += panel.nnz();
                for i in 0..d {
                    let want: Vec<(usize, f64)> = sparse
                        .row(i)
                        .filter(|(j, _)| range.contains(j))
                        .map(|(j, v)| (j - range.start, v))
                        .collect();
                    let got: Vec<(usize, f64)> = panel.row(i).collect();
                    prop_assert_eq!(got, want);
                }
            } else {
                prop_assert!(false, "expected a materialised CSR panel");
            }
        }
        prop_assert_eq!(col_nnz, sparse.nnz());
    }
}
