//! The multisketch pipeline in detail: CountSketch stage, Gaussian stage, the Section
//! 6.1 layout point, and the subspace-embedding distortion each stage introduces.
//!
//! Run with: `cargo run --release --example multisketch_pipeline`

use gpu_countsketch::la::cond::orthonormal_columns;
use gpu_countsketch::prelude::*;
use gpu_countsketch::sketch::embedding::subspace_embedding_distortion;

fn main() {
    let d = 1 << 14;
    let n = 16;
    let device = Device::h100();

    println!(
        "Count→Gauss multisketch on a {d} x {n} operand (k1 = 2n^2 = {}, k2 = 2n = {})\n",
        2 * n * n,
        2 * n
    );
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 1, 0);
    // The multisketch is the declarative Count→Gauss pipeline (k₁ = 2n², k₂ = 2n).
    let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 3);
    let multi = plan.build_for(&device, n).expect("fits in device memory");
    let stages = plan.resolve(n).expect("valid plan");
    let count = stages[0].build_countsketch(&device).expect("valid spec");
    let gauss = stages[1]
        .build_gaussian(&device)
        .expect("fits in device memory");

    // Stage 1: CountSketch d -> 2n^2 (one pass over A, row-major reads).
    device.tracker().reset();
    let y = count.apply_matrix(&device, &a).expect("dimensions match");
    println!(
        "stage 1 CountSketch : {:>9} rows -> {:>7} rows, modelled {:.3} ms",
        d,
        y.nrows(),
        device.model_time(&device.tracker().snapshot()) * 1e3
    );

    // Stage 2: Gaussian 2n^2 -> 2n, its GEMM reading the row-major Y in place.
    device.tracker().reset();
    let z = multi.apply_matrix(&device, &a).expect("dimensions match");
    println!(
        "full multisketch    : {:>9} rows -> {:>7} rows, modelled {:.3} ms (GEMM reads row-major Y)",
        d,
        z.nrows(),
        device.model_time(&device.tracker().snapshot()) * 1e3
    );

    // The naive alternative: convert the large k1 x n intermediate first.
    device.tracker().reset();
    let y_cm = count
        .apply_matrix(&device, &a)
        .expect("dimensions match")
        .to_layout(&device, Layout::ColMajor);
    let _ = gauss
        .apply_matrix(&device, &y_cm)
        .expect("dimensions match");
    println!(
        "full multisketch    : same result via naive layout conversion, modelled {:.3} ms",
        device.model_time(&device.tracker().snapshot()) * 1e3
    );

    // How good an embedding is it?  Measure on an orthonormal basis of a random subspace.
    let basis = orthonormal_columns(&device, d, n, 9).expect("QR succeeds");
    let eps_count = subspace_embedding_distortion(&device, &count, &basis).unwrap();
    let eps_multi = subspace_embedding_distortion(&device, multi.as_ref(), &basis).unwrap();
    println!("\nempirical subspace distortion:");
    println!("  CountSketch stage only : {eps_count:.3}");
    println!("  full multisketch       : {eps_multi:.3}");
    println!("\nThe Gaussian stage compounds the distortion slightly — the (1+e1)(1+e2)");
    println!("factor of Table 1 — in exchange for an output of only 2n rows.");
}
