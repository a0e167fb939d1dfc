//! Design-choice ablations called out in DESIGN.md:
//! atomic vs gather CountSketch kernel, row- vs column-major operand, the multisketch
//! layout (Section 6.1), radix-2 vs radix-4 FWHT, and SyRK vs GeMM for the Gram matrix.
//!
//! Run with: `cargo run --release -p sketch-bench --bin ablations [-- --smoke]`
//!
//! Exits 1 unless the Count→Gauss pipeline, whose Gaussian GEMM reads the row-major
//! CountSketch output in place, is bit-equal to the naive convert-then-GEMM sequence
//! and models strictly faster than it.  `--smoke` runs the same gates at a smaller d.

use sketch_bench::report::{ms, Table};
use sketch_core::fwht::{fwht_in_place, fwht_radix2_in_place};
use sketch_core::{EmbeddingDim, Pipeline, SketchOperator, SketchSpec};
use sketch_gpu_sim::Device;
use sketch_la::blas3::{gram_gemm, syrk_gram};
use sketch_la::{Layout, Matrix};
use sketch_obs::Stopwatch;

fn time_wall<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Stopwatch::start();
    let out = f();
    (out, start.elapsed_seconds() * 1e3)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (log_d, n, log_fwht) = if smoke { (12, 8, 14) } else { (16, 32, 20) };
    let d = 1 << log_d;
    let device = Device::h100();
    let a_rm = Matrix::random_gaussian(d, n, Layout::RowMajor, 42, 0);
    let a_cm = a_rm.to_layout(&device, Layout::ColMajor);

    let mut table = Table::new(
        format!("Ablations at d = 2^{log_d}, n = {n} (modelled H100 ms | measured wall ms)"),
        &["experiment", "variant", "model ms", "wall ms"],
    );

    // 1. Atomic (Algorithm 2) vs gather vs SpMM CountSketch.
    let count_spec = SketchSpec::countsketch(d, EmbeddingDim::Square(2), 7).resolve(n);
    let cs = count_spec.build_countsketch(&device).expect("valid spec");
    for (label, run) in [
        ("atomic (Alg 2)", 0usize),
        ("gather (no atomics)", 1),
        ("SpMM baseline", 2),
    ] {
        let dev = Device::h100();
        let csl = count_spec.build_countsketch(&dev).expect("valid spec");
        dev.tracker().reset();
        let (_, wall) = time_wall(|| match run {
            0 => csl.apply_matrix(&dev, &a_rm).unwrap(),
            1 => csl.apply_matrix_gather(&dev, &a_rm).unwrap(),
            _ => csl.apply_matrix_spmm(&dev, &a_rm).unwrap(),
        });
        let model = dev.model_time(&dev.tracker().snapshot()) * 1e3;
        table.push_row(vec![
            "CountSketch kernel".into(),
            label.into(),
            ms(model),
            ms(wall),
        ]);
    }

    // 2. Row-major vs column-major operand for Algorithm 2.
    for (label, operand) in [("row-major A", &a_rm), ("column-major A", &a_cm)] {
        let dev = Device::h100();
        let (_, wall) = time_wall(|| cs.apply_matrix(&dev, operand).unwrap());
        let model = dev.model_time(&dev.tracker().snapshot()) * 1e3;
        table.push_row(vec![
            "operand layout".into(),
            label.into(),
            ms(model),
            ms(wall),
        ]);
    }

    // 3. Multisketch layout: the pipeline's Gaussian GEMM reads the row-major k₁ x n
    //    CountSketch output in place; the naive sequence converts it first.
    let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 9);
    let multi = plan.build_for(&device, n).expect("fits on the device");
    let stages = plan.resolve(n).expect("valid plan");
    let count = stages[0].build_countsketch(&device).expect("valid spec");
    let gauss = stages[1]
        .build_gaussian(&device)
        .expect("fits on the device");
    let dev = Device::h100();
    let (z_pipeline, wall) = time_wall(|| multi.apply_matrix(&dev, &a_rm).unwrap());
    let pipeline_model = dev.model_time(&dev.tracker().snapshot()) * 1e3;
    let dev = Device::h100();
    let (z_naive, naive_wall) = time_wall(|| {
        let y = count.apply_matrix(&dev, &a_rm).unwrap();
        let y_cm = y.to_layout(&dev, Layout::ColMajor);
        gauss.apply_matrix(&dev, &y_cm).unwrap()
    });
    let naive_model = dev.model_time(&dev.tracker().snapshot()) * 1e3;
    for (label, model, wall) in [
        ("GEMM reads row-major Y", pipeline_model, wall),
        ("naive conversion", naive_model, naive_wall),
    ] {
        table.push_row(vec![
            "multisketch layout".into(),
            label.into(),
            ms(model),
            ms(wall),
        ]);
    }
    let mut violations = 0;
    let same_bits = (0..z_naive.nrows())
        .all(|i| (0..n).all(|j| z_pipeline.get(i, j).to_bits() == z_naive.get(i, j).to_bits()));
    if !same_bits {
        eprintln!("the Count→Gauss pipeline differs from the naive conversion");
        violations += 1;
    }
    if pipeline_model >= naive_model {
        eprintln!(
            "the Count→Gauss pipeline models {pipeline_model} ms, not below the naive {naive_model} ms"
        );
        violations += 1;
    }

    // 4. Radix-4 vs radix-2 FWHT (wall clock only; same modelled traffic).
    let mut v4 = sketch_rng::fill::gaussian_vec(1, 0, 1 << log_fwht);
    let mut v2 = v4.clone();
    let (_, wall4) = time_wall(|| fwht_in_place(&mut v4));
    let (_, wall2) = time_wall(|| fwht_radix2_in_place(&mut v2));
    table.push_row(vec![
        "FWHT radix".into(),
        "radix-4 (Alg 3)".into(),
        "-".into(),
        ms(wall4),
    ]);
    table.push_row(vec![
        "FWHT radix".into(),
        "radix-2".into(),
        "-".into(),
        ms(wall2),
    ]);

    // 5. SyRK vs GeMM for the Gram matrix.
    for (label, use_syrk) in [("GeMM (paper's choice)", false), ("SyRK", true)] {
        let dev = Device::h100();
        let (_, wall) = time_wall(|| {
            if use_syrk {
                syrk_gram(&dev, &a_cm)
            } else {
                gram_gemm(&dev, &a_cm).unwrap()
            }
        });
        let model = dev.model_time(&dev.tracker().snapshot()) * 1e3;
        table.push_row(vec![
            "Gram matrix".into(),
            label.into(),
            ms(model),
            ms(wall),
        ]);
    }

    table.print();
    if violations > 0 {
        eprintln!("{violations} check(s) failed");
        std::process::exit(1);
    }
    println!(
        "Multisketch layout gate passed: pipeline bit-equal to the naive conversion and faster"
    );
}
