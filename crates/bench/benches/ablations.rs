//! Criterion ablation benches: kernel and layout variants of the CountSketch and
//! multisketch (the design choices `paper ablations` tabulates).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sketch_core::{EmbeddingDim, Pipeline, SketchOperator, SketchSpec};
use sketch_gpu_sim::Device;
use sketch_la::{Layout, Matrix};

fn bench_ablations(c: &mut Criterion) {
    let device = Device::unlimited();
    let d = 1 << 14;
    let n = 16;
    let a_rm = Matrix::random_gaussian(d, n, Layout::RowMajor, 42, 0);
    let a_cm = a_rm.to_layout(&device, Layout::ColMajor);
    let count = SketchSpec::countsketch(d, EmbeddingDim::Square(2), 1)
        .resolve(n)
        .build_countsketch(&device)
        .unwrap();
    let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 2);
    let multi = plan.build_for(&device, n).unwrap();
    let stages = plan.resolve(n).unwrap();
    let multi_count = stages[0].build_countsketch(&device).unwrap();
    let multi_gauss = stages[1].build_gaussian(&device).unwrap();

    let mut group = c.benchmark_group("ablations_d16k_n16");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("countsketch", "atomic_rowmajor"), |b| {
        b.iter(|| count.apply_matrix(&device, &a_rm).unwrap())
    });
    group.bench_function(BenchmarkId::new("countsketch", "atomic_colmajor"), |b| {
        b.iter(|| count.apply_matrix(&device, &a_cm).unwrap())
    });
    group.bench_function(BenchmarkId::new("countsketch", "gather"), |b| {
        b.iter(|| count.apply_matrix_gather(&device, &a_rm).unwrap())
    });
    group.bench_function(BenchmarkId::new("multisketch", "row_major_gemm"), |b| {
        b.iter(|| multi.apply_matrix(&device, &a_rm).unwrap())
    });
    group.bench_function(BenchmarkId::new("multisketch", "naive_layout"), |b| {
        b.iter(|| {
            let y = multi_count.apply_matrix(&device, &a_rm).unwrap();
            let y_cm = y.to_layout(&device, Layout::ColMajor);
            multi_gauss.apply_matrix(&device, &y_cm).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
