//! Criterion micro-benchmarks for Figure 2: applying each sketch to a dense matrix.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sketch_core::{EmbeddingDim, Operand, Pipeline, SketchOperator, SketchSpec};
use sketch_gpu_sim::Device;
use sketch_la::blas3::gram_gemm;
use sketch_la::{Layout, Matrix};

fn bench_sketch_apply(c: &mut Criterion) {
    let device = Device::unlimited();
    let d = 1 << 14;
    let n = 32;
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 42, 0);

    let count = SketchSpec::countsketch(d, EmbeddingDim::Square(2), 1)
        .resolve(n)
        .build_countsketch(&device)
        .unwrap();
    let gauss = SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), 2)
        .resolve(n)
        .build_gaussian(&device)
        .unwrap();
    let multi = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 3)
        .build_for(&device, n)
        .unwrap();
    let srht = SketchSpec::srht(d, EmbeddingDim::Ratio(2), 4)
        .resolve(n)
        .build_srht(&device)
        .unwrap();

    let mut group = c.benchmark_group("sketch_apply_d16k_n32");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("gram", "gemm"), |b| {
        b.iter(|| gram_gemm(&device, &a).unwrap())
    });
    group.bench_function(BenchmarkId::new("countsketch", "alg2"), |b| {
        b.iter(|| count.apply_matrix(&device, &a).unwrap())
    });
    let mut reused = Matrix::zeros_with_layout(count.output_dim(), n, Layout::RowMajor);
    group.bench_function(BenchmarkId::new("countsketch", "alg2_apply_into"), |b| {
        b.iter(|| {
            count
                .apply_into(&device, Operand::Dense(&a), &mut reused.view_mut())
                .unwrap()
        })
    });
    group.bench_function(BenchmarkId::new("countsketch", "spmm"), |b| {
        b.iter(|| count.apply_matrix_spmm(&device, &a).unwrap())
    });
    group.bench_function(BenchmarkId::new("gaussian", "gemm"), |b| {
        b.iter(|| gauss.apply_matrix(&device, &a).unwrap())
    });
    group.bench_function(BenchmarkId::new("multisketch", "count+gauss"), |b| {
        b.iter(|| multi.apply_matrix(&device, &a).unwrap())
    });
    group.bench_function(BenchmarkId::new("srht", "radix4"), |b| {
        b.iter(|| srht.apply_matrix(&device, &a).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_sketch_apply);
criterion_main!(benches);
