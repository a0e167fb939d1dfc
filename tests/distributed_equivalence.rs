//! Integration tests for `sketch-dist`: the pipelined executor with one shard
//! per device (a P-rank block-row split) must reproduce the single-device
//! kernel bit-for-bit from the same Philox seed, and the modelled allreduce
//! volume must scale as `2 (P-1) · k · n` words.

use gpu_countsketch::prelude::*;

const D: usize = 1 << 12;
const N: usize = 16;
const SEED: u64 = 2025;

/// Run `plan` on `p` devices with one shard per device.
fn run_on(p: usize, a: &Matrix, plan: &Pipeline) -> PipelinedRun {
    let pool = DevicePool::unlimited(p);
    let opts = ExecutorOptions::default().with_shards_per_device(1);
    pipelined_sketch(&pool, a, plan, &opts).expect("distributed")
}

#[test]
fn sharded_countsketch_is_bit_for_bit_equal_to_single_device() {
    let device = Device::unlimited();
    let a = Matrix::random_gaussian(D, N, Layout::RowMajor, SEED, 0);
    // Same Philox seed => same sketch on the "single device" and on the ranks.
    let spec = SketchSpec::countsketch(D, EmbeddingDim::Square(2), SEED);
    let sketch = spec
        .resolve(N)
        .build_countsketch(&device)
        .expect("valid spec");
    let single = sketch.apply_matrix(&device, &a).expect("single device");

    for p in [1usize, 2, 3, 4, 7, 16] {
        let run = run_on(p, &a, &Pipeline::single(spec.clone()));
        // Bit-for-bit: every element identical, not merely within rounding.
        assert_eq!(run.result.nrows(), single.nrows());
        assert_eq!(run.result.ncols(), single.ncols());
        for i in 0..single.nrows() {
            for j in 0..single.ncols() {
                assert!(
                    run.result.get(i, j).to_bits() == single.get(i, j).to_bits(),
                    "P = {p}: element ({i}, {j}) differs: {} vs {}",
                    run.result.get(i, j),
                    single.get(i, j)
                );
            }
        }
    }
}

#[test]
fn comm_volume_scales_linearly_in_processes_minus_one() {
    let a = Matrix::random_gaussian(D, N, Layout::RowMajor, SEED, 1);
    let k = 2 * N * N;
    let plan = Pipeline::single(SketchSpec::countsketch(D, EmbeddingDim::Exact(k), SEED));

    let words_at = |p: usize| run_on(p, &a, &plan).comm[0].total_words();

    // P = 1 is a no-op allreduce.
    assert_eq!(words_at(1), 0);
    // Ring allreduce of a k x n matrix: 2 (P-1) k n words in total.
    let expected = |p: u64| 2 * (p - 1) * (k as u64) * (N as u64);
    for p in [2u64, 4, 8, 16] {
        assert_eq!(words_at(p as usize), expected(p), "P = {p}");
    }
}

#[test]
fn all_three_sharded_sketches_agree_with_single_device_versions() {
    let device = Device::unlimited();
    let a = Matrix::random_gaussian(D, N, Layout::RowMajor, SEED, 2);

    let count_plan = Pipeline::single(SketchSpec::countsketch(D, EmbeddingDim::Square(2), SEED));
    let gauss_plan = Pipeline::single(SketchSpec::gaussian(D, EmbeddingDim::Ratio(2), SEED));
    let multi_plan =
        Pipeline::count_gauss(D, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), SEED);
    let count = count_plan.build_for(&device, N).expect("valid spec");
    let gauss = gauss_plan.build_for(&device, N).expect("fits");
    let multi = multi_plan.build_for(&device, N).expect("fits");

    let run_c = run_on(8, &a, &count_plan);
    let run_g = run_on(8, &a, &gauss_plan);
    let run_m = run_on(8, &a, &multi_plan);

    let single_c = count.apply_matrix(&device, &a).expect("single countsketch");
    let single_g = gauss.apply_matrix(&device, &a).expect("single gaussian");
    let single_m = multi.apply_matrix(&device, &a).expect("single multisketch");

    assert_eq!(run_c.result.max_abs_diff(&single_c).expect("shape"), 0.0);
    assert!(run_g.result.max_abs_diff(&single_g).expect("shape") < 1e-10);
    assert!(run_m.result.max_abs_diff(&single_m).expect("shape") < 1e-9);
}
