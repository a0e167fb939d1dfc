//! Section 7: distributed sketching — per-device compute and communication
//! volumes of the three sketches on the pipelined executor, one shard per
//! device (a block-row split of `A` across `p` ranks).
//!
//! Run with: `cargo run --release -p sketch-bench --bin dist_comm [-- --smoke]`
//!
//! Exits 1 unless, on every pool, the CountSketch result is bit-equal to the
//! single-device apply and its allreduce moves exactly `2 (p-1) · k·n` words.
//! `--smoke` runs the same gate on a small problem with `p ∈ {2, 4}`.

use sketch_bench::report::{sci, Table};
use sketch_core::{EmbeddingDim, Pipeline, SketchSpec};
use sketch_dist::{pipelined_sketch, CommCost, ExecutorOptions};
use sketch_gpu_sim::{Device, DevicePool};
use sketch_la::{Layout, Matrix};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (log_d, n, processes): (u32, usize, &[usize]) = if smoke {
        (10, 8, &[2, 4])
    } else {
        (14, 32, &[2, 4, 8, 16])
    };
    let d = 1usize << log_d;
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 42, 0);

    let count_plan = Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), 1));
    let plans = [
        (
            "Gaussian",
            Pipeline::single(SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), 2)),
        ),
        ("CountSketch", count_plan.clone()),
        (
            "MultiSketch",
            Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 3),
        ),
    ];
    let device = Device::unlimited();
    let single_count = count_plan
        .build_for(&device, n)
        .expect("valid spec")
        .apply_matrix(&device, &a)
        .expect("fits in memory");
    let k = single_count.nrows() as u64;
    let opts = ExecutorOptions::default().with_shards_per_device(1);

    let mut table = Table::new(
        format!("Section 7 — distributed sketching (d = 2^{log_d}, n = {n}, one shard per device)"),
        &[
            "p",
            "method",
            "comm words (executor)",
            "paper local-pipeline words",
            "max per-device flops (generation + shard kernels)",
        ],
    );
    let mut violations = 0;
    for &p in processes {
        for (label, plan) in &plans {
            let pool = DevicePool::unlimited(p);
            let run = pipelined_sketch(&pool, &a, plan, &opts).expect("dims match");
            let words: u64 = run.comm.iter().map(CommCost::total_words).sum();
            let max_flops = pool
                .devices()
                .iter()
                .map(|dev| dev.tracker().snapshot().flops)
                .max()
                .unwrap_or(0);
            let paper = if plan.is_count_gauss() {
                sci(CommCost::allreduce(p, 2 * n, n).total_words() as f64)
            } else {
                "-".to_string()
            };
            table.push_row(vec![
                p.to_string(),
                label.to_string(),
                sci(words as f64),
                paper,
                sci(max_flops as f64),
            ]);

            if *label == "CountSketch" {
                let expected = 2 * (p as u64 - 1) * k * n as u64;
                if words != expected {
                    eprintln!(
                        "p = {p}: CountSketch allreduce moved {words} words, expected {expected}"
                    );
                    violations += 1;
                }
                let same_bits = (0..single_count.nrows()).all(|i| {
                    (0..n)
                        .all(|j| run.result.get(i, j).to_bits() == single_count.get(i, j).to_bits())
                });
                if !same_bits {
                    eprintln!("p = {p}: CountSketch result differs from the single-device apply");
                    violations += 1;
                }
            }
        }
    }
    table.print();
    println!(
        "Comm words are what the executor moves: a ring allreduce of the k x n partial sum \
         for the CountSketch stage, a ring allgather of column panels for the Gaussian stage, \
         and both for the multisketch, whose CountSketch stage is reduced before its Gaussian \
         stage so the result stays bit-identical to one device.  The paper's local-pipeline \
         words are Section 7's scheme, in which every rank runs the whole multisketch and only \
         the 2n x n result is allreduced; they are printed for reference and not executed."
    );
    if violations > 0 {
        eprintln!("{violations} check(s) failed");
        std::process::exit(1);
    }
    println!("CountSketch gate passed: bit-equal to one device, allreduce = 2(p-1)·k·n words");
}
