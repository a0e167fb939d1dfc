//! Low-rank workload figure: randomized SVD (per test-matrix family, with and
//! without power iteration) versus the deterministic truncated-QR SVD on synthetic
//! low-rank-plus-noise matrices.
//!
//! Reports the Frobenius-relative reconstruction error and the modelled H100 time of
//! each method; the randomized paths read `A` O(1) times instead of once per
//! Householder panel, which is where their modelled-time advantage comes from.
//!
//! Run with: `cargo run --release -p sketch-bench --bin fig_lowrank [-- --smoke]`

use sketch_bench::cli;
use sketch_bench::report::{sci, Table};
use sketch_gpu_sim::Device;
use sketch_la::cond::{geometric_singular_values, matrix_with_singular_values};
use sketch_la::norms::frobenius_rel_diff;
use sketch_la::Matrix;
use sketch_lowrank::{deterministic_svd, rsvd, LowRankParams, RangeSketch};

fn frob_rel_err(device: &Device, a: &Matrix, approx: &Matrix) -> f64 {
    frobenius_rel_diff(device, a, approx).expect("matching shapes")
}

fn main() {
    let smoke = cli::FIG_LOWRANK.from_env().smoke;
    // (m, n, k) problem sizes; smoke mode keeps CI fast.
    let sizes: &[(usize, usize, usize)] = if smoke {
        &[(512, 48, 6)]
    } else {
        &[(4096, 128, 10), (16384, 256, 16)]
    };

    let mut table = Table::new(
        "Low-rank: RSVD vs deterministic truncated QR on rank-k + noise matrices",
        &[
            "m x n",
            "k",
            "method",
            "rel. Frobenius err",
            "modelled H100 ms",
        ],
    );

    for &(m, n, k) in sizes {
        // k strong directions, then a noise floor 1e5 below them.
        let setup = Device::unlimited();
        let mut sigma = geometric_singular_values(k, 1e2);
        sigma.resize(n, 1e-7);
        let a = matrix_with_singular_values(&setup, m, n, &sigma, 42).expect("valid spectrum");
        let shape = format!("{m} x {n}");

        let mut push = |method: String, err: f64, ms: f64| {
            table.push_row(vec![
                shape.clone(),
                k.to_string(),
                method,
                sci(err),
                format!("{ms:.3}"),
            ]);
        };

        for sketch in [
            RangeSketch::Gaussian,
            RangeSketch::CountSketch,
            RangeSketch::Srht,
        ] {
            for q in [0usize, 1] {
                let device = Device::h100();
                let params = LowRankParams::new(k)
                    .with_sketch(sketch)
                    .with_power_iters(q)
                    .with_seed(7, 0);
                let svd = rsvd(&device, &a, &params).expect("rsvd succeeds");
                let back = svd.reconstruct(&device).expect("shapes agree");
                let ms = device.model_time(&device.tracker().snapshot()) * 1e3;
                push(
                    format!("RSVD {} (q={q})", sketch.name()),
                    frob_rel_err(&device, &a, &back),
                    ms,
                );
            }
        }

        let device = Device::h100();
        let det = deterministic_svd(&device, &a, k).expect("tall input");
        let back = det.reconstruct(&device).expect("shapes agree");
        let ms = device.model_time(&device.tracker().snapshot()) * 1e3;
        push(
            "truncated QR SVD".to_string(),
            frob_rel_err(&device, &a, &back),
            ms,
        );
    }

    table.print();
}
