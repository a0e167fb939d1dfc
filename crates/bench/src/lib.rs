//! # sketch-bench
//!
//! The benchmark harness: one binary per table/figure of the paper's evaluation plus
//! Criterion micro-benchmarks for the individual kernels.
//!
//! Every figure is regenerated at two scales:
//!
//! * **measured** — the kernels actually run on this machine at a reduced problem size
//!   (no GPU; the rayon shim schedules real host threads); both the modelled H100 time
//!   and the wall-clock time are reported,
//! * **paper scale** — the same cost formulas evaluated analytically at the paper's
//!   `d ∈ {2²¹, 2²², 2²³}`, `n ∈ {32 … 256}` and pushed through the H100 roofline model.
//!   A unit test (`analytic::tests`) checks the analytic formulas against the costs the
//!   real kernels record, so the projection cannot silently drift from the
//!   implementation.  The same module holds Table 1's symbolic formulas.
//!
//! Binaries (run with `cargo run -p sketch-bench --release --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 (complexity summary + measured counter check) |
//! | `fig2_sketch_times` | Figure 2 (sketch gen/apply time vs Gram matrix) |
//! | `fig3_mem_throughput` | Figure 3 (percent of peak memory throughput) |
//! | `fig4_flops` | Figure 4 (percent of peak FLOP/s) |
//! | `fig5_lsq_breakdown` | Figure 5 (least squares runtime breakdown) |
//! | `fig6_residual_easy` | Figure 6 (relative residuals, easy problem) |
//! | `fig7_residual_hard` | Figure 7 (relative residuals, hard problem) |
//! | `fig8_stability` | Figure 8 (residual vs condition number) |
//! | `dist_comm` | Section 7 communication-volume comparison |
//! | `ablations` | design-choice ablations (atomic vs gather, layouts, radix, SyRK); `--smoke` gates the multisketch layout |
//! | `fig_scaling` | multi-device strong/weak scaling + overlap ablation (modelled) |
//! | `fig_walltime` | measured wall-clock across thread counts + bitwise gate |
//! | `all_experiments` | everything above in sequence |

pub mod analytic;
pub mod config;
pub mod lsq_experiments;
pub mod report;
pub mod sketch_experiments;
pub mod walltime;

pub use config::{ExperimentScale, SweepPoint};
pub use report::Table;
