//! # sketch-bench
//!
//! The benchmark harness: one binary for the paper's tables and figures, one for the
//! measured host kernels, the modelled scaling, serving, fault and low-rank figures, plus
//! Criterion micro-benchmarks for the individual kernels.
//!
//! Every figure is regenerated at two scales:
//!
//! * **measured** — the kernels actually run on this machine at a reduced problem size
//!   (no GPU; the rayon shim schedules real host threads); both the modelled H100 time
//!   and the wall-clock time are reported,
//! * **paper scale** — the same cost statements the kernels record, evaluated at the
//!   paper's `d ∈ {2²¹, 2²², 2²³}`, `n ∈ {32 … 256}` and pushed through the H100
//!   roofline model.  A unit test (`analytic::tests`) pins the Figure-5 projection to
//!   what the solvers record, phase by phase, so it cannot silently drift from the
//!   implementation.  The same module holds Table 1's symbolic formulas.
//!
//! Binaries (run with `cargo run -p sketch-bench --release --bin <name>`; every one
//! takes `--smoke`, the CI-sized run of the same gates, and reads its flags through
//! [`cli`]):
//!
//! | binary | regenerates |
//! |---|---|
//! | `paper` | the paper's evaluation, one subcommand each: `table1`, `fig2` … `fig8`, `sec7` (Section 7's communication comparison) and `ablations`; all of them with no subcommand |
//! | `fig_kernels` | measured host kernels: naive vs blocked on one thread, and a 1/2/4-thread sweep with its bitwise and speedup gates (`BENCH_kernels.json`) |
//! | `fig_lowrank` | randomized vs deterministic low-rank SVD (modelled) |
//! | `fig_scaling` | multi-device strong/weak scaling + overlap ablation (modelled, `BENCH_scaling.json`) |
//! | `fig_serve` | multi-tenant co-scheduling vs FIFO (modelled, `BENCH_serve.json`) |
//! | `fig_faults` | device death and bit-exact recovery on the executor (modelled, `BENCH_faults.json`) |

pub mod analytic;
pub mod cli;
pub mod config;
pub mod lsq_experiments;
pub mod report;
pub mod sketch_experiments;
pub mod walltime;

pub use config::{ExperimentScale, SweepPoint};
pub use report::Table;
