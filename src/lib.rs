//! # gpu-countsketch
//!
//! Umbrella crate for the reproduction of *"A High Performance GPU CountSketch
//! Implementation and Its Application to Multisketching and Least Squares Problems"*
//! (Higgins, Boman, Yamazaki — SC 2025) on a simulated GPU device model.
//!
//! This crate simply re-exports the workspace's public API under one roof so the
//! examples and integration tests can use a single dependency:
//!
//! * [`sketch`] — the sketch operators (CountSketch, Gaussian, SRHT, multisketch),
//! * [`lsq`] — the least squares solvers (normal equations, sketch-and-solve,
//!   rand_cholQR, QR),
//! * [`lowrank`] — randomized low-rank approximation (rangefinder, RSVD,
//!   single-pass streaming SVD, Nyström),
//! * [`la`] — the dense linear algebra substrate,
//! * [`sparse`] — the sparse (SpMM) substrate,
//! * [`gpu`] — the simulated device, cost counters and roofline model,
//! * [`rng`] — the Philox counter-based random number generator,
//! * [`dist`] — the multi-device pipelined executor (the one execution engine),
//! * [`serve`] — the multi-tenant job engine that co-schedules sketch
//!   pipelines on a shared [`DevicePool`](sketch_gpu_sim::DevicePool)
//!   (admission control, fair queueing, per-tenant ledgers).
//!
//! ## Quickstart
//!
//! Sketches are described declaratively with [`SketchSpec`](sketch_core::SketchSpec)
//! (or a multi-stage [`Pipeline`](sketch_core::Pipeline)) and built on a device; the
//! `2n`/`2n²` embedding-dimension conventions of the paper are carried as rules that
//! resolve against the operand width.
//!
//! ```
//! use gpu_countsketch::prelude::*;
//!
//! let device = Device::h100();
//! let d = 4096;
//! let n = 8;
//! let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 1, 0);
//!
//! // CountSketch with the paper's k = 2n² convention.
//! let spec = SketchSpec::countsketch(d, EmbeddingDim::Square(2), 2);
//! let sketch = spec.build_for(&device, n).unwrap();
//! let y = sketch.apply_matrix(&device, &a).unwrap();
//! assert_eq!(y.nrows(), 2 * n * n);
//!
//! // The Count-Gauss multisketch is the two-stage pipeline, straight to 2n rows —
//! // and the spec serializes, so a JSON file can name this whole experiment.
//! let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 3);
//! let multi = plan.build_for(&device, n).unwrap();
//! let z = multi.apply_matrix(&device, &a).unwrap();
//! assert_eq!(z.nrows(), 2 * n);
//! assert_eq!(Pipeline::from_json(&plan.to_json()).unwrap(), plan);
//! println!("modelled H100 time: {:.3} ms",
//!          device.model_time(&device.tracker().snapshot()) * 1e3);
//! ```
//!
//! ## One engine, any pool size, dense or sparse
//!
//! Every driver in the workspace targets a single execution engine: the pipelined
//! executor of `sketch-dist`, fed by a [`DevicePool`](sketch_gpu_sim::DevicePool).
//! *Serial execution is a pool of one* ([`DevicePool::single`](sketch_gpu_sim::DevicePool::single)
//! runs each stage as one bare device launch with zero communication); larger
//! pools shard each stage along its `ShardAxis`, dispatch round-robin, and
//! overlap collectives with the next shard's compute.  The result stays
//! **bit-for-bit identical** at every pool size, for dense *and* CSR operands
//! (see `ARCHITECTURE.md` for the `ShardAxis` contract behind that).
//!
//! ```
//! use gpu_countsketch::prelude::*;
//!
//! let d = 1 << 12;
//! let a = Matrix::random_gaussian(d, 8, Layout::RowMajor, 1, 0);
//! let plan = Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), 7));
//!
//! // Four modelled H100s on NVLink, two shards per device.
//! let pool = DevicePool::h100(4);
//! let run = pipelined_sketch(&pool, &a, &plan, &ExecutorOptions::default()).unwrap();
//!
//! // Serial is just the degenerate pool: same engine, same bits.
//! let serial_pool = DevicePool::single(DeviceSpec::h100());
//! let serial = pipelined_sketch(&serial_pool, &a, &plan, &ExecutorOptions::default()).unwrap();
//! assert_eq!(run.result.max_abs_diff(&serial.result).unwrap(), 0.0); // same bits
//! assert!(run.pipelined_seconds < run.serial_seconds);               // overlap won
//! assert_eq!(run.utilizations().len(), 4);
//!
//! // The workload drivers ride the same engine with a `pool` argument.
//! let problem = LsqProblem::easy(pool.device(0), 1 << 12, 4, 3).unwrap();
//! let big = solve(&pool, &problem, Method::CountSketch, 3).unwrap();
//! let one = solve(&serial_pool, &problem, Method::CountSketch, 3).unwrap();
//! assert_eq!(big.x, one.x); // bit-identical across pool sizes
//! ```

pub use sketch_core as sketch;
pub use sketch_dist as dist;
pub use sketch_gpu_sim as gpu;
pub use sketch_la as la;
pub use sketch_lowrank as lowrank;
pub use sketch_lsq as lsq;
pub use sketch_obs as obs;
pub use sketch_rng as rng;
pub use sketch_serve as serve;
pub use sketch_sparse as sparse;

/// The most commonly used types, importable with one `use` line.
pub mod prelude {
    pub use sketch_core::{
        CountSketch, EmbeddingDim, Error, FrequencyCountSketch, GaussianSketch, HashCountSketch,
        JsonValue, Operand, Pipeline, ShardAxis, SketchError, SketchKind, SketchOperator,
        SketchSpec, Srht,
    };
    pub use sketch_dist::{
        pipelined_sketch, CommCost, DeviceFailure, ExecutorOptions, FaultReport, PipelinedRun,
        Schedule,
    };
    pub use sketch_gpu_sim::{
        Device, DevicePool, DeviceSpec, FaultPlan, FaultSpec, InterconnectSpec, KernelCost, Phase,
        Profiler, RunBreakdown, StreamKind, StreamSet, Timeline,
    };
    pub use sketch_la::{Layout, Matrix, Op};
    pub use sketch_lowrank::{
        estimate_range_error, nystrom, range_finder, rsvd, streaming_svd, CountingBlockSource,
        LowRankParams, MatVecLike, NystromResult, RangeSketch, RowWindows, SvdResult,
    };
    pub use sketch_lsq::{
        rand_cholqr_least_squares, sketch_and_solve, solve, LsqProblem, LsqSolution, Method,
    };
    pub use sketch_rng::{PhiloxRng, StreamFactory};
    pub use sketch_serve::{
        AdmissionController, JobQueue, JobSpec, OperandSpec, Scheduler, ServeEngine, TenantLimits,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_end_to_end_pipeline() {
        let pool = DevicePool::single(DeviceSpec::h100());
        let device = pool.device(0);
        let problem = LsqProblem::easy(device, 1024, 4, 1).unwrap();
        let sol = solve(&pool, &problem, Method::MultiSketch, 2).unwrap();
        assert_eq!(sol.x.len(), 4);
        assert!(sol.relative_residual(device, &problem).unwrap().is_finite());
    }
}
