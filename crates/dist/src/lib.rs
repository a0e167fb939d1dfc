//! # sketch-dist
//!
//! The workspace's one execution engine: a [`Pipeline`](sketch_core::Pipeline)
//! of sketch stages, or one already built
//! ([`ComposedSketch`](sketch_core::ComposedSketch)), run across a
//! [`DevicePool`](sketch_gpu_sim::DevicePool) (Section 7 of the paper, on
//! simulated devices).
//!
//! * [`pipelined_sketch`] — shard each stage along its bitwise-lossless
//!   [`ShardAxis`](sketch_core::ShardAxis), dispatch the shards round-robin
//!   over the pool, and overlap each shard's ring collective with the next
//!   shard's compute on simulated streams.  Shards are charges, not host
//!   work: each costs, on the modelled clock and on its device, what its
//!   sketch kind states for its slice of the operand
//!   ([`SketchSpec::costs`](sketch_core::SketchSpec::costs)), and once the
//!   schedule walk succeeds the stage is computed once, with the operator's
//!   own kernel on the whole operand
//!   ([`StageOperator::compute`](sketch_core::StageOperator::compute));
//! * [`preflight`] — the operand and plan checks the executor makes before it
//!   builds anything, shared with the serve layer's admission;
//! * [`PipelinedRun`] — the result, the modelled timeline, the per-stage
//!   [`CommCost`] of the collectives, and the [`FaultReport`] of any device
//!   deaths the run recovered from;
//! * [`CommCost`] — the ring allreduce/allgather volume model.
//!
//! The result is **bit-for-bit identical** to single-device execution for
//! every sketch kind, independent of shard and device count — by construction,
//! since each stage is the single apply.  The schedule it is charged on is
//! sound because the row fold keeps one ascending-row add chain per output
//! cell and column panels never see each other (pinned in `sketch-core`'s
//! slicing proptests).  A pool of one runs each stage as one bare device
//! launch, so serial execution is the degenerate pool.
//!
//! ## Example: Section 7's communication volumes
//!
//! With one shard per device, a CountSketch stage reduces its `k x n` output
//! with a ring allreduce of `2 (P-1) · k·n` words:
//!
//! ```
//! use sketch_core::{EmbeddingDim, Pipeline, SketchOperator, SketchSpec};
//! use sketch_dist::{pipelined_sketch, ExecutorOptions};
//! use sketch_gpu_sim::{Device, DevicePool};
//! use sketch_la::{Layout, Matrix};
//!
//! let a = Matrix::random_gaussian(1 << 10, 8, Layout::RowMajor, 1, 0);
//! let plan = Pipeline::single(SketchSpec::countsketch(1 << 10, EmbeddingDim::Exact(128), 2));
//! let pool = DevicePool::unlimited(4);
//! let opts = ExecutorOptions::default().with_shards_per_device(1);
//! let run = pipelined_sketch(&pool, &a, &plan, &opts).unwrap();
//!
//! let device = Device::unlimited();
//! let single = plan.build_for(&device, 8).unwrap().apply_matrix(&device, &a).unwrap();
//! assert_eq!(run.result.max_abs_diff(&single).unwrap(), 0.0);
//! assert_eq!(run.schedules[0].num_shards(), 4);
//! assert_eq!(run.comm[0].total_words(), 2 * 3 * 128 * 8);
//! ```
//!
//! ## Example: pipelined execution on four simulated H100s
//!
//! ```
//! use sketch_core::{EmbeddingDim, Pipeline, SketchOperator, SketchSpec};
//! use sketch_dist::{pipelined_sketch, ExecutorOptions};
//! use sketch_gpu_sim::{Device, DevicePool};
//! use sketch_la::{Layout, Matrix};
//!
//! let a = Matrix::random_gaussian(1 << 12, 8, Layout::RowMajor, 1, 0);
//! let plan = Pipeline::single(SketchSpec::countsketch(1 << 12, EmbeddingDim::Square(2), 7));
//!
//! let pool = DevicePool::h100(4);
//! let run = pipelined_sketch(&pool, &a, &plan, &ExecutorOptions::default()).unwrap();
//!
//! // Bit-for-bit identical to the single-device kernel…
//! let device = Device::h100();
//! let single = plan.build_for(&device, 8).unwrap().apply_matrix(&device, &a).unwrap();
//! assert_eq!(run.result.max_abs_diff(&single).unwrap(), 0.0);
//! // …and faster than running the same shards with no overlap.
//! assert!(run.pipelined_seconds < run.serial_seconds);
//! assert!(run.overlap_efficiency() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod comm;
pub mod error;
pub mod executor;

pub use comm::{CommCost, CommPattern};
pub use error::DistError;
pub use executor::{
    csr_panel_cut_cost, pipelined_sketch, preflight, DeviceFailure, ExecutorOptions, FaultReport,
    PipelinedRun, Plan, Schedule, ShardAssignment,
};
