//! `sketch-serve`: a multi-tenant job engine that co-schedules sketch
//! pipelines on the shared [`DevicePool`](sketch_gpu_sim::DevicePool).
//!
//! The crate turns the library's single-pipeline executor into a *service*:
//!
//! 1. **Specify** — a [`JobSpec`] names a tenant, priority, deadline class,
//!    a [`sketch_core::Pipeline`] payload, and an [`OperandSpec`] describing
//!    the input to materialise.  Specs round-trip through JSON ([`JobFile`]).
//! 2. **Admit** — the [`AdmissionController`] checks the tenant's declarative
//!    budgets (in-flight jobs, and the bytes and flops the job's pipeline
//!    states at its operand's shape) and answers with a typed
//!    [`RejectReason`], never a panic.
//! 3. **Queue** — the bounded [`JobQueue`] is round-robin fair across tenants
//!    and deadline/priority aware within one.
//! 4. **Schedule** — the [`Scheduler`] packs jobs onto disjoint device
//!    subsets ([`DevicePool::subpool`](sketch_gpu_sim::DevicePool::subpool))
//!    and runs them through [`sketch_dist::pipelined_sketch`], merging the
//!    per-job timelines onto one modelled cluster clock.
//! 5. **Settle** — [`ServeEngine::run`] produces a [`ServiceReport`]: one
//!    [`TenantLedger`] per tenant plus the service-level
//!    [`ServiceRun`], exportable to [`sketch_obs::MetricsRegistry`] and a
//!    Perfetto-compatible trace.
//!
//! Tenant isolation is bit-exact: every stage seed is salted with an
//! FNV-1a-64 hash of the tenant id ([`tenant_salt`]), so a job's results are
//! identical whether it runs co-scheduled on a busy pool or alone on a fresh
//! one — pinned by tests across device counts, sketch kinds, and operand
//! layouts.
//!
//! ```
//! use sketch_core::{EmbeddingDim, Pipeline, SketchSpec};
//! use sketch_gpu_sim::DevicePool;
//! use sketch_serve::{AdmissionController, JobSpec, OperandSpec, ServeEngine};
//!
//! let pool = DevicePool::unlimited(2);
//! let mut engine = ServeEngine::new(&pool, AdmissionController::new(), 16);
//! for (tenant, seed) in [("ads", 1), ("search", 2), ("ads", 3), ("search", 4)] {
//!     engine
//!         .submit(JobSpec::new(
//!             tenant,
//!             Pipeline::single(SketchSpec::countsketch(
//!                 1 << 10,
//!                 EmbeddingDim::Exact(128),
//!                 seed,
//!             )),
//!             OperandSpec::Dense { rows: 1 << 10, cols: 8, seed },
//!         ))
//!         .unwrap();
//! }
//! let report = engine.run().unwrap();
//! assert_eq!(report.jobs_run(), 4);
//! // Co-scheduling on two devices beats running the jobs back to back.
//! assert!(report.service.makespan() < report.service.timeline.serial_seconds());
//! ```

pub mod admission;
pub mod engine;
pub mod error;
pub mod file;
pub mod job;
pub mod queue;
pub mod scheduler;

pub use admission::{AdmissionController, TenantLimits};
pub use engine::{ServeEngine, ServiceReport, TenantLedger, QUEUE_WAIT_BOUNDS, REJECTION_BOUNDS};
pub use error::{RejectReason, ServeError};
pub use file::{JobFile, DEFAULT_QUEUE_CAPACITY};
pub use job::{tenant_salt, DeadlineClass, JobSpec, OperandData, OperandSpec};
pub use queue::{JobQueue, QueuedJob};
pub use scheduler::{AbandonedJob, ScheduledJob, Scheduler, ServiceRun};
