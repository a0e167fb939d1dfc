//! # sketch-gpu-sim
//!
//! A simulated GPU device for the CountSketch reproduction.
//!
//! The paper evaluates its kernels on an NVIDIA H100 SXM5 80 GB and argues about
//! performance almost entirely in terms of *memory traffic* (Table 1, Figures 3–4): the
//! CountSketch and SRHT are memory-bound, the Gaussian sketch and Gram matrix are
//! compute-bound GEMMs.  This crate provides the pieces needed to reproduce those
//! arguments without CUDA hardware:
//!
//! * [`DeviceSpec`] — published peak numbers for an H100 (HBM3 bandwidth, FP64 peak,
//!   device memory) plus an A100 preset and a "host CPU" preset;
//! * [`CostTracker`] / [`KernelCost`] — every kernel in the workspace reports the exact
//!   bytes it read, bytes it wrote, and flops it executed;
//! * [`roofline`] — converts a [`KernelCost`] into a modelled execution time and into
//!   the percent-of-peak numbers plotted in Figures 3 and 4;
//! * [`Profiler`] — named phases matching the legend of Figure 5 (Gram matrix, Aᵀb,
//!   sketch gen, matrix sketch, vector sketch, POTRF, GEQRF, ORMQR, TRSV, TRSM);
//! * [`MemoryTracker`] — models the 80 GB device capacity so the "Gaussian bar is blank
//!   because the GPU ran out of memory" behaviour of Figures 2 and 5 is reproduced as a
//!   typed error instead of silently succeeding on a big-RAM host;
//! * [`DevicePool`] / [`InterconnectSpec`] — N devices with independent trackers,
//!   joined by a modelled NVLink/PCIe ring for the multi-device executor in
//!   `sketch-dist`;
//! * [`stream`] — simulated CUDA streams and events: in-order queues on a virtual
//!   clock, cross-stream waits, and a [`Timeline`] that reports makespan, per-device
//!   utilization and how much communication was hidden behind compute;
//! * [`fault`] — declarative fault injection: a [`FaultPlan`] names which devices die
//!   mid-run ([`FaultSpec::Dies`]), run slow ([`FaultSpec::Straggler`]) or sit on a
//!   degraded link ([`FaultSpec::LinkDegraded`]), and [`Device::check_alive`] asks it
//!   whether a device survives to a simulated instant, so a death surfaces as the
//!   typed [`DeviceFailed`] error at the first operation that outlives it.
//!
//! ## Example: cost tracking and the roofline clock
//!
//! ```
//! use sketch_gpu_sim::{Device, KernelCost, Phase};
//!
//! let device = Device::h100();
//! // A kernel that streamed 1 GiB and did almost no math:
//! let cost = KernelCost::new(1 << 30, 1 << 20, 1 << 20, 1);
//! device.record(cost);
//! let t = device.model_time(&cost);
//! assert!(t > 0.0);
//! let pct = device.percent_peak_bandwidth(&cost, t);
//! assert!(pct > 50.0); // memory bound kernel runs near the modelled bandwidth ceiling
//! let _ = Phase::MatrixSketch;
//! ```
//!
//! ## Example: a pool of devices and an overlapped two-stream schedule
//!
//! ```
//! use sketch_gpu_sim::{DevicePool, KernelCost, StreamKind, StreamSet};
//!
//! let pool = DevicePool::h100(2);
//! let cost = KernelCost::new(1 << 24, 1 << 20, 1 << 20, 1);
//! let kernel_s = pool.device(0).model_time(&cost);
//! let comm_s = pool.interconnect().transfer_time(1 << 20);
//!
//! // Each device computes its shard; device 0's transfer overlaps device 1's kernel.
//! let mut set = StreamSet::new(pool.num_devices());
//! let k0 = set.enqueue(0, StreamKind::Compute, "shard 0", &[], kernel_s);
//! set.enqueue(0, StreamKind::Comm, "fold 0", &[k0], comm_s);
//! let k1 = set.enqueue(1, StreamKind::Compute, "shard 1", &[], kernel_s);
//! set.enqueue(1, StreamKind::Comm, "fold 1", &[k1], comm_s);
//! let timeline = set.finish();
//! assert!(timeline.makespan() < timeline.serial_seconds()); // overlap won
//! ```

#![warn(missing_docs)]

pub mod counters;
pub mod device;
pub mod fault;
pub mod memory;
pub mod pool;
pub mod profile;
pub mod roofline;
pub mod stream;

pub use counters::{Checked, CostTracker, KernelCost};
pub use device::{Device, DeviceSpec};
pub use fault::{DeviceFailed, FaultParseError, FaultPlan, FaultSpec};
pub use memory::{MemoryError, MemoryTracker, Reservation};
pub use pool::{DevicePool, InterconnectSpec, PoolError};
pub use profile::{Phase, PhaseRecord, PhaseSpan, Profiler, RunBreakdown};
pub use roofline::RooflineModel;
pub use stream::{Event, SimStream, StreamKind, StreamSet, Timeline, TimelineEntry};

// The observability layer this crate's instrumentation emits into (see
// `Device::launch`, `DevicePool::attach_recorder`, `TimelineEntry::trace_event`).
pub use sketch_obs as obs;
