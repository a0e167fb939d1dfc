//! The multi-device pipelined executor.
//!
//! [`pipelined_sketch`] runs a declarative [`Pipeline`] of sketch stages across a
//! [`DevicePool`]: each stage's operand is sharded along the stage's
//! [`ShardAxis`] (the bitwise-lossless axis declared by `sketch-core`), the shard
//! kernels are dispatched round-robin onto the pool's devices, and the modelled
//! timeline overlaps each shard's collective with the next shard's compute using
//! the simulated streams/events of `sketch-gpu-sim`.
//!
//! Two properties hold by construction:
//!
//! 1. **Bitwise determinism.**  The numerical result is *identical to the last
//!    bit* to the single-device `apply_matrix`, for every sketch kind and every
//!    shard/device count.  Row-sharded kinds (CountSketch families) fold their
//!    block rows into one shared accumulator in global row order — the exact
//!    floating-point chain of the single-device Algorithm-2 scatter — which is
//!    also why their ring reduction must run in shard order.  Column-sharded
//!    kinds (Gaussian, SRHT) compute independent column panels whose per-element
//!    dot products / per-column transforms never see the other panels.
//! 2. **Comm/compute overlap.**  Each device owns a compute stream and a comm
//!    stream; shard `i`'s collective waits on shard `i`'s kernel (and, for the
//!    ordered ring fold, on shard `i-1`'s collective) while shard `i+1`'s kernel
//!    runs — the classic pipelined-allreduce schedule.  The returned
//!    [`PipelinedRun`] reports serial vs. pipelined makespan, the compute-only
//!    critical path, overlap efficiency and per-device utilization.
//!
//! The executor also absorbs injected device deaths
//! ([`FaultSpec::Dies`](sketch_gpu_sim::FaultSpec::Dies)): a mirror of the
//! stream-simulator clocks runs alongside the numerics, so the exact simulated
//! instant a death fires is known mid-stage; the stage is then rescheduled over
//! the survivors and re-run from its Philox-seeded operators — bit-for-bit
//! identical output, because every stage is schedule-independent by
//! construction.  The aborted attempt's truncated operations stay on the
//! timeline, and the price paid is itemised in [`FaultReport`].

use crate::comm::CommCost;
use crate::error::DistError;
use sketch_core::{CountSketch, Error, Operand, Pipeline, ShardAxis, SketchKind, SketchOperator};
use sketch_gpu_sim::{DevicePool, KernelCost, StreamKind, StreamSet, Timeline};
use sketch_la::{Layout, Matrix};
use std::ops::Range;

/// Tuning knobs for the executor.
///
/// `#[non_exhaustive]`: construct through [`ExecutorOptions::new`] /
/// [`Default::default`] and the `with_*` builders, so future knobs (stream
/// counts, shard-size floors, …) are non-breaking.
#[must_use = "ExecutorOptions configures an executor run; pass it to pipelined_sketch"]
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// How many shards to cut per device (clamped so no shard is empty).  More
    /// shards per device means finer pipelining — more collective/compute overlap —
    /// at the price of more kernel launches.
    pub shards_per_device: usize,
}

impl ExecutorOptions {
    /// Two shards per device: the minimum that lets a device's comm stream overlap
    /// its own next compute.
    pub fn new() -> Self {
        Self {
            shards_per_device: 2,
        }
    }

    /// Set the shards-per-device knob.
    pub fn with_shards_per_device(mut self, shards_per_device: usize) -> Self {
        self.shards_per_device = shards_per_device.max(1);
        self
    }
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// One shard of a stage: which slice of the operand, on which device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Shard index within the stage (also the ordered-fold position).
    pub index: usize,
    /// Pool position of the device that executes this shard.
    pub device: usize,
    /// The row range ([`ShardAxis::Rows`]) or column range ([`ShardAxis::Cols`])
    /// of the stage operand this shard covers.
    pub range: Range<usize>,
}

/// The shard layout of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Axis the stage operand is sharded along.
    pub axis: ShardAxis,
    /// Shards in fold order, devices assigned round-robin.
    pub assignments: Vec<ShardAssignment>,
}

impl Schedule {
    /// Cut `extent` (rows or columns) into `num_shards` balanced contiguous ranges
    /// — the first `extent % num_shards` shards get one extra element — and
    /// assign them to `num_devices` devices round-robin.
    ///
    /// # Panics
    /// Panics if any argument is zero or if `num_shards > extent` (empty shards
    /// would make the pipeline model meaningless).
    pub fn block_cyclic(
        axis: ShardAxis,
        extent: usize,
        num_shards: usize,
        num_devices: usize,
    ) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert!(num_devices > 0, "need at least one device");
        assert!(
            num_shards <= extent,
            "cannot cut {extent} elements into {num_shards} shards"
        );
        let base = extent / num_shards;
        let extra = extent % num_shards;
        let mut assignments = Vec::with_capacity(num_shards);
        let mut start = 0usize;
        for index in 0..num_shards {
            let len = base + usize::from(index < extra);
            assignments.push(ShardAssignment {
                index,
                device: index % num_devices,
                range: start..start + len,
            });
            start += len;
        }
        Self { axis, assignments }
    }

    /// Number of shards in the stage.
    pub fn num_shards(&self) -> usize {
        self.assignments.len()
    }

    /// How many shards land on `device`.
    pub fn shards_on(&self, device: usize) -> usize {
        self.assignments
            .iter()
            .filter(|a| a.device == device)
            .count()
    }
}

/// Modelled work of one shard, fed to the stream simulator.
#[derive(Debug, Clone)]
struct ShardOp {
    device: usize,
    label: String,
    compute_s: f64,
    comm_s: f64,
    /// Whether the shard's collective must follow the previous shard's collective
    /// (the ordered ring fold of [`ShardAxis::Rows`] stages).
    chained: bool,
    /// Device cost of the shard kernel (carried into the trace event).
    cost: KernelCost,
    /// Bytes the shard's collective moves over one interconnect hop.
    comm_bytes: u64,
}

/// One observed device death and the recovery that absorbed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceFailure {
    /// Physical ordinal of the device that died (parent-pool position, the
    /// one subpool views preserve).
    pub device: usize,
    /// Pipeline stage the failure surfaced in.
    pub stage: usize,
    /// The injected death instant (the fault's `after_sim_seconds`).
    pub at_sim_seconds: f64,
    /// Simulated instant the executor detected the death (the truncated end
    /// of the first operation that would have outlived the device).
    pub detected_at_seconds: f64,
    /// Simulated instant the stage's successful survivor attempt finished —
    /// the end of the recovery span on the fault trace track.
    pub recovered_at_seconds: f64,
}

/// What the executor's fault handling observed and paid during one run.
///
/// A clean run reports an empty report with every overhead field exactly
/// `0.0` — the fault path multiplies healthy clocks by `1.0` and adds no
/// timeline episodes, so no-fault runs are bit-identical to the pre-fault
/// executor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Every device death observed, in detection order.
    pub failures: Vec<DeviceFailure>,
    /// Shards executed in retry attempts (work done again because an earlier
    /// attempt of the stage was aborted).
    pub shards_recomputed: usize,
    /// Modelled seconds of aborted-attempt work discarded on failure.
    pub lost_seconds: f64,
    /// How much the recovered makespan exceeds the makespan of the successful
    /// episodes alone — the price of the aborted attempts, in seconds.
    pub recovery_overhead_seconds: f64,
    /// Devices still alive when the run finished.
    pub survivors: usize,
}

impl FaultReport {
    /// Whether the run observed no fault at all.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The result of one pipelined multi-device sketch execution.
#[must_use = "a PipelinedRun carries the sketched matrix and the modelled timeline"]
#[derive(Debug, Clone)]
pub struct PipelinedRun {
    /// The sketched matrix — bit-for-bit identical to single-device
    /// `apply_matrix`, independent of shard and device count, *and* of any
    /// device deaths the run recovered from.
    pub result: Matrix,
    /// The full overlapped schedule (per-operation start/end times),
    /// including the truncated operations of any aborted attempts.
    pub timeline: Timeline,
    /// Makespan with every operation serialized on one stream (no overlap), s.
    /// Includes the lost work of aborted attempts.
    pub serial_seconds: f64,
    /// Makespan of the overlapped schedule (the pipelined makespan), s.
    pub pipelined_seconds: f64,
    /// Makespan with all collectives free (compute critical path), s.
    pub compute_only_seconds: f64,
    /// Total time the collectives occupy on the comm streams, s.
    pub comm_seconds: f64,
    /// Per-stage collective volume model.
    pub comm: Vec<CommCost>,
    /// Per-stage shard layout of the *successful* attempts, with devices
    /// reported as pool positions.
    pub schedules: Vec<Schedule>,
    /// Device deaths observed and the recovery cost paid absorbing them.
    pub fault: FaultReport,
}

impl PipelinedRun {
    /// `serial / pipelined` — how much the overlapped multi-device schedule beats
    /// fully serialized execution of the same shards.
    pub fn speedup_vs_serial(&self) -> f64 {
        if self.pipelined_seconds <= 0.0 {
            return 1.0;
        }
        self.serial_seconds / self.pipelined_seconds
    }

    /// Fraction of collective time hidden behind compute: `1` means the makespan
    /// equals the compute critical path (communication fully hidden), `0` means
    /// every collective second extended the makespan.  Reported as `1` when the
    /// run had no communication at all.
    pub fn overlap_efficiency(&self) -> f64 {
        if self.comm_seconds <= 0.0 {
            return 1.0;
        }
        let exposed = (self.pipelined_seconds - self.compute_only_seconds).max(0.0);
        (1.0 - exposed / self.comm_seconds).clamp(0.0, 1.0)
    }

    /// Total bytes crossing the interconnect, summed over stages.
    pub fn comm_total_bytes(&self) -> u64 {
        self.comm.iter().map(CommCost::total_bytes).sum()
    }

    /// Per-device utilization of the pipelined schedule.
    pub fn utilizations(&self) -> Vec<f64> {
        self.timeline.utilizations()
    }

    /// Fold this run into a [`sketch_obs::MetricsRegistry`]: kernel launches,
    /// bytes moved, flops, collective volume (counters), plus overlap
    /// efficiency and per-device utilization (histograms).
    pub fn record_metrics(&self, metrics: &sketch_obs::MetricsRegistry, pool: &DevicePool) {
        let total = pool.total_cost();
        metrics.add("executor.kernel_launches", total.launches);
        metrics.add("executor.bytes_read", total.bytes_read);
        metrics.add("executor.bytes_written", total.bytes_written);
        metrics.add("executor.flops", total.flops);
        metrics.add("executor.comm_bytes", self.comm_total_bytes());
        metrics.add(
            "executor.timeline_ops",
            self.timeline.entries().len() as u64,
        );
        let ratio_bounds = [0.25, 0.5, 0.75, 0.9, 1.0];
        metrics.observe(
            "executor.overlap_efficiency",
            self.overlap_efficiency(),
            &ratio_bounds,
        );
        for u in self.utilizations() {
            metrics.observe("executor.device_utilization", u, &ratio_bounds);
        }
        metrics.add("fault.device_failures", self.fault.failures.len() as u64);
        metrics.add(
            "fault.shards_recomputed",
            self.fault.shards_recomputed as u64,
        );
        metrics.add(
            "fault.lost_us",
            (self.fault.lost_seconds * 1e6).round() as u64,
        );
        metrics.add(
            "fault.recovery_overhead_us",
            (self.fault.recovery_overhead_seconds * 1e6).round() as u64,
        );
    }
}

/// Execute `plan` on `a` across the pool, sharding each stage along its
/// [`ShardAxis`] and overlapping collectives with compute.
///
/// `a` is any [`Operand`]-viewable input — `&Matrix`, `&CsrMatrix`, a
/// [`CsrRowsView`](sketch_sparse::CsrRowsView) or an explicit [`Operand`] —
/// so the same engine serves dense and sparse workloads.  Row-sharded stages
/// fold each shard's row range of the operand in place through
/// [`CountSketch::fold_rows`]; column-sharded stages materialise CSC-style
/// panels via [`Operand::slice_cols`], charging the copy to the shard's device.
/// An operand with zero rows or zero columns is rejected with a typed
/// [`Error::InvalidParameter`] before any stage runs.
///
/// The numerical result is **bit-for-bit identical** to
/// `plan.build_for(device, a.ncols())?.apply_operand(device, a)` on a single
/// device, for every supported kind (CountSketch, Gaussian, SRHT, hash
/// CountSketch, and any pipeline of them including Count-Gauss), independent of
/// `opts.shards_per_device` and the pool size — the determinism suite pins this
/// down across 1/2/4/7 devices, uneven splits, and dense + CSR operands.
///
/// On a pool of one ([`DevicePool::single`]) each stage runs as a single
/// unsharded kernel with zero communication, so the timeline reduces to bare
/// [`Device`](sketch_gpu_sim::Device) launches — "serial" is just the
/// degenerate pool.
pub fn pipelined_sketch<'a>(
    pool: &DevicePool,
    a: impl Into<Operand<'a>>,
    plan: &Pipeline,
    opts: &ExecutorOptions,
) -> Result<PipelinedRun, DistError> {
    let a: Operand<'a> = a.into();
    if a.nrows() == 0 || a.ncols() == 0 {
        return Err(DistError::invalid_param(format!(
            "pipelined_sketch needs a non-empty operand, got {}",
            a.describe()
        )));
    }
    let resolved = plan.resolve(a.ncols())?;
    let p = pool.num_devices();
    if let Some(first) = resolved.first() {
        if first.input_dim != a.nrows() {
            return Err(Error::dimension_mismatch(
                "pipelined_sketch",
                first.input_dim,
                a.nrows(),
                a.describe(),
            ));
        }
    }

    // Devices already observed dead (a sticky flag from a previous run on the
    // same shared pool) never re-join: death is permanent until the fault
    // plan is re-applied.
    let alive: Vec<usize> = (0..p).filter(|&d| !pool.device(d).is_failed()).collect();
    if alive.is_empty() {
        let d0 = pool.device(0);
        return Err(Error::device_failed(
            d0.ordinal(),
            d0.death_time().unwrap_or(0.0),
        ));
    }

    let mut state = ExecState::new(p, alive);
    let mut schedules = Vec::with_capacity(resolved.len());
    let mut comms = Vec::with_capacity(resolved.len());
    let mut current: Option<Matrix> = None; // None = first stage reads `a`

    for (stage_idx, spec) in resolved.iter().enumerate() {
        let input = match &current {
            Some(m) => Operand::Dense(m),
            None => a,
        };
        let axis = spec.shard_axis();
        let extent = match axis {
            ShardAxis::Rows => input.nrows(),
            ShardAxis::Cols => input.ncols(),
        };
        let n = input.ncols();
        let kind = spec.kind.as_str();
        let k = spec.output_dim.checked_resolve(n).ok_or_else(|| {
            DistError::invalid_param(format!(
                "{kind} stage's embedding rule {:?} overflows at {n} columns",
                spec.output_dim
            ))
        })?;
        let build_device = pool.device(state.alive[0]);

        // The stage operator is built once and its generation replicated to
        // every live device up front — which is exactly why recovery needs no
        // regeneration: survivors already hold their replicas, so a retry
        // re-runs shard kernels only.
        let (out, reported) = match axis {
            ShardAxis::Rows => {
                let sketch = match spec.kind {
                    SketchKind::CountSketch => spec.build_countsketch(build_device)?,
                    SketchKind::HashCountSketch => {
                        spec.build_hash_countsketch(build_device)?.to_explicit()
                    }
                    other => {
                        return Err(DistError::invalid_param(format!(
                            "{} is not a row-sharded sketch kind",
                            other.as_str()
                        )))
                    }
                };
                replicate_generation(pool, &state.alive, sketch.generation_cost());
                state.run_stage(opts, axis, extent, stage_idx, |schedule, alive, clock| {
                    Ok(row_attempt(
                        pool, input, &sketch, kind, k, n, schedule, alive, clock, stage_idx,
                    ))
                })?
            }
            ShardAxis::Cols => {
                let op = spec.build(build_device)?;
                replicate_generation(pool, &state.alive, op.generation_cost());
                state.run_stage(opts, axis, extent, stage_idx, |schedule, alive, clock| {
                    col_attempt(
                        pool,
                        input,
                        op.as_ref(),
                        kind,
                        k,
                        schedule,
                        alive,
                        clock,
                        stage_idx,
                    )
                })?
            }
        };
        schedules.push(reported);
        comms.push(match axis {
            ShardAxis::Rows => CommCost::allreduce(state.alive.len(), k, n),
            ShardAxis::Cols => CommCost::allgather(state.alive.len(), k, n),
        });
        current = Some(out);
    }

    let result = current.ok_or_else(|| DistError::invalid_param("pipeline has no stages"))?;

    // Only the real (with-comm) replay feeds the pool's attached recorder; the
    // compute-only replay is an internal what-if and must not pollute traces.
    let pipelined = simulate(p, &state.episodes, true, pool.recorder());
    let compute_only = simulate(p, &state.episodes, false, None);

    // The recovery price: how much the full makespan (aborted attempts
    // included) exceeds the successful episodes replayed alone.  Exactly 0.0
    // on a clean run — the replays are then identical.
    let recovery_overhead_seconds = if state.failures.is_empty() {
        0.0
    } else {
        let clean_episodes: Vec<Vec<ShardOp>> = state
            .episodes
            .iter()
            .zip(&state.clean)
            .filter(|(_, &clean)| clean)
            .map(|(ops, _)| ops.clone())
            .collect();
        (pipelined.makespan() - simulate(p, &clean_episodes, true, None).makespan()).max(0.0)
    };

    // Fault markers land on a dedicated trace track: a zero-width death point
    // plus the recovery span on the dead device's row.
    if !state.failures.is_empty() {
        if let Some(recorder) = pool.recorder() {
            for f in &state.failures {
                recorder.record(sketch_obs::TraceEvent {
                    name: format!("device {} died (stage s{})", f.device, f.stage),
                    device: f.device,
                    track: sketch_obs::Track::Fault,
                    sim: Some((f.detected_at_seconds, f.detected_at_seconds)),
                    wall_ns: 0,
                    cost: sketch_obs::CostBreakdown::default(),
                });
                recorder.record(sketch_obs::TraceEvent {
                    name: format!("recovery: stage s{} rescheduled on survivors", f.stage),
                    device: f.device,
                    track: sketch_obs::Track::Fault,
                    sim: Some((f.detected_at_seconds, f.recovered_at_seconds)),
                    wall_ns: 0,
                    cost: sketch_obs::CostBreakdown::default(),
                });
            }
        }
    }

    let fault = FaultReport {
        survivors: state.alive.len(),
        failures: state.failures,
        shards_recomputed: state.shards_recomputed,
        lost_seconds: state.lost_seconds,
        recovery_overhead_seconds,
    };

    Ok(PipelinedRun {
        result,
        // The sum of every operation's duration is schedule-independent, so the
        // fully-serialized makespan needs no replay of its own.
        serial_seconds: pipelined.serial_seconds(),
        pipelined_seconds: pipelined.makespan(),
        compute_only_seconds: compute_only.makespan(),
        comm_seconds: pipelined.seconds_of(StreamKind::Comm),
        timeline: pipelined,
        comm: comms,
        schedules,
        fault,
    })
}

/// Mirror of the stream-simulator clocks, advanced *during* numeric execution
/// so device deaths are detected at the exact instant the timeline replay
/// would reach.
///
/// Correctness of the mirror: `simulate` computes every start time as a fold
/// of `f64::max` over the stream cursor and the wait events, episode
/// boundaries wait on every last event of the previous episode, and `max`
/// over non-negative values is order-independent bit-for-bit — so tracking
/// per-device cursors plus the episode barrier reproduces the replay's
/// timestamps exactly.
struct SimClock {
    /// Max over every last event of all previous episodes (the stage/retry
    /// boundary every next compute waits on).
    barrier: f64,
    /// Per pool position: end of the device's last compute op.
    compute: Vec<f64>,
    /// Per pool position: end of the device's last collective.
    comm: Vec<f64>,
}

impl SimClock {
    fn new(p: usize) -> Self {
        Self {
            barrier: 0.0,
            compute: vec![0.0; p],
            comm: vec![0.0; p],
        }
    }
}

/// What one execution attempt of a stage produced.
enum Attempt {
    /// Every shard ran to completion on the attempt's schedule.
    Success {
        out: Matrix,
        ops: Vec<ShardOp>,
        episode_end: f64,
    },
    /// A device died mid-attempt.  `ops` holds the completed survivor shards
    /// plus the dying operation truncated at the death instant — the aborted
    /// episode stays on the timeline (in-flight work drains, then the stage
    /// restarts at the barrier).
    Died {
        ops: Vec<ShardOp>,
        failure: sketch_gpu_sim::DeviceFailed,
        /// Index into the attempt's `alive` slice of the dead device.
        local: usize,
        detected_at: f64,
        episode_end: f64,
    },
}

/// Executor-wide fault/recovery state threaded through the stage loop.
struct ExecState {
    /// Pool positions still alive, in pool order.
    alive: Vec<usize>,
    clock: SimClock,
    /// Every episode (successful or aborted attempt) in replay order; the
    /// stream simulator puts a barrier between consecutive episodes.
    episodes: Vec<Vec<ShardOp>>,
    /// Whether the episode at the same index was a successful attempt.
    clean: Vec<bool>,
    failures: Vec<DeviceFailure>,
    shards_recomputed: usize,
    lost_seconds: f64,
}

impl ExecState {
    fn new(p: usize, alive: Vec<usize>) -> Self {
        Self {
            alive,
            clock: SimClock::new(p),
            episodes: Vec::new(),
            clean: Vec::new(),
            failures: Vec::new(),
            shards_recomputed: 0,
            lost_seconds: 0.0,
        }
    }

    /// Run one stage to a successful attempt: schedule over the live devices,
    /// attempt, and on a death drop the dead ordinal, recompute the
    /// block-cyclic schedule over the survivors and retry — the aborted
    /// attempt's truncated operations stay on the timeline as a barrier-
    /// separated episode.  Fails with the death only when no device is left.
    ///
    /// Returns the stage output and the successful schedule with devices
    /// remapped to pool positions.
    fn run_stage<F>(
        &mut self,
        opts: &ExecutorOptions,
        axis: ShardAxis,
        extent: usize,
        stage_idx: usize,
        mut attempt: F,
    ) -> Result<(Matrix, Schedule), DistError>
    where
        F: FnMut(&Schedule, &[usize], &mut SimClock) -> Result<Attempt, DistError>,
    {
        let mut attempt_no = 0usize;
        let stage_first_failure = self.failures.len();
        loop {
            let survivors = self.alive.len();
            // A single live device is a first-class zero-overhead target: no
            // sharding, no collectives — the stage is one bare device launch.
            let num_shards = if survivors == 1 {
                1
            } else {
                (opts.shards_per_device.max(1) * survivors).clamp(1, extent)
            };
            let schedule = Schedule::block_cyclic(axis, extent, num_shards, survivors);
            match attempt(&schedule, &self.alive, &mut self.clock)? {
                Attempt::Success {
                    out,
                    ops,
                    episode_end,
                } => {
                    if attempt_no > 0 {
                        self.shards_recomputed += ops.len();
                    }
                    self.clock.barrier = episode_end;
                    self.episodes.push(ops);
                    self.clean.push(true);
                    // Recovery on the trace runs from each detection to the
                    // stage's eventual success.
                    for f in &mut self.failures[stage_first_failure..] {
                        f.recovered_at_seconds = episode_end;
                    }
                    let mut reported = schedule;
                    for a in &mut reported.assignments {
                        a.device = self.alive[a.device];
                    }
                    return Ok((out, reported));
                }
                Attempt::Died {
                    ops,
                    failure,
                    local,
                    detected_at,
                    episode_end,
                } => {
                    if attempt_no > 0 {
                        self.shards_recomputed += ops.len();
                    }
                    self.lost_seconds += ops.iter().map(|o| o.compute_s + o.comm_s).sum::<f64>();
                    self.clock.barrier = episode_end;
                    self.episodes.push(ops);
                    self.clean.push(false);
                    self.failures.push(DeviceFailure {
                        device: failure.ordinal,
                        stage: stage_idx,
                        at_sim_seconds: failure.after_sim_seconds,
                        detected_at_seconds: detected_at,
                        recovered_at_seconds: detected_at, // backfilled on success
                    });
                    self.alive.remove(local);
                    if self.alive.is_empty() {
                        return Err(Error::from(failure));
                    }
                    attempt_no += 1;
                }
            }
        }
    }
}

/// One attempt of a row-sharded stage (CountSketch families): fold block-row
/// shards into one shared accumulator in global row order — the exact chain of
/// the single-device Algorithm-2 scatter, and simultaneously the ordered ring
/// reduction whose per-shard fold the timeline overlaps with the next shard's
/// compute.  Because shards are contiguous ranges folded in schedule order,
/// *any* survivor schedule replays the identical floating-point chain — this
/// is what makes recompute-on-failure bit-exact.
///
/// Every shard runs the operator's own kernel, [`CountSketch::fold_rows`], on
/// the parent operand with the shard's row range, so nothing is copied; the
/// shard is charged [`CountSketch::apply_cost`] (dense, with the operand's
/// layout penalty) or [`CountSketch::apply_cost_csr`] (CSR, with the range's
/// non-zeros read off `row_ptr`).
#[allow(clippy::too_many_arguments)]
fn row_attempt(
    pool: &DevicePool,
    input: Operand<'_>,
    sketch: &CountSketch,
    kind: &str,
    k: usize,
    n: usize,
    schedule: &Schedule,
    alive: &[usize],
    clock: &mut SimClock,
    stage_idx: usize,
) -> Attempt {
    let survivors = alive.len();

    let mut out = Matrix::zeros_with_layout(k, n, Layout::RowMajor);
    let mut ops: Vec<ShardOp> = Vec::with_capacity(schedule.num_shards());
    let mut prev_fold: Option<f64> = None;
    let mut episode_end = 0.0f64;
    for assignment in &schedule.assignments {
        let local = assignment.device;
        let phys = alive[local];
        let device = pool.device(phys);
        let range = assignment.range.clone();
        sketch.fold_rows(input, range.clone(), &mut out.view_mut());
        let cost = match input {
            Operand::Dense(m) => {
                CountSketch::apply_cost(range.len(), k, n, m.layout() == Layout::ColMajor)
            }
            Operand::Csr(s) => {
                CountSketch::apply_cost_csr(range.len(), k, n, s.slice_rows(range).nnz())
            }
            Operand::CsrRows(v) => {
                CountSketch::apply_cost_csr(range.len(), k, n, v.slice_rows(range).nnz())
            }
        };
        let label = format!("s{stage_idx} {kind} shard {}", assignment.index);
        device.launch(&label, cost);

        let compute_s = device.scaled_time(&cost);
        let cs = clock.compute[phys].max(clock.barrier);
        let ce = cs + compute_s;
        if let Err(failure) = device.check_alive(ce) {
            let truncated = cs.max(failure.after_sim_seconds);
            clock.compute[phys] = truncated;
            episode_end = episode_end.max(truncated);
            ops.push(ShardOp {
                device: phys,
                label,
                compute_s: truncated - cs,
                comm_s: 0.0,
                chained: true,
                cost,
                comm_bytes: 0,
            });
            return Attempt::Died {
                ops,
                failure,
                local,
                detected_at: truncated,
                episode_end,
            };
        }
        clock.compute[phys] = ce;

        let comm_s = if survivors > 1 {
            ring_fold_time(pool, k, n) * device.link_scale()
        } else {
            0.0
        };
        let comm_bytes = if survivors > 1 {
            KernelCost::f64_bytes((k * n) as u64)
        } else {
            0
        };
        if comm_s > 0.0 {
            let mut fold_start = clock.comm[phys].max(ce);
            if let Some(prev) = prev_fold {
                fold_start = fold_start.max(prev);
            }
            let fold_end = fold_start + comm_s;
            if let Err(failure) = device.check_alive(fold_end) {
                let truncated = fold_start.max(failure.after_sim_seconds);
                let truncated_comm = truncated - fold_start;
                if truncated_comm > 0.0 {
                    clock.comm[phys] = truncated;
                }
                let detected_at = truncated;
                episode_end = episode_end.max(detected_at);
                ops.push(ShardOp {
                    device: phys,
                    label,
                    compute_s,
                    comm_s: truncated_comm,
                    chained: true,
                    cost,
                    comm_bytes: if truncated_comm > 0.0 { comm_bytes } else { 0 },
                });
                return Attempt::Died {
                    ops,
                    failure,
                    local,
                    detected_at,
                    episode_end,
                };
            }
            clock.comm[phys] = fold_end;
            prev_fold = Some(fold_end);
            episode_end = episode_end.max(fold_end);
        } else {
            episode_end = episode_end.max(ce);
        }
        ops.push(ShardOp {
            device: phys,
            label,
            compute_s,
            comm_s,
            chained: true,
            cost,
            comm_bytes,
        });
    }
    Attempt::Success {
        out,
        ops,
        episode_end,
    }
}

/// One attempt of a column-sharded stage (Gaussian, SRHT): every device
/// sketches an independent column panel with the *full* operator — per-column
/// kernels never see the other panels, so the panels are bitwise slices of the
/// single-device result (under any survivor schedule) — and the panels are
/// allgathered.
///
/// Dense panels are cut with [`Operand::slice_cols`] (view-equivalent,
/// uncharged).  CSR operands are carved into *all* panels up front in one
/// CSC-style conversion pass, charged once per live device (every device
/// converts its replica, like sketch generation) — so the modelled compute of
/// a sparse column stage does **not** grow with the shard count the way
/// per-shard full-matrix scans would.
#[allow(clippy::too_many_arguments)]
fn col_attempt(
    pool: &DevicePool,
    input: Operand<'_>,
    op: &dyn SketchOperator,
    kind: &str,
    k: usize,
    schedule: &Schedule,
    alive: &[usize],
    clock: &mut SimClock,
    stage_idx: usize,
) -> Result<Attempt, DistError> {
    let survivors = alive.len();
    let n = input.ncols();

    // One conversion pass cuts every CSR panel of the attempt (None for dense).
    let csr_panels = cut_csr_panels(pool, alive, input, schedule);

    let mut out = Matrix::zeros_with_layout(k, n, op.output_layout());
    let mut ops: Vec<ShardOp> = Vec::with_capacity(schedule.num_shards());
    let mut episode_end = 0.0f64;
    for (shard, assignment) in schedule.assignments.iter().enumerate() {
        let local = assignment.device;
        let phys = alive[local];
        let device = pool.device(phys);
        let range = assignment.range.clone();
        let mut panel_out = Matrix::zeros_with_layout(k, range.len(), op.output_layout());
        let (applied, cost) = device.tracker().measure(|| match &csr_panels {
            Some(panels) => op.apply_into(
                device,
                Operand::Csr(&panels[shard]),
                &mut panel_out.view_mut(),
            ),
            None => {
                let panel_in = input.slice_cols(device, range.clone());
                op.apply_into(device, panel_in.as_operand(), &mut panel_out.view_mut())
            }
        });
        applied?;
        for (j, global) in range.clone().enumerate() {
            for i in 0..k {
                out.set(i, global, panel_out.get(i, j));
            }
        }
        let label = format!("s{stage_idx} {kind} panel {}", assignment.index);

        let compute_s = device.scaled_time(&cost);
        let cs = clock.compute[phys].max(clock.barrier);
        let ce = cs + compute_s;
        if let Err(failure) = device.check_alive(ce) {
            let truncated = cs.max(failure.after_sim_seconds);
            clock.compute[phys] = truncated;
            episode_end = episode_end.max(truncated);
            ops.push(ShardOp {
                device: phys,
                label,
                compute_s: truncated - cs,
                comm_s: 0.0,
                chained: false,
                cost,
                comm_bytes: 0,
            });
            return Ok(Attempt::Died {
                ops,
                failure,
                local,
                detected_at: truncated,
                episode_end,
            });
        }
        clock.compute[phys] = ce;

        let panel_bytes = if survivors > 1 {
            KernelCost::f64_bytes((k * range.len()) as u64)
        } else {
            0
        };
        let comm_s = if survivors > 1 {
            pool.interconnect().transfer_time(panel_bytes) * device.link_scale()
        } else {
            0.0
        };
        if comm_s > 0.0 {
            let gather_start = clock.comm[phys].max(ce);
            let gather_end = gather_start + comm_s;
            if let Err(failure) = device.check_alive(gather_end) {
                let truncated = gather_start.max(failure.after_sim_seconds);
                let truncated_comm = truncated - gather_start;
                if truncated_comm > 0.0 {
                    clock.comm[phys] = truncated;
                }
                let detected_at = truncated;
                episode_end = episode_end.max(detected_at);
                ops.push(ShardOp {
                    device: phys,
                    label,
                    compute_s,
                    comm_s: truncated_comm,
                    chained: false,
                    cost,
                    comm_bytes: if truncated_comm > 0.0 { panel_bytes } else { 0 },
                });
                return Ok(Attempt::Died {
                    ops,
                    failure,
                    local,
                    detected_at,
                    episode_end,
                });
            }
            clock.comm[phys] = gather_end;
            episode_end = episode_end.max(gather_end);
        } else {
            episode_end = episode_end.max(ce);
        }
        ops.push(ShardOp {
            device: phys,
            label,
            compute_s,
            comm_s,
            chained: false,
            cost,
            comm_bytes: panel_bytes,
        });
    }
    Ok(Attempt::Success {
        out,
        ops,
        episode_end,
    })
}

/// Carve every column panel of a CSR-like operand for one stage attempt, in
/// schedule order, and charge the CSC-style conversion **once per live device**
/// (each device converts its replica, mirroring [`replicate_generation`]):
/// stream the parent's nonzeros and row pointers once, write every panel's
/// entries plus its fresh row-pointer array.  Dense operands return `None`
/// (their panels are view-equivalent cuts).
fn cut_csr_panels(
    pool: &DevicePool,
    alive: &[usize],
    input: Operand<'_>,
    schedule: &Schedule,
) -> Option<Vec<sketch_sparse::CsrMatrix>> {
    let panels: Vec<sketch_sparse::CsrMatrix> = match input {
        Operand::Dense(_) => return None,
        Operand::Csr(s) => schedule
            .assignments
            .iter()
            .map(|a| s.slice_cols(a.range.clone()))
            .collect(),
        Operand::CsrRows(v) => schedule
            .assignments
            .iter()
            .map(|a| v.slice_cols(a.range.clone()))
            .collect(),
    };
    let nnz = match input {
        Operand::Csr(s) => s.nnz(),
        Operand::CsrRows(v) => v.nnz(),
        Operand::Dense(_) => unreachable!("dense returned above"),
    } as u64;
    let idx = std::mem::size_of::<usize>() as u64;
    let rows1 = input.nrows() as u64 + 1;
    let cost = KernelCost::new(
        KernelCost::f64_bytes(nnz) + idx * (nnz + rows1),
        KernelCost::f64_bytes(nnz) + idx * (nnz + rows1 * panels.len() as u64),
        nnz,
        1,
    );
    for &d in alive {
        pool.device(d).launch("csc panel cut", cost);
    }
    Some(panels)
}

/// Time one shard's ordered ring fold occupies its comm stream: moving the `k x n`
/// accumulator one hop.  (Callers skip the fold entirely when only one device
/// is live — the fold is then local.)
fn ring_fold_time(pool: &DevicePool, k: usize, n: usize) -> f64 {
    pool.interconnect()
        .transfer_time(KernelCost::f64_bytes((k * n) as u64))
}

/// Charge the (replicated) sketch generation to every live device except the
/// build device (`alive[0]`), which already recorded it while building the
/// operator.
fn replicate_generation(pool: &DevicePool, alive: &[usize], cost: KernelCost) {
    for &d in &alive[1..] {
        pool.device(d).launch("sketch gen (replica)", cost);
    }
}

/// Replay the shard ops on simulated streams: each device's compute stream runs
/// its shards in order; a shard's collective goes to the device's comm stream,
/// waiting on the shard's kernel and (for chained stages) the previous shard's
/// collective.  Stage boundaries are barriers: a stage's kernels wait on every
/// completion event of the previous stage.
///
/// With `with_comm = false` the collectives cost nothing, yielding the compute
/// critical path.
///
/// When a `recorder` is supplied, the replay emits one costed
/// [`sketch_obs::TraceEvent`] per operation on the matching device×stream sim
/// track — this is where a trace's compute/comm tracks come from.
fn simulate(
    devices: usize,
    stage_ops: &[Vec<ShardOp>],
    with_comm: bool,
    recorder: Option<std::sync::Arc<dyn sketch_obs::Recorder>>,
) -> Timeline {
    let mut set = StreamSet::new(devices).with_recorder(recorder);
    let mut stage_done = Vec::new();
    for ops in stage_ops {
        let mut done = Vec::with_capacity(ops.len());
        let mut prev_comm: Option<sketch_gpu_sim::Event> = None;
        for op in ops {
            let compute_ev = set.enqueue_costed(
                op.device,
                StreamKind::Compute,
                op.label.clone(),
                &stage_done,
                op.compute_s,
                op.cost.into(),
            );
            let last_ev = if with_comm && op.comm_s > 0.0 {
                // The kernel gates the collective; a chained (ordered-fold)
                // collective additionally waits for the previous shard's fold.
                let mut waits = vec![compute_ev];
                if op.chained {
                    if let Some(prev) = prev_comm {
                        waits.push(prev);
                    }
                }
                let comm_ev = set.enqueue_costed(
                    op.device,
                    StreamKind::Comm,
                    format!("{} fold", op.label),
                    &waits,
                    op.comm_s,
                    sketch_obs::CostBreakdown {
                        comm_bytes: op.comm_bytes,
                        ..Default::default()
                    },
                );
                if op.chained {
                    prev_comm = Some(comm_ev);
                }
                comm_ev
            } else {
                compute_ev
            };
            done.push(last_ev);
        }
        stage_done = done;
    }
    set.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_core::{EmbeddingDim, SketchSpec};
    use sketch_gpu_sim::{Device, FaultPlan, FaultSpec};

    fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
        if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
            return false;
        }
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                if a.get(i, j).to_bits() != b.get(i, j).to_bits() {
                    return false;
                }
            }
        }
        true
    }

    fn input(d: usize, n: usize) -> Matrix {
        Matrix::random_gaussian(d, n, Layout::RowMajor, 11, 0)
    }

    #[test]
    fn schedule_block_cyclic_is_balanced_and_round_robin() {
        let s = Schedule::block_cyclic(ShardAxis::Rows, 10, 4, 3);
        assert_eq!(s.num_shards(), 4);
        let lens: Vec<usize> = s.assignments.iter().map(|a| a.range.len()).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
        let devs: Vec<usize> = s.assignments.iter().map(|a| a.device).collect();
        assert_eq!(devs, vec![0, 1, 2, 0]);
        assert_eq!(s.shards_on(0), 2);
        assert_eq!(s.assignments.last().unwrap().range.end, 10);
    }

    #[test]
    #[should_panic(expected = "cannot cut")]
    fn oversharding_is_rejected() {
        Schedule::block_cyclic(ShardAxis::Cols, 3, 4, 2);
    }

    #[test]
    fn countsketch_run_is_bit_identical_and_overlapped() {
        let d = 600;
        let n = 8;
        let a = input(d, n);
        let spec = SketchSpec::countsketch(d, EmbeddingDim::Square(2), 7);
        let single_dev = Device::unlimited();
        let single = spec
            .build_for(&single_dev, n)
            .unwrap()
            .apply_matrix(&single_dev, &a)
            .unwrap();

        let pool = DevicePool::unlimited(4);
        let run = pipelined_sketch(
            &pool,
            &a,
            &Pipeline::single(spec),
            &ExecutorOptions::default(),
        )
        .unwrap();
        assert!(bits_equal(&run.result, &single));
        assert!(run.pipelined_seconds < run.serial_seconds);
        assert!(run.compute_only_seconds <= run.pipelined_seconds);
        assert!(run.speedup_vs_serial() > 1.0);
        assert!(run.overlap_efficiency() >= 0.0 && run.overlap_efficiency() <= 1.0);
        assert_eq!(run.schedules.len(), 1);
        assert_eq!(run.schedules[0].axis, ShardAxis::Rows);
        assert!(run.comm_total_bytes() > 0);
        assert_eq!(run.utilizations().len(), 4);
        // Every device did real work.
        for dev in pool.devices() {
            assert!(dev.tracker().snapshot().flops > 0);
        }
    }

    #[test]
    fn gaussian_and_srht_shard_by_columns_bit_identically() {
        let d = 256;
        let n = 6;
        let a = input(d, n);
        for spec in [
            SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), 3),
            SketchSpec::srht(d, EmbeddingDim::Ratio(2), 4),
        ] {
            let single_dev = Device::unlimited();
            let single = spec
                .build_for(&single_dev, n)
                .unwrap()
                .apply_matrix(&single_dev, &a)
                .unwrap();
            let pool = DevicePool::unlimited(3);
            let run = pipelined_sketch(
                &pool,
                &a,
                &Pipeline::single(spec.clone()),
                &ExecutorOptions::default(),
            )
            .unwrap();
            assert!(
                bits_equal(&run.result, &single),
                "{} drifted",
                spec.kind.as_str()
            );
            assert_eq!(run.schedules[0].axis, ShardAxis::Cols);
        }
    }

    #[test]
    fn count_gauss_pipeline_matches_the_fused_multisketch() {
        let d = 512;
        let n = 6;
        let a = input(d, n);
        let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 9);
        let single_dev = Device::unlimited();
        let single = plan
            .build_for(&single_dev, n)
            .unwrap()
            .apply_matrix(&single_dev, &a)
            .unwrap();
        let pool = DevicePool::unlimited(2);
        let run = pipelined_sketch(&pool, &a, &plan, &ExecutorOptions::default()).unwrap();
        assert!(bits_equal(&run.result, &single));
        assert_eq!(run.schedules.len(), 2);
        assert_eq!(run.schedules[0].axis, ShardAxis::Rows);
        assert_eq!(run.schedules[1].axis, ShardAxis::Cols);
        // Stage comm: allreduce of k1 x n, then allgather of k2 x n.
        assert_eq!(run.comm.len(), 2);
        assert!(run.comm[0].total_words() > run.comm[1].total_words());
    }

    #[test]
    fn single_device_pool_has_no_communication() {
        let a = input(200, 5);
        let spec = SketchSpec::countsketch(200, EmbeddingDim::Exact(32), 1);
        let pool = DevicePool::unlimited(1);
        let run = pipelined_sketch(
            &pool,
            &a,
            &Pipeline::single(spec),
            &ExecutorOptions::default(),
        )
        .unwrap();
        assert_eq!(run.comm_seconds, 0.0);
        assert_eq!(run.comm_total_bytes(), 0);
        assert_eq!(run.overlap_efficiency(), 1.0);
        // A pool of one never shards: each stage is exactly one kernel.
        assert_eq!(run.schedules[0].num_shards(), 1);
    }

    #[test]
    fn pool_of_one_makespan_equals_bare_device_launches() {
        use sketch_gpu_sim::DeviceSpec;

        // A spec executed on a DevicePool::single must cost exactly what a bare
        // Device launch costs: same kernel, no sharding, no collectives, and the
        // timeline makespan equals the modelled time of the single apply.
        let d = 640;
        let n = 7;
        let a = input(d, n);
        for spec in [
            SketchSpec::countsketch(d, EmbeddingDim::Square(2), 4),
            SketchSpec::srht(d, EmbeddingDim::Ratio(2), 5),
        ] {
            // Reference: apply on a bare device and model the apply-only cost.
            let bare = Device::h100();
            let op = spec.build_for(&bare, n).unwrap();
            let before = bare.tracker().snapshot();
            let single = op.apply_matrix(&bare, &a).unwrap();
            let apply_cost = bare.tracker().snapshot() - before;

            let pool = DevicePool::single(DeviceSpec::h100());
            let run = pipelined_sketch(
                &pool,
                &a,
                &Pipeline::single(spec.clone()),
                &ExecutorOptions::default(),
            )
            .unwrap();
            assert!(bits_equal(&run.result, &single));
            assert_eq!(run.comm_seconds, 0.0);
            assert_eq!(run.pipelined_seconds, run.serial_seconds);
            assert_eq!(run.pipelined_seconds, run.compute_only_seconds);
            // Exactly one kernel on the timeline, priced like the bare launch.
            assert_eq!(run.timeline.entries().len(), 1);
            assert_eq!(
                run.pipelined_seconds,
                bare.model_time(&apply_cost),
                "{} pool-of-one is not a bare launch",
                spec.kind.as_str()
            );
            // And the device tracker accumulated the same generation + apply cost.
            let pool_cost = pool.total_cost();
            let bare_total = bare.tracker().snapshot();
            assert_eq!(pool_cost, bare_total, "{} cost drifted", spec.kind.as_str());
        }
    }

    #[test]
    fn csr_operand_is_bit_identical_to_single_device_apply() {
        use sketch_sparse::{CooMatrix, CsrMatrix};

        let d = 300;
        let n = 6;
        let dense = input(d, n);
        let mut coo = CooMatrix::new(d, n);
        for i in 0..d {
            // ~2 nonzeros per row, deterministic pattern.
            coo.push(i, i % n, dense.get(i, i % n));
            if i % 3 == 0 {
                coo.push(i, (i + 2) % n, dense.get(i, (i + 2) % n));
            }
        }
        let csr = CsrMatrix::from_coo(&coo);

        for spec in [
            SketchSpec::countsketch(d, EmbeddingDim::Square(2), 5),
            SketchSpec::hash_countsketch(d, EmbeddingDim::Exact(24), 6),
            SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), 7),
            SketchSpec::srht(d, EmbeddingDim::Ratio(2), 8),
        ] {
            let single_dev = Device::unlimited();
            let single = spec
                .build_for(&single_dev, n)
                .unwrap()
                .apply_operand(&single_dev, Operand::Csr(&csr))
                .unwrap();
            for devices in [1usize, 3] {
                let pool = DevicePool::unlimited(devices);
                let run = pipelined_sketch(
                    &pool,
                    &csr,
                    &Pipeline::single(spec.clone()),
                    &ExecutorOptions::default(),
                )
                .unwrap();
                assert!(
                    bits_equal(&run.result, &single),
                    "{} drifted on {devices} devices with a CSR operand",
                    spec.kind.as_str()
                );
            }
        }
    }

    #[test]
    fn sparse_col_sharding_does_not_scan_the_parent_per_shard() {
        use sketch_sparse::{CooMatrix, CsrMatrix};

        // The CSC-style panel conversion is charged once per device and stage;
        // finer sharding must not multiply full-matrix scans into the model.
        let d = 400;
        let n = 12;
        let mut coo = CooMatrix::new(d, n);
        for i in 0..d {
            for j in 0..4 {
                coo.push(i, (i * 3 + j * 5) % n, ((i * n + j) as f64 * 0.01).sin());
            }
        }
        let csr = CsrMatrix::from_coo(&coo);
        let spec = SketchSpec::gaussian(d, EmbeddingDim::Exact(16), 3);

        let read_bytes_with = |spd: usize| {
            let pool = DevicePool::unlimited(2);
            let run = pipelined_sketch(
                &pool,
                &csr,
                &Pipeline::single(spec.clone()),
                &ExecutorOptions::default().with_shards_per_device(spd),
            )
            .unwrap();
            assert!(run.result.nrows() == 16);
            pool.total_cost().bytes_read
        };
        let coarse = read_bytes_with(1);
        let fine = read_bytes_with(6);
        assert!(
            fine < coarse + coarse / 2,
            "fine sharding re-scans the operand: {fine} vs {coarse} bytes read"
        );
    }

    #[test]
    fn operand_row_mismatch_is_a_dimension_error() {
        let a = input(100, 4);
        let plan = Pipeline::single(SketchSpec::countsketch(128, EmbeddingDim::Exact(16), 1));
        let pool = DevicePool::unlimited(2);
        let err = pipelined_sketch(&pool, &a, &plan, &ExecutorOptions::default()).unwrap_err();
        assert!(err.is_dimension_mismatch(), "{err}");
        assert!(err.to_string().contains("dense 100x4"));
    }

    #[test]
    fn empty_operands_are_rejected_before_any_stage_runs() {
        use sketch_sparse::{CooMatrix, CsrMatrix};

        // Zero columns leave a column-sharded stage no panel to cut on 2+
        // devices; zero rows leave nothing to sketch.
        for (rows, cols) in [(64usize, 0usize), (0, 4)] {
            let dense = Matrix::zeros_with_layout(rows, cols, Layout::RowMajor);
            let csr = CsrMatrix::from_coo(&CooMatrix::new(rows, cols));
            for devices in [1usize, 2] {
                for plan in [
                    Pipeline::single(SketchSpec::gaussian(rows, EmbeddingDim::Exact(8), 1)),
                    Pipeline::single(SketchSpec::countsketch(rows, EmbeddingDim::Exact(8), 2)),
                ] {
                    for operand in [Operand::Dense(&dense), Operand::Csr(&csr)] {
                        let pool = DevicePool::unlimited(devices);
                        let err =
                            pipelined_sketch(&pool, operand, &plan, &ExecutorOptions::default())
                                .unwrap_err();
                        assert!(
                            matches!(err, Error::InvalidParameter { .. }),
                            "{} on {devices} devices: {err}",
                            operand.describe()
                        );
                        assert_eq!(pool.total_cost(), KernelCost::zero(), "a stage ran");
                    }
                }
            }
        }
    }

    #[test]
    fn more_devices_shrink_the_pipelined_makespan() {
        // Large enough that streaming dominates the per-shard launch overhead —
        // the regime where sharding pays off.  (A pool of one runs a single
        // unsharded kernel, so it is the cheapest possible serial baseline.)
        let d = 1 << 20;
        let a = input(d, 8);
        let spec = SketchSpec::countsketch(d, EmbeddingDim::Square(2), 5);
        let mut prev = f64::INFINITY;
        for p in [1usize, 2, 4] {
            let pool = DevicePool::unlimited(p);
            let run = pipelined_sketch(
                &pool,
                &a,
                &Pipeline::single(spec.clone()),
                &ExecutorOptions::default(),
            )
            .unwrap();
            assert!(
                run.compute_only_seconds < prev,
                "compute path must shrink with more devices ({p}: {} vs {prev})",
                run.compute_only_seconds
            );
            prev = run.compute_only_seconds;
        }
    }

    #[test]
    fn hash_countsketch_rows_fold_exactly() {
        let d = 300;
        let n = 4;
        let a = input(d, n);
        let spec = SketchSpec::hash_countsketch(d, EmbeddingDim::Exact(24), 2);
        let single_dev = Device::unlimited();
        let single = spec
            .build_for(&single_dev, n)
            .unwrap()
            .apply_matrix(&single_dev, &a)
            .unwrap();
        let pool = DevicePool::unlimited(3);
        let run = pipelined_sketch(
            &pool,
            &a,
            &Pipeline::single(spec),
            &ExecutorOptions::default(),
        )
        .unwrap();
        assert!(bits_equal(&run.result, &single));
    }

    #[test]
    fn attached_recorder_traces_every_stage_and_collective() {
        let a = input(120, 6);
        let spec = SketchSpec::countsketch(120, EmbeddingDim::Exact(16), 5);
        let pool = DevicePool::unlimited(3);
        let collector = sketch_obs::TraceCollector::shared();
        pool.attach_recorder(collector.clone());
        let run = pipelined_sketch(
            &pool,
            &a,
            &Pipeline::single(spec),
            &ExecutorOptions::default(),
        )
        .unwrap();
        let events = collector.snapshot();
        // Every timeline entry (compute shard + comm fold) shows up as a
        // stream-track trace event; Device::launch adds kernel-track spans.
        let stream_events = events
            .iter()
            .filter(|e| {
                matches!(
                    e.track,
                    sketch_obs::Track::Compute | sketch_obs::Track::Comm
                )
            })
            .count();
        assert_eq!(stream_events, run.timeline.entries().len());
        assert!(events
            .iter()
            .any(|e| e.track == sketch_obs::Track::Comm && e.cost.comm_bytes > 0));
        assert!(events
            .iter()
            .any(|e| e.track == sketch_obs::Track::Kernel && e.cost.launches > 0));
        // Sim intervals on the stream tracks mirror the timeline exactly.
        for e in &events {
            let (start, end) = e.sim.expect("executor events carry sim intervals");
            assert!(start <= end);
        }
    }

    #[test]
    fn recording_does_not_change_the_bits_and_metrics_fold_in() {
        let a = input(200, 7);
        let spec = SketchSpec::countsketch(200, EmbeddingDim::Exact(32), 4);
        let quiet_pool = DevicePool::unlimited(2);
        let reference = pipelined_sketch(
            &quiet_pool,
            &a,
            &Pipeline::single(spec.clone()),
            &ExecutorOptions::default(),
        )
        .unwrap();

        let pool = DevicePool::unlimited(2);
        pool.attach_recorder(sketch_obs::TraceCollector::shared());
        let run = pipelined_sketch(
            &pool,
            &a,
            &Pipeline::single(spec),
            &ExecutorOptions::default(),
        )
        .unwrap();
        assert!(bits_equal(&run.result, &reference.result));

        let metrics = sketch_obs::MetricsRegistry::new();
        run.record_metrics(&metrics, &pool);
        assert!(metrics.counter("executor.kernel_launches") > 0);
        assert!(metrics.counter("executor.comm_bytes") > 0);
        let util = metrics.histogram("executor.device_utilization").unwrap();
        assert_eq!(util.count, 2);
    }

    #[test]
    fn shards_per_device_never_changes_the_bits() {
        let a = input(97, 5); // prime row count forces uneven splits
        let spec = SketchSpec::countsketch(97, EmbeddingDim::Exact(16), 3);
        let pool = DevicePool::unlimited(3);
        let reference = pipelined_sketch(
            &pool,
            &a,
            &Pipeline::single(spec.clone()),
            &ExecutorOptions::default().with_shards_per_device(1),
        )
        .unwrap();
        for spd in [2usize, 3, 7] {
            let run = pipelined_sketch(
                &pool,
                &a,
                &Pipeline::single(spec.clone()),
                &ExecutorOptions::default().with_shards_per_device(spd),
            )
            .unwrap();
            assert!(bits_equal(&run.result, &reference.result));
        }
    }

    #[test]
    fn clean_runs_report_a_clean_fault_state() {
        let a = input(300, 6);
        let spec = SketchSpec::countsketch(300, EmbeddingDim::Exact(32), 2);
        let pool = DevicePool::h100(3);
        let run = pipelined_sketch(
            &pool,
            &a,
            &Pipeline::single(spec),
            &ExecutorOptions::default(),
        )
        .unwrap();
        assert!(run.fault.is_clean());
        assert_eq!(run.fault.recovery_overhead_seconds, 0.0);
        assert_eq!(run.fault.lost_seconds, 0.0);
        assert_eq!(run.fault.shards_recomputed, 0);
        assert_eq!(run.fault.survivors, 3);
    }

    #[test]
    fn device_death_recovers_bit_identically_and_reports_the_failure() {
        let d = 600;
        let n = 8;
        let a = input(d, n);
        let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 9);

        let healthy = DevicePool::h100(4);
        let reference = pipelined_sketch(&healthy, &a, &plan, &ExecutorOptions::default()).unwrap();
        assert!(reference.fault.is_clean());

        let pool = DevicePool::h100(4);
        pool.apply_fault_plan(&FaultPlan::healthy().with_fault(
            2,
            FaultSpec::Dies {
                after_sim_seconds: 0.3 * reference.pipelined_seconds,
            },
        ));
        let run = pipelined_sketch(&pool, &a, &plan, &ExecutorOptions::default()).unwrap();

        assert!(
            bits_equal(&run.result, &reference.result),
            "recovered result drifted from the no-fault run"
        );
        assert_eq!(run.fault.failures.len(), 1);
        let f = run.fault.failures[0];
        assert_eq!(f.device, 2);
        assert!(f.detected_at_seconds >= f.at_sim_seconds);
        assert!(f.recovered_at_seconds >= f.detected_at_seconds);
        assert_eq!(run.fault.survivors, 3);
        assert!(run.fault.shards_recomputed > 0);
        assert!(run.fault.recovery_overhead_seconds >= 0.0);
        // The fault is sticky: a second run on the same pool never re-admits
        // the dead device.
        let rerun = pipelined_sketch(&pool, &a, &plan, &ExecutorOptions::default()).unwrap();
        assert!(bits_equal(&rerun.result, &reference.result));
        assert!(rerun.fault.failures.is_empty(), "death already absorbed");
        assert_eq!(rerun.fault.survivors, 3);

        let metrics = sketch_obs::MetricsRegistry::new();
        run.record_metrics(&metrics, &pool);
        assert_eq!(metrics.counter("fault.device_failures"), 1);
        assert!(metrics.counter("fault.shards_recomputed") > 0);
    }

    #[test]
    fn death_leaves_an_aborted_episode_and_fault_track_on_the_trace() {
        let a = input(400, 6);
        let spec = SketchSpec::countsketch(400, EmbeddingDim::Exact(48), 5);
        let healthy = DevicePool::h100(2);
        let reference = pipelined_sketch(
            &healthy,
            &a,
            &Pipeline::single(spec.clone()),
            &ExecutorOptions::default(),
        )
        .unwrap();

        let pool = DevicePool::h100(2);
        let collector = sketch_obs::TraceCollector::shared();
        pool.attach_recorder(collector.clone());
        pool.apply_fault_plan(&FaultPlan::healthy().with_fault(
            1,
            FaultSpec::Dies {
                after_sim_seconds: 0.5 * reference.pipelined_seconds,
            },
        ));
        let run = pipelined_sketch(
            &pool,
            &a,
            &Pipeline::single(spec),
            &ExecutorOptions::default(),
        )
        .unwrap();
        assert!(bits_equal(&run.result, &reference.result));
        assert_eq!(run.fault.failures.len(), 1);
        // The aborted attempt's truncated work stays on the timeline: the run
        // extends past the detection instant (the retry runs after it), the
        // lost work is visible, and replaying the successful episodes alone is
        // strictly cheaper.  (The faulted makespan may still beat the healthy
        // pool's — a lone survivor runs no collectives at all, which wins when
        // the chained ring folds dominate, as they do at this tiny size.)
        let f = run.fault.failures[0];
        assert!(run.pipelined_seconds > f.detected_at_seconds);
        assert_eq!(f.recovered_at_seconds, run.pipelined_seconds);
        assert!(run.fault.lost_seconds > 0.0);
        assert!(run.fault.recovery_overhead_seconds > 0.0);

        let events = collector.snapshot();
        let fault_events: Vec<_> = events
            .iter()
            .filter(|e| e.track == sketch_obs::Track::Fault)
            .collect();
        assert_eq!(fault_events.len(), 2, "death point + recovery span");
        assert_eq!(fault_events[0].device, 1);
        let (ds, de) = fault_events[0].sim.unwrap();
        assert_eq!(ds, de, "death marker is zero-width");
        let (rs, re) = fault_events[1].sim.unwrap();
        assert_eq!(rs, ds);
        assert!(re >= rs, "recovery span runs forward");
    }

    #[test]
    fn every_device_dead_surfaces_the_typed_error() {
        let a = input(150, 4);
        let spec = SketchSpec::countsketch(150, EmbeddingDim::Exact(16), 3);
        let pool = DevicePool::h100(2);
        let all_dead = FaultPlan::healthy()
            .with_fault(
                0,
                FaultSpec::Dies {
                    after_sim_seconds: 0.0,
                },
            )
            .with_fault(
                1,
                FaultSpec::Dies {
                    after_sim_seconds: 0.0,
                },
            );
        pool.apply_fault_plan(&all_dead);
        let err = pipelined_sketch(
            &pool,
            &a,
            &Pipeline::single(spec.clone()),
            &ExecutorOptions::default(),
        )
        .unwrap_err();
        assert!(err.is_device_failure(), "{err}");
        // The sticky flags now refuse the pool outright.
        let err = pipelined_sketch(
            &pool,
            &a,
            &Pipeline::single(spec),
            &ExecutorOptions::default(),
        )
        .unwrap_err();
        assert!(err.is_device_failure());
    }

    #[test]
    fn straggler_slows_the_clock_but_never_touches_the_bits() {
        let a = input(500, 7);
        let plan = Pipeline::count_gauss(500, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 6);
        let healthy = DevicePool::h100(3);
        let reference = pipelined_sketch(&healthy, &a, &plan, &ExecutorOptions::default()).unwrap();

        let pool = DevicePool::h100(3);
        pool.apply_fault_plan(&FaultPlan::healthy().with_fault(
            1,
            FaultSpec::Straggler {
                slowdown_factor: 4.0,
            },
        ));
        let run = pipelined_sketch(&pool, &a, &plan, &ExecutorOptions::default()).unwrap();
        assert!(bits_equal(&run.result, &reference.result));
        assert!(run.fault.is_clean(), "a straggler is not a failure");
        assert!(
            run.pipelined_seconds > reference.pipelined_seconds,
            "a 4x straggler must stretch the makespan"
        );
    }
}
