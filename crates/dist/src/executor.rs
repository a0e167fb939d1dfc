//! The multi-device pipelined executor.
//!
//! [`pipelined_sketch`] runs a declarative [`Pipeline`] of sketch stages, or a
//! pipeline already built ([`ComposedSketch`]), across a [`DevicePool`]: each
//! stage's operand is sharded along the stage's
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
//! Shards are charges, not host work.  Because every schedule, fault plan and
//! pool size must give the single apply's bits, each stage's result *is* the
//! single apply: after its schedule walk succeeds, the stage is computed once,
//! with the operator's own kernel on the whole operand
//! ([`StageOperator::compute`](sketch_core::StageOperator::compute)).  The walk
//! itself runs no kernel.  It charges each shard — and each recovery re-run —
//! what its stage's spec states at the shard's shape ([`SketchSpec::costs`], the
//! one cost model the kernels record too), on the modelled clock and on the
//! shard's device, reserving and releasing the device memory the shard's apply
//! would (the SRHT's work matrix), so a device that runs out still fails at its
//! shard.  The pipeline's generation is charged once, on the device that built
//! it, and as a replica on every other live device.
//!
//! The executor also absorbs injected device deaths
//! ([`FaultSpec::Dies`](sketch_gpu_sim::FaultSpec::Dies)).  Its one modelled
//! clock is a [`StreamSet`] driven while the shards are charged: each shard's
//! kernel and collective are enqueued in turn, and an operation that would end
//! after its device's death instant is cut there, so the exact simulated
//! instant a death fires is known mid-stage.  The stage is then rescheduled
//! over the survivors and charged again — the survivors already hold their
//! replicas of the Philox-seeded operators, and the result does not depend on
//! the schedule.  The aborted attempt's cut operations stay on the timeline,
//! and the price paid is itemised in [`FaultReport`].

use crate::comm::CommCost;
use crate::error::DistError;
use sketch_core::{
    ComposedSketch, Error, Operand, OperandShape, Pipeline, ShardAxis, SketchCosts, SketchOperator,
    SketchSpec,
};
use sketch_gpu_sim::{
    Checked, Device, DeviceFailed, DevicePool, Event, KernelCost, StreamKind, StreamSet, Timeline,
};
use sketch_la::Matrix;
use sketch_obs::{CostBreakdown, Stopwatch, TraceEvent, Track};
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

/// Modelled work of one shard: its kernel, then its collective.
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

/// What [`pipelined_sketch`] runs: a `&Pipeline` or a `&ComposedSketch` converts
/// into it, the way an operand converts into an [`Operand`].
///
/// Either way the run is one built pipeline, generated once on the pool's first
/// live device: specs are built there before the first stage, and a built
/// pipeline is taken to have been built there.
#[derive(Debug, Clone, Copy)]
pub enum Plan<'p> {
    /// Specs, resolved against the operand and built with
    /// [`Pipeline::compose_for`] on the first live device before the first stage.
    Specs(&'p Pipeline),
    /// A built pipeline ([`Pipeline::compose_for`]): its operators run as they
    /// are, and nothing is built.
    Built(&'p ComposedSketch),
}

impl<'p> From<&'p Pipeline> for Plan<'p> {
    fn from(plan: &'p Pipeline) -> Self {
        Plan::Specs(plan)
    }
}

impl<'p> From<&'p ComposedSketch> for Plan<'p> {
    fn from(built: &'p ComposedSketch) -> Self {
        Plan::Built(built)
    }
}

/// The checks [`pipelined_sketch`] makes before it builds or runs anything: the
/// `rows x cols` operand (named by `describe` in errors) is non-empty, the first
/// stage's input dimension equals `rows`, and `plan` resolves against `cols` to
/// stages [`SketchSpec::build`](sketch_core::SketchSpec::build) accepts.  Returns
/// the resolved stages.  The serve layer runs the same checks at admission,
/// before it materialises the operand.
pub fn preflight(
    plan: &Pipeline,
    rows: usize,
    cols: usize,
    describe: impl Fn() -> String,
) -> Result<Vec<SketchSpec>, DistError> {
    check_non_empty(rows, cols, &describe)?;
    let resolved = plan.resolve(cols)?;
    if let Some(first) = resolved.first() {
        check_rows(first.input_dim, rows, &describe)?;
    }
    for stage in &resolved {
        stage.exact_dims()?;
    }
    Ok(resolved)
}

fn check_non_empty(rows: usize, cols: usize, describe: impl Fn() -> String) -> Result<(), Error> {
    if rows == 0 || cols == 0 {
        return Err(Error::invalid_param(format!(
            "pipelined_sketch needs a non-empty operand, got {}",
            describe()
        )));
    }
    Ok(())
}

fn check_rows(input_dim: usize, rows: usize, describe: impl Fn() -> String) -> Result<(), Error> {
    if input_dim != rows {
        return Err(Error::dimension_mismatch(
            "pipelined_sketch",
            input_dim,
            rows,
            describe(),
        ));
    }
    Ok(())
}

/// Execute `plan` on `a` across the pool, sharding each stage along its
/// [`ShardAxis`] and overlapping collectives with compute.
///
/// `a` is any [`Operand`]-viewable input — `&Matrix`, `&CsrMatrix`, a
/// [`CsrRowsView`](sketch_sparse::CsrRowsView) or an explicit [`Operand`] —
/// so the same engine serves dense and sparse workloads.  Each stage is
/// computed once, on the whole operand, after its shards have been charged
/// (see the module docs): every shard its own stage's statement
/// ([`SketchSpec::costs`]) at the shard's shape — a row shard as a sketch of its
/// row range, a column panel at the panel's width (and, for a CSR operand, its
/// non-zeros, counted over `col_idx`; a CSR column stage cut into more than one
/// panel also charges each live device one CSC-style panel cut per attempt).
/// Nothing is sliced or copied.  An operand with zero rows or zero columns, or
/// one the plan does not fit, is rejected by [`preflight`] with a typed error
/// before anything is built or run.
///
/// `plan` is a `&Pipeline` or a pipeline already built, a `&ComposedSketch`
/// (see [`Plan`]).  Specs are built once, with [`Pipeline::compose_for`] on the
/// first live device, before the first stage; a built pipeline is taken to have
/// been built there, and the executor records no generation for it.  At each
/// stage's start every other live device is charged a replica of the stage's
/// operator, so recovery needs no regeneration.  Either way the run is the same
/// — result, timeline, per-device costs and fault report — so a driver that
/// built the pipeline on the pool's first device to sketch `b` as well hands it
/// over and nothing is generated twice.
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
/// [`Device`] launches — "serial" is just the degenerate pool — and the device
/// records and peaks at exactly what [`Pipeline::compose_for`] plus one
/// [`apply_into`](SketchOperator::apply_into) record and reserve on a bare
/// device: a non-last stage holds its stored operator
/// ([`StageOperator::held_operator_bytes`](sketch_core::StageOperator::held_operator_bytes))
/// on every live device while it runs, and its `k x n` output stays reserved on
/// every live device until the next stage has read it.
///
/// With an enabled recorder attached to the pool, each stage also emits one
/// [`Track::Wall`] event: the measured host time of its one compute, spanning
/// the stage's modelled interval.  Without one, no clock is read.
pub fn pipelined_sketch<'a, 'p>(
    pool: &DevicePool,
    a: impl Into<Operand<'a>>,
    plan: impl Into<Plan<'p>>,
    opts: &ExecutorOptions,
) -> Result<PipelinedRun, DistError> {
    let a: Operand<'a> = a.into();
    let describe = || a.describe();
    let plan = plan.into();
    match plan {
        Plan::Specs(plan) => {
            preflight(plan, a.nrows(), a.ncols(), describe)?;
        }
        Plan::Built(built) => {
            check_non_empty(a.nrows(), a.ncols(), describe)?;
            check_rows(built.input_dim(), a.nrows(), describe)?;
        }
    }
    let p = pool.num_devices();

    // Devices already observed dead (a sticky flag from a previous run on the
    // same shared pool) never re-join: death is permanent until the fault
    // plan is re-applied.
    let alive: Vec<usize> = (0..p).filter(|&d| !pool.device(d).is_failed()).collect();
    let Some(&builder) = alive.first() else {
        let d0 = pool.device(0);
        return Err(Error::device_failed(
            d0.ordinal(),
            d0.death_time().unwrap_or(0.0),
        ));
    };
    // The pipeline is generated once, on the first live device.
    let composed;
    let built = match plan {
        Plan::Specs(plan) => {
            composed = plan.compose_for(pool.device(builder), a.ncols())?;
            &composed
        }
        Plan::Built(built) => built,
    };

    let recorder = pool.recorder();
    let stages = built.stages();
    let mut state = ExecState::new(p, alive);
    let mut schedules = Vec::with_capacity(stages.len());
    let mut comms = Vec::with_capacity(stages.len());
    let mut current: Option<Matrix> = None; // None = first stage reads `a`
    let mut _held = Vec::new(); // `current`, reserved on every live device

    for (stage_idx, (spec, op)) in stages.iter().enumerate() {
        let input = match &current {
            Some(m) => Operand::Dense(m),
            None => a,
        };
        let n = input.ncols();
        replicate_generation(
            pool,
            &state.alive,
            builder,
            op.as_operator().generation_cost(),
        );
        let k = op.as_operator().output_dim();
        // A non-last stage holds its stored operator on every live device (the
        // one that built it and each replica) while it runs, and its output ends
        // on every live device (the collective leaves it there) and stays
        // reserved until the next stage has read it, as a bare chain holds them.
        let mut operator = Vec::new();
        let mut output = Vec::new();
        if stage_idx + 1 < stages.len() {
            let bytes = Checked::from(k) * Checked::from(n) * 8;
            let bytes = bytes.0.ok_or(Error::SizeOverflow {
                quantity: "stage output bytes",
            })?;
            for &d in &state.alive {
                let device = pool.device(d);
                if op.held_operator_bytes() > 0 {
                    operator.push(device.try_reserve(op.held_operator_bytes())?);
                }
                output.push(device.try_reserve(bytes)?);
            }
        }
        let stage = Stage {
            index: stage_idx,
            spec,
            input,
            k,
        };
        let (reported, span) = state.run_stage(pool, opts, &stage)?;

        // Every shard is charged; the stage's bits are the operator's own
        // kernel on the whole operand.
        let stopwatch = recorder.as_ref().map(|_| Stopwatch::start());
        let out = op.compute(input)?;
        if let (Some(recorder), Some(stopwatch)) = (&recorder, stopwatch) {
            recorder.record(TraceEvent {
                name: format!("s{stage_idx} {} compute", spec.kind.as_str()),
                device: 0,
                track: Track::Wall,
                sim: Some(span),
                wall_ns: stopwatch.elapsed_ns(),
                cost: CostBreakdown::default(),
            });
        }
        schedules.push(reported);
        comms.push(match stage.axis() {
            ShardAxis::Rows => CommCost::allreduce(state.alive.len(), k, n),
            ShardAxis::Cols => CommCost::allgather(state.alive.len(), k, n),
        });
        current = Some(out);
        _held = output;
        drop(operator);
    }

    let result = current.ok_or_else(|| DistError::invalid_param("pipeline has no stages"))?;
    let ExecState {
        alive,
        clock,
        episodes,
        failures,
        shards_recomputed,
        lost_seconds,
    } = state;
    let timeline = clock.set.finish();
    let compute_only_seconds = replay(p, episodes.iter().map(|(ops, _)| ops), false);

    // The recovery price: how much the full makespan (aborted attempts
    // included) exceeds the successful episodes replayed alone.  Exactly 0.0
    // on a clean run.
    let recovery_overhead_seconds = if failures.is_empty() {
        0.0
    } else {
        let clean = episodes.iter().filter(|(_, clean)| *clean);
        (timeline.makespan() - replay(p, clean.map(|(ops, _)| ops), true)).max(0.0)
    };

    // The recorder sees every timeline operation on its device×stream sim
    // track, then the fault markers on a dedicated track: a zero-width death
    // point plus the recovery span on the dead device's row.
    if let Some(recorder) = &recorder {
        for entry in timeline.entries() {
            recorder.record(entry.trace_event());
        }
        for f in &failures {
            recorder.record(TraceEvent {
                name: format!("device {} died (stage s{})", f.device, f.stage),
                device: f.device,
                track: Track::Fault,
                sim: Some((f.detected_at_seconds, f.detected_at_seconds)),
                wall_ns: 0,
                cost: CostBreakdown::default(),
            });
            recorder.record(TraceEvent {
                name: format!("recovery: stage s{} rescheduled on survivors", f.stage),
                device: f.device,
                track: Track::Fault,
                sim: Some((f.detected_at_seconds, f.recovered_at_seconds)),
                wall_ns: 0,
                cost: CostBreakdown::default(),
            });
        }
    }

    Ok(PipelinedRun {
        result,
        // The sum of every operation's duration is schedule-independent, so the
        // fully-serialized makespan needs no replay of its own.
        serial_seconds: timeline.serial_seconds(),
        pipelined_seconds: timeline.makespan(),
        compute_only_seconds,
        comm_seconds: timeline.seconds_of(StreamKind::Comm),
        timeline,
        comm: comms,
        schedules,
        fault: FaultReport {
            survivors: alive.len(),
            failures,
            shards_recomputed,
            lost_seconds,
            recovery_overhead_seconds,
        },
    })
}

/// The executor's modelled clock: one [`StreamSet`] (a compute and a comm
/// stream per device) driven while the shards execute.  Each episode — one
/// attempt of a stage — is a barrier: its kernels wait on every last event of
/// the previous episode.
struct Clock {
    set: StreamSet,
    /// Whether collectives take time (false: the compute critical path).
    with_comm: bool,
    /// Last event of every operation of the previous episode.
    barrier: Vec<Event>,
    /// Last event of every operation of the current episode.
    done: Vec<Event>,
    /// The current episode's latest ordered-fold collective.
    fold: Option<Event>,
    /// The current episode's operations, as run.
    ops: Vec<ShardOp>,
}

impl Clock {
    fn new(devices: usize, with_comm: bool) -> Self {
        Self {
            set: StreamSet::new(devices),
            with_comm,
            barrier: Vec::new(),
            done: Vec::new(),
            fold: None,
            ops: Vec::new(),
        }
    }

    /// Run `op`: its kernel on its device's compute stream after the barrier,
    /// then its collective on the comm stream after the kernel and, for a
    /// chained op, after the previous fold.  Given the live `device`, the
    /// first operation that would end after the device's death is cut at the
    /// death instant (a collective cut to nothing is dropped), and the failure
    /// and that instant are returned.
    fn run(&mut self, mut op: ShardOp, device: Option<&Device>) -> Option<(DeviceFailed, f64)> {
        let (compute_s, mut death) = self.cut(
            op.device,
            StreamKind::Compute,
            &self.barrier,
            op.compute_s,
            device,
        );
        op.compute_s = compute_s;
        let mut last = self.set.enqueue_costed(
            op.device,
            StreamKind::Compute,
            op.label.clone(),
            &self.barrier,
            compute_s,
            op.cost.into(),
        );
        if death.is_some() {
            op.comm_s = 0.0;
        } else if self.with_comm && op.comm_s > 0.0 {
            let mut waits = vec![last];
            if op.chained {
                waits.extend(self.fold);
            }
            (op.comm_s, death) = self.cut(op.device, StreamKind::Comm, &waits, op.comm_s, device);
            if op.comm_s > 0.0 {
                last = self.set.enqueue_costed(
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
                    self.fold = Some(last);
                }
            }
        }
        self.done.push(last);
        self.ops.push(op);
        death
    }

    /// The duration of an operation of `duration` seconds on `pos`'s `kind`
    /// stream after `waits`: whole, or — when the live `device` would not
    /// survive its end — cut at the death instant, with the failure and that
    /// instant.
    fn cut(
        &self,
        pos: usize,
        kind: StreamKind,
        waits: &[Event],
        duration: f64,
        device: Option<&Device>,
    ) -> (f64, Option<(DeviceFailed, f64)>) {
        let Some(device) = device else {
            return (duration, None);
        };
        let start = self.set.stream(pos, kind).start(waits);
        match device.check_alive(start + duration) {
            Ok(()) => (duration, None),
            Err(failure) => {
                let at = start.max(failure.after_sim_seconds);
                (at - start, Some((failure, at)))
            }
        }
    }

    /// Close the current episode: its last events become the next episode's
    /// barrier.  Returns the episode's operations and its end.
    fn end_episode(&mut self) -> (Vec<ShardOp>, f64) {
        let end = self.done.iter().fold(0.0f64, |acc, e| acc.max(e.at));
        self.barrier = std::mem::take(&mut self.done);
        self.fold = None;
        (std::mem::take(&mut self.ops), end)
    }
}

/// The makespan of recorded `episodes` replayed on a fresh [`Clock`], with or
/// without their collectives.
fn replay<'e>(
    devices: usize,
    episodes: impl Iterator<Item = &'e Vec<ShardOp>>,
    with_comm: bool,
) -> f64 {
    let mut clock = Clock::new(devices, with_comm);
    for ops in episodes {
        for op in ops {
            clock.run(op.clone(), None);
        }
        clock.end_episode();
    }
    clock.set.finish().makespan()
}

/// How one execution attempt of a stage ended.  Either way its operations are
/// on the clock: an aborted attempt's completed survivor shards and its dying
/// operation, cut at the death instant, stay on the timeline (in-flight work
/// drains, then the stage restarts at the barrier).
enum Attempt {
    /// Every shard ran to completion on the attempt's schedule.
    Success,
    /// A device died mid-attempt.
    Died {
        failure: DeviceFailed,
        /// Index into the attempt's `alive` slice of the dead device.
        local: usize,
        /// The instant the dying operation was cut.
        detected_at: f64,
    },
}

/// Executor-wide fault/recovery state threaded through the stage loop.
struct ExecState {
    /// Pool positions still alive, in pool order.
    alive: Vec<usize>,
    clock: Clock,
    /// Every episode (successful or aborted attempt) in clock order, with
    /// whether it succeeded.
    episodes: Vec<(Vec<ShardOp>, bool)>,
    failures: Vec<DeviceFailure>,
    shards_recomputed: usize,
    lost_seconds: f64,
}

impl ExecState {
    fn new(p: usize, alive: Vec<usize>) -> Self {
        Self {
            alive,
            clock: Clock::new(p, true),
            episodes: Vec::new(),
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
    /// Returns the successful schedule with devices remapped to pool positions,
    /// and the stage's modelled interval: from the previous stage's end to the
    /// successful attempt's.
    fn run_stage(
        &mut self,
        pool: &DevicePool,
        opts: &ExecutorOptions,
        stage: &Stage<'_>,
    ) -> Result<(Schedule, (f64, f64)), DistError> {
        let extent = stage.extent();
        let mut attempt_no = 0usize;
        let stage_first_failure = self.failures.len();
        let stage_start = self
            .clock
            .barrier
            .iter()
            .fold(0.0f64, |acc, e| acc.max(e.at));
        loop {
            let survivors = self.alive.len();
            // A single live device is a first-class zero-overhead target: no
            // sharding, no collectives — the stage is one bare device launch.
            let num_shards = if survivors == 1 {
                1
            } else {
                (opts.shards_per_device.max(1) * survivors).clamp(1, extent)
            };
            let schedule = Schedule::block_cyclic(stage.axis(), extent, num_shards, survivors);
            let attempt = stage.attempt(pool, &schedule, &self.alive, &mut self.clock)?;
            let (ops, episode_end) = self.clock.end_episode();
            if attempt_no > 0 {
                self.shards_recomputed += ops.len();
            }
            match attempt {
                Attempt::Success => {
                    self.episodes.push((ops, true));
                    // Recovery on the trace runs from each detection to the
                    // stage's eventual success.
                    for f in &mut self.failures[stage_first_failure..] {
                        f.recovered_at_seconds = episode_end;
                    }
                    let mut reported = schedule;
                    for a in &mut reported.assignments {
                        a.device = self.alive[a.device];
                    }
                    return Ok((reported, (stage_start, episode_end)));
                }
                Attempt::Died {
                    failure,
                    local,
                    detected_at,
                } => {
                    self.lost_seconds += ops.iter().map(|o| o.compute_s + o.comm_s).sum::<f64>();
                    self.episodes.push((ops, false));
                    self.failures.push(DeviceFailure {
                        device: failure.ordinal,
                        stage: stage.index,
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

/// One stage as its shards are charged.
struct Stage<'a> {
    index: usize,
    spec: &'a SketchSpec,
    input: Operand<'a>,
    /// The stage's output dimension.
    k: usize,
}

impl Stage<'_> {
    fn axis(&self) -> ShardAxis {
        self.spec.shard_axis()
    }

    /// The rows ([`ShardAxis::Rows`]) or columns ([`ShardAxis::Cols`]) the
    /// stage's shards split.
    fn extent(&self) -> usize {
        match self.axis() {
            ShardAxis::Rows => self.input.nrows(),
            ShardAxis::Cols => self.input.ncols(),
        }
    }

    /// One attempt of the stage on `schedule`: charge every shard in schedule
    /// order, its kernel then its collective, until one outlives its device.
    ///
    /// Every shard is charged [`shard_costs`](Self::shard_costs), its stage's own
    /// statement at the shard's shape, reserving and releasing what the shard's
    /// apply would on its device.  A row shard's (CountSketch families)
    /// collective is the ordered ring fold of the whole `k x n` accumulator,
    /// chained after the previous shard's: folding block rows into one
    /// accumulator in global row order is the single-device Algorithm-2 chain, so
    /// any survivor schedule gives the same bits.  A column panel's (Gaussian,
    /// SRHT) is the allgather of its `k x width` slice: per-column kernels never
    /// see the other panels.
    fn attempt(
        &self,
        pool: &DevicePool,
        schedule: &Schedule,
        alive: &[usize],
        clock: &mut Clock,
    ) -> Result<Attempt, DistError> {
        let n = self.input.ncols();
        let kind = self.spec.kind.as_str();
        let panel_nnz = self.charge_csr_panel_cut(pool, alive, schedule)?;
        for assignment in &schedule.assignments {
            let phys = alive[assignment.device];
            let device = pool.device(phys);
            let costs = self.shard_costs(assignment, &panel_nnz)?;
            if costs.apply_reserve > 0 {
                device.try_reserve(costs.apply_reserve)?;
            }
            let cost = costs.apply;
            let (label, comm_words) = match self.axis() {
                ShardAxis::Rows => {
                    let label = format!("s{} {kind} shard {}", self.index, assignment.index);
                    device.launch(&label, cost);
                    (label, self.k * n)
                }
                ShardAxis::Cols => {
                    // Like the panel apply it stands for: recorded, no kernel span.
                    device.record(cost);
                    let label = format!("s{} {kind} panel {}", self.index, assignment.index);
                    (label, self.k * assignment.range.len())
                }
            };
            let (comm_s, comm_bytes) = if alive.len() > 1 {
                let bytes = KernelCost::f64_bytes(comm_words as u64);
                (
                    pool.interconnect().transfer_time(bytes) * device.link_scale(),
                    bytes,
                )
            } else {
                (0.0, 0)
            };
            let op = ShardOp {
                device: phys,
                label,
                compute_s: device.scaled_time(&cost),
                comm_s,
                chained: self.axis() == ShardAxis::Rows,
                cost,
                comm_bytes,
            };
            if let Some((failure, detected_at)) = clock.run(op, Some(device)) {
                return Ok(Attempt::Died {
                    failure,
                    local: assignment.device,
                    detected_at,
                });
            }
        }
        Ok(Attempt::Success)
    }

    /// What the stage's spec states for one shard: a row shard's spec is the
    /// stage's with its row range's length as the input dimension, at the rows'
    /// shape; a column panel's is the stage's own, at the panel's width (and,
    /// for a CSR operand, the panel's count in `panel_nnz`).  A single shard's
    /// shape is the whole operand's, so a pool of one charges what the bare
    /// apply records.
    fn shard_costs(
        &self,
        assignment: &ShardAssignment,
        panel_nnz: &[usize],
    ) -> Result<SketchCosts, Error> {
        let range = assignment.range.clone();
        let (spec, rows, cols) = match self.axis() {
            ShardAxis::Rows => {
                let spec = SketchSpec {
                    input_dim: range.len(),
                    ..self.spec.clone()
                };
                (spec, range.len(), self.input.ncols())
            }
            ShardAxis::Cols => (self.spec.clone(), self.input.nrows(), range.len()),
        };
        spec.costs(match (self.input, self.axis()) {
            (Operand::Dense(m), _) => OperandShape::dense(rows, cols, m.layout()),
            (Operand::Csr(s), ShardAxis::Rows) => {
                OperandShape::csr(rows, cols, s.slice_rows(range).nnz())
            }
            (Operand::CsrRows(v), ShardAxis::Rows) => {
                OperandShape::csr(rows, cols, v.slice_rows(range).nnz())
            }
            (_, ShardAxis::Cols) => OperandShape::csr(rows, cols, panel_nnz[assignment.index]),
        })
    }

    /// A column stage of a CSR-like operand cut into more than one panel cuts
    /// them in one CSC-style conversion pass per attempt, charged **once per
    /// live device** (each device converts its replica, mirroring
    /// [`replicate_generation`]), at [`csr_panel_cut_cost`].  So the modelled
    /// compute of a sparse column stage does not grow with the shard count the
    /// way per-shard full-matrix scans would.  A single panel is the operand
    /// itself, and nothing is cut.  Returns each panel's non-zeros, counted over
    /// `col_idx` (no panel is built); empty for every other stage.
    fn charge_csr_panel_cut(
        &self,
        pool: &DevicePool,
        alive: &[usize],
        schedule: &Schedule,
    ) -> Result<Vec<usize>, Error> {
        let col_idx = match (self.axis(), self.input) {
            (ShardAxis::Cols, Operand::Csr(s)) => s.col_idx(),
            (ShardAxis::Cols, Operand::CsrRows(v)) => v.col_idx(),
            _ => return Ok(Vec::new()),
        };
        let mut panel_nnz = vec![0usize; schedule.num_shards()];
        for &c in col_idx {
            panel_nnz[schedule.assignments.partition_point(|a| a.range.end <= c)] += 1;
        }
        if panel_nnz.len() > 1 {
            let cost = csr_panel_cut_cost(self.input.nrows(), col_idx.len(), panel_nnz.len())
                .ok_or(Error::SizeOverflow {
                    quantity: "cost statement",
                })?;
            for &d in alive {
                pool.device(d).launch("csc panel cut", cost);
            }
        }
        Ok(panel_nnz)
    }
}

/// The CSC-style pass that cuts a CSR operand of `rows` rows and `nnz` non-zeros
/// into `panels` column panels: it streams the non-zeros and row pointers once and
/// writes every panel's entries plus its own row-pointer array, one flop per
/// non-zero.  [`pipelined_sketch`] charges it to every live device, once per
/// attempt, when it cuts a CSR column stage (Gaussian, SRHT) into more than one
/// panel; the serve layer's admission adds it to a multi-device CSR job's flops.
/// `None` when a count overflows `u64`.
pub fn csr_panel_cut_cost(rows: usize, nnz: usize, panels: usize) -> Option<KernelCost> {
    let (nnz, rows1) = (Checked::from(nnz), Checked::from(rows) + 1);
    let idx = std::mem::size_of::<usize>() as u64;
    KernelCost::checked(
        nnz * 8 + (nnz + rows1) * idx,
        nnz * 8 + (nnz + rows1 * Checked::from(panels)) * idx,
        nnz,
        1,
    )
}

/// Charge a stage operator's generation `cost` as a replica to every live
/// device but `builder`, the device the pipeline was built on (and charged its
/// generation) before the first stage.  A stage's replicas are charged at its
/// start, to the devices then alive, so survivors of a death already hold them
/// and a retry re-charges shard kernels only.
fn replicate_generation(pool: &DevicePool, alive: &[usize], builder: usize, cost: KernelCost) {
    for &d in alive.iter().filter(|&&d| d != builder) {
        pool.device(d).launch("sketch gen (replica)", cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_core::{EmbeddingDim, SketchSpec};
    use sketch_gpu_sim::{Device, FaultPlan, FaultSpec};
    use sketch_la::Layout;

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

    /// The one charge rule: on a pool of one, every kind and chain, given as
    /// specs or built on the pool's device, records exactly what a bare
    /// `compose_for` + `apply_into` records, on dense operands in both layouts, on
    /// CSR and on a CSR row window; and its timeline is one entry per stage,
    /// priced as that stage's bare apply.
    #[test]
    fn a_pool_of_one_records_what_a_bare_build_and_apply_records() {
        use sketch_gpu_sim::DeviceSpec;
        use sketch_sparse::{CooMatrix, CsrMatrix};

        let d = 640;
        let n = 7;
        let dense = input(d, n);
        let dense_cm = dense.to_layout(&Device::unlimited(), Layout::ColMajor);
        let csr_of = |rows: usize| {
            let mut coo = CooMatrix::new(rows, n);
            for i in 0..rows {
                coo.push(i, i % n, dense.get(i % d, i % n));
                if i % 3 == 0 {
                    coo.push(i, (i + 2) % n, dense.get(i % d, (i + 2) % n));
                }
            }
            CsrMatrix::from_coo(&coo)
        };
        let csr = csr_of(d);
        let parent = csr_of(d + 4);
        let operands = [
            Operand::Dense(&dense),
            Operand::Dense(&dense_cm),
            Operand::Csr(&csr),
            Operand::CsrRows(parent.slice_rows(2..d + 2)),
        ];
        let plans = [
            Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), 4)),
            Pipeline::single(SketchSpec::hash_countsketch(d, EmbeddingDim::Square(2), 5)),
            Pipeline::single(SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), 6)),
            Pipeline::single(SketchSpec::srht(d, EmbeddingDim::Ratio(2), 7)),
            Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 8),
            Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), 9))
                .then(SketchSpec::srht(0, EmbeddingDim::Ratio(2), 10)),
            // A Gaussian before the last stage holds its stored operator.
            Pipeline::single(SketchSpec::gaussian(d, EmbeddingDim::Exact(64), 11))
                .then(SketchSpec::countsketch(0, EmbeddingDim::Exact(16), 12)),
        ];
        let opts = ExecutorOptions::default();
        for plan in &plans {
            for operand in operands {
                // Reference: build and apply on a bare device, then price each
                // stage's apply on its own.
                let bare = Device::h100();
                let built = plan.compose_for(&bare, n).unwrap();
                let mut single =
                    Matrix::zeros_with_layout(built.output_dim(), n, built.output_layout());
                built
                    .apply_into(&bare, operand, &mut single.view_mut())
                    .unwrap();
                let stepwise = Device::h100();
                let mut prices = Vec::new();
                let mut stage_out: Option<Matrix> = None;
                for (_, op) in built.stages() {
                    let stage_in = stage_out.as_ref().map_or(operand, Operand::Dense);
                    let before = stepwise.tracker().snapshot();
                    let y = op.as_operator().apply_operand(&stepwise, stage_in).unwrap();
                    prices.push(bare.model_time(&(stepwise.tracker().snapshot() - before)));
                    stage_out = Some(y);
                }

                for form in ["specs", "built"] {
                    let ctx = format!("{:?} on {}, {form}", plan.stages, operand.describe());
                    let pool = DevicePool::single(DeviceSpec::h100());
                    let run = match form {
                        "specs" => pipelined_sketch(&pool, operand, plan, &opts),
                        _ => {
                            let built = plan.compose_for(pool.device(0), n).unwrap();
                            pipelined_sketch(&pool, operand, &built, &opts)
                        }
                    }
                    .unwrap();
                    assert!(bits_equal(&run.result, &single), "{ctx}: bits");
                    assert_eq!(pool.total_cost(), bare.tracker().snapshot(), "{ctx}: cost");
                    let peak = pool.device(0).memory().peak();
                    assert_eq!(peak, bare.memory().peak(), "{ctx}: peak reservation");
                    assert_eq!(run.comm_seconds, 0.0, "{ctx}");
                    assert_eq!(run.timeline.entries().len(), prices.len(), "{ctx}");
                    let mut clock = 0.0;
                    for (entry, price) in run.timeline.entries().iter().zip(&prices) {
                        assert_eq!((entry.start, entry.end), (clock, clock + price), "{ctx}");
                        clock = entry.end;
                    }
                    assert_eq!(run.pipelined_seconds, clock, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn a_stage_whose_statement_overflows_is_a_typed_error() {
        // k·n·8 bytes of output overflow u64: refused by the stage's statement.
        let a = input(64, 64);
        let plan = Pipeline::single(SketchSpec::hash_countsketch(
            64,
            EmbeddingDim::Exact(1 << 62),
            1,
        ));
        for devices in [1, 3] {
            let run = pipelined_sketch(
                &DevicePool::unlimited(devices),
                &a,
                &plan,
                &ExecutorOptions::default(),
            );
            assert!(
                matches!(run, Err(Error::SizeOverflow { .. })),
                "{devices} devices: {run:?}"
            );
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
    fn a_traced_run_records_each_stage_compute_on_the_wall_track() {
        let a = input(512, 6);
        let plan = Pipeline::count_gauss(512, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 3);
        let pool = DevicePool::unlimited(4);
        let collector = sketch_obs::TraceCollector::shared();
        pool.attach_recorder(collector.clone());
        let run = pipelined_sketch(&pool, &a, &plan, &ExecutorOptions::default()).unwrap();
        let wall: Vec<_> = collector
            .snapshot()
            .into_iter()
            .filter(|e| e.track == Track::Wall)
            .collect();
        let names: Vec<&str> = wall.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["s0 count-sketch compute", "s1 gaussian compute"]);
        for e in &wall {
            assert!(e.wall_ns > 0, "{} measured nothing", e.name);
            let (start, end) = e.sim.expect("a stage spans its modelled interval");
            assert!(0.0 <= start && start < end && end <= run.pipelined_seconds);
        }
        assert_eq!(wall[0].sim.unwrap().1, wall[1].sim.unwrap().0);
    }

    #[test]
    fn a_stage_output_the_host_cannot_hold_is_a_typed_error() {
        use sketch_sparse::{CooMatrix, CsrMatrix};

        // 2^15 buckets fit, but the 2^15 x 2^30 output is 2^48 bytes: past the
        // address space of every 64-bit host.
        let mut coo = CooMatrix::new(64, 1 << 30);
        coo.push(3, 5, 1.0);
        let csr = CsrMatrix::from_coo(&coo);
        let plan = Pipeline::single(SketchSpec::countsketch(64, EmbeddingDim::Exact(1 << 15), 1));
        let pool = DevicePool::unlimited(2);
        let err = pipelined_sketch(&pool, &csr, &plan, &ExecutorOptions::default()).unwrap_err();
        assert!(
            matches!(err, Error::HostAllocationFailed { bytes } if bytes == 1 << 48),
            "{err}"
        );
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
