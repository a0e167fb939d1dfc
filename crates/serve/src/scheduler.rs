//! Packing admitted jobs onto the shared [`DevicePool`].
//!
//! The [`Scheduler`] walks jobs in queue (fairness) order and greedily claims,
//! for each job, the devices that free up earliest — a `devices = 1` job takes
//! one idle device while another tenant's job runs beside it, which is where
//! co-scheduling beats FIFO one-job-at-a-time.  Each claim becomes a
//! [`DevicePool::subpool`] view, the job runs through the ordinary
//! `pipelined_sketch` engine on it, and the per-job timeline is merged (with
//! the job's start offset, its physical device ordinals and its `tenant#seq`
//! name) into one service-level [`Timeline`] — the modelled cluster clock,
//! and the service's trace.
//!
//! Determinism: claims are resolved by `(free-up time, lowest ordinal)`, jobs
//! execute with their tenant-salted pipelines, and the executor itself is
//! bit-deterministic — so a job's numerical result is identical whether it
//! runs alone on a fresh pool or co-scheduled here (pinned by the isolation
//! suite).
//!
//! [`Scheduler::run_fifo`] is the baseline the service must beat: the same
//! jobs, same order, but each one monopolises the whole pool.

use crate::admission::AdmissionController;
use crate::error::{RejectReason, ServeError};
use crate::job::{DeadlineClass, OperandData};
use crate::queue::QueuedJob;
use sketch_core::Operand;
use sketch_dist::{pipelined_sketch, ExecutorOptions, PipelinedRun};
use sketch_gpu_sim::{DevicePool, Timeline, TimelineEntry};
use sketch_obs::TraceEvent;

/// One job as actually scheduled: when, where, and what came out.
#[derive(Debug, Clone)]
pub struct ScheduledJob {
    /// The submitting tenant.
    pub tenant: String,
    /// Queue sequence number of the job.
    pub seq: u64,
    /// Modelled arrival time, seconds.
    pub arrival_s: f64,
    /// Modelled start time on the cluster clock, seconds.
    pub start: f64,
    /// Modelled completion time, seconds.
    pub end: f64,
    /// Physical device ordinals the job occupied (sorted).
    pub device_ordinals: Vec<usize>,
    /// The executor's result for the job (bits + per-job timeline + costs).
    pub run: PipelinedRun,
}

impl ScheduledJob {
    /// Seconds the job waited between arrival and start.
    pub fn queue_wait(&self) -> f64 {
        (self.start - self.arrival_s).max(0.0)
    }
}

/// A job the scheduler gave up on: every execution attempt died with a device
/// failure and the tenant's retry budget (or the pool) ran out, its operand
/// could not be materialised, or the executor failed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbandonedJob {
    /// The submitting tenant.
    pub tenant: String,
    /// Queue sequence number of the job.
    pub seq: u64,
    /// The typed reason: [`RejectReason::RetriesExhausted`] when every
    /// attempt hit a dead device, the refusal
    /// [`OperandSpec::try_materialize`](crate::OperandSpec::try_materialize)
    /// returned (e.g. [`RejectReason::OperandAllocationFailed`]), or
    /// [`RejectReason::ExecutionFailed`] for any other executor error.
    pub reason: RejectReason,
    /// Execution attempts that failed before the job was abandoned.
    pub attempts: usize,
}

/// The service-level outcome: every scheduled job plus the merged cluster
/// timeline.
#[derive(Debug, Clone)]
pub struct ServiceRun {
    /// Jobs in execution (queue) order.
    pub jobs: Vec<ScheduledJob>,
    /// Jobs abandoned after exhausting their retry budget on dying devices,
    /// whose operand could not be materialised, or that the executor failed.
    pub abandoned: Vec<AbandonedJob>,
    /// Execution attempts re-run because an earlier attempt hit a dead device.
    pub retries: u64,
    /// Straggler devices displaced from interactive jobs' claims (the
    /// deadline-aware eviction decision).
    pub evictions: u64,
    /// The merged cluster timeline: device rows are physical ordinals, and
    /// each job's labels carry its `tenant#seq ` prefix.
    pub timeline: Timeline,
    /// Devices in the pool the run was packed onto.
    pub devices: usize,
}

impl ServiceRun {
    /// Completion time of the last job — the mixed workload's makespan.
    pub fn makespan(&self) -> f64 {
        self.timeline.makespan()
    }

    /// Per-physical-device utilization over the service makespan.
    pub fn utilizations(&self) -> Vec<f64> {
        self.timeline.utilizations()
    }

    /// Export the whole service run as costed trace events on the physical
    /// device tracks: the merged timeline's entries, in merge order.
    ///
    /// Jobs are merged in execution order, and each starts on a device only
    /// once the device's previous job has ended; since each job's per-stream
    /// entries are monotone, every `(device, stream)` sim track stays
    /// monotone and non-overlapping — the invariant the workspace trace
    /// validator enforces.
    pub fn to_trace_events(&self) -> Vec<TraceEvent> {
        self.timeline
            .entries()
            .iter()
            .map(TimelineEntry::trace_event)
            .collect()
    }
}

/// Greedy device-packing scheduler over a shared pool.
#[derive(Debug, Clone, Default)]
pub struct Scheduler;

impl Scheduler {
    /// A scheduler running every job with default [`ExecutorOptions`].
    pub fn new() -> Self {
        Self
    }

    /// Materialise and execute one job on `pool` with its tenant-salted
    /// pipeline.  An operand that cannot be materialised is a
    /// [`ServeError::Rejected`] for the job.
    fn execute(&self, pool: &DevicePool, job: &QueuedJob) -> Result<PipelinedRun, ServeError> {
        let plan = job.job.salted_pipeline();
        let operand = job
            .job
            .operand
            .try_materialize()
            .map_err(|reason| ServeError::Rejected {
                tenant: job.job.tenant.clone(),
                reason,
            })?;
        let opts = ExecutorOptions::default();
        let run = match operand {
            OperandData::Dense(m) => pipelined_sketch(pool, &m, &plan, &opts)?,
            OperandData::Csr(c) => pipelined_sketch(pool, Operand::Csr(&c), &plan, &opts)?,
        };
        Ok(run)
    }

    /// Co-schedule `jobs` (in the given order) onto disjoint device subsets of
    /// `pool`.
    ///
    /// Each job claims the `devices` it asked for (clamped to the pool size),
    /// choosing the devices that free up earliest — ties to the lowest
    /// ordinal — and starts when all its claimed devices are free and the job
    /// has arrived.  Independent single-device jobs therefore run beside each
    /// other; a full-pool job naturally drains the cluster first.
    pub fn run(&self, pool: &DevicePool, jobs: &[QueuedJob]) -> Result<ServiceRun, ServeError> {
        self.run_with_admission(pool, jobs, &AdmissionController::new())
    }

    /// [`Scheduler::run`] with a retry policy: a job whose execution dies with
    /// a device failure (every device in its claim dead) is requeued onto the
    /// still-live devices, up to the tenant's
    /// [`max_retries`](crate::TenantLimits::max_retries) budget; past the
    /// budget — or with no live device left — the job is *abandoned* with a
    /// typed [`RejectReason::RetriesExhausted`], never a hard error.  A job
    /// whose operand cannot be materialised (the host refuses the allocation)
    /// is abandoned with that typed reason, a job the executor fails for any
    /// other reason with [`RejectReason::ExecutionFailed`], and the other jobs
    /// run on.
    ///
    /// Stragglers feed the claim decision: an
    /// [interactive](DeadlineClass::Interactive) job whose earliest-free claim
    /// would include a slowed device is rerouted onto healthy devices when
    /// enough exist, and each displaced straggler counts as an eviction.  On a
    /// healthy pool every decision reduces to the plain earliest-free claim,
    /// so clean runs are bit-identical to [`Scheduler::run`].
    pub fn run_with_admission(
        &self,
        pool: &DevicePool,
        jobs: &[QueuedJob],
        admission: &AdmissionController,
    ) -> Result<ServiceRun, ServeError> {
        let p = pool.num_devices();
        let mut free_at = vec![0.0f64; p];
        let mut timeline = Timeline::with_devices(p);
        let mut scheduled = Vec::with_capacity(jobs.len());
        let mut abandoned = Vec::new();
        let mut retries = 0u64;
        let mut evictions = 0u64;
        for qj in jobs {
            let max_retries = admission.limits_for(&qj.job.tenant).max_retries;
            let mut attempts = 0usize;
            loop {
                // Sticky death flags shrink the usable set between attempts,
                // so even an unlimited retry budget terminates.
                let usable: Vec<usize> = (0..p).filter(|&d| !pool.device(d).is_failed()).collect();
                if usable.is_empty() {
                    abandoned.push(AbandonedJob {
                        tenant: qj.job.tenant.clone(),
                        seq: qj.seq,
                        reason: RejectReason::RetriesExhausted { attempts },
                        attempts,
                    });
                    break;
                }
                let want = qj.job.devices.clamp(1, usable.len());
                let by_free = |devs: &[usize]| {
                    let mut order = devs.to_vec();
                    order.sort_by(|&a, &b| {
                        free_at[a]
                            .partial_cmp(&free_at[b])
                            .expect("finite free times")
                            .then(a.cmp(&b))
                    });
                    order.truncate(want);
                    order.sort_unstable();
                    order
                };
                let mut claimed = by_free(&usable);
                if qj.job.deadline == DeadlineClass::Interactive {
                    let straggling = claimed
                        .iter()
                        .filter(|&&d| pool.device(d).time_scale() > 1.0)
                        .count() as u64;
                    if straggling > 0 {
                        let healthy: Vec<usize> = usable
                            .iter()
                            .copied()
                            .filter(|&d| pool.device(d).time_scale() <= 1.0)
                            .collect();
                        if healthy.len() >= want {
                            claimed = by_free(&healthy);
                            evictions += straggling;
                        }
                    }
                }
                let start = claimed
                    .iter()
                    .fold(qj.job.arrival_s, |acc, &d| acc.max(free_at[d]));
                let sub = pool.subpool(&claimed)?;
                match self.execute(&sub, qj) {
                    Ok(run) => {
                        let end = start + run.pipelined_seconds;
                        for &d in &claimed {
                            free_at[d] = end;
                        }
                        let name = format!("{}#{} ", qj.job.tenant, qj.seq);
                        timeline.merge_shifted(&run.timeline, start, &claimed, &name);
                        scheduled.push(ScheduledJob {
                            tenant: qj.job.tenant.clone(),
                            seq: qj.seq,
                            arrival_s: qj.job.arrival_s,
                            start,
                            end,
                            device_ordinals: claimed,
                            run,
                        });
                        break;
                    }
                    Err(ServeError::Core(e)) if e.is_device_failure() => {
                        attempts += 1;
                        if attempts > max_retries {
                            abandoned.push(AbandonedJob {
                                tenant: qj.job.tenant.clone(),
                                seq: qj.seq,
                                reason: RejectReason::RetriesExhausted { attempts },
                                attempts,
                            });
                            break;
                        }
                        retries += 1;
                    }
                    Err(ServeError::Rejected { reason, .. }) => {
                        abandoned.push(AbandonedJob {
                            tenant: qj.job.tenant.clone(),
                            seq: qj.seq,
                            reason,
                            attempts: attempts + 1,
                        });
                        break;
                    }
                    Err(ServeError::Core(e)) => {
                        abandoned.push(AbandonedJob {
                            tenant: qj.job.tenant.clone(),
                            seq: qj.seq,
                            reason: RejectReason::ExecutionFailed {
                                detail: e.to_string(),
                            },
                            attempts: attempts + 1,
                        });
                        break;
                    }
                    Err(other) => return Err(other),
                }
            }
        }
        Ok(ServiceRun {
            jobs: scheduled,
            abandoned,
            retries,
            evictions,
            timeline,
            devices: p,
        })
    }

    /// The FIFO one-job-at-a-time baseline: same jobs, same order, but every
    /// job monopolises the whole pool.  This is the makespan the co-scheduler
    /// must strictly beat on mixed single-device workloads (the `fig_serve`
    /// gate).
    pub fn run_fifo(
        &self,
        pool: &DevicePool,
        jobs: &[QueuedJob],
    ) -> Result<ServiceRun, ServeError> {
        let whole: Vec<QueuedJob> = jobs
            .iter()
            .map(|qj| {
                let mut qj = qj.clone();
                qj.job.devices = pool.num_devices();
                qj
            })
            .collect();
        self.run(pool, &whole)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, OperandSpec};
    use crate::queue::JobQueue;
    use sketch_core::{EmbeddingDim, Pipeline, SketchSpec};
    use sketch_obs::Track;
    use std::collections::BTreeMap;

    fn one_device_job(tenant: &str, seed: u64) -> JobSpec {
        JobSpec::new(
            tenant,
            Pipeline::single(SketchSpec::countsketch(
                1 << 10,
                EmbeddingDim::Square(2),
                seed,
            )),
            OperandSpec::Dense {
                rows: 1 << 10,
                cols: 6,
                seed,
            },
        )
    }

    fn queued(jobs: Vec<JobSpec>) -> Vec<QueuedJob> {
        let mut q = JobQueue::new(jobs.len().max(1));
        for j in jobs {
            q.push(j).unwrap();
        }
        q.drain()
    }

    #[test]
    fn single_device_jobs_pack_onto_disjoint_devices() {
        let pool = DevicePool::unlimited(2);
        let jobs = queued(vec![
            one_device_job("a", 1),
            one_device_job("b", 2),
            one_device_job("c", 3),
            one_device_job("d", 4),
        ]);
        let run = Scheduler::new().run(&pool, &jobs).unwrap();
        assert_eq!(run.jobs.len(), 4);
        // First two jobs start together on different devices.
        assert_eq!(run.jobs[0].start, 0.0);
        assert_eq!(run.jobs[1].start, 0.0);
        assert_ne!(run.jobs[0].device_ordinals, run.jobs[1].device_ordinals);
        // Later jobs wait for a device to free up.
        assert!(run.jobs[2].start > 0.0);
        assert!(run.jobs[2].queue_wait() > 0.0);
        // No device ever runs two jobs at once.
        let mut windows: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for j in &run.jobs {
            for &d in &j.device_ordinals {
                windows.entry(d).or_default().push((j.start, j.end));
            }
        }
        for (_, mut w) in windows {
            w.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for pair in w.windows(2) {
                assert!(pair[0].1 <= pair[1].0 + 1e-12, "jobs overlap on a device");
            }
        }
    }

    #[test]
    fn co_scheduling_beats_fifo_on_independent_jobs() {
        let pool = DevicePool::unlimited(2);
        let jobs = queued(vec![
            one_device_job("a", 1),
            one_device_job("b", 2),
            one_device_job("c", 3),
            one_device_job("d", 4),
        ]);
        let sched = Scheduler::new();
        let cosched = sched.run(&pool, &jobs).unwrap();
        let fifo = sched.run_fifo(&pool, &jobs).unwrap();
        assert!(
            cosched.makespan() < fifo.makespan(),
            "co-scheduled {} >= fifo {}",
            cosched.makespan(),
            fifo.makespan()
        );
    }

    #[test]
    fn results_match_solo_runs_bitwise() {
        let pool = DevicePool::unlimited(2);
        let jobs = queued(vec![one_device_job("a", 1), one_device_job("b", 2)]);
        let cosched = Scheduler::new().run(&pool, &jobs).unwrap();
        for (qj, scheduled) in jobs.iter().zip(&cosched.jobs) {
            let fresh = DevicePool::unlimited(1);
            let solo = Scheduler::new()
                .run(&fresh, std::slice::from_ref(qj))
                .unwrap();
            assert_eq!(
                scheduled.run.result.max_abs_diff(&solo.jobs[0].run.result),
                Ok(0.0),
                "tenant {} diverged under co-scheduling",
                qj.job.tenant
            );
        }
    }

    #[test]
    fn full_pool_jobs_serialise() {
        let pool = DevicePool::unlimited(2);
        let jobs = queued(vec![
            one_device_job("a", 1).with_devices(2),
            one_device_job("b", 2).with_devices(2),
        ]);
        let run = Scheduler::new().run(&pool, &jobs).unwrap();
        assert_eq!(run.jobs[0].device_ordinals, vec![0, 1]);
        assert!((run.jobs[1].start - run.jobs[0].end).abs() < 1e-12);
        // Oversized asks clamp to the pool.
        let big = queued(vec![one_device_job("a", 1).with_devices(64)]);
        let run = Scheduler::new().run(&pool, &big).unwrap();
        assert_eq!(run.jobs[0].device_ordinals, vec![0, 1]);
    }

    #[test]
    fn arrivals_delay_starts() {
        let pool = DevicePool::unlimited(2);
        let jobs = queued(vec![one_device_job("a", 1).with_arrival(5.0)]);
        let run = Scheduler::new().run(&pool, &jobs).unwrap();
        assert_eq!(run.jobs[0].start, 5.0);
        assert_eq!(run.jobs[0].queue_wait(), 0.0);
    }

    #[test]
    fn service_timeline_lands_on_physical_ordinals() {
        let pool = DevicePool::unlimited(4);
        let jobs = queued(vec![
            one_device_job("a", 1),
            one_device_job("b", 2),
            one_device_job("c", 3),
            one_device_job("d", 4),
        ]);
        let run = Scheduler::new().run(&pool, &jobs).unwrap();
        // All four devices carried work, concurrently.
        for d in 0..4 {
            assert!(run.timeline.busy_seconds(d) > 0.0, "device {d} idle");
        }
        assert!(run.makespan() < run.timeline.serial_seconds());
        assert_eq!(run.utilizations().len(), 4);
    }

    #[test]
    fn dead_device_jobs_retry_onto_survivors_bitwise() {
        use sketch_gpu_sim::{FaultPlan, FaultSpec};

        let pool = DevicePool::unlimited(2);
        pool.apply_fault_plan(&FaultPlan::healthy().with_fault(
            0,
            FaultSpec::Dies {
                after_sim_seconds: 0.0,
            },
        ));
        let jobs = queued(vec![one_device_job("a", 1)]);
        let run = Scheduler::new().run(&pool, &jobs).unwrap();
        assert_eq!(run.jobs.len(), 1);
        assert_eq!(run.retries, 1, "first claim lands on the dying device");
        assert!(run.abandoned.is_empty());
        assert_eq!(run.jobs[0].device_ordinals, vec![1]);

        let fresh = DevicePool::unlimited(1);
        let solo = Scheduler::new().run(&fresh, &jobs).unwrap();
        assert_eq!(
            run.jobs[0]
                .run
                .result
                .max_abs_diff(&solo.jobs[0].run.result),
            Ok(0.0),
            "retried job diverged from the solo run"
        );
    }

    #[test]
    fn exhausted_retry_budget_abandons_with_typed_reason() {
        use crate::admission::{AdmissionController, TenantLimits};
        use crate::error::RejectReason;
        use sketch_gpu_sim::{FaultPlan, FaultSpec};

        let pool = DevicePool::unlimited(1);
        pool.apply_fault_plan(&FaultPlan::healthy().with_fault(
            0,
            FaultSpec::Dies {
                after_sim_seconds: 0.0,
            },
        ));
        let jobs = queued(vec![one_device_job("a", 1)]);
        let admission = AdmissionController::new()
            .with_tenant("a", TenantLimits::unlimited().with_max_retries(0));
        let run = Scheduler::new()
            .run_with_admission(&pool, &jobs, &admission)
            .unwrap();
        assert!(run.jobs.is_empty());
        assert_eq!(run.abandoned.len(), 1);
        assert_eq!(
            run.abandoned[0].reason,
            RejectReason::RetriesExhausted { attempts: 1 }
        );
        assert_eq!(run.retries, 0, "a zero budget never re-runs the job");

        // With an unlimited budget the same pool still abandons — no live
        // device remains — but only after the sticky flag is observed.
        let jobs = queued(vec![one_device_job("b", 2)]);
        let run = Scheduler::new().run(&pool, &jobs).unwrap();
        assert_eq!(run.abandoned.len(), 1);
        assert_eq!(run.abandoned[0].attempts, 0, "refused before any attempt");
    }

    #[test]
    fn interactive_jobs_evict_stragglers_from_their_claims() {
        use crate::job::DeadlineClass;
        use sketch_gpu_sim::{FaultPlan, FaultSpec};

        let pool = DevicePool::unlimited(2);
        pool.apply_fault_plan(&FaultPlan::healthy().with_fault(
            0,
            FaultSpec::Straggler {
                slowdown_factor: 8.0,
            },
        ));
        // The earliest-free tie would pick ordinal 0; the interactive job is
        // rerouted to the healthy device, the standard job is not.
        let jobs = queued(vec![
            one_device_job("fast", 1).with_deadline(DeadlineClass::Interactive),
            one_device_job("slow", 2),
        ]);
        let run = Scheduler::new().run(&pool, &jobs).unwrap();
        assert_eq!(run.jobs[0].device_ordinals, vec![1]);
        assert_eq!(run.evictions, 1);
        assert_eq!(run.jobs[1].device_ordinals, vec![0]);
        // When every device straggles there is nowhere to evict to.
        let all_slow = DevicePool::unlimited(1);
        all_slow.apply_fault_plan(&FaultPlan::healthy().with_fault(
            0,
            FaultSpec::Straggler {
                slowdown_factor: 2.0,
            },
        ));
        let jobs = queued(vec![
            one_device_job("t", 3).with_deadline(DeadlineClass::Interactive)
        ]);
        let run = Scheduler::new().run(&all_slow, &jobs).unwrap();
        assert_eq!(run.evictions, 0);
        assert_eq!(run.jobs[0].device_ordinals, vec![0]);
    }

    #[test]
    fn trace_events_keep_per_track_monotonicity() {
        let pool = DevicePool::unlimited(2);
        let jobs = queued(vec![
            one_device_job("a", 1),
            one_device_job("b", 2),
            one_device_job("c", 3).with_devices(2),
            one_device_job("d", 4),
        ]);
        let run = Scheduler::new().run(&pool, &jobs).unwrap();
        let events = run.to_trace_events();
        assert!(!events.is_empty());
        let mut cursors: BTreeMap<(usize, Track), f64> = BTreeMap::new();
        for e in &events {
            let (start, end) = e.sim.expect("service traces are sim events");
            let cursor = cursors.entry((e.device, e.track)).or_insert(0.0);
            assert!(
                start >= *cursor,
                "track ({}, {:?}) rewound: {} < {}",
                e.device,
                e.track,
                start,
                cursor
            );
            *cursor = end;
        }
    }

    #[test]
    fn trace_events_carry_each_ops_costs() {
        let pool = DevicePool::unlimited(2);
        let jobs = queued(vec![
            one_device_job("a", 1),
            one_device_job("b", 2).with_devices(2),
            one_device_job("c", 3),
        ]);
        let run = Scheduler::new().run(&pool, &jobs).unwrap();
        let events = run.to_trace_events();
        let ops: Vec<_> = run
            .jobs
            .iter()
            .flat_map(|j| j.run.timeline.entries().iter().map(move |e| (j, e)))
            .collect();
        assert_eq!(events.len(), ops.len());
        for (event, (job, entry)) in events.iter().zip(ops) {
            assert_eq!(
                event.name,
                format!("{}#{} {}", job.tenant, job.seq, entry.label)
            );
            assert_eq!(event.device, job.device_ordinals[entry.device]);
            assert_eq!(
                event.sim,
                Some((entry.start + job.start, entry.end + job.start))
            );
            assert_eq!(event.cost, entry.cost, "{}", event.name);
            match event.track {
                Track::Compute => assert!(event.cost.launches > 0, "{}", event.name),
                _ => assert!(event.cost.comm_bytes > 0, "{}", event.name),
            }
        }
    }
}
