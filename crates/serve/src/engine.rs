//! The in-process request stream: submit → admit → queue → schedule → ledger.
//!
//! [`ServeEngine`] is the service front door.  `submit` runs each request
//! through admission control and the bounded fair queue (typed rejections are
//! *recorded* — a rejected job is a ledger entry, not a lost event); `run`
//! drains the queue through the [`Scheduler`] and settles a
//! [`ServiceReport`]: one [`TenantLedger`] per tenant (jobs run/rejected,
//! modelled compute seconds, comm bytes, queue-wait quantiles) plus the
//! service-level [`ServiceRun`].  The report exports to
//! [`sketch_obs::MetricsRegistry`] under the `serve.*` namespace with
//! deterministic ordering, and to a flat JSON document for the batch driver.

use crate::admission::AdmissionController;
use crate::error::ServeError;
use crate::job::JobSpec;
use crate::queue::JobQueue;
use crate::scheduler::{Scheduler, ServiceRun};
use sketch_core::JsonValue;
use sketch_gpu_sim::DevicePool;
use sketch_obs::MetricsRegistry;
use std::collections::BTreeMap;

/// Histogram bucket bounds (seconds) for queue-wait observations.
pub const QUEUE_WAIT_BOUNDS: [f64; 6] = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0];

/// Histogram bucket bounds for per-tenant rejection counts.
pub const REJECTION_BOUNDS: [f64; 5] = [0.0, 1.0, 2.0, 4.0, 8.0];

/// What the service did for (and to) one tenant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantLedger {
    /// Jobs executed to completion.
    pub jobs_run: u64,
    /// Jobs refused by admission control or the bounded queue.
    pub jobs_rejected: u64,
    /// Rejections by [`RejectReason::as_str`](crate::RejectReason::as_str) tag.
    pub rejected_by_reason: BTreeMap<String, u64>,
    /// Summed modelled makespan of the tenant's jobs, seconds.
    pub compute_seconds: f64,
    /// Summed modelled interconnect traffic of the tenant's jobs, bytes.
    pub comm_bytes: u64,
    /// Queue waits of the tenant's executed jobs, sorted ascending, seconds.
    pub queue_waits: Vec<f64>,
}

impl TenantLedger {
    /// Exact `q`-quantile (nearest-rank) of the tenant's queue waits; 0 when
    /// the tenant ran no jobs.
    pub fn queue_wait_quantile(&self, q: f64) -> f64 {
        if self.queue_waits.is_empty() {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.queue_waits.len() as f64).ceil() as usize;
        self.queue_waits[rank.max(1) - 1]
    }

    /// Median queue wait, seconds.
    pub fn queue_wait_p50(&self) -> f64 {
        self.queue_wait_quantile(0.50)
    }

    /// 95th-percentile queue wait, seconds.
    pub fn queue_wait_p95(&self) -> f64 {
        self.queue_wait_quantile(0.95)
    }
}

/// The settled outcome of one service batch: per-tenant ledgers plus the
/// service-level schedule.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-tenant ledgers, keyed by tenant id (deterministic order).
    pub tenants: BTreeMap<String, TenantLedger>,
    /// The scheduled service run.
    pub service: ServiceRun,
}

impl ServiceReport {
    /// Total jobs executed across tenants.
    pub fn jobs_run(&self) -> u64 {
        self.tenants.values().map(|t| t.jobs_run).sum()
    }

    /// Total jobs rejected across tenants.
    pub fn jobs_rejected(&self) -> u64 {
        self.tenants.values().map(|t| t.jobs_rejected).sum()
    }

    /// Export the report into a [`MetricsRegistry`] under the `serve.*`
    /// namespace: service and per-tenant counters, a queue-wait histogram
    /// ([`QUEUE_WAIT_BOUNDS`]) and a per-tenant rejection-count histogram
    /// ([`REJECTION_BOUNDS`]).  Keys are lexicographically ordered in the
    /// registry's flat JSON summary, so exports are byte-deterministic.
    pub fn record_metrics(&self, metrics: &MetricsRegistry) {
        metrics.add("serve.jobs_run", self.jobs_run());
        metrics.add("serve.jobs_rejected", self.jobs_rejected());
        metrics.add("serve.retries", self.service.retries);
        metrics.add("serve.straggler_evictions", self.service.evictions);
        for (tenant, ledger) in &self.tenants {
            metrics.add(&format!("serve.tenant.{tenant}.jobs_run"), ledger.jobs_run);
            metrics.add(
                &format!("serve.tenant.{tenant}.jobs_rejected"),
                ledger.jobs_rejected,
            );
            metrics.add(
                &format!("serve.tenant.{tenant}.comm_bytes"),
                ledger.comm_bytes,
            );
            metrics.add(
                &format!("serve.tenant.{tenant}.compute_us"),
                (ledger.compute_seconds * 1e6).round() as u64,
            );
            for wait in &ledger.queue_waits {
                metrics.observe("serve.queue_wait_seconds", *wait, &QUEUE_WAIT_BOUNDS);
            }
            metrics.observe(
                "serve.tenant_rejections",
                ledger.jobs_rejected as f64,
                &REJECTION_BOUNDS,
            );
        }
    }

    /// The report as a flat JSON document (tenants in key order, jobs in
    /// execution order) — what the `sketch_serve` batch driver writes.
    pub fn to_json(&self) -> JsonValue {
        let tenants = self
            .tenants
            .iter()
            .map(|(tenant, l)| {
                (
                    tenant.clone(),
                    JsonValue::Object(vec![
                        ("jobs_run".into(), JsonValue::UInt(l.jobs_run)),
                        ("jobs_rejected".into(), JsonValue::UInt(l.jobs_rejected)),
                        (
                            "rejected_by_reason".into(),
                            JsonValue::Object(
                                l.rejected_by_reason
                                    .iter()
                                    .map(|(k, v)| (k.clone(), JsonValue::UInt(*v)))
                                    .collect(),
                            ),
                        ),
                        (
                            "compute_seconds".into(),
                            JsonValue::Float(l.compute_seconds),
                        ),
                        ("comm_bytes".into(), JsonValue::UInt(l.comm_bytes)),
                        (
                            "queue_wait_p50_s".into(),
                            JsonValue::Float(l.queue_wait_p50()),
                        ),
                        (
                            "queue_wait_p95_s".into(),
                            JsonValue::Float(l.queue_wait_p95()),
                        ),
                    ]),
                )
            })
            .collect();
        let jobs = self
            .service
            .jobs
            .iter()
            .map(|j| {
                JsonValue::Object(vec![
                    ("tenant".into(), JsonValue::Str(j.tenant.clone())),
                    ("seq".into(), JsonValue::UInt(j.seq)),
                    ("start_s".into(), JsonValue::Float(j.start)),
                    ("end_s".into(), JsonValue::Float(j.end)),
                    ("queue_wait_s".into(), JsonValue::Float(j.queue_wait())),
                    (
                        "devices".into(),
                        JsonValue::Array(
                            j.device_ordinals
                                .iter()
                                .map(|&d| JsonValue::UInt(d as u64))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("tenants".into(), JsonValue::Object(tenants)),
            (
                "service".into(),
                JsonValue::Object(vec![
                    (
                        "devices".into(),
                        JsonValue::UInt(self.service.devices as u64),
                    ),
                    (
                        "makespan_s".into(),
                        JsonValue::Float(self.service.makespan()),
                    ),
                    (
                        "utilization".into(),
                        JsonValue::Array(
                            self.service
                                .utilizations()
                                .into_iter()
                                .map(JsonValue::Float)
                                .collect(),
                        ),
                    ),
                    ("jobs".into(), JsonValue::Array(jobs)),
                ]),
            ),
        ])
    }
}

/// The in-process service: admission + bounded fair queue + scheduler over a
/// shared pool.
#[derive(Debug)]
pub struct ServeEngine<'p> {
    pool: &'p DevicePool,
    queue: JobQueue,
    admission: AdmissionController,
    scheduler: Scheduler,
    /// Rejection tags per tenant, recorded at submit time.
    rejections: BTreeMap<String, BTreeMap<String, u64>>,
}

impl<'p> ServeEngine<'p> {
    /// A service over `pool` with the given admission policy and queue bound.
    pub fn new(
        pool: &'p DevicePool,
        admission: AdmissionController,
        queue_capacity: usize,
    ) -> Self {
        Self {
            pool,
            queue: JobQueue::new(queue_capacity),
            admission,
            scheduler: Scheduler::new(),
            rejections: BTreeMap::new(),
        }
    }

    /// Replace the scheduler (e.g. to change [`sketch_dist::ExecutorOptions`]).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Jobs currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Submit one request: admission control, then the bounded queue.
    ///
    /// On success returns the job's queue sequence number.  On rejection the
    /// typed error is returned *and* tallied for the tenant's ledger — a
    /// refused request is part of the service record.
    pub fn submit(&mut self, job: JobSpec) -> Result<u64, ServeError> {
        let tenant = job.tenant.clone();
        let in_flight = self.queue.queued_for(&tenant);
        let result = self
            .admission
            .admit(&job, in_flight)
            .and_then(|_| self.queue.push(job));
        if let Err(ServeError::Rejected { tenant, reason }) = &result {
            *self
                .rejections
                .entry(tenant.clone())
                .or_default()
                .entry(reason.as_str().to_string())
                .or_insert(0) += 1;
        }
        result
    }

    /// Drain the queue through the scheduler and settle the report.
    ///
    /// Rejection tallies recorded by [`ServeEngine::submit`] are folded into
    /// the ledgers and cleared, so consecutive batches don't double-count.
    pub fn run(&mut self) -> Result<ServiceReport, ServeError> {
        let jobs = self.queue.drain();
        let service = self
            .scheduler
            .run_with_admission(self.pool, &jobs, &self.admission)?;
        let mut tenants: BTreeMap<String, TenantLedger> = BTreeMap::new();
        for job in &service.jobs {
            let ledger = tenants.entry(job.tenant.clone()).or_default();
            ledger.jobs_run += 1;
            ledger.compute_seconds += job.run.pipelined_seconds;
            ledger.comm_bytes += job.run.comm_total_bytes();
            ledger.queue_waits.push(job.queue_wait());
        }
        for (tenant, by_reason) in std::mem::take(&mut self.rejections) {
            let ledger = tenants.entry(tenant).or_default();
            ledger.jobs_rejected += by_reason.values().sum::<u64>();
            ledger.rejected_by_reason = by_reason;
        }
        // Jobs the scheduler abandoned mid-run (retry budget spent on dying
        // devices) are rejections too — merged, not assigned, so they coexist
        // with submit-time tallies.
        for job in &service.abandoned {
            let ledger = tenants.entry(job.tenant.clone()).or_default();
            ledger.jobs_rejected += 1;
            *ledger
                .rejected_by_reason
                .entry(job.reason.as_str().to_string())
                .or_insert(0) += 1;
        }
        for ledger in tenants.values_mut() {
            ledger
                .queue_waits
                .sort_by(|a, b| a.partial_cmp(b).expect("finite waits"));
        }
        Ok(ServiceReport { tenants, service })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::TenantLimits;
    use crate::job::{JobSpec, OperandSpec};
    use sketch_core::{EmbeddingDim, Pipeline, SketchSpec};

    fn job(tenant: &str, seed: u64) -> JobSpec {
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

    #[test]
    fn submit_run_ledger_round_trip() {
        let pool = DevicePool::unlimited(2);
        let mut engine = ServeEngine::new(&pool, AdmissionController::new(), 8);
        for (t, s) in [("a", 1), ("b", 2), ("b", 4)] {
            engine.submit(job(t, s)).unwrap();
        }
        // One job spans both devices, so its run pays interconnect traffic.
        engine.submit(job("a", 3).with_devices(2)).unwrap();
        assert_eq!(engine.queued(), 4);
        let report = engine.run().unwrap();
        assert_eq!(engine.queued(), 0);
        assert_eq!(report.jobs_run(), 4);
        assert_eq!(report.jobs_rejected(), 0);
        let a = &report.tenants["a"];
        assert_eq!(a.jobs_run, 2);
        assert!(a.compute_seconds > 0.0);
        assert!(a.comm_bytes > 0, "the two-device job models comm traffic");
        assert_eq!(a.queue_waits.len(), 2);
        // Makespan beats running everything serially on the cluster clock.
        assert!(report.service.makespan() < report.service.timeline.serial_seconds());
    }

    #[test]
    fn rejections_land_in_the_ledger_not_a_panic() {
        let pool = DevicePool::unlimited(1);
        let admission = AdmissionController::new()
            .with_tenant("capped", TenantLimits::unlimited().with_max_in_flight(1));
        let mut engine = ServeEngine::new(&pool, admission, 8);
        engine.submit(job("capped", 1)).unwrap();
        assert!(engine.submit(job("capped", 2)).is_err());
        engine.submit(job("free", 3)).unwrap();
        let report = engine.run().unwrap();
        let capped = &report.tenants["capped"];
        assert_eq!((capped.jobs_run, capped.jobs_rejected), (1, 1));
        assert_eq!(capped.rejected_by_reason["too_many_in_flight"], 1);
        assert_eq!(report.tenants["free"].jobs_rejected, 0);
        // A second batch does not double-count the old rejection.
        engine.submit(job("capped", 4)).unwrap();
        let second = engine.run().unwrap();
        assert_eq!(second.tenants["capped"].jobs_rejected, 0);
    }

    #[test]
    fn rejected_only_tenants_still_get_a_ledger() {
        let pool = DevicePool::unlimited(1);
        let admission = AdmissionController::new()
            .with_tenant("blocked", TenantLimits::unlimited().with_max_in_flight(0));
        let mut engine = ServeEngine::new(&pool, admission, 4);
        assert!(engine.submit(job("blocked", 1)).is_err());
        engine.submit(job("ok", 2)).unwrap();
        let report = engine.run().unwrap();
        let blocked = &report.tenants["blocked"];
        assert_eq!((blocked.jobs_run, blocked.jobs_rejected), (0, 1));
        assert_eq!(blocked.queue_wait_p50(), 0.0);
    }

    #[test]
    fn abandoned_jobs_are_ledgered_as_retry_exhaustion() {
        use sketch_gpu_sim::{FaultPlan, FaultSpec};

        let pool = DevicePool::unlimited(1);
        pool.apply_fault_plan(&FaultPlan::healthy().with_fault(
            0,
            FaultSpec::Dies {
                after_sim_seconds: 0.0,
            },
        ));
        let admission = AdmissionController::new()
            .with_tenant("doomed", TenantLimits::unlimited().with_max_retries(0));
        let mut engine = ServeEngine::new(&pool, admission, 4);
        engine.submit(job("doomed", 1)).unwrap();
        let report = engine.run().unwrap();
        let ledger = &report.tenants["doomed"];
        assert_eq!((ledger.jobs_run, ledger.jobs_rejected), (0, 1));
        assert_eq!(ledger.rejected_by_reason["retries_exhausted"], 1);
        assert_eq!(report.service.abandoned.len(), 1);

        let metrics = MetricsRegistry::new();
        report.record_metrics(&metrics);
        assert_eq!(metrics.counter("serve.jobs_rejected"), 1);
        assert_eq!(metrics.counter("serve.retries"), 0);
    }

    #[test]
    fn an_empty_operand_fails_the_batch_with_a_typed_error() {
        let pool = DevicePool::unlimited(2);
        let mut engine = ServeEngine::new(&pool, AdmissionController::new(), 4);
        engine.submit(job("ok", 1)).unwrap();
        let empty = JobSpec::new(
            "empty",
            Pipeline::single(SketchSpec::gaussian(64, EmbeddingDim::Exact(8), 2)),
            OperandSpec::Dense {
                rows: 64,
                cols: 0,
                seed: 2,
            },
        )
        .with_devices(2);
        engine.submit(empty).unwrap();
        let err = engine.run().unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Core(sketch_core::Error::InvalidParameter { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn an_unallocatable_job_is_one_rejection_and_the_other_job_runs() {
        use crate::file::JobFile;
        use crate::queue::QueuedJob;

        let file = JobFile::from_json(
            r#"{"jobs": [
                {"tenant": "ok",
                 "pipeline": {"stages": [{"kind": "count-sketch", "input_dim": 1024,
                                          "output_dim": {"exact": 64}, "seed": 3}]},
                 "operand": {"dense": {"rows": 1024, "cols": 6, "seed": 4}}},
                {"tenant": "huge",
                 "pipeline": {"stages": [{"kind": "gaussian", "input_dim": 4000000000,
                                          "output_dim": {"exact": 16}, "seed": 1}]},
                 "operand": {"dense": {"rows": 4000000000, "cols": 3000000000, "seed": 2}}}
            ]}"#,
        )
        .unwrap();
        let pool = DevicePool::unlimited(2);
        let mut engine = ServeEngine::new(&pool, file.admission(), file.queue_capacity);
        for job in file.jobs.iter().cloned() {
            let _ = engine.submit(job);
        }
        let report = engine.run().unwrap();
        let huge = &report.tenants["huge"];
        assert_eq!((huge.jobs_run, huge.jobs_rejected), (0, 1));
        assert_eq!(huge.rejected_by_reason["size_overflow"], 1);
        assert_eq!(report.jobs_run(), 1);

        let solo = Scheduler::new()
            .run(
                &DevicePool::unlimited(1),
                &[QueuedJob {
                    job: file.jobs[0].clone(),
                    seq: 0,
                }],
            )
            .unwrap();
        let bits = |m: &sketch_la::Matrix| -> Vec<u64> {
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(&report.service.jobs[0].run.result),
            bits(&solo.jobs[0].run.result)
        );
    }

    #[test]
    fn an_invalid_spec_is_one_rejection_and_the_other_job_runs() {
        use crate::file::JobFile;
        use crate::queue::QueuedJob;

        let file = JobFile::from_json(
            r#"{"jobs": [
                {"tenant": "ok",
                 "pipeline": {"stages": [{"kind": "count-sketch", "input_dim": 1024,
                                          "output_dim": {"exact": 64}, "seed": 3}]},
                 "operand": {"dense": {"rows": 1024, "cols": 6, "seed": 4}}},
                {"tenant": "zero",
                 "pipeline": {"stages": [{"kind": "count-sketch", "input_dim": 1024,
                                          "output_dim": {"exact": 0}, "seed": 1}]},
                 "operand": {"dense": {"rows": 1024, "cols": 6, "seed": 2}}}
            ]}"#,
        )
        .unwrap();
        let pool = DevicePool::unlimited(2);
        let mut engine = ServeEngine::new(&pool, file.admission(), file.queue_capacity);
        let mut refused = Vec::new();
        for job in file.jobs.iter().cloned() {
            if let Err(e) = engine.submit(job) {
                refused.push(e);
            }
        }
        assert!(
            matches!(
                &refused[..],
                [ServeError::Rejected {
                    reason: crate::error::RejectReason::InvalidSpec { detail },
                    ..
                }] if detail.contains("output dimension 0")
            ),
            "{refused:?}"
        );
        let report = engine.run().unwrap();
        let zero = &report.tenants["zero"];
        assert_eq!((zero.jobs_run, zero.jobs_rejected), (0, 1));
        assert_eq!(zero.rejected_by_reason["invalid_spec"], 1);
        assert_eq!(report.jobs_run(), 1);

        let solo = Scheduler::new()
            .run(
                &DevicePool::unlimited(1),
                &[QueuedJob {
                    job: file.jobs[0].clone(),
                    seq: 0,
                }],
            )
            .unwrap();
        let bits = |m: &sketch_la::Matrix| -> Vec<u64> {
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(&report.service.jobs[0].run.result),
            bits(&solo.jobs[0].run.result)
        );
    }

    #[test]
    fn metrics_export_is_deterministic_and_namespaced() {
        let pool = DevicePool::unlimited(2);
        let render = || {
            let mut engine = ServeEngine::new(&pool, AdmissionController::new(), 8);
            for (t, s) in [("a", 1), ("b", 2), ("a", 3)] {
                engine.submit(job(t, s)).unwrap();
            }
            let report = engine.run().unwrap();
            let metrics = MetricsRegistry::new();
            report.record_metrics(&metrics);
            metrics.to_json().render()
        };
        let (first, second) = (render(), render());
        assert_eq!(first, second, "metrics export must be byte-deterministic");
        let doc = JsonValue::parse(&first).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("serve.jobs_run"))
                .and_then(JsonValue::as_u64),
            Some(3)
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("serve.tenant.a.jobs_run"))
                .and_then(JsonValue::as_u64),
            Some(2)
        );
        let wait = doc
            .get("histograms")
            .and_then(|h| h.get("serve.queue_wait_seconds"))
            .expect("queue-wait histogram is exported");
        assert_eq!(wait.get("count").and_then(JsonValue::as_u64), Some(3));
        let rej = doc
            .get("histograms")
            .and_then(|h| h.get("serve.tenant_rejections"))
            .expect("rejection histogram is exported");
        assert_eq!(rej.get("count").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn report_json_round_trips_and_orders_tenants() {
        let pool = DevicePool::unlimited(2);
        let mut engine = ServeEngine::new(&pool, AdmissionController::new(), 8);
        for (t, s) in [("zeta", 1), ("alpha", 2)] {
            engine.submit(job(t, s)).unwrap();
        }
        let report = engine.run().unwrap();
        let doc = report.to_json();
        match doc.get("tenants").unwrap() {
            JsonValue::Object(fields) => {
                assert_eq!(fields[0].0, "alpha");
                assert_eq!(fields[1].0, "zeta");
            }
            _ => panic!("tenants must be an object"),
        }
        assert_eq!(JsonValue::parse(&doc.render()).unwrap(), doc);
        assert!(doc
            .get("service")
            .and_then(|s| s.get("makespan_s"))
            .and_then(JsonValue::as_f64)
            .is_some());
    }

    #[test]
    fn ledger_quantiles_are_exact_nearest_rank() {
        let ledger = TenantLedger {
            queue_waits: vec![0.1, 0.2, 0.3, 0.4],
            ..Default::default()
        };
        assert_eq!(ledger.queue_wait_quantile(0.5), 0.2);
        assert_eq!(ledger.queue_wait_quantile(0.95), 0.4);
        assert_eq!(ledger.queue_wait_quantile(0.0), 0.1);
        assert_eq!(ledger.queue_wait_quantile(1.0), 0.4);
        assert_eq!(TenantLedger::default().queue_wait_p95(), 0.0);
    }
}
