//! Declarative per-tenant admission control.
//!
//! A [`TenantLimits`] names the three budgets a tenant's jobs are admitted
//! against — in-flight jobs, modelled sketch bytes, modelled flops — with
//! "unlimited" as the default for each.  The [`AdmissionController`] holds a
//! default policy plus per-tenant overrides (both parse from the job file),
//! and [`AdmissionController::admit`] answers with a typed
//! [`RejectReason`] — never a panic — so the service
//! turns quota violations into ledger entries.
//!
//! Admission states each job once, before any operand is materialised: its
//! pipeline's [`Pipeline::costs`](sketch_core::Pipeline::costs) at the
//! operand's [`shape`](crate::OperandSpec::shape), the statement the kernels
//! record.  The flop budget reads its apply flops plus its generation flops
//! once per device the job asks for (the executor charges every live device
//! past the first a replica of each stage's operator), which is what a pool
//! of that many devices records for a dense job and bounds it for a CSR job or
//! a smaller pool; the byte budget reads the bytes the job holds on its device beyond the operand
//! ([`SketchCosts::held_bytes`](sketch_core::SketchCosts::held_bytes)).  Ahead
//! of every budget, whatever the tenant's limits, a job whose operand or held
//! bytes pass `isize::MAX`, or whose statement overflows `u64`, is refused with
//! [`RejectReason::SizeOverflow`], and a job the executor's
//! [`preflight`](sketch_dist::preflight) refuses (an empty operand, an operand
//! whose rows are not the first stage's input dimension, a pipeline that does
//! not resolve to buildable stages) with [`RejectReason::InvalidSpec`].

use crate::error::{RejectReason, ServeError};
use crate::job::JobSpec;
use sketch_core::JsonValue;
use std::collections::BTreeMap;

/// A tenant's declarative resource budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLimits {
    /// Maximum jobs the tenant may have admitted-but-not-completed.
    pub max_in_flight: usize,
    /// Maximum bytes a job may hold on its device beyond the operand: its
    /// stored operators, its apply's peak reservation and its `k x n` result.
    pub max_sketch_bytes: u64,
    /// Maximum flops a job may state: its pipeline's apply plus its generation
    /// once per device the job asks for.
    pub max_modelled_flops: u64,
    /// Maximum *retries* after a job's first execution attempt dies with a
    /// device failure: `0` abandons on the first failure, the default
    /// `usize::MAX` retries as long as live devices remain.
    pub max_retries: usize,
}

impl TenantLimits {
    /// No limits at all (the default policy).
    pub const fn unlimited() -> Self {
        Self {
            max_in_flight: usize::MAX,
            max_sketch_bytes: u64::MAX,
            max_modelled_flops: u64::MAX,
            max_retries: usize::MAX,
        }
    }

    /// Cap in-flight jobs.
    #[must_use]
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Cap the bytes a job may hold beyond its operand.
    #[must_use]
    pub fn with_max_sketch_bytes(mut self, max_sketch_bytes: u64) -> Self {
        self.max_sketch_bytes = max_sketch_bytes;
        self
    }

    /// Cap the flops a job may state.
    #[must_use]
    pub fn with_max_modelled_flops(mut self, max_modelled_flops: u64) -> Self {
        self.max_modelled_flops = max_modelled_flops;
        self
    }

    /// Cap retries after a device-failure attempt (`0` = fail fast).
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Serialize to a [`JsonValue`] (omitted fields mean "unlimited").
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = Vec::new();
        if self.max_in_flight != usize::MAX {
            fields.push((
                "max_in_flight".into(),
                JsonValue::UInt(self.max_in_flight as u64),
            ));
        }
        if self.max_sketch_bytes != u64::MAX {
            fields.push((
                "max_sketch_bytes".into(),
                JsonValue::UInt(self.max_sketch_bytes),
            ));
        }
        if self.max_modelled_flops != u64::MAX {
            fields.push((
                "max_modelled_flops".into(),
                JsonValue::UInt(self.max_modelled_flops),
            ));
        }
        if self.max_retries != usize::MAX {
            fields.push((
                "max_retries".into(),
                JsonValue::UInt(self.max_retries as u64),
            ));
        }
        JsonValue::Object(fields)
    }

    /// Parse from a [`JsonValue`]; every field is optional.
    pub fn from_json_value(value: &JsonValue) -> Result<Self, ServeError> {
        let mut limits = Self::unlimited();
        let get = |key: &str| -> Result<Option<u64>, ServeError> {
            match value.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| ServeError::spec(format!("\"{key}\" must be an integer"))),
            }
        };
        if let Some(v) = get("max_in_flight")? {
            limits.max_in_flight = v as usize;
        }
        if let Some(v) = get("max_sketch_bytes")? {
            limits.max_sketch_bytes = v;
        }
        if let Some(v) = get("max_modelled_flops")? {
            limits.max_modelled_flops = v;
        }
        if let Some(v) = get("max_retries")? {
            limits.max_retries = v as usize;
        }
        Ok(limits)
    }
}

impl Default for TenantLimits {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// The admission policy: a default [`TenantLimits`] plus per-tenant overrides.
#[derive(Debug, Clone, Default)]
pub struct AdmissionController {
    default: TenantLimits,
    per_tenant: BTreeMap<String, TenantLimits>,
}

impl AdmissionController {
    /// A controller admitting everything (unlimited default, no overrides).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the default policy applied to tenants without an override.
    #[must_use]
    pub fn with_default(mut self, default: TenantLimits) -> Self {
        self.default = default;
        self
    }

    /// Override the policy for one tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>, limits: TenantLimits) -> Self {
        self.per_tenant.insert(tenant.into(), limits);
        self
    }

    /// The limits in force for `tenant`.
    pub fn limits_for(&self, tenant: &str) -> TenantLimits {
        self.per_tenant.get(tenant).copied().unwrap_or(self.default)
    }

    /// Decide whether `job` may enter the queue, given how many of the
    /// tenant's jobs are already in flight (admitted but not completed).
    ///
    /// Returns the limits that were checked on success, and a typed
    /// [`ServeError::Rejected`] naming the first violated budget otherwise.
    pub fn admit(
        &self,
        job: &JobSpec,
        tenant_in_flight: usize,
    ) -> Result<TenantLimits, ServeError> {
        let limits = self.limits_for(&job.tenant);
        let reject = |reason: RejectReason| ServeError::Rejected {
            tenant: job.tenant.clone(),
            reason,
        };
        if tenant_in_flight >= limits.max_in_flight {
            return Err(reject(RejectReason::TooManyInFlight {
                limit: limits.max_in_flight,
            }));
        }
        let stated = job.costs()?;
        if stated.held_bytes > limits.max_sketch_bytes {
            return Err(reject(RejectReason::SketchBytesExceeded {
                modelled: stated.held_bytes,
                limit: limits.max_sketch_bytes,
            }));
        }
        if stated.flops > limits.max_modelled_flops {
            return Err(reject(RejectReason::FlopsExceeded {
                modelled: stated.flops,
                limit: limits.max_modelled_flops,
            }));
        }
        Ok(limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::OperandSpec;
    use sketch_core::{EmbeddingDim, Pipeline, SketchSpec};

    fn job(tenant: &str) -> JobSpec {
        JobSpec::new(
            tenant,
            Pipeline::single(SketchSpec::countsketch(512, EmbeddingDim::Square(2), 7)),
            OperandSpec::Dense {
                rows: 512,
                cols: 6,
                seed: 42,
            },
        )
    }

    #[test]
    fn unlimited_default_admits_everything() {
        let ctl = AdmissionController::new();
        assert!(ctl.admit(&job("anyone"), 1_000_000).is_ok());
    }

    #[test]
    fn in_flight_limit_rejects_typed() {
        let ctl = AdmissionController::new()
            .with_default(TenantLimits::unlimited().with_max_in_flight(2));
        assert!(ctl.admit(&job("t"), 1).is_ok());
        match ctl.admit(&job("t"), 2).unwrap_err() {
            ServeError::Rejected { reason, .. } => {
                assert_eq!(reason, RejectReason::TooManyInFlight { limit: 2 });
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn byte_and_flop_budgets_reject_typed() {
        let j = job("t");
        let stated = j.costs().unwrap();
        let (bytes, flops) = (stated.held_bytes, stated.flops);
        let ctl = AdmissionController::new().with_tenant(
            "t",
            TenantLimits::unlimited().with_max_sketch_bytes(bytes - 1),
        );
        assert_eq!(
            match ctl.admit(&j, 0).unwrap_err() {
                ServeError::Rejected { reason, .. } => reason.as_str(),
                _ => panic!(),
            },
            "sketch_bytes_exceeded"
        );
        let ctl = AdmissionController::new().with_tenant(
            "t",
            TenantLimits::unlimited().with_max_modelled_flops(flops - 1),
        );
        assert_eq!(
            match ctl.admit(&j, 0).unwrap_err() {
                ServeError::Rejected { reason, .. } => reason.as_str(),
                _ => panic!(),
            },
            "flops_exceeded"
        );
        // Exactly at the budget is admitted.
        let ctl = AdmissionController::new().with_tenant(
            "t",
            TenantLimits::unlimited()
                .with_max_sketch_bytes(bytes)
                .with_max_modelled_flops(flops),
        );
        assert!(ctl.admit(&j, 0).is_ok());
    }

    fn size_reason(result: Result<TenantLimits, ServeError>) -> RejectReason {
        match result.unwrap_err() {
            ServeError::Rejected { reason, .. } => reason,
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn overflowing_shapes_are_typed_rejections_not_wraps_or_panics() {
        // A 4e9 x 3e9 dense operand under default (unlimited) limits: its bytes
        // and the Gaussian stage's 2·d·k·n both overflow u64.
        let huge = JobSpec::new(
            "t",
            Pipeline::single(SketchSpec::gaussian(
                4_000_000_000,
                EmbeddingDim::Exact(16),
                1,
            )),
            OperandSpec::Dense {
                rows: 4_000_000_000,
                cols: 3_000_000_000,
                seed: 1,
            },
        );
        assert_eq!(
            size_reason(AdmissionController::new().admit(&huge, 0)),
            RejectReason::SizeOverflow {
                quantity: "operand bytes"
            }
        );
        assert!(matches!(
            huge.pipeline.costs(huge.operand.shape()),
            Err(sketch_core::Error::SizeOverflow {
                quantity: "cost statement"
            })
        ));

        // A 2^32 x 2^32 operand with d = 2^32: 2·d·k·n = 2^69 used to wrap to 0
        // and pass a 1000-flop budget.
        let wraps = JobSpec::new(
            "t",
            Pipeline::single(SketchSpec::gaussian(1 << 32, EmbeddingDim::Exact(16), 1)),
            OperandSpec::Dense {
                rows: 1 << 32,
                cols: 1 << 32,
                seed: 1,
            },
        );
        let ctl = AdmissionController::new()
            .with_tenant("t", TenantLimits::unlimited().with_max_modelled_flops(1000));
        assert_eq!(size_reason(ctl.admit(&wraps, 0)).as_str(), "size_overflow");
        assert!(wraps.pipeline.costs(wraps.operand.shape()).is_err());
        assert_eq!(wraps.operand.modelled_bytes(), None);
    }

    #[test]
    fn buffers_past_isize_max_are_refused_before_any_budget() {
        // d·k·8 = 2^63 fits u64 but no Vec can hold it, and the GEMM's reads
        // overflow u64.
        let operator = JobSpec::new(
            "t",
            Pipeline::single(SketchSpec::gaussian(1 << 60, EmbeddingDim::Exact(1), 1)),
            OperandSpec::Dense {
                rows: 64,
                cols: 4,
                seed: 1,
            },
        );
        assert_eq!(
            size_reason(AdmissionController::new().admit(&operator, 0)),
            RejectReason::SizeOverflow {
                quantity: "cost statement"
            }
        );
        // A sparse operand whose assembly triples overflow.
        let sparse = JobSpec::new(
            "t",
            Pipeline::single(SketchSpec::countsketch(64, EmbeddingDim::Exact(8), 1)),
            OperandSpec::Csr {
                rows: 64,
                cols: 4,
                nnz_target: usize::MAX / 16,
                seed: 1,
            },
        );
        assert_eq!(
            size_reason(AdmissionController::new().admit(&sparse, 0)),
            RejectReason::SizeOverflow {
                quantity: "operand bytes"
            }
        );
        // An embedding rule c·n² that overflows usize.
        let rule = JobSpec::new(
            "t",
            Pipeline::single(SketchSpec::countsketch(64, EmbeddingDim::Square(2), 1)),
            OperandSpec::Csr {
                rows: 64,
                cols: 1 << 32,
                nnz_target: 8,
                seed: 1,
            },
        );
        assert_eq!(
            size_reason(AdmissionController::new().admit(&rule, 0)),
            RejectReason::SizeOverflow {
                quantity: "embedding dimension"
            }
        );
        // Ordinary jobs pass the size check untouched.
        assert!(job("t").costs().is_ok());
    }

    #[test]
    fn held_bytes_past_isize_max_are_refused_whatever_the_kind() {
        // Each statement fits u64, but the stored k x d Gaussian (2^63 bytes) or
        // the hash CountSketch's 2^60 x 1 result (2^63 bytes) cannot be held.
        for pipeline in [
            Pipeline::single(SketchSpec::gaussian(
                1 << 20,
                EmbeddingDim::Exact(1 << 40),
                1,
            )),
            Pipeline::single(SketchSpec::hash_countsketch(
                1 << 20,
                EmbeddingDim::Exact(1 << 60),
                1,
            )),
        ] {
            let operand = OperandSpec::Dense {
                rows: 1 << 20,
                cols: 1,
                seed: 1,
            };
            let held = JobSpec::new("t", pipeline, operand);
            assert!(held.pipeline.costs(held.operand.shape()).is_ok());
            assert_eq!(
                size_reason(AdmissionController::new().admit(&held, 0)),
                RejectReason::SizeOverflow {
                    quantity: "held bytes"
                }
            );
        }
    }

    /// Admission prices a job with what the engine records: on each of the five
    /// plans the `serve_mixed` benchmark cycles through, a dense 2^14 x 8 job
    /// asking for 1, 2 or 4 devices states exactly the flops its solo run on a
    /// pool of that many records (each further device a replica of the
    /// generation), and a CSR job, stated at its draws, bounds them from above
    /// on a pool of one.  (On more devices a CSR column stage also pays the
    /// executor's panel cut, one flop per non-zero on every device, which no
    /// statement holds.)
    #[test]
    fn stated_flops_are_what_a_solo_run_records_on_pools_of_1_2_and_4() {
        use crate::queue::QueuedJob;
        use crate::scheduler::Scheduler;
        use sketch_gpu_sim::DevicePool;

        let (d, n) = (1usize << 14, 8usize);
        let (square, ratio) = (EmbeddingDim::Square(2), EmbeddingDim::Ratio(2));
        let plans = [
            Pipeline::single(SketchSpec::countsketch(d, square, 1)),
            Pipeline::count_gauss(d, square, ratio, 2),
            Pipeline::single(SketchSpec::gaussian(d, ratio, 3)),
            Pipeline::single(SketchSpec::srht(d, ratio, 4)),
            Pipeline::single(SketchSpec::hash_countsketch(d, square, 5)),
        ];
        for plan in plans {
            for csr in [false, true] {
                let operand = match csr {
                    false => OperandSpec::Dense {
                        rows: d,
                        cols: n,
                        seed: 6,
                    },
                    true => OperandSpec::Csr {
                        rows: d,
                        cols: n,
                        nnz_target: d * n / 16,
                        seed: 7,
                    },
                };
                let pools: &[usize] = if csr { &[1] } else { &[1, 2, 4] };
                for &devices in pools {
                    let job =
                        JobSpec::new("t", plan.clone(), operand.clone()).with_devices(devices);
                    let stated = job.costs().unwrap().flops;
                    let pool = DevicePool::h100(devices);
                    Scheduler::new()
                        .run(&pool, &[QueuedJob { job, seq: 0 }])
                        .unwrap();
                    let recorded = pool.total_cost().flops;
                    let ctx = format!("{plan:?} on {devices} devices");
                    if csr {
                        assert!(stated >= recorded, "{ctx}: {stated} < {recorded}");
                    } else {
                        assert_eq!(stated, recorded, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn overrides_only_touch_their_tenant() {
        let ctl = AdmissionController::new()
            .with_tenant("capped", TenantLimits::unlimited().with_max_in_flight(0));
        assert!(ctl.admit(&job("capped"), 0).is_err());
        assert!(ctl.admit(&job("free"), 0).is_ok());
        assert_eq!(ctl.limits_for("capped").max_in_flight, 0);
        assert_eq!(ctl.limits_for("free"), TenantLimits::unlimited());
    }

    #[test]
    fn limits_round_trip_through_json() {
        let limits = TenantLimits::unlimited()
            .with_max_in_flight(4)
            .with_max_sketch_bytes(1 << 20)
            .with_max_retries(2);
        let parsed = TenantLimits::from_json_value(&limits.to_json_value()).unwrap();
        assert_eq!(parsed, limits);
        // Empty object means unlimited.
        let parsed = TenantLimits::from_json_value(&JsonValue::Object(Vec::new())).unwrap();
        assert_eq!(parsed, TenantLimits::unlimited());
        assert!(TenantLimits::from_json_value(
            &JsonValue::parse(r#"{"max_in_flight": "lots"}"#).unwrap()
        )
        .is_err());
    }
}
