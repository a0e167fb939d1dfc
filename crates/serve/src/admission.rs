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
//! The resource models are the job's own declarative estimates
//! ([`JobSpec::sketch_output_bytes`], [`JobSpec::modelled_flops`]): admission
//! is decided *before* any operand is materialised.  Ahead of every budget, a
//! job whose operand or Gaussian operator could not be allocated, or whose
//! modelled sizes overflow `u64`, is refused with
//! [`RejectReason::SizeOverflow`], and a job whose pipeline does not resolve
//! to buildable stages (say an output dimension of 0) with
//! [`RejectReason::InvalidSpec`] — whatever the tenant's limits.

use crate::error::{RejectReason, ServeError};
use crate::job::JobSpec;
use sketch_core::JsonValue;
use std::collections::BTreeMap;

/// A tenant's declarative resource budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLimits {
    /// Maximum jobs the tenant may have admitted-but-not-completed.
    pub max_in_flight: usize,
    /// Maximum modelled sketch output bytes per job.
    pub max_sketch_bytes: u64,
    /// Maximum modelled flops per job.
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

    /// Cap modelled sketch bytes per job.
    #[must_use]
    pub fn with_max_sketch_bytes(mut self, max_sketch_bytes: u64) -> Self {
        self.max_sketch_bytes = max_sketch_bytes;
        self
    }

    /// Cap modelled flops per job.
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
        job.check_sizes()?;
        let modelled_bytes = job.sketch_output_bytes()?;
        if modelled_bytes > limits.max_sketch_bytes {
            return Err(reject(RejectReason::SketchBytesExceeded {
                modelled: modelled_bytes,
                limit: limits.max_sketch_bytes,
            }));
        }
        let modelled_flops = job.modelled_flops()?;
        if modelled_flops > limits.max_modelled_flops {
            return Err(reject(RejectReason::FlopsExceeded {
                modelled: modelled_flops,
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
        let bytes = j.sketch_output_bytes().unwrap();
        let flops = j.modelled_flops().unwrap();
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
            huge.modelled_flops(),
            Err(ServeError::Rejected {
                reason: RejectReason::SizeOverflow {
                    quantity: "modelled flops"
                },
                ..
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
        assert!(wraps.modelled_flops().is_err());
        assert_eq!(wraps.operand.modelled_nnz(), None);
    }

    #[test]
    fn buffers_past_isize_max_are_refused_before_any_budget() {
        // d·k·8 = 2^63 fits u64 but no Vec can hold it.
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
                quantity: "gaussian operator bytes"
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
        assert!(job("t").check_sizes().is_ok());
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
