//! Typed errors of the service layer.
//!
//! Admission and scheduling failures are *per-request* conditions: a tenant
//! exceeding its quota must produce a ledger entry and an error value, never a
//! panic.  [`RejectReason`] enumerates the declarative limits a job can trip;
//! [`ServeError`] wraps rejections together with the lower layers' errors
//! (pool subset validation, spec parsing, executor failures).

use sketch_gpu_sim::PoolError;

/// Why the admission controller or queue refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded job queue is full.
    QueueFull {
        /// The queue's capacity.
        capacity: usize,
    },
    /// The tenant already has its maximum number of jobs in flight.
    TooManyInFlight {
        /// The tenant's in-flight limit.
        limit: usize,
    },
    /// The job's modelled sketch output exceeds the tenant's byte budget.
    SketchBytesExceeded {
        /// Modelled bytes the job would produce.
        modelled: u64,
        /// The tenant's byte limit.
        limit: u64,
    },
    /// The job's modelled flop count exceeds the tenant's compute budget.
    FlopsExceeded {
        /// Modelled flops the job would execute.
        modelled: u64,
        /// The tenant's flop limit.
        limit: u64,
    },
    /// A size the job implies — its operand, a Gaussian operator, its modelled
    /// output or flops — overflows `u64` or exceeds `isize::MAX` bytes, so it
    /// could never be allocated or budgeted.
    SizeOverflow {
        /// Which quantity overflowed (e.g. `"operand bytes"`).
        quantity: &'static str,
    },
    /// The job's pipeline does not resolve to buildable stages against its operand
    /// — for example a stage whose output dimension is 0, or whose input dimension
    /// does not match the previous stage — so it could never run.
    InvalidSpec {
        /// What is wrong with the pipeline.
        detail: String,
    },
    /// Every execution attempt hit a dead device and the tenant's retry
    /// budget ([`TenantLimits::max_retries`](crate::TenantLimits::max_retries))
    /// is spent — or no live device is left to retry on.
    RetriesExhausted {
        /// Execution attempts that failed before the job was abandoned.
        attempts: usize,
    },
}

impl RejectReason {
    /// Stable machine-readable tag, used in ledgers and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::TooManyInFlight { .. } => "too_many_in_flight",
            RejectReason::SketchBytesExceeded { .. } => "sketch_bytes_exceeded",
            RejectReason::FlopsExceeded { .. } => "flops_exceeded",
            RejectReason::SizeOverflow { .. } => "size_overflow",
            RejectReason::InvalidSpec { .. } => "invalid_spec",
            RejectReason::RetriesExhausted { .. } => "retries_exhausted",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "job queue is full (capacity {capacity})")
            }
            RejectReason::TooManyInFlight { limit } => {
                write!(f, "tenant already has {limit} job(s) in flight")
            }
            RejectReason::SketchBytesExceeded { modelled, limit } => write!(
                f,
                "modelled sketch output of {modelled} bytes exceeds the tenant limit of {limit}"
            ),
            RejectReason::FlopsExceeded { modelled, limit } => write!(
                f,
                "modelled {modelled} flops exceed the tenant limit of {limit}"
            ),
            RejectReason::SizeOverflow { quantity } => {
                write!(f, "the job's {quantity} overflow u64 or exceed isize::MAX")
            }
            RejectReason::InvalidSpec { detail } => write!(f, "invalid pipeline: {detail}"),
            RejectReason::RetriesExhausted { attempts } => write!(
                f,
                "abandoned after {attempts} failed attempt(s) on dying devices"
            ),
        }
    }
}

/// Any failure surfaced by the service layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A job was rejected by admission control or the bounded queue.
    Rejected {
        /// The tenant whose job was refused.
        tenant: String,
        /// Why it was refused.
        reason: RejectReason,
    },
    /// A device-subset request was malformed (empty, duplicate, out of range).
    Pool(PoolError),
    /// A lower-layer error: spec resolution, operand build, executor failure.
    Core(sketch_core::Error),
    /// A job file or job spec failed to parse.
    Spec {
        /// What was wrong with the document.
        detail: String,
    },
}

impl ServeError {
    /// A spec/parse error with a human-readable detail string.
    pub fn spec(detail: impl Into<String>) -> Self {
        ServeError::Spec {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected { tenant, reason } => {
                write!(f, "job from tenant {tenant:?} rejected: {reason}")
            }
            ServeError::Pool(e) => write!(f, "device subset error: {e}"),
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::Spec { detail } => write!(f, "job spec error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PoolError> for ServeError {
    fn from(e: PoolError) -> Self {
        ServeError::Pool(e)
    }
}

impl From<sketch_core::Error> for ServeError {
    fn from(e: sketch_core::Error) -> Self {
        ServeError::Core(e)
    }
}

impl From<sketch_obs::JsonError> for ServeError {
    fn from(e: sketch_obs::JsonError) -> Self {
        ServeError::spec(e.message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_reasons_render_and_tag() {
        let r = RejectReason::SketchBytesExceeded {
            modelled: 100,
            limit: 10,
        };
        assert_eq!(r.as_str(), "sketch_bytes_exceeded");
        assert!(r.to_string().contains("100"));
        let e = ServeError::Rejected {
            tenant: "acme".into(),
            reason: r,
        };
        assert!(e.to_string().contains("acme"));
    }

    #[test]
    fn invalid_spec_renders_and_tags() {
        let r = RejectReason::InvalidSpec {
            detail: "spec for count-sketch resolves to output dimension 0".into(),
        };
        assert_eq!(r.as_str(), "invalid_spec");
        assert!(r.to_string().contains("output dimension 0"));
    }

    #[test]
    fn lower_layer_errors_convert() {
        let pool_err: ServeError = PoolError::Empty.into();
        assert!(matches!(pool_err, ServeError::Pool(PoolError::Empty)));
        let core_err: ServeError = sketch_core::Error::invalid_param("nope").into();
        assert!(core_err.to_string().contains("nope"));
    }
}
