//! The one workspace error type.
//!
//! Every layer built on the sketching substrate — the operators themselves, the least
//! squares solvers (`sketch-lsq`), the low-rank pipeline (`sketch-lowrank`) and the
//! pipelined executor (`sketch-dist`) — used to carry its own error enum with its own
//! copy of the dimension-mismatch variant.  They now all re-export this [`Error`]:
//! one `?` works across the whole workspace, and a dimension mismatch always says
//! *which* operator rejected *what* operand.

use sketch_gpu_sim::MemoryError;
use sketch_la::LaError;
use std::fmt;

/// Backwards-compatible name used throughout the sketching layer.
pub type SketchError = Error;

/// The workspace-wide error type.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The operand's dimensions do not match what the operator or routine expects.
    DimensionMismatch {
        /// The operator ([`SketchOperator::name`](crate::SketchOperator::name)) or
        /// routine that rejected the operand.
        op: String,
        /// Input dimension the operator expects.
        expected: usize,
        /// Leading dimension the operand actually has.
        found: usize,
        /// Shape description of the rejected operand (e.g. `"dense 4096x8"`).
        operand: String,
    },
    /// The operation would not fit in modelled device memory.
    ///
    /// This is the typed equivalent of the blank Gaussian bars in Figures 2 and 5
    /// ("the GPU ran out of memory").
    WouldExceedMemory(MemoryError),
    /// An underlying dense linear algebra routine failed.
    ///
    /// The most important instance: the Cholesky factorisation of the Gram matrix
    /// failing for ill-conditioned problems, which is how the normal equations break
    /// down in Figure 8.
    La(LaError),
    /// A routine was configured with an invalid parameter (e.g. zero output
    /// dimension, a malformed [`SketchSpec`](crate::SketchSpec), or an unparsable
    /// spec document).
    InvalidParameter {
        /// Description of the offending parameter.
        detail: String,
    },
    /// A least squares problem's dimensions are unusable (e.g. fewer rows than
    /// columns).
    BadProblem {
        /// Description of what is wrong.
        detail: String,
    },
    /// The host refused to allocate a buffer the operation needs (e.g. a
    /// Gaussian operator's `k x d` matrix): the typed form of what would
    /// otherwise abort the process.
    HostAllocationFailed {
        /// Bytes of the refused allocation.
        bytes: u64,
    },
    /// A size stated from a shape overflows `u64` (a cost statement at a shape
    /// no host could hold): the typed form of a wrapped or panicking count.
    SizeOverflow {
        /// What overflowed (e.g. `"cost statement"`).
        quantity: &'static str,
    },
    /// A simulated device died mid-run (an injected
    /// [`FaultSpec::Dies`](sketch_gpu_sim::FaultSpec::Dies) fault fired) and
    /// the executor could not — or was not asked to — recover around it.
    ///
    /// The pipelined executor normally absorbs these by rescheduling the dead
    /// device's shards on the survivors; the error escapes only when every
    /// device in the pool is dead.
    DeviceFailed {
        /// Physical ordinal of the device that died.
        ordinal: usize,
        /// Simulated seconds into the run at which it died.
        after_sim_seconds: f64,
    },
}

impl Error {
    /// Construct a dimension mismatch carrying the offending operator's name and the
    /// operand's shape, so a failing pipeline says which sketch rejected what.
    pub fn dimension_mismatch(
        op: impl Into<String>,
        expected: usize,
        found: usize,
        operand: impl Into<String>,
    ) -> Self {
        Error::DimensionMismatch {
            op: op.into(),
            expected,
            found,
            operand: operand.into(),
        }
    }

    /// Construct an invalid-parameter error.
    pub fn invalid_param(detail: impl Into<String>) -> Self {
        Error::InvalidParameter {
            detail: detail.into(),
        }
    }

    /// Construct a bad-problem error.
    pub fn bad_problem(detail: impl Into<String>) -> Self {
        Error::BadProblem {
            detail: detail.into(),
        }
    }

    /// Whether this error is the normal-equations instability signature: the Gram
    /// matrix lost positive definiteness.
    pub fn is_gram_breakdown(&self) -> bool {
        matches!(self, Error::La(LaError::NotPositiveDefinite { .. }))
    }

    /// Whether this error is a modelled device out-of-memory failure.
    pub fn is_out_of_memory(&self) -> bool {
        matches!(self, Error::WouldExceedMemory(_))
    }

    /// Whether this error is a dimension mismatch (of any operator or routine).
    pub fn is_dimension_mismatch(&self) -> bool {
        matches!(self, Error::DimensionMismatch { .. })
    }

    /// Construct a device-failure error.
    pub fn device_failed(ordinal: usize, after_sim_seconds: f64) -> Self {
        Error::DeviceFailed {
            ordinal,
            after_sim_seconds,
        }
    }

    /// Whether this error is a simulated device death (the retryable fault the
    /// serve layer requeues jobs on).
    pub fn is_device_failure(&self) -> bool {
        matches!(self, Error::DeviceFailed { .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch {
                op,
                expected,
                found,
                operand,
            } => write!(
                f,
                "{op}: dimension mismatch — expected {expected}, found {found} ({operand})"
            ),
            Error::WouldExceedMemory(e) => write!(f, "would exceed device memory: {e}"),
            Error::La(e) => write!(f, "linear algebra failure: {e}"),
            Error::InvalidParameter { detail } => write!(f, "invalid parameter: {detail}"),
            Error::BadProblem { detail } => write!(f, "unusable problem: {detail}"),
            Error::HostAllocationFailed { bytes } => {
                write!(f, "the host refused to allocate {bytes} bytes")
            }
            Error::SizeOverflow { quantity } => write!(f, "the {quantity} overflows u64"),
            Error::DeviceFailed {
                ordinal,
                after_sim_seconds,
            } => write!(
                f,
                "device {ordinal} died {after_sim_seconds:.6}s into the simulated run"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::WouldExceedMemory(e) => Some(e),
            Error::La(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LaError> for Error {
    fn from(e: LaError) -> Self {
        Error::La(e)
    }
}

impl From<MemoryError> for Error {
    fn from(e: MemoryError) -> Self {
        Error::WouldExceedMemory(e)
    }
}

impl From<sketch_obs::JsonError> for Error {
    fn from(e: sketch_obs::JsonError) -> Self {
        Error::invalid_param(e.message())
    }
}

impl From<sketch_gpu_sim::DeviceFailed> for Error {
    fn from(e: sketch_gpu_sim::DeviceFailed) -> Self {
        Error::DeviceFailed {
            ordinal: e.ordinal,
            after_sim_seconds: e.after_sim_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let e = Error::dimension_mismatch("CountSketch (Alg 2)", 10, 5, "dense 5x3");
        let msg = e.to_string();
        assert!(msg.contains("CountSketch (Alg 2)"));
        assert!(msg.contains("10"));
        assert!(msg.contains("dense 5x3"));
        assert!(e.is_dimension_mismatch());

        let e: Error = MemoryError {
            requested: 1,
            in_use: 2,
            capacity: 3,
        }
        .into();
        assert!(e.to_string().contains("device memory"));
        assert!(e.is_out_of_memory());

        let e: Error = LaError::SingularTriangular { index: 0 }.into();
        assert!(e.to_string().contains("linear algebra"));

        let e = Error::invalid_param("k must be positive");
        assert!(e.to_string().contains("k must be positive"));

        let e = Error::bad_problem("d < n");
        assert!(e.to_string().contains("d < n"));

        let e = Error::SizeOverflow {
            quantity: "cost statement",
        };
        assert!(e.to_string().contains("cost statement overflows u64"));

        let e: Error = sketch_gpu_sim::DeviceFailed {
            ordinal: 3,
            after_sim_seconds: 0.25,
        }
        .into();
        assert!(e.to_string().contains("device 3"));
        assert!(e.is_device_failure());
        assert!(!e.is_out_of_memory());
        assert_eq!(e, Error::device_failed(3, 0.25));
    }

    #[test]
    fn predicates_identify_the_figure8_breakdown() {
        let e: Error = LaError::NotPositiveDefinite {
            column: 2,
            pivot: -1e-3,
        }
        .into();
        assert!(e.is_gram_breakdown());
        assert!(!e.is_out_of_memory());
        assert!(!Error::invalid_param("x").is_gram_breakdown());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::invalid_param("x"), Error::invalid_param("x"));
        assert_ne!(Error::invalid_param("x"), Error::invalid_param("y"));
    }
}
