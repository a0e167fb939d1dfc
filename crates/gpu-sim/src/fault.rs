//! Declarative fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] names, per pool position, the one fault a device suffers:
//!
//! * [`FaultSpec::Dies`] — the device's modelled clocks stop at
//!   `after_sim_seconds` into a run; any kernel or collective that would
//!   complete *after* that instant fails with the typed [`DeviceFailed`]
//!   error, surfaced at launch/enqueue time.
//! * [`FaultSpec::Straggler`] — every modelled kernel time on the device is
//!   multiplied by `slowdown_factor` (a factor of exactly `1.0` is
//!   bit-identical to no fault at all — pinned by the fault proptests).
//! * [`FaultSpec::LinkDegraded`] — the device's interconnect hops are
//!   multiplied by `factor`, modelling a flaky NVLink lane.
//!
//! Faults live on the [`Device`](crate::Device) handles themselves
//! ([`crate::DevicePool::apply_fault_plan`]), so subpool views built by a
//! service scheduler observe the same injected faults as the parent pool —
//! exactly as a real flaky GPU is flaky for every job scheduled onto it.
//! Nothing here perturbs numerics: faults bend modelled *time* only, and the
//! executor's recovery (`sketch-dist`) reschedules lost shards over the
//! survivors, which hold the stage's Philox-seeded operators, so recovered
//! results stay bit-exact.
//!
//! Plans round-trip through JSON *exactly* — `f64` fields render via Rust's
//! shortest-round-trip formatting — so a chaos configuration can be checked
//! into a benchmark without drifting a single bit.

use sketch_obs::JsonValue;
use std::collections::BTreeMap;
use std::fmt;

/// The one fault injected into a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// The device dies this many simulated seconds into a run: any modelled
    /// operation completing after that instant fails with [`DeviceFailed`].
    Dies {
        /// Simulated seconds into the run at which the device stops.
        after_sim_seconds: f64,
    },
    /// Every modelled kernel on the device takes `slowdown_factor` times as
    /// long (1.0 = healthy, bit-exactly).
    Straggler {
        /// Multiplier applied to the device's modelled kernel times.
        slowdown_factor: f64,
    },
    /// Every interconnect hop charged to the device takes `factor` times as
    /// long.
    LinkDegraded {
        /// Multiplier applied to the device's modelled transfer times.
        factor: f64,
    },
}

impl FaultSpec {
    /// Multiplier for the device's modelled kernel times (1.0 unless the
    /// fault is a [`FaultSpec::Straggler`]).
    pub fn time_scale(&self) -> f64 {
        match self {
            FaultSpec::Straggler { slowdown_factor } => *slowdown_factor,
            _ => 1.0,
        }
    }

    /// Multiplier for the device's modelled interconnect hops (1.0 unless the
    /// fault is a [`FaultSpec::LinkDegraded`]).
    pub fn link_scale(&self) -> f64 {
        match self {
            FaultSpec::LinkDegraded { factor } => *factor,
            _ => 1.0,
        }
    }

    /// The simulated instant the device dies, if the fault is a
    /// [`FaultSpec::Dies`].
    pub fn death_time(&self) -> Option<f64> {
        match self {
            FaultSpec::Dies { after_sim_seconds } => Some(*after_sim_seconds),
            _ => None,
        }
    }

    /// Serialize to a tagged JSON object (`{"kind": "dies", ...}`).
    pub fn to_json_value(&self) -> JsonValue {
        let (kind, field, value) = match self {
            FaultSpec::Dies { after_sim_seconds } => {
                ("dies", "after_sim_seconds", *after_sim_seconds)
            }
            FaultSpec::Straggler { slowdown_factor } => {
                ("straggler", "slowdown_factor", *slowdown_factor)
            }
            FaultSpec::LinkDegraded { factor } => ("link_degraded", "factor", *factor),
        };
        JsonValue::Object(vec![
            ("kind".into(), JsonValue::Str(kind.into())),
            (field.into(), JsonValue::Float(value)),
        ])
    }

    /// Parse the tagged JSON object produced by [`FaultSpec::to_json_value`].
    pub fn from_json_value(value: &JsonValue) -> Result<Self, FaultParseError> {
        let kind = value
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| FaultParseError::new("fault spec needs a \"kind\" string"))?;
        let field = |name: &str| -> Result<f64, FaultParseError> {
            value.get(name).and_then(JsonValue::as_f64).ok_or_else(|| {
                FaultParseError::new(format!("fault kind {kind:?} needs a number field {name:?}"))
            })
        };
        match kind {
            "dies" => Ok(FaultSpec::Dies {
                after_sim_seconds: field("after_sim_seconds")?,
            }),
            "straggler" => Ok(FaultSpec::Straggler {
                slowdown_factor: field("slowdown_factor")?,
            }),
            "link_degraded" => Ok(FaultSpec::LinkDegraded {
                factor: field("factor")?,
            }),
            other => Err(FaultParseError::new(format!(
                "unknown fault kind {other:?} (expected dies, straggler, or link_degraded)"
            ))),
        }
    }
}

/// A per-device fault assignment, keyed by pool position.
///
/// The plan is *total* over the pool it is applied to: positions it does not
/// name are explicitly healthy, and
/// [`DevicePool::apply_fault_plan`](crate::DevicePool::apply_fault_plan)
/// clears any previously injected fault on them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, FaultSpec>,
}

impl FaultPlan {
    /// The empty plan: every device healthy.
    pub fn healthy() -> Self {
        Self::default()
    }

    /// Add (or replace) the fault of the device at pool position `device`.
    #[must_use]
    pub fn with_fault(mut self, device: usize, fault: FaultSpec) -> Self {
        self.faults.insert(device, fault);
        self
    }

    /// The fault injected at pool position `device`, if any.
    pub fn get(&self, device: usize) -> Option<FaultSpec> {
        self.faults.get(&device).copied()
    }

    /// Number of faulted devices in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects no fault at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Faulted positions and their specs, in ascending pool position order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, FaultSpec)> + '_ {
        self.faults.iter().map(|(&d, &s)| (d, s))
    }

    /// Serialize to a JSON object keyed by decimal pool position.
    ///
    /// The rendering is *exact*: finite `f64` fields use shortest-round-trip
    /// formatting, so `FaultPlan::from_json(plan.to_json().render())`
    /// reproduces the plan bit for bit (pinned by the gpu-sim proptests).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.faults
                .iter()
                .map(|(d, s)| (d.to_string(), s.to_json_value()))
                .collect(),
        )
    }

    /// Parse a JSON document produced by [`FaultPlan::to_json`].
    pub fn from_json(input: &str) -> Result<Self, FaultParseError> {
        let doc = JsonValue::parse(input).map_err(|e| FaultParseError::new(e.message()))?;
        Self::from_json_value(&doc)
    }

    /// Parse the object form produced by [`FaultPlan::to_json`].
    pub fn from_json_value(value: &JsonValue) -> Result<Self, FaultParseError> {
        let JsonValue::Object(fields) = value else {
            return Err(FaultParseError::new(
                "fault plan must be an object keyed by device position",
            ));
        };
        let mut faults = BTreeMap::new();
        for (key, spec) in fields {
            let device: usize = key.parse().map_err(|_| {
                FaultParseError::new(format!("fault plan key {key:?} is not a device position"))
            })?;
            faults.insert(device, FaultSpec::from_json_value(spec)?);
        }
        Ok(Self { faults })
    }
}

/// A `FaultPlan` or `FaultSpec` document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    detail: String,
}

impl FaultParseError {
    fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }

    /// What was wrong with the document.
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan parse error: {}", self.detail)
    }
}

impl std::error::Error for FaultParseError {}

/// The typed device-death error: a modelled operation would complete after
/// the device's injected [`FaultSpec::Dies`] instant.
///
/// Carries the *physical* ordinal of the dead device (its position in the
/// parent pool, which subpool views preserve) and the simulated instant it
/// died, so a scheduler can retire exactly the right device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceFailed {
    /// Physical ordinal of the device that died.
    pub ordinal: usize,
    /// Simulated seconds into the run at which it died.
    pub after_sim_seconds: f64,
}

impl fmt::Display for DeviceFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {} died {:.6}s into the simulated run",
            self.ordinal, self.after_sim_seconds
        )
    }
}

impl std::error::Error for DeviceFailed {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_scales_default_to_healthy() {
        let dies = FaultSpec::Dies {
            after_sim_seconds: 0.25,
        };
        assert_eq!(dies.time_scale(), 1.0);
        assert_eq!(dies.link_scale(), 1.0);
        assert_eq!(dies.death_time(), Some(0.25));
        let slow = FaultSpec::Straggler {
            slowdown_factor: 4.0,
        };
        assert_eq!(slow.time_scale(), 4.0);
        assert_eq!(slow.link_scale(), 1.0);
        assert_eq!(slow.death_time(), None);
        let link = FaultSpec::LinkDegraded { factor: 8.0 };
        assert_eq!(link.time_scale(), 1.0);
        assert_eq!(link.link_scale(), 8.0);
        assert_eq!(link.death_time(), None);
    }

    #[test]
    fn plan_builders_and_queries() {
        let plan = FaultPlan::healthy()
            .with_fault(
                2,
                FaultSpec::Dies {
                    after_sim_seconds: 1.0,
                },
            )
            .with_fault(
                0,
                FaultSpec::Straggler {
                    slowdown_factor: 2.0,
                },
            );
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert!(FaultPlan::healthy().is_empty());
        assert_eq!(plan.get(1), None);
        assert_eq!(plan.get(2).unwrap().death_time(), Some(1.0));
        let positions: Vec<usize> = plan.iter().map(|(d, _)| d).collect();
        assert_eq!(positions, vec![0, 2], "iteration is position-ordered");
    }

    #[test]
    fn plan_json_round_trips() {
        let plan = FaultPlan::healthy()
            .with_fault(
                1,
                FaultSpec::Dies {
                    after_sim_seconds: 0.125,
                },
            )
            .with_fault(3, FaultSpec::LinkDegraded { factor: 2.5 });
        let rendered = plan.to_json().render();
        let parsed = FaultPlan::from_json(&rendered).unwrap();
        assert_eq!(parsed, plan);
        // And the rendering itself is stable.
        assert_eq!(parsed.to_json().render(), rendered);
    }

    #[test]
    fn malformed_plans_are_typed_errors() {
        assert!(FaultPlan::from_json("[1, 2]").is_err());
        assert!(
            FaultPlan::from_json("{\"x\": {\"kind\": \"dies\", \"after_sim_seconds\": 1}}")
                .is_err()
        );
        assert!(FaultPlan::from_json("{\"0\": {\"kind\": \"melts\"}}").is_err());
        assert!(FaultPlan::from_json("{\"0\": {\"kind\": \"dies\"}}").is_err());
        assert!(FaultPlan::from_json("not json").is_err());
        let err = FaultPlan::from_json("{\"0\": {\"kind\": \"melts\"}}").unwrap_err();
        assert!(err.to_string().contains("melts"), "{err}");
        assert!(err.detail().contains("unknown fault kind"));
    }

    #[test]
    fn integer_fault_times_parse_as_floats() {
        let plan = FaultPlan::from_json("{\"0\": {\"kind\": \"dies\", \"after_sim_seconds\": 2}}")
            .unwrap();
        assert_eq!(plan.get(0).unwrap().death_time(), Some(2.0));
    }

    #[test]
    fn device_failed_renders() {
        let e = DeviceFailed {
            ordinal: 3,
            after_sim_seconds: 0.5,
        };
        assert!(e.to_string().contains("device 3"));
        assert!(e.to_string().contains("0.5"));
    }
}
