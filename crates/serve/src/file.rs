//! The job-file format the `sketch_serve` batch driver replays.
//!
//! A job file is one JSON object:
//!
//! ```json
//! {
//!   "queue_capacity": 256,
//!   "default_limits": { "max_in_flight": 8 },
//!   "tenant_limits": {
//!     "batch-lab": { "max_modelled_flops": 100000000, "max_sketch_bytes": 4194304 }
//!   },
//!   "jobs": [ { "tenant": "...", "pipeline": {...}, "operand": {...} } ]
//! }
//! ```
//!
//! Every section except `jobs` is optional; omitted limits mean "unlimited".
//! The budgets read the job's cost statement ([`crate::admission`]); the README
//! tabulates every key.
//! Parsing is strict about types (a typed [`ServeError::Spec`] names the bad
//! field) so a malformed file fails before any job runs.

use crate::admission::{AdmissionController, TenantLimits};
use crate::error::ServeError;
use crate::job::JobSpec;
use sketch_core::JsonValue;
use std::collections::BTreeMap;

/// Default queue bound when the file does not name one.
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// A parsed job file: queue bound, admission policy, and the request stream.
#[derive(Debug, Clone)]
pub struct JobFile {
    /// Bound on the job queue.
    pub queue_capacity: usize,
    /// Default limits for tenants without an override.
    pub default_limits: TenantLimits,
    /// Per-tenant limit overrides.
    pub tenant_limits: BTreeMap<String, TenantLimits>,
    /// The request stream, in submission order.
    pub jobs: Vec<JobSpec>,
}

impl Default for JobFile {
    fn default() -> Self {
        Self {
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            default_limits: TenantLimits::unlimited(),
            tenant_limits: BTreeMap::new(),
            jobs: Vec::new(),
        }
    }
}

impl JobFile {
    /// Build the [`AdmissionController`] this file declares.
    pub fn admission(&self) -> AdmissionController {
        let mut ctl = AdmissionController::new().with_default(self.default_limits);
        for (tenant, limits) in &self.tenant_limits {
            ctl = ctl.with_tenant(tenant.clone(), *limits);
        }
        ctl
    }

    /// Serialize to a [`JsonValue`].
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "queue_capacity".into(),
                JsonValue::UInt(self.queue_capacity as u64),
            ),
            ("default_limits".into(), self.default_limits.to_json_value()),
            (
                "tenant_limits".into(),
                JsonValue::Object(
                    self.tenant_limits
                        .iter()
                        .map(|(t, l)| (t.clone(), l.to_json_value()))
                        .collect(),
                ),
            ),
            (
                "jobs".into(),
                JsonValue::Array(self.jobs.iter().map(JobSpec::to_json_value).collect()),
            ),
        ])
    }

    /// Parse from a [`JsonValue`].
    pub fn from_json_value(value: &JsonValue) -> Result<Self, ServeError> {
        let mut file = JobFile::default();
        if let Some(cap) = value.get("queue_capacity") {
            let cap = cap
                .as_usize()
                .ok_or_else(|| ServeError::spec("\"queue_capacity\" must be an integer"))?;
            if cap == 0 {
                return Err(ServeError::spec("\"queue_capacity\" must be positive"));
            }
            file.queue_capacity = cap;
        }
        if let Some(limits) = value.get("default_limits") {
            file.default_limits = TenantLimits::from_json_value(limits)?;
        }
        if let Some(overrides) = value.get("tenant_limits") {
            match overrides {
                JsonValue::Object(fields) => {
                    for (tenant, limits) in fields {
                        file.tenant_limits
                            .insert(tenant.clone(), TenantLimits::from_json_value(limits)?);
                    }
                }
                _ => return Err(ServeError::spec("\"tenant_limits\" must be an object")),
            }
        }
        let jobs = value
            .get("jobs")
            .ok_or_else(|| ServeError::spec("job file needs a \"jobs\" array"))?;
        match jobs {
            JsonValue::Array(items) => {
                for item in items {
                    file.jobs.push(JobSpec::from_json_value(item)?);
                }
            }
            _ => return Err(ServeError::spec("\"jobs\" must be an array")),
        }
        Ok(file)
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Parse from a JSON string.
    pub fn from_json(text: &str) -> Result<Self, ServeError> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::OperandSpec;
    use sketch_core::{EmbeddingDim, Pipeline, SketchSpec};

    fn sample() -> JobFile {
        let mut file = JobFile {
            queue_capacity: 8,
            ..JobFile::default()
        };
        file.default_limits = TenantLimits::unlimited().with_max_in_flight(4);
        file.tenant_limits.insert(
            "batch-lab".into(),
            TenantLimits::unlimited().with_max_modelled_flops(1 << 30),
        );
        file.jobs.push(JobSpec::new(
            "ads",
            Pipeline::single(SketchSpec::countsketch(256, EmbeddingDim::Exact(64), 3)),
            OperandSpec::Dense {
                rows: 256,
                cols: 8,
                seed: 11,
            },
        ));
        file
    }

    #[test]
    fn round_trips_through_json() {
        let file = sample();
        let parsed = JobFile::from_json(&file.to_json()).unwrap();
        assert_eq!(parsed.queue_capacity, 8);
        assert_eq!(parsed.default_limits, file.default_limits);
        assert_eq!(parsed.tenant_limits, file.tenant_limits);
        assert_eq!(parsed.jobs, file.jobs);
    }

    #[test]
    fn defaults_fill_in_when_sections_are_omitted() {
        let parsed = JobFile::from_json(r#"{"jobs": []}"#).unwrap();
        assert_eq!(parsed.queue_capacity, DEFAULT_QUEUE_CAPACITY);
        assert_eq!(parsed.default_limits, TenantLimits::unlimited());
        assert!(parsed.tenant_limits.is_empty());
        assert!(parsed.jobs.is_empty());
    }

    #[test]
    fn malformed_files_fail_with_named_fields() {
        for (text, needle) in [
            (r#"{}"#, "jobs"),
            (r#"{"jobs": 3}"#, "array"),
            (r#"{"jobs": [], "queue_capacity": 0}"#, "positive"),
            (r#"{"jobs": [], "queue_capacity": "big"}"#, "integer"),
            (r#"{"jobs": [], "tenant_limits": []}"#, "object"),
        ] {
            let err = JobFile::from_json(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text} should fail mentioning {needle}, got: {err}"
            );
        }
    }

    #[test]
    fn admission_builds_from_the_declared_policy() {
        let ctl = sample().admission();
        assert_eq!(ctl.limits_for("anyone").max_in_flight, 4);
        assert_eq!(ctl.limits_for("batch-lab").max_modelled_flops, 1 << 30);
        assert_eq!(ctl.limits_for("batch-lab").max_in_flight, usize::MAX);
    }
}
