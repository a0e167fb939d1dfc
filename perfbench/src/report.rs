//! The benchmark's metric names and units, and the result line it prints.
//!
//! The two lists below are the contract with `BENCHMARK.json`: a timed run
//! (`--trace 0`) reports exactly [`END_TO_END`], a traced run (`--trace 1`)
//! exactly [`PER_LAYER`], on every workload.

use sketch_obs::JsonValue;
use std::collections::BTreeMap;

/// End-to-end metrics: what a caller of the library sees.
pub const END_TO_END: [(&str, &str); 5] = [
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("modelled_ms", "ms"),
];

/// Per-layer metrics from the traced pass.  A layer the workload never calls
/// reports 0 for its counts and rates.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("trace.op_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_flags", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.events", "count"),
    ("host.cpu_per_wall", "ratio"),
    ("rayon.tasks", "count"),
    ("rayon.inline_ratio", "ratio"),
    ("sim.launches", "count"),
    ("sim.bytes", "bytes"),
    ("sim.flops", "flops"),
    ("sim.model_ratio", "ratio"),
    ("sim.model_ratio.countsketch", "ratio"),
    ("sim.model_ratio.gram", "ratio"),
    ("sim.model_ratio.geqrf", "ratio"),
    ("sim.model_ratio.spmm", "ratio"),
    ("lsq.residual_ratio", "ratio"),
    ("dist.shards", "count"),
    ("dist.comm_bytes", "bytes"),
    ("dist.timeline_ops", "count"),
    ("dist.overlap_efficiency", "ratio"),
    ("dist.sharded_host_ratio", "ratio"),
    ("core.countsketch_gbps", "GB/s"),
    ("la.gram_gflops", "GFLOP/s"),
    ("la.qr_gflops", "GFLOP/s"),
    ("sparse.spmm_gbps", "GB/s"),
    ("serve.jobs_run", "count"),
    ("serve.jobs_rejected", "count"),
    ("serve.retries", "count"),
    ("serve.utilization_mean", "ratio"),
];

/// The last line of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every checked output was right.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check or returned an error.
    pub failed: u64,
    /// `(name, unit, value)` in reporting order.
    pub metrics: Vec<(String, String, f64)>,
}

impl Outcome {
    /// Pick `names` out of `values`; a missing name is a bug in the workload.
    pub fn new(
        attempted: u64,
        failed: u64,
        names: &[(&str, &str)],
        values: &BTreeMap<String, f64>,
    ) -> Result<Self, String> {
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .get(name)
                    .copied()
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                if v.is_finite() {
                    Ok((name.to_string(), unit.to_string(), v))
                } else {
                    Err(format!("metric {name} is not finite: {v}"))
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        })
    }

    /// The result line as JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("correct".into(), JsonValue::Bool(self.correct)),
            ("attempted".into(), JsonValue::UInt(self.attempted)),
            ("failed".into(), JsonValue::UInt(self.failed)),
            (
                "metrics".into(),
                JsonValue::Object(
                    self.metrics
                        .iter()
                        .map(|(name, unit, value)| {
                            (
                                name.clone(),
                                JsonValue::Object(vec![
                                    ("value".into(), JsonValue::Float(*value)),
                                    ("unit".into(), JsonValue::Str(unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ones(names: &[(&str, &str)]) -> BTreeMap<String, f64> {
        names.iter().map(|(n, _)| (n.to_string(), 1.25)).collect()
    }

    fn round_trip(names: &[(&str, &str)]) {
        let out = Outcome::new(12, 0, names, &all_ones(names)).unwrap();
        let doc = JsonValue::parse(&out.to_json().render()).unwrap();
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(12));
        assert_eq!(doc.get("failed").and_then(JsonValue::as_u64), Some(0));
        let metrics = doc.get("metrics").unwrap();
        let JsonValue::Object(fields) = metrics else {
            panic!("metrics must be an object")
        };
        assert_eq!(fields.len(), names.len());
        for (name, unit) in names {
            let m = metrics.get(name).expect("every metric is present");
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(*unit));
            assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(1.25));
        }
    }

    #[test]
    fn result_line_round_trips_every_end_to_end_metric() {
        round_trip(&END_TO_END);
    }

    #[test]
    fn result_line_round_trips_every_per_layer_metric() {
        round_trip(&PER_LAYER);
    }

    #[test]
    fn missing_or_non_finite_metrics_are_errors() {
        let mut values = all_ones(&END_TO_END);
        values.remove("setup_s");
        assert!(Outcome::new(1, 0, &END_TO_END, &values).is_err());
        let mut values = all_ones(&END_TO_END);
        values.insert("setup_s".into(), f64::NAN);
        assert!(Outcome::new(1, 0, &END_TO_END, &values).is_err());
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let out = Outcome::new(3, 1, &END_TO_END, &all_ones(&END_TO_END)).unwrap();
        assert!(!out.correct);
    }

    /// `BENCHMARK.json` at the repository root names exactly these metrics.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = JsonValue::parse(&text).unwrap();
        for (key, names) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(JsonValue::as_str)
                            .unwrap()
                            .to_string(),
                        m.get("unit")
                            .and_then(JsonValue::as_str)
                            .unwrap()
                            .to_string(),
                    )
                })
                .collect();
            let expected: Vec<(String, String)> = names
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }
}
