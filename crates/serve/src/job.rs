//! Job descriptions: what a tenant asks the service to run.
//!
//! A [`JobSpec`] is fully declarative — tenant identity, urgency, a
//! [`Pipeline`] payload and an [`OperandSpec`] describing the input matrix by
//! its random recipe — and round-trips through JSON, so a job file replays
//! bit-identically anywhere.
//!
//! ## Tenant seed namespaces
//!
//! Every random ingredient in the workspace is a pure function of a Philox
//! seed, and independent ingredients *salt* the seed (XOR with a distinct
//! constant — see ARCHITECTURE.md, "Seed-salting contract").  The service
//! extends that contract to tenants: [`JobSpec::salted_pipeline`] XORs a
//! 64-bit FNV-1a hash of the tenant id into every stage seed.  Because XOR is
//! its own inverse and commutes with the existing stage salts, two tenants
//! submitting the *same* pipeline draw disjoint random streams, while one
//! tenant's job is bit-identical whether it runs alone or co-scheduled — the
//! executor's determinism does the rest.

use crate::error::{RejectReason, ServeError};
use sketch_core::{JsonValue, Pipeline, SketchKind, SketchSpec};
use sketch_la::{Layout, Matrix};
use sketch_rng::fill;
use sketch_sparse::{CooMatrix, CsrMatrix};

/// Largest buffer, in bytes, a job may ask for: `Vec` panics past `isize::MAX`.
const MAX_ALLOC_BYTES: u64 = isize::MAX as u64;

/// 64-bit FNV-1a hash of a tenant id: the tenant's Philox seed-namespace salt.
///
/// FNV-1a keeps the salt a pure, dependency-free function of the id bytes, so
/// job files stay portable (no hasher state, no platform variance).
pub fn tenant_salt(tenant: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in tenant.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How urgently a job needs to run, ordered within a tenant ahead of priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeadlineClass {
    /// Latency-sensitive: scheduled before everything else the tenant queued.
    Interactive,
    /// The default service class.
    #[default]
    Standard,
    /// Throughput work: runs when nothing more urgent is queued.
    Batch,
}

impl DeadlineClass {
    /// Scheduling rank — lower runs first.
    pub fn rank(&self) -> u8 {
        match self {
            DeadlineClass::Interactive => 0,
            DeadlineClass::Standard => 1,
            DeadlineClass::Batch => 2,
        }
    }

    /// Stable string form used in JSON job files.
    pub fn as_str(&self) -> &'static str {
        match self {
            DeadlineClass::Interactive => "interactive",
            DeadlineClass::Standard => "standard",
            DeadlineClass::Batch => "batch",
        }
    }

    /// Parse the JSON string form.
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        match text {
            "interactive" => Ok(DeadlineClass::Interactive),
            "standard" => Ok(DeadlineClass::Standard),
            "batch" => Ok(DeadlineClass::Batch),
            other => Err(ServeError::spec(format!(
                "unknown deadline class {other:?} (expected interactive|standard|batch)"
            ))),
        }
    }
}

/// A declarative operand: the input matrix described by its random recipe, so
/// the job file carries no payload bytes and every replay materialises the
/// same operand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OperandSpec {
    /// A dense Gaussian matrix (`Matrix::random_gaussian(rows, cols, seed)`).
    Dense {
        /// Operand rows (`d`).
        rows: usize,
        /// Operand columns (`n`).
        cols: usize,
        /// Philox seed of the entries.
        seed: u64,
    },
    /// A sparse CSR matrix from a Philox `(row, col, value)` scatter.
    ///
    /// Coincident draws merge, so the stored `nnz` lands at or slightly below
    /// `nnz_target` — deterministically, since the scatter is seed-driven.
    Csr {
        /// Operand rows (`d`).
        rows: usize,
        /// Operand columns (`n`).
        cols: usize,
        /// Number of random draws (upper bound on stored nonzeros).
        nnz_target: usize,
        /// Philox seed of the scatter.
        seed: u64,
    },
}

/// A materialised operand, ready to hand to the executor.
#[derive(Debug, Clone)]
pub enum OperandData {
    /// A dense operand.
    Dense(Matrix),
    /// A sparse CSR operand.
    Csr(CsrMatrix),
}

impl OperandSpec {
    /// Operand rows.
    pub fn rows(&self) -> usize {
        match self {
            OperandSpec::Dense { rows, .. } | OperandSpec::Csr { rows, .. } => *rows,
        }
    }

    /// Operand columns.
    pub fn cols(&self) -> usize {
        match self {
            OperandSpec::Dense { cols, .. } | OperandSpec::Csr { cols, .. } => *cols,
        }
    }

    /// Modelled stored entries, used by the admission flop model: `rows*cols`
    /// for dense operands, the draw target for sparse ones.  `None` when the
    /// count overflows `u64`.
    pub fn modelled_nnz(&self) -> Option<u64> {
        match self {
            OperandSpec::Dense { rows, cols, .. } => (*rows as u64).checked_mul(*cols as u64),
            OperandSpec::Csr { nnz_target, .. } => Some(*nnz_target as u64),
        }
    }

    /// Bytes the materialised operand holds at its peak: `rows*cols` doubles
    /// for a dense operand; for a sparse one the `(row, col, value)` assembly
    /// triples (24 bytes per draw) plus the row pointers.  `None` when the
    /// count overflows `u64`.
    pub(crate) fn modelled_bytes(&self) -> Option<u64> {
        match *self {
            OperandSpec::Dense { rows, cols, .. } => {
                (rows as u64).checked_mul(cols as u64)?.checked_mul(8)
            }
            OperandSpec::Csr {
                rows, nnz_target, ..
            } => {
                let triples = (nnz_target.max(1) as u64).checked_mul(24)?;
                let row_ptr = (rows as u64).checked_add(1)?.checked_mul(8)?;
                triples.checked_add(row_ptr)
            }
        }
    }

    /// Materialise the operand from its recipe (deterministic per spec).
    pub fn materialize(&self) -> OperandData {
        match *self {
            OperandSpec::Dense { rows, cols, seed } => OperandData::Dense(Matrix::random_gaussian(
                rows,
                cols,
                Layout::RowMajor,
                seed,
                0,
            )),
            OperandSpec::Csr {
                rows,
                cols,
                nnz_target,
                seed,
            } => {
                let draws = nnz_target.max(1);
                let rr = fill::uniform_index_vec(seed, 10, draws, rows);
                let cc = fill::uniform_index_vec(seed, 11, draws, cols);
                let vv = fill::gaussian_vec(seed, 12, draws);
                let mut coo = CooMatrix::with_capacity(rows, cols, draws);
                for i in 0..draws {
                    coo.push(rr[i], cc[i], vv[i]);
                }
                OperandData::Csr(CsrMatrix::from_coo(&coo))
            }
        }
    }

    /// Serialize to a [`JsonValue`] (`{"dense": {...}}` or `{"csr": {...}}`).
    pub fn to_json_value(&self) -> JsonValue {
        match *self {
            OperandSpec::Dense { rows, cols, seed } => JsonValue::Object(vec![(
                "dense".into(),
                JsonValue::Object(vec![
                    ("rows".into(), JsonValue::UInt(rows as u64)),
                    ("cols".into(), JsonValue::UInt(cols as u64)),
                    ("seed".into(), JsonValue::UInt(seed)),
                ]),
            )]),
            OperandSpec::Csr {
                rows,
                cols,
                nnz_target,
                seed,
            } => JsonValue::Object(vec![(
                "csr".into(),
                JsonValue::Object(vec![
                    ("rows".into(), JsonValue::UInt(rows as u64)),
                    ("cols".into(), JsonValue::UInt(cols as u64)),
                    ("nnz_target".into(), JsonValue::UInt(nnz_target as u64)),
                    ("seed".into(), JsonValue::UInt(seed)),
                ]),
            )]),
        }
    }

    /// Parse from a [`JsonValue`].
    pub fn from_json_value(value: &JsonValue) -> Result<Self, ServeError> {
        let field = |obj: &JsonValue, key: &str| -> Result<u64, ServeError> {
            obj.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| ServeError::spec(format!("operand is missing \"{key}\"")))
        };
        if let Some(dense) = value.get("dense") {
            return Ok(OperandSpec::Dense {
                rows: field(dense, "rows")? as usize,
                cols: field(dense, "cols")? as usize,
                seed: field(dense, "seed")?,
            });
        }
        if let Some(csr) = value.get("csr") {
            return Ok(OperandSpec::Csr {
                rows: field(csr, "rows")? as usize,
                cols: field(csr, "cols")? as usize,
                nnz_target: field(csr, "nnz_target")? as usize,
                seed: field(csr, "seed")?,
            });
        }
        Err(ServeError::spec(
            "operand must be {\"dense\": {...}} or {\"csr\": {...}}",
        ))
    }
}

/// One tenant request: identity, urgency, resources asked for, and the
/// declarative payload (pipeline + operand recipe).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Tenant identity — also the job's Philox seed namespace.
    pub tenant: String,
    /// Within-tenant urgency among jobs of the same deadline class
    /// (higher runs first).
    pub priority: u8,
    /// Deadline class (orders within a tenant ahead of priority).
    pub deadline: DeadlineClass,
    /// How many devices the job asks for (clamped to the pool size; ≥ 1).
    pub devices: usize,
    /// Modelled arrival time on the service clock, seconds.
    pub arrival_s: f64,
    /// The sketch pipeline to execute.
    pub pipeline: Pipeline,
    /// The operand recipe.
    pub operand: OperandSpec,
}

impl JobSpec {
    /// A standard-class, priority-0, single-device job arriving at `t = 0`.
    pub fn new(tenant: impl Into<String>, pipeline: Pipeline, operand: OperandSpec) -> Self {
        Self {
            tenant: tenant.into(),
            priority: 0,
            deadline: DeadlineClass::Standard,
            devices: 1,
            arrival_s: 0.0,
            pipeline,
            operand,
        }
    }

    /// Set the priority.
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Set the deadline class.
    #[must_use]
    pub fn with_deadline(mut self, deadline: DeadlineClass) -> Self {
        self.deadline = deadline;
        self
    }

    /// Set the device ask (≥ 1).
    #[must_use]
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices.max(1);
        self
    }

    /// Set the modelled arrival time.
    #[must_use]
    pub fn with_arrival(mut self, arrival_s: f64) -> Self {
        self.arrival_s = arrival_s.max(0.0);
        self
    }

    /// The tenant's seed-namespace salt (see [`tenant_salt`]).
    pub fn tenant_salt(&self) -> u64 {
        tenant_salt(&self.tenant)
    }

    /// The pipeline with every stage seed XOR-salted into the tenant's
    /// namespace.  This is what the scheduler actually executes: the XOR
    /// commutes with intra-pipeline stage salts (e.g. the Count-Gauss second
    /// stage), so tenant isolation composes with the existing contract.
    pub fn salted_pipeline(&self) -> Pipeline {
        let salt = self.tenant_salt();
        let mut plan = self.pipeline.clone();
        for stage in &mut plan.stages {
            stage.seed ^= salt;
        }
        plan
    }

    /// The typed admission rejection for a size that overflows `u64` or
    /// exceeds `isize::MAX` bytes.
    fn size_overflow(&self, quantity: &'static str) -> ServeError {
        ServeError::Rejected {
            tenant: self.tenant.clone(),
            reason: RejectReason::SizeOverflow { quantity },
        }
    }

    /// The pipeline resolved against the operand width.  An embedding rule
    /// (`c·n`, `c·n²`) whose dimension overflows `usize` is a typed
    /// [`RejectReason::SizeOverflow`]; a pipeline that does not resolve, or a
    /// stage that [`SketchSpec::build`] would refuse, is a typed
    /// [`RejectReason::InvalidSpec`].
    fn resolved_stages(&self) -> Result<Vec<SketchSpec>, ServeError> {
        let n = self.operand.cols();
        let overflows = |stage: &SketchSpec| stage.output_dim.checked_resolve(n).is_none();
        if self.pipeline.stages.iter().any(overflows) {
            return Err(self.size_overflow("embedding dimension"));
        }
        let invalid = |e: sketch_core::Error| ServeError::Rejected {
            tenant: self.tenant.clone(),
            reason: RejectReason::InvalidSpec {
                detail: e.to_string(),
            },
        };
        let stages = self.pipeline.resolve(n).map_err(invalid)?;
        for stage in &stages {
            stage.exact_dims().map_err(invalid)?;
        }
        Ok(stages)
    }

    /// Refuse a job whose buffers could not be allocated: the materialised
    /// operand (`OperandSpec::modelled_bytes`) and each Gaussian stage's
    /// dense `d × k` operator must each fit in `isize::MAX` bytes, past which
    /// `Vec` panics.  Checked at admission, before any budget.
    pub(crate) fn check_sizes(&self) -> Result<(), ServeError> {
        let fits = |bytes: Option<u64>| bytes.is_some_and(|b| b <= MAX_ALLOC_BYTES);
        if !fits(self.operand.modelled_bytes()) {
            return Err(self.size_overflow("operand bytes"));
        }
        for stage in self.resolved_stages()? {
            let k = stage.output_dim.resolve(self.operand.cols()) as u64;
            if stage.kind == SketchKind::Gaussian
                && !fits(
                    (stage.input_dim as u64)
                        .checked_mul(k)
                        .and_then(|dk| dk.checked_mul(8)),
                )
            {
                return Err(self.size_overflow("gaussian operator bytes"));
            }
        }
        Ok(())
    }

    /// Modelled bytes of sketch output the job produces: each resolved stage's
    /// `k × n` doubles, plus the dense operator storage of Gaussian stages
    /// (`d × k` doubles) — the admission controller's byte model.  A total that
    /// overflows `u64` is a typed [`RejectReason::SizeOverflow`] rejection.
    pub fn sketch_output_bytes(&self) -> Result<u64, ServeError> {
        let n = self.operand.cols() as u64;
        let mut bytes = 0u64;
        for stage in &self.resolved_stages()? {
            let k = stage.output_dim.resolve(self.operand.cols()) as u64;
            let mut stage_bytes = k.checked_mul(n).and_then(|kn| kn.checked_mul(8));
            if stage.kind == SketchKind::Gaussian {
                stage_bytes = stage_bytes.and_then(|b| {
                    let operator = k.checked_mul(stage.input_dim as u64)?.checked_mul(8)?;
                    b.checked_add(operator)
                });
            }
            bytes = stage_bytes
                .and_then(|b| bytes.checked_add(b))
                .ok_or_else(|| self.size_overflow("sketch output bytes"))?;
        }
        Ok(bytes)
    }

    /// Modelled flops of the job, per resolved stage: `2·nnz` for the
    /// CountSketch families (one multiply-add per stored entry), `2·d·k·n` for
    /// Gaussian GEMMs, `n·d·log2(d)` for the SRHT's FWHT — the admission
    /// controller's compute model.  The first stage sees the operand's
    /// (modelled) sparsity; later stages see a dense `k_prev × n`
    /// intermediate.  A count that overflows `u64` is a typed
    /// [`RejectReason::SizeOverflow`] rejection.
    pub fn modelled_flops(&self) -> Result<u64, ServeError> {
        let n = self.operand.cols() as u64;
        let overflow = || self.size_overflow("modelled flops");
        let mut flops = 0u64;
        let mut stage_nnz = self.operand.modelled_nnz().ok_or_else(overflow)?;
        for stage in &self.resolved_stages()? {
            let d = stage.input_dim as u64;
            let k = stage.output_dim.resolve(self.operand.cols()) as u64;
            let gemm = || 2u64.checked_mul(d)?.checked_mul(k)?.checked_mul(n);
            let stage_flops = match stage.kind {
                SketchKind::CountSketch | SketchKind::HashCountSketch => stage_nnz.checked_mul(2),
                SketchKind::Gaussian => gemm(),
                SketchKind::Srht => {
                    let log_d = (64 - d.max(2).leading_zeros()) as u64;
                    n.checked_mul(d).and_then(|nd| nd.checked_mul(log_d))
                }
                // `SketchKind` is non-exhaustive: bound unknown kinds by the
                // dense GEMM cost so admission stays conservative, not panicky.
                _ => gemm(),
            };
            flops = stage_flops
                .and_then(|f| flops.checked_add(f))
                .ok_or_else(overflow)?;
            // The intermediate handed to the next stage is dense k × n.
            stage_nnz = k.checked_mul(n).ok_or_else(overflow)?;
        }
        Ok(flops)
    }

    /// Serialize to a [`JsonValue`].
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("tenant".into(), JsonValue::Str(self.tenant.clone())),
            ("priority".into(), JsonValue::UInt(self.priority as u64)),
            (
                "deadline".into(),
                JsonValue::Str(self.deadline.as_str().into()),
            ),
            ("devices".into(), JsonValue::UInt(self.devices as u64)),
            ("arrival_s".into(), JsonValue::Float(self.arrival_s)),
            ("pipeline".into(), self.pipeline.to_json_value()),
            ("operand".into(), self.operand.to_json_value()),
        ])
    }

    /// Parse from a [`JsonValue`].  `priority`, `deadline`, `devices` and
    /// `arrival_s` are optional (defaulting to 0 / standard / 1 / 0.0).
    pub fn from_json_value(value: &JsonValue) -> Result<Self, ServeError> {
        let tenant = value
            .get("tenant")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ServeError::spec("job is missing \"tenant\""))?
            .to_string();
        if tenant.is_empty() {
            return Err(ServeError::spec("\"tenant\" must not be empty"));
        }
        let priority = match value.get("priority") {
            Some(p) => p
                .as_u64()
                .filter(|&p| p <= u8::MAX as u64)
                .ok_or_else(|| ServeError::spec("\"priority\" must be an integer in 0..=255"))?
                as u8,
            None => 0,
        };
        let deadline = match value.get("deadline") {
            Some(d) => DeadlineClass::parse(
                d.as_str()
                    .ok_or_else(|| ServeError::spec("\"deadline\" must be a string"))?,
            )?,
            None => DeadlineClass::Standard,
        };
        let devices = match value.get("devices") {
            Some(d) => d
                .as_usize()
                .filter(|&d| d >= 1)
                .ok_or_else(|| ServeError::spec("\"devices\" must be an integer >= 1"))?,
            None => 1,
        };
        let arrival_s = match value.get("arrival_s") {
            Some(a) => a
                .as_f64()
                .filter(|a| a.is_finite() && *a >= 0.0)
                .ok_or_else(|| ServeError::spec("\"arrival_s\" must be a non-negative number"))?,
            None => 0.0,
        };
        let pipeline = Pipeline::from_json_value(
            value
                .get("pipeline")
                .ok_or_else(|| ServeError::spec("job is missing \"pipeline\""))?,
        )?;
        let operand = OperandSpec::from_json_value(
            value
                .get("operand")
                .ok_or_else(|| ServeError::spec("job is missing \"operand\""))?,
        )?;
        Ok(Self {
            tenant,
            priority,
            deadline,
            devices,
            arrival_s,
            pipeline,
            operand,
        })
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
    use sketch_core::{EmbeddingDim, SketchSpec};

    fn sample_job() -> JobSpec {
        JobSpec::new(
            "acme",
            Pipeline::single(SketchSpec::countsketch(512, EmbeddingDim::Square(2), 7)),
            OperandSpec::Dense {
                rows: 512,
                cols: 6,
                seed: 42,
            },
        )
        .with_priority(3)
        .with_deadline(DeadlineClass::Interactive)
        .with_devices(2)
        .with_arrival(0.25)
    }

    #[test]
    fn tenant_salt_is_stable_and_distinct() {
        assert_eq!(tenant_salt("acme"), tenant_salt("acme"));
        assert_ne!(tenant_salt("acme"), tenant_salt("bravo"));
        assert_ne!(tenant_salt(""), 0);
    }

    #[test]
    fn salted_pipeline_namespaces_every_stage() {
        let job = sample_job();
        let salted = job.salted_pipeline();
        for (orig, salt) in job.pipeline.stages.iter().zip(&salted.stages) {
            assert_eq!(orig.seed ^ job.tenant_salt(), salt.seed);
        }
        // Salting commutes with the Count-Gauss intra-pipeline salt.
        let cg = JobSpec::new(
            "acme",
            Pipeline::count_gauss(512, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 9),
            OperandSpec::Dense {
                rows: 512,
                cols: 6,
                seed: 1,
            },
        );
        let salted = cg.salted_pipeline();
        let relation = cg.pipeline.stages[0].seed ^ cg.pipeline.stages[1].seed;
        assert_eq!(salted.stages[0].seed ^ salted.stages[1].seed, relation);
    }

    #[test]
    fn job_round_trips_through_json() {
        let job = sample_job();
        let parsed = JobSpec::from_json(&job.to_json()).unwrap();
        assert_eq!(parsed, job);
        // CSR operands too.
        let sparse = JobSpec::new(
            "bravo",
            Pipeline::single(SketchSpec::countsketch(256, EmbeddingDim::Exact(64), 3)),
            OperandSpec::Csr {
                rows: 256,
                cols: 8,
                nnz_target: 100,
                seed: 5,
            },
        );
        assert_eq!(JobSpec::from_json(&sparse.to_json()).unwrap(), sparse);
    }

    #[test]
    fn json_defaults_apply() {
        let text = r#"{
            "tenant": "t",
            "pipeline": {"stages": [{"kind": "count-sketch", "input_dim": 64,
                                     "output_dim": {"exact": 32}, "seed": 1}]},
            "operand": {"dense": {"rows": 64, "cols": 4, "seed": 2}}
        }"#;
        let job = JobSpec::from_json(text).unwrap();
        assert_eq!(job.priority, 0);
        assert_eq!(job.deadline, DeadlineClass::Standard);
        assert_eq!(job.devices, 1);
        assert_eq!(job.arrival_s, 0.0);
    }

    #[test]
    fn malformed_jobs_are_typed_errors() {
        for text in [
            "{}",
            r#"{"tenant": ""}"#,
            r#"{"tenant": "t", "pipeline": {"stages": []}}"#,
            r#"{"tenant": "t", "deadline": "soon",
                "pipeline": {"stages": [{"kind": "count-sketch", "input_dim": 64,
                                         "output_dim": {"exact": 32}, "seed": 1}]},
                "operand": {"dense": {"rows": 64, "cols": 4, "seed": 2}}}"#,
            r#"{"tenant": "t",
                "pipeline": {"stages": [{"kind": "count-sketch", "input_dim": 64,
                                         "output_dim": {"exact": 32}, "seed": 1}]},
                "operand": {"unknown": {}}}"#,
        ] {
            assert!(JobSpec::from_json(text).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn operands_materialise_deterministically() {
        let spec = OperandSpec::Csr {
            rows: 128,
            cols: 8,
            nnz_target: 200,
            seed: 11,
        };
        let (a, b) = (spec.materialize(), spec.materialize());
        match (a, b) {
            (OperandData::Csr(a), OperandData::Csr(b)) => {
                assert_eq!(a.nnz(), b.nnz());
                assert!(a.nnz() <= 200 && a.nnz() > 0);
            }
            _ => panic!("csr spec materialises csr"),
        }
        let dense = OperandSpec::Dense {
            rows: 16,
            cols: 4,
            seed: 1,
        };
        match (dense.materialize(), dense.materialize()) {
            (OperandData::Dense(a), OperandData::Dense(b)) => {
                assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);
            }
            _ => panic!("dense spec materialises dense"),
        }
    }

    #[test]
    fn admission_models_scale_with_the_job() {
        let small = sample_job();
        let mut big = sample_job();
        big.operand = OperandSpec::Dense {
            rows: 2048,
            cols: 6,
            seed: 42,
        };
        big.pipeline = Pipeline::single(SketchSpec::countsketch(2048, EmbeddingDim::Square(2), 7));
        assert!(big.modelled_flops().unwrap() > small.modelled_flops().unwrap());
        // Gaussian stages pay for dense operator storage in the byte model.
        let gauss = JobSpec::new(
            "t",
            Pipeline::single(SketchSpec::gaussian(512, EmbeddingDim::Ratio(2), 1)),
            OperandSpec::Dense {
                rows: 512,
                cols: 6,
                seed: 1,
            },
        );
        let count = JobSpec::new(
            "t",
            Pipeline::single(SketchSpec::countsketch(512, EmbeddingDim::Ratio(2), 1)),
            OperandSpec::Dense {
                rows: 512,
                cols: 6,
                seed: 1,
            },
        );
        assert!(gauss.sketch_output_bytes().unwrap() > count.sketch_output_bytes().unwrap());
    }
}
