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
use sketch_core::traits::try_zeroed;
use sketch_core::{Error, JsonValue, OperandShape, Pipeline, SketchSpec};
use sketch_dist::DistError;
use sketch_gpu_sim::Checked;
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

    /// The shape admission states the job at: a dense operand's, row-major as it
    /// is materialised; a CSR operand's with its draws (`nnz_target`, at least
    /// one) as its non-zeros, which bound the stored ones from above, since
    /// coincident draws merge.
    pub fn shape(&self) -> OperandShape {
        let (rows, cols) = (self.rows(), self.cols());
        match *self {
            OperandSpec::Dense { .. } => OperandShape::dense(rows, cols, Layout::RowMajor),
            OperandSpec::Csr { nnz_target, .. } => OperandShape::csr(rows, cols, nnz_target.max(1)),
        }
    }

    /// Bytes the materialised operand holds at its peak: `rows*cols` doubles
    /// for a dense operand; for a sparse one the `(row, col, value)` assembly
    /// triples (24 bytes per draw) plus the row pointers.  `None` when the
    /// count overflows `u64`.
    pub(crate) fn modelled_bytes(&self) -> Option<u64> {
        let bytes = match self.shape() {
            OperandShape::Dense { rows, cols, .. } => Checked::from(rows) * Checked::from(cols) * 8,
            OperandShape::Csr { rows, nnz, .. } => {
                Checked::from(nnz) * 24 + (Checked::from(rows) + 1) * 8
            }
        };
        bytes.0
    }

    /// Refuse a CSR operand with no rows or columns, or more than `u32::MAX` of
    /// either, whose coordinates a uniform index cannot draw, as a
    /// [`RejectReason::InvalidSpec`].  Checked at admission and again by
    /// [`OperandSpec::try_materialize`].
    pub(crate) fn check_drawable(&self) -> Result<(), RejectReason> {
        let drawable = 1..=u32::MAX as usize;
        match *self {
            OperandSpec::Csr { rows, cols, .. }
                if !drawable.contains(&rows) || !drawable.contains(&cols) =>
            {
                Err(RejectReason::InvalidSpec {
                    detail: format!(
                        "a CSR operand draws coordinates in [0, 2^32), got {rows}x{cols}"
                    ),
                })
            }
            _ => Ok(()),
        }
    }

    /// Materialise the operand from its recipe (deterministic per spec).
    ///
    /// # Panics
    /// Panics where [`OperandSpec::try_materialize`] returns an error.
    pub fn materialize(&self) -> OperandData {
        self.try_materialize()
            .unwrap_or_else(|reason| panic!("cannot materialise {self:?}: {reason}"))
    }

    /// Materialise the operand, reserving every spec-sized buffer with
    /// `try_reserve_exact` and then filling it in place, so an allocation the
    /// host refuses is a typed [`RejectReason::OperandAllocationFailed`]
    /// instead of an abort.  A dense operand is
    /// `Matrix::random_gaussian(rows, cols, RowMajor, seed, 0)`; a CSR operand
    /// sums the `(row, col, value)` draws of streams 10, 11 and 12.
    ///
    /// A size past `isize::MAX` bytes is a [`RejectReason::SizeOverflow`], and a
    /// CSR operand with no rows or columns, or more than `u32::MAX` of either
    /// (whose coordinates a uniform index cannot draw), a
    /// [`RejectReason::InvalidSpec`].
    pub fn try_materialize(&self) -> Result<OperandData, RejectReason> {
        let bytes = self
            .modelled_bytes()
            .filter(|&b| b <= MAX_ALLOC_BYTES)
            .ok_or(RejectReason::SizeOverflow {
                quantity: "operand bytes",
            })?;
        self.check_drawable()?;
        let refused = RejectReason::OperandAllocationFailed { bytes };
        match *self {
            OperandSpec::Dense { rows, cols, seed } => {
                let mut data = try_zeroed(rows * cols).map_err(|_| refused.clone())?;
                fill::gaussian_fill(seed, 0, &mut data);
                Ok(OperandData::Dense(Matrix::from_vec(
                    rows,
                    cols,
                    Layout::RowMajor,
                    data,
                )))
            }
            OperandSpec::Csr {
                rows,
                cols,
                nnz_target,
                seed,
            } => {
                let draws = nnz_target.max(1);
                let mut rr = try_zeroed(draws).map_err(|_| refused.clone())?;
                let mut cc = try_zeroed(draws).map_err(|_| refused.clone())?;
                let mut vv = try_zeroed(draws).map_err(|_| refused.clone())?;
                fill::uniform_index_fill(seed, 10, rows, &mut rr);
                fill::uniform_index_fill(seed, 11, cols, &mut cc);
                fill::gaussian_fill(seed, 12, &mut vv);
                let mut coo =
                    CooMatrix::try_with_capacity(rows, cols, draws).map_err(|_| refused.clone())?;
                for i in 0..draws {
                    coo.push(rr[i], cc[i], vv[i]);
                }
                Ok(OperandData::Csr(
                    CsrMatrix::try_from_coo(&coo).map_err(|_| refused.clone())?,
                ))
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

/// What admission checks a job's budgets against ([`JobSpec::costs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JobCosts {
    /// Apply flops plus generation flops once per device the job asks for: what
    /// a pool of that many devices records for a dense job, and a bound on it for
    /// a CSR job or a pool smaller than the ask.
    pub(crate) flops: u64,
    /// Bytes the job holds on its device beyond the operand: stored operators,
    /// the apply's peak reservation and the result
    /// ([`SketchCosts::held_bytes`](sketch_core::SketchCosts::held_bytes)).
    pub(crate) held_bytes: u64,
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

    /// The job's rejection for `reason`.
    fn reject(&self, reason: RejectReason) -> ServeError {
        ServeError::Rejected {
            tenant: self.tenant.clone(),
            reason,
        }
    }

    /// The typed admission rejection for a size that overflows `u64` or
    /// exceeds `isize::MAX` bytes.
    fn size_overflow(&self, quantity: &'static str) -> ServeError {
        self.reject(RejectReason::SizeOverflow { quantity })
    }

    /// The job stated once, before its operand is materialised: its pipeline's
    /// [`Pipeline::costs`] at the operand's [`shape`](OperandSpec::shape), which
    /// both admission budgets read.
    ///
    /// Refused ahead of any budget, in this order, as a
    /// [`RejectReason::SizeOverflow`]: an operand past `isize::MAX` bytes, a
    /// statement that overflows `u64`, and an embedding rule (`c·n`, `c·n²`)
    /// whose dimension overflows `usize`; as a [`RejectReason::InvalidSpec`],
    /// whatever the executor's own [`preflight`](sketch_dist::preflight) refuses
    /// (an empty operand, a first stage whose input dimension is not the
    /// operand's rows, a pipeline that does not resolve to buildable stages) and
    /// a CSR operand whose coordinates cannot be drawn; then, as a
    /// [`RejectReason::SizeOverflow`], held bytes past `isize::MAX` and flops
    /// past `u64`.
    pub(crate) fn costs(&self) -> Result<JobCosts, ServeError> {
        let fits = |bytes: Option<u64>, quantity| {
            bytes
                .filter(|&b| b <= MAX_ALLOC_BYTES)
                .ok_or_else(|| self.size_overflow(quantity))
        };
        fits(self.operand.modelled_bytes(), "operand bytes")?;
        // Sizes come first whatever operand the plan meets; the statement's other
        // errors are the fit checks' to name.
        let stated = self.pipeline.costs(self.operand.shape());
        if let Err(Error::SizeOverflow { quantity }) = stated {
            return Err(self.size_overflow(quantity));
        }
        let (rows, n) = (self.operand.rows(), self.operand.cols());
        let resolves = |s: &SketchSpec| s.output_dim.checked_resolve(n).is_some();
        if !self.pipeline.stages.iter().all(resolves) {
            return Err(self.size_overflow("embedding dimension"));
        }
        let describe = || match self.operand {
            OperandSpec::Dense { .. } => format!("dense {rows}x{n}"),
            OperandSpec::Csr { nnz_target, .. } => {
                format!("CSR {rows}x{n} nnz_target={nnz_target}")
            }
        };
        let invalid = |e: DistError| {
            self.reject(RejectReason::InvalidSpec {
                detail: e.to_string(),
            })
        };
        let stages = sketch_dist::preflight(&self.pipeline, rows, n, describe).map_err(invalid)?;
        self.operand
            .check_drawable()
            .map_err(|reason| self.reject(reason))?;
        let stated = stated?;
        let k = stages.last().map_or(0, |s| s.output_dim.resolve(n));
        let held_bytes = fits(stated.held_bytes(k, n).ok(), "held bytes")?;
        // The executor charges each live device past the first a replica of
        // every stage's generation.
        let flops = Checked::from(self.devices) * stated.generation.flops + stated.apply.flops;
        let flops = flops
            .0
            .ok_or_else(|| self.size_overflow("modelled flops"))?;
        Ok(JobCosts { flops, held_bytes })
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
    fn fallible_materialisation_fills_the_recipe_in_place() {
        // The in-place fills give the bits of the allocate-and-return recipe.
        let dense = OperandSpec::Dense {
            rows: 300,
            cols: 7,
            seed: 5,
        };
        match dense.try_materialize().unwrap() {
            OperandData::Dense(m) => {
                assert_eq!(m, Matrix::random_gaussian(300, 7, Layout::RowMajor, 5, 0));
            }
            _ => panic!("dense spec materialises dense"),
        }
        let (rows, cols, draws, seed) = (500, 9, 3000, 13);
        let csr = OperandSpec::Csr {
            rows,
            cols,
            nnz_target: draws,
            seed,
        };
        let rr = fill::uniform_index_vec(seed, 10, draws, rows);
        let cc = fill::uniform_index_vec(seed, 11, draws, cols);
        let vv = fill::gaussian_vec(seed, 12, draws);
        let mut coo = CooMatrix::new(rows, cols);
        for i in 0..draws {
            coo.push(rr[i], cc[i], vv[i]);
        }
        match csr.try_materialize().unwrap() {
            OperandData::Csr(c) => assert_eq!(c, CsrMatrix::from_coo(&coo)),
            _ => panic!("csr spec materialises csr"),
        }
    }

    #[test]
    fn unallocatable_or_undrawable_operands_are_typed_refusals() {
        let refusal = |spec: OperandSpec| spec.try_materialize().unwrap_err();
        assert_eq!(
            refusal(OperandSpec::Dense {
                rows: 1 << 59,
                cols: 1,
                seed: 0
            }),
            RejectReason::OperandAllocationFailed { bytes: 1 << 62 }
        );
        assert_eq!(
            refusal(OperandSpec::Dense {
                rows: 1 << 60,
                cols: 1,
                seed: 0
            }),
            RejectReason::SizeOverflow {
                quantity: "operand bytes"
            }
        );
        for (rows, cols) in [(1usize << 33, 4usize), (8, 0)] {
            assert!(matches!(
                refusal(OperandSpec::Csr {
                    rows,
                    cols,
                    nnz_target: 1,
                    seed: 0
                }),
                RejectReason::InvalidSpec { .. }
            ));
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
        assert!(big.costs().unwrap().flops > small.costs().unwrap().flops);
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
        assert!(gauss.costs().unwrap().held_bytes > count.costs().unwrap().held_bytes);
    }
}
