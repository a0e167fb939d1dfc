//! Declarative sketch construction: [`SketchSpec`] and [`Pipeline`].
//!
//! The paper's evaluation drives every sketch through one loop — generate once, apply
//! to `A` and `b`, charge the phases — with the *configuration* (which sketch, which
//! embedding dimension rule, which seed) varying per figure.  `SketchSpec` is that
//! configuration as data: a serde-able description that any harness, example or JSON
//! file can carry around, and that [`SketchSpec::build`] turns into a live
//! [`SketchOperator`] on a device.
//!
//! Embedding dimensions follow the paper's conventions as *rules*, not numbers:
//! [`EmbeddingDim::Ratio`] (`k = c·n`, the Gaussian/SRHT convention) and
//! [`EmbeddingDim::Square`] (`k = c·n²`, the CountSketch convention) resolve against
//! the operand width at build time, so one spec names an experiment across a whole
//! `(d, n)` sweep.
//!
//! [`Pipeline`] expresses sketch *composition* the same way: the Count-Gauss
//! multisketch is simply the two-stage pipeline
//! `[CountSketch → 2n², Gaussian → 2n]`, and [`Pipeline::build_for`] recognises that
//! shape and instantiates the fused [`MultiSketch`] operator (transpose trick and
//! all); any other chain builds a generic composed operator.
//!
//! Specs serialize to JSON through the built-in [`json`] module (the offline serde
//! shim carries no data format), and rebuilding from the serialized form is
//! bit-identical because all randomness flows through the stored Philox seeds.
//!
//! ```
//! use sketch_core::{EmbeddingDim, SketchSpec};
//! use sketch_gpu_sim::Device;
//!
//! let device = Device::h100();
//! let spec = SketchSpec::countsketch(1 << 12, EmbeddingDim::Square(2), 7);
//! let sketch = spec.build_for(&device, 8).unwrap();
//! assert_eq!(sketch.output_dim(), 2 * 8 * 8);
//! let round_tripped = SketchSpec::from_json(&spec.to_json()).unwrap();
//! assert_eq!(spec, round_tripped);
//! ```

use crate::countsketch::{CountSketch, HashCountSketch};
use crate::error::Error;
use crate::gaussian::GaussianSketch;
use crate::multisketch::{MultiSketch, GAUSS_STAGE_SEED_SALT};
use crate::operand::Operand;
use crate::srht::Srht;
use crate::traits::SketchOperator;
use serde::{Deserialize, Serialize};
use sketch_gpu_sim::{Device, KernelCost};
use sketch_la::{Layout, MatrixViewMut};

pub mod json;

use json::JsonValue;

/// Which sketch family a [`SketchSpec`] describes.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SketchKind {
    /// The explicit Algorithm-2 CountSketch ([`CountSketch`]).
    CountSketch,
    /// The dense Gaussian sketch ([`GaussianSketch`]).
    Gaussian,
    /// The subsampled randomized Hadamard transform ([`Srht`]).
    Srht,
    /// The hash-based streaming CountSketch ([`HashCountSketch`]).
    HashCountSketch,
}

impl SketchKind {
    /// Stable identifier used in serialized specs.
    pub fn as_str(&self) -> &'static str {
        match self {
            SketchKind::CountSketch => "count-sketch",
            SketchKind::Gaussian => "gaussian",
            SketchKind::Srht => "srht",
            SketchKind::HashCountSketch => "hash-count-sketch",
        }
    }

    /// Parse a serialized kind identifier.
    pub fn parse(s: &str) -> Result<Self, Error> {
        match s {
            "count-sketch" => Ok(SketchKind::CountSketch),
            "gaussian" => Ok(SketchKind::Gaussian),
            "srht" => Ok(SketchKind::Srht),
            "hash-count-sketch" => Ok(SketchKind::HashCountSketch),
            other => Err(Error::invalid_param(format!(
                "unknown sketch kind {other:?}"
            ))),
        }
    }

    /// The [`ShardAxis`] along which this kind's kernel shards bitwise-losslessly
    /// (see the enum docs for the kernel property behind each choice).
    pub fn shard_axis(&self) -> ShardAxis {
        match self {
            // Ordered row-scatter kernels: block-row fold is the exact chain.
            SketchKind::CountSketch | SketchKind::HashCountSketch => ShardAxis::Rows,
            // Per-column dot/transform kernels: column panels are exact.
            SketchKind::Gaussian | SketchKind::Srht => ShardAxis::Cols,
        }
    }
}

/// Along which operand axis a sketch kind can be sharded across devices while keeping
/// the multi-device result **bit-for-bit identical** to the single-device kernel.
///
/// This is a *contract on the kernels*, consumed by the multi-device executor in
/// `sketch-dist`:
///
/// * [`ShardAxis::Rows`] — the kernel folds each input row into the output with one
///   sequential, per-element accumulation chain in increasing global row order (the
///   Algorithm-2 CountSketch scatter).  Block-row shards folded into one shared
///   accumulator in shard order reproduce the exact chain, so an *ordered* ring
///   reduction is bitwise lossless.
/// * [`ShardAxis::Cols`] — the kernel computes every output column independently of
///   all other columns (a GEMM dot per element, or a per-column FWHT).  Column-panel
///   shards are embarrassingly exact and reassemble with an allgather; a block-row
///   split of these kinds would change the floating-point summation grouping (the
///   GEMM dot is unrolled four-wide) and only be equal up to rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShardAxis {
    /// Shard the operand into block rows; reduce with an ordered ring fold.
    Rows,
    /// Shard the operand into column panels; reassemble with an allgather.
    Cols,
}

/// How a spec's output dimension is determined.
///
/// The paper's embedding-dimension conventions (Section 6) are rules in terms of the
/// operand width `n`, so specs carry the rule and resolve it per problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EmbeddingDim {
    /// A fixed output dimension `k`.
    Exact(usize),
    /// `k = c · n` — the Gaussian/SRHT/multisketch-output convention (`c = 2` in the
    /// paper).
    Ratio(usize),
    /// `k = c · n²` — the CountSketch convention (`c = 2` in the paper).
    Square(usize),
}

impl EmbeddingDim {
    /// Resolve the rule against an operand with `ncols` columns, or `None` when
    /// `c·n` or `c·n²` overflows `usize`.
    pub fn checked_resolve(&self, ncols: usize) -> Option<usize> {
        match *self {
            EmbeddingDim::Exact(k) => Some(k),
            EmbeddingDim::Ratio(c) => c.checked_mul(ncols),
            EmbeddingDim::Square(c) => c.checked_mul(ncols)?.checked_mul(ncols),
        }
    }

    /// Resolve the rule against an operand with `ncols` columns.
    ///
    /// # Panics
    ///
    /// If the dimension overflows `usize`; callers resolving untrusted widths use
    /// [`checked_resolve`](Self::checked_resolve).
    pub fn resolve(&self, ncols: usize) -> usize {
        self.checked_resolve(ncols)
            .unwrap_or_else(|| panic!("embedding rule {self:?} overflows usize at {ncols} columns"))
    }

    /// Whether the rule needs an operand width to resolve.
    pub fn needs_ncols(&self) -> bool {
        !matches!(self, EmbeddingDim::Exact(_))
    }
}

/// A declarative, serde-able description of one sketch operator.
///
/// Construct with the per-kind constructors, tweak with the builder methods, then
/// [`build`](Self::build) (or [`build_for`](Self::build_for) when the output
/// dimension is a rule) to obtain the live operator.
#[must_use = "a SketchSpec describes a sketch; call build/build_for to construct it"]
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SketchSpec {
    /// Sketch family.
    pub kind: SketchKind,
    /// Input dimension `d` (rows of the operand).  `0` in a non-leading
    /// [`Pipeline`] stage means "inferred from the previous stage's output".
    pub input_dim: usize,
    /// Output dimension `k`, exact or as an embedding rule.
    pub output_dim: EmbeddingDim,
    /// Philox seed driving the sketch's random ingredients.
    pub seed: u64,
    /// SRHT-specific knob: the modelled shared-memory tile (in doubles) of the FWHT.
    pub tile: Option<usize>,
}

impl SketchSpec {
    /// A CountSketch spec.
    pub fn countsketch(input_dim: usize, output_dim: EmbeddingDim, seed: u64) -> Self {
        Self {
            kind: SketchKind::CountSketch,
            input_dim,
            output_dim,
            seed,
            tile: None,
        }
    }

    /// A dense Gaussian sketch spec.
    pub fn gaussian(input_dim: usize, output_dim: EmbeddingDim, seed: u64) -> Self {
        Self {
            kind: SketchKind::Gaussian,
            input_dim,
            output_dim,
            seed,
            tile: None,
        }
    }

    /// An SRHT spec.
    pub fn srht(input_dim: usize, output_dim: EmbeddingDim, seed: u64) -> Self {
        Self {
            kind: SketchKind::Srht,
            input_dim,
            output_dim,
            seed,
            tile: None,
        }
    }

    /// A hash-based streaming CountSketch spec.
    pub fn hash_countsketch(input_dim: usize, output_dim: EmbeddingDim, seed: u64) -> Self {
        Self {
            kind: SketchKind::HashCountSketch,
            input_dim,
            output_dim,
            seed,
            tile: None,
        }
    }

    /// Set the SRHT shared-memory tile knob.
    pub fn with_tile(mut self, tile: usize) -> Self {
        self.tile = Some(tile);
        self
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The [`ShardAxis`] along which this spec's kernel shards bitwise-losslessly
    /// (delegates to [`SketchKind::shard_axis`]).
    pub fn shard_axis(&self) -> ShardAxis {
        self.kind.shard_axis()
    }

    /// Resolve an embedding rule against an operand width, yielding a spec with an
    /// [`EmbeddingDim::Exact`] output dimension.
    ///
    /// # Panics
    ///
    /// If the dimension overflows `usize`; see [`try_resolve`](Self::try_resolve).
    pub fn resolve(&self, ncols: usize) -> SketchSpec {
        let mut out = self.clone();
        out.output_dim = EmbeddingDim::Exact(self.output_dim.resolve(ncols));
        out
    }

    /// [`resolve`](Self::resolve), with a dimension that overflows `usize` as a typed
    /// [`Error::InvalidParameter`].
    pub fn try_resolve(&self, ncols: usize) -> Result<SketchSpec, Error> {
        let k = self.output_dim.checked_resolve(ncols).ok_or_else(|| {
            Error::invalid_param(format!(
                "spec for {} has embedding rule {:?}, which overflows at {ncols} columns",
                self.kind.as_str(),
                self.output_dim
            ))
        })?;
        let mut out = self.clone();
        out.output_dim = EmbeddingDim::Exact(k);
        Ok(out)
    }

    /// The `(input, output)` dimensions [`build`](Self::build) constructs, or the typed
    /// error it returns: the spec must carry an exact, non-zero output dimension and a
    /// non-zero input dimension.
    pub fn exact_dims(&self) -> Result<(usize, usize), Error> {
        let EmbeddingDim::Exact(k) = self.output_dim else {
            return Err(Error::invalid_param(format!(
                "spec for {} has embedding rule {:?}; call build_for(device, ncols) or resolve(ncols) first",
                self.kind.as_str(),
                self.output_dim
            )));
        };
        if self.input_dim == 0 {
            return Err(Error::invalid_param(format!(
                "spec for {} has no input dimension (0 is only valid for inferred pipeline stages)",
                self.kind.as_str()
            )));
        }
        if k == 0 {
            return Err(Error::invalid_param(format!(
                "spec for {} resolves to output dimension 0",
                self.kind.as_str()
            )));
        }
        Ok((self.input_dim, k))
    }

    /// Build the described operator as a trait object.
    ///
    /// Requires an [`EmbeddingDim::Exact`] output dimension; use
    /// [`build_for`](Self::build_for) when the spec carries a rule.
    pub fn build(&self, device: &Device) -> Result<Box<dyn SketchOperator>, Error> {
        Ok(match self.kind {
            SketchKind::CountSketch => Box::new(self.build_countsketch(device)?),
            SketchKind::Gaussian => Box::new(self.build_gaussian(device)?),
            SketchKind::Srht => Box::new(self.build_srht(device)?),
            SketchKind::HashCountSketch => Box::new(self.build_hash_countsketch(device)?),
        })
    }

    /// Resolve the embedding rule against `ncols` and build.
    pub fn build_for(
        &self,
        device: &Device,
        ncols: usize,
    ) -> Result<Box<dyn SketchOperator>, Error> {
        self.try_resolve(ncols)?.build(device)
    }

    fn check_kind(&self, expected: SketchKind) -> Result<(), Error> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(Error::invalid_param(format!(
                "spec describes a {} sketch, not {}",
                self.kind.as_str(),
                expected.as_str()
            )))
        }
    }

    /// Build the concrete [`CountSketch`] (the typed sibling of [`build`](Self::build),
    /// for callers that need the row map / signs).
    pub fn build_countsketch(&self, device: &Device) -> Result<CountSketch, Error> {
        self.check_kind(SketchKind::CountSketch)?;
        let (d, k) = self.exact_dims()?;
        Ok(CountSketch::generate(device, d, k, self.seed))
    }

    /// Build the concrete [`GaussianSketch`].
    pub fn build_gaussian(&self, device: &Device) -> Result<GaussianSketch, Error> {
        self.check_kind(SketchKind::Gaussian)?;
        let (d, k) = self.exact_dims()?;
        GaussianSketch::generate(device, d, k, self.seed)
    }

    /// Build the concrete [`Srht`].
    pub fn build_srht(&self, device: &Device) -> Result<Srht, Error> {
        self.check_kind(SketchKind::Srht)?;
        let (d, k) = self.exact_dims()?;
        match self.tile {
            Some(tile) => Srht::generate_with_tile(device, d, k, self.seed, tile),
            None => Srht::generate(device, d, k, self.seed),
        }
    }

    /// Build the concrete [`HashCountSketch`].
    pub fn build_hash_countsketch(&self, _device: &Device) -> Result<HashCountSketch, Error> {
        self.check_kind(SketchKind::HashCountSketch)?;
        let (d, k) = self.exact_dims()?;
        Ok(HashCountSketch::new(d, k, self.seed))
    }

    /// Serialize to a [`JsonValue`].
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            (
                "kind".to_string(),
                JsonValue::Str(self.kind.as_str().into()),
            ),
            (
                "input_dim".to_string(),
                JsonValue::UInt(self.input_dim as u64),
            ),
            ("output_dim".to_string(), self.output_dim.to_json_value()),
            ("seed".to_string(), JsonValue::UInt(self.seed)),
        ];
        if let Some(tile) = self.tile {
            fields.push(("tile".to_string(), JsonValue::UInt(tile as u64)));
        }
        JsonValue::Object(fields)
    }

    /// Parse from a [`JsonValue`].
    pub fn from_json_value(value: &JsonValue) -> Result<Self, Error> {
        let kind = SketchKind::parse(
            value
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| Error::invalid_param("sketch spec is missing \"kind\""))?,
        )?;
        let input_dim = value
            .get("input_dim")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| Error::invalid_param("sketch spec is missing \"input_dim\""))?;
        let output_dim = EmbeddingDim::from_json_value(
            value
                .get("output_dim")
                .ok_or_else(|| Error::invalid_param("sketch spec is missing \"output_dim\""))?,
        )?;
        let seed = value
            .get("seed")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| Error::invalid_param("sketch spec is missing \"seed\""))?;
        let tile = match value.get("tile") {
            Some(t) => Some(
                t.as_usize()
                    .ok_or_else(|| Error::invalid_param("\"tile\" must be an integer"))?,
            ),
            None => None,
        };
        Ok(Self {
            kind,
            input_dim,
            output_dim,
            seed,
            tile,
        })
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Parse from a JSON string.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }
}

impl EmbeddingDim {
    /// Serialize to a [`JsonValue`] (`{"exact": k}`, `{"ratio": c}` or
    /// `{"square": c}`).
    pub fn to_json_value(&self) -> JsonValue {
        let (key, value) = match self {
            EmbeddingDim::Exact(k) => ("exact", *k),
            EmbeddingDim::Ratio(c) => ("ratio", *c),
            EmbeddingDim::Square(c) => ("square", *c),
        };
        JsonValue::Object(vec![(key.to_string(), JsonValue::UInt(value as u64))])
    }

    /// Parse from a [`JsonValue`].
    pub fn from_json_value(value: &JsonValue) -> Result<Self, Error> {
        for (key, make) in [
            ("exact", EmbeddingDim::Exact as fn(usize) -> EmbeddingDim),
            ("ratio", EmbeddingDim::Ratio as fn(usize) -> EmbeddingDim),
            ("square", EmbeddingDim::Square as fn(usize) -> EmbeddingDim),
        ] {
            if let Some(v) = value.get(key) {
                return v
                    .as_usize()
                    .map(make)
                    .ok_or_else(|| Error::invalid_param(format!("\"{key}\" must be an integer")));
            }
        }
        Err(Error::invalid_param(
            "output_dim must be {\"exact\"|\"ratio\"|\"square\": <int>}",
        ))
    }
}

/// A chain of [`SketchSpec`] stages applied left to right: `S = S_p ⋯ S_2 S_1`.
///
/// A one-stage pipeline is just that sketch; the two-stage
/// `[CountSketch, Gaussian]` chain builds the fused [`MultiSketch`] operator
/// (Section 6.1 transpose trick included); any other chain builds a generic
/// composed operator that applies the stages sequentially.
#[must_use = "a Pipeline describes a sketch chain; call build/build_for to construct it"]
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pipeline {
    /// The stages, outermost input first.  Stages after the first may leave
    /// `input_dim = 0` to inherit the previous stage's (resolved) output dimension.
    pub stages: Vec<SketchSpec>,
}

impl Pipeline {
    /// A single-sketch pipeline.
    pub fn single(spec: SketchSpec) -> Self {
        Self { stages: vec![spec] }
    }

    /// A pipeline from explicit stages.
    pub fn new(stages: Vec<SketchSpec>) -> Self {
        Self { stages }
    }

    /// Append a stage.
    pub fn then(mut self, spec: SketchSpec) -> Self {
        self.stages.push(spec);
        self
    }

    /// The paper's Count-Gauss multisketch as a pipeline: CountSketch `d → k₁`
    /// followed by a Gaussian `k₁ → k₂`, with the Gaussian stage's seed salted from
    /// `seed` exactly like [`MultiSketch::generate`] — so building this pipeline is
    /// bit-identical to the fused constructor.
    pub fn count_gauss(input_dim: usize, k1: EmbeddingDim, k2: EmbeddingDim, seed: u64) -> Self {
        Self {
            stages: vec![
                SketchSpec::countsketch(input_dim, k1, seed),
                SketchSpec::gaussian(0, k2, seed ^ GAUSS_STAGE_SEED_SALT),
            ],
        }
    }

    /// Resolve every stage against an operand width: embedding rules become exact
    /// dimensions and inferred (`0`) input dimensions are chained from the previous
    /// stage's output.
    pub fn resolve(&self, ncols: usize) -> Result<Vec<SketchSpec>, Error> {
        if self.stages.is_empty() {
            return Err(Error::invalid_param("pipeline has no stages"));
        }
        let mut resolved = Vec::with_capacity(self.stages.len());
        let mut prev_out: Option<usize> = None;
        for stage in &self.stages {
            let mut stage = stage.try_resolve(ncols)?;
            match (stage.input_dim, prev_out) {
                (0, Some(k)) => stage.input_dim = k,
                (0, None) => {
                    return Err(Error::invalid_param(
                        "first pipeline stage must declare its input dimension",
                    ))
                }
                (d, Some(k)) if d != k => {
                    return Err(Error::invalid_param(format!(
                        "pipeline stage {} expects input dimension {d} but the previous stage produces {k}",
                        stage.kind.as_str()
                    )))
                }
                _ => {}
            }
            prev_out = Some(stage.output_dim.resolve(ncols));
            resolved.push(stage);
        }
        Ok(resolved)
    }

    /// The [`ShardAxis`] of each stage, in application order — the per-stage sharding
    /// contract the multi-device executor follows (e.g. the Count-Gauss multisketch is
    /// `[Rows, Cols]`: block-row fold for the CountSketch stage, column panels for the
    /// small Gaussian stage on the reduced intermediate).
    pub fn shard_axes(&self) -> Vec<ShardAxis> {
        self.stages.iter().map(SketchSpec::shard_axis).collect()
    }

    /// Whether this pipeline is the Count-Gauss multisketch shape.
    pub fn is_count_gauss(&self) -> bool {
        self.stages.len() == 2
            && self.stages[0].kind == SketchKind::CountSketch
            && self.stages[1].kind == SketchKind::Gaussian
    }

    /// The first stage's input dimension.
    pub fn input_dim(&self) -> usize {
        self.stages.first().map_or(0, |s| s.input_dim)
    }

    /// Build for an operand with `ncols` columns.
    pub fn build_for(
        &self,
        device: &Device,
        ncols: usize,
    ) -> Result<Box<dyn SketchOperator>, Error> {
        let resolved = self.resolve(ncols)?;
        if resolved.len() == 1 {
            return resolved[0].build(device);
        }
        if self.is_count_gauss() {
            return Ok(Box::new(self.build_multisketch(device, ncols)?));
        }
        let mut stages = Vec::with_capacity(resolved.len());
        for spec in &resolved {
            stages.push(spec.build(device)?);
        }
        Ok(Box::new(ComposedSketch::new(stages)?))
    }

    /// Build, requiring every stage to carry an exact output dimension already
    /// (`ncols` is irrelevant in that case).
    pub fn build(&self, device: &Device) -> Result<Box<dyn SketchOperator>, Error> {
        for stage in &self.stages {
            if stage.output_dim.needs_ncols() {
                return Err(Error::invalid_param(format!(
                    "pipeline stage {} has embedding rule {:?}; use build_for(device, ncols)",
                    stage.kind.as_str(),
                    stage.output_dim
                )));
            }
        }
        // Any ncols resolves Exact rules to themselves.
        self.build_for(device, 0)
    }

    /// Build the fused [`MultiSketch`] from a `[CountSketch, Gaussian]` pipeline.
    pub fn build_multisketch(&self, device: &Device, ncols: usize) -> Result<MultiSketch, Error> {
        if !self.is_count_gauss() {
            return Err(Error::invalid_param(
                "only a [count-sketch, gaussian] pipeline builds a MultiSketch",
            ));
        }
        let resolved = self.resolve(ncols)?;
        let count = resolved[0].build_countsketch(device)?;
        let gauss = resolved[1].build_gaussian(device)?;
        MultiSketch::new(count, gauss)
    }

    /// Serialize to a [`JsonValue`].
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![(
            "stages".to_string(),
            JsonValue::Array(self.stages.iter().map(SketchSpec::to_json_value).collect()),
        )])
    }

    /// Parse from a [`JsonValue`].
    pub fn from_json_value(value: &JsonValue) -> Result<Self, Error> {
        let stages = value
            .get("stages")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| Error::invalid_param("pipeline is missing \"stages\""))?;
        Ok(Self {
            stages: stages
                .iter()
                .map(SketchSpec::from_json_value)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Parse from a JSON string.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }
}

/// A generic sequential composition of sketch operators (the fallback for pipelines
/// that are not the fused Count-Gauss shape).
pub struct ComposedSketch {
    stages: Vec<Box<dyn SketchOperator>>,
}

impl ComposedSketch {
    /// Compose stages applied left to right; adjacent dimensions must chain.
    pub fn new(stages: Vec<Box<dyn SketchOperator>>) -> Result<Self, Error> {
        if stages.is_empty() {
            return Err(Error::invalid_param("cannot compose zero sketches"));
        }
        for pair in stages.windows(2) {
            if pair[1].input_dim() != pair[0].output_dim() {
                return Err(Error::invalid_param(format!(
                    "cannot chain {} (output {}) into {} (input {})",
                    pair[0].name(),
                    pair[0].output_dim(),
                    pair[1].name(),
                    pair[1].input_dim()
                )));
            }
        }
        Ok(Self { stages })
    }

    /// The composed stages.
    pub fn stages(&self) -> &[Box<dyn SketchOperator>] {
        &self.stages
    }
}

impl std::fmt::Debug for ComposedSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComposedSketch")
            .field(
                "stages",
                &self.stages.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl SketchOperator for ComposedSketch {
    fn input_dim(&self) -> usize {
        self.stages.first().expect("non-empty").input_dim()
    }

    fn output_dim(&self) -> usize {
        self.stages.last().expect("non-empty").output_dim()
    }

    fn name(&self) -> &'static str {
        "Pipeline"
    }

    fn output_layout(&self) -> Layout {
        self.stages.last().expect("non-empty").output_layout()
    }

    fn apply_into(
        &self,
        device: &Device,
        a: Operand<'_>,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), Error> {
        self.check_operand(&a)?;
        self.check_output(out, a.ncols())?;
        let (last, front) = self.stages.split_last().expect("non-empty");
        if front.is_empty() {
            return last.apply_into(device, a, out);
        }
        let mut current = front[0].apply_operand(device, a)?;
        for stage in &front[1..] {
            current = stage.apply_matrix(device, &current)?;
        }
        last.apply_into(device, Operand::Dense(&current), out)
    }

    fn apply_vector(&self, device: &Device, x: &[f64]) -> Result<Vec<f64>, Error> {
        self.check_input_dim(x.len())?;
        let mut current = x.to_vec();
        for stage in &self.stages {
            current = stage.apply_vector(device, &current)?;
        }
        Ok(current)
    }

    fn generation_cost(&self) -> KernelCost {
        self.stages
            .iter()
            .fold(KernelCost::zero(), |acc, s| acc + s.generation_cost())
    }

    fn algorithmic_cost(&self, ncols: usize) -> KernelCost {
        self.stages
            .iter()
            .fold(KernelCost::zero(), |acc, s| acc + s.algorithmic_cost(ncols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sketch_la::Matrix;

    fn device() -> Device {
        Device::unlimited()
    }

    #[test]
    fn embedding_rules_resolve_the_paper_conventions() {
        assert_eq!(EmbeddingDim::Exact(96).resolve(32), 96);
        assert_eq!(EmbeddingDim::Ratio(2).resolve(32), 64);
        assert_eq!(EmbeddingDim::Square(2).resolve(32), 2048);
        assert!(!EmbeddingDim::Exact(1).needs_ncols());
        assert!(EmbeddingDim::Ratio(2).needs_ncols());
    }

    #[test]
    fn embedding_rule_overflow_is_a_typed_error() {
        assert_eq!(EmbeddingDim::Square(2).checked_resolve(32), Some(2048));
        assert_eq!(EmbeddingDim::Ratio(2).checked_resolve(usize::MAX), None);
        assert_eq!(EmbeddingDim::Square(1).checked_resolve(usize::MAX), None);
        assert_eq!(
            EmbeddingDim::Exact(usize::MAX).checked_resolve(usize::MAX),
            Some(usize::MAX)
        );
        let spec = SketchSpec::countsketch(64, EmbeddingDim::Square(2), 1);
        let invalid = |r: Result<(), Error>| matches!(r, Err(Error::InvalidParameter { .. }));
        assert!(invalid(spec.try_resolve(usize::MAX).map(|_| ())));
        assert!(invalid(
            spec.build_for(&Device::unlimited(), usize::MAX).map(|_| ())
        ));
        assert!(invalid(
            Pipeline::single(spec).resolve(usize::MAX).map(|_| ())
        ));
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn infallible_resolve_panics_instead_of_wrapping() {
        let _ = EmbeddingDim::Square(2).resolve(usize::MAX);
    }

    #[test]
    fn shard_axes_follow_the_kernel_contract() {
        assert_eq!(SketchKind::CountSketch.shard_axis(), ShardAxis::Rows);
        assert_eq!(SketchKind::HashCountSketch.shard_axis(), ShardAxis::Rows);
        assert_eq!(SketchKind::Gaussian.shard_axis(), ShardAxis::Cols);
        assert_eq!(SketchKind::Srht.shard_axis(), ShardAxis::Cols);
        let spec = SketchSpec::countsketch(64, EmbeddingDim::Exact(8), 1);
        assert_eq!(spec.shard_axis(), ShardAxis::Rows);
        let plan = Pipeline::count_gauss(64, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 1);
        assert_eq!(plan.shard_axes(), vec![ShardAxis::Rows, ShardAxis::Cols]);
    }

    #[test]
    fn specs_build_every_kind() {
        let d = device();
        for (spec, expect_name) in [
            (
                SketchSpec::countsketch(128, EmbeddingDim::Exact(32), 1),
                "CountSketch (Alg 2)",
            ),
            (
                SketchSpec::gaussian(128, EmbeddingDim::Exact(16), 2),
                "Gaussian",
            ),
            (SketchSpec::srht(128, EmbeddingDim::Exact(16), 3), "SRHT"),
            (
                SketchSpec::hash_countsketch(128, EmbeddingDim::Exact(32), 4),
                "CountSketch (hash/streaming)",
            ),
        ] {
            let op = spec.build(&d).unwrap();
            assert_eq!(op.name(), expect_name);
            assert_eq!(op.input_dim(), 128);
        }
    }

    #[test]
    fn build_matches_the_direct_constructors_bit_for_bit() {
        let d = device();
        let spec = SketchSpec::countsketch(200, EmbeddingDim::Exact(24), 9);
        let via_spec = spec.build_countsketch(&d).unwrap();
        let direct = CountSketch::generate(&d, 200, 24, 9);
        assert_eq!(via_spec.rows(), direct.rows());
        assert_eq!(via_spec.signs(), direct.signs());

        let gspec = SketchSpec::gaussian(64, EmbeddingDim::Exact(8), 5);
        let g1 = gspec.build_gaussian(&d).unwrap();
        let g2 = GaussianSketch::generate(&d, 64, 8, 5).unwrap();
        assert_eq!(g1.matrix(), g2.matrix());
    }

    #[test]
    fn count_gauss_pipeline_is_bit_identical_to_multisketch_generate() {
        let d = device();
        let plan = Pipeline::count_gauss(512, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 7);
        assert!(plan.is_count_gauss());
        let ms_plan = plan.build_multisketch(&d, 6).unwrap();
        let ms_direct = MultiSketch::generate(&d, 512, 72, 12, 7).unwrap();
        assert_eq!(ms_plan.count_stage().rows(), ms_direct.count_stage().rows());
        assert_eq!(
            ms_plan.gauss_stage().matrix(),
            ms_direct.gauss_stage().matrix()
        );

        // build_for dispatches the same fused operator.
        let op = plan.build_for(&d, 6).unwrap();
        assert_eq!(op.name(), "MultiSketch (Count-Gauss)");
        assert_eq!(op.output_dim(), 12);
    }

    #[test]
    fn generic_pipelines_compose_sequentially() {
        let d = device();
        // SRHT down to 64, then a CountSketch down to 16: not the fused shape.
        let plan = Pipeline::single(SketchSpec::srht(256, EmbeddingDim::Exact(64), 1))
            .then(SketchSpec::countsketch(0, EmbeddingDim::Exact(16), 2));
        let op = plan.build_for(&d, 3).unwrap();
        assert_eq!(op.name(), "Pipeline");
        assert_eq!((op.input_dim(), op.output_dim()), (256, 16));

        let a = Matrix::random_gaussian(256, 3, Layout::RowMajor, 4, 0);
        let y = op.apply_matrix(&d, &a).unwrap();
        assert_eq!((y.nrows(), y.ncols()), (16, 3));

        // Matches applying the stages by hand.
        let srht = SketchSpec::srht(256, EmbeddingDim::Exact(64), 1)
            .build_srht(&d)
            .unwrap();
        let cs = SketchSpec::countsketch(64, EmbeddingDim::Exact(16), 2)
            .build_countsketch(&d)
            .unwrap();
        let manual = cs
            .apply_matrix(&d, &srht.apply_matrix(&d, &a).unwrap())
            .unwrap();
        assert!(y.max_abs_diff(&manual).unwrap() < 1e-12);

        // And the vector path chains too.
        let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.01).sin()).collect();
        let yv = op.apply_vector(&d, &x).unwrap();
        assert_eq!(yv.len(), 16);
        assert!(op.generation_cost().total_bytes() > 0);
        assert!(op.algorithmic_cost(3).flops > 0);
    }

    #[test]
    fn invalid_specs_and_pipelines_are_rejected() {
        let d = device();
        // Rule without ncols.
        let spec = SketchSpec::countsketch(100, EmbeddingDim::Square(2), 1);
        assert!(spec.build(&d).is_err());
        assert!(spec.build_for(&d, 4).is_ok());
        // Zero dims.
        assert!(SketchSpec::countsketch(0, EmbeddingDim::Exact(4), 1)
            .build(&d)
            .is_err());
        assert!(SketchSpec::countsketch(10, EmbeddingDim::Exact(0), 1)
            .build(&d)
            .is_err());
        // Kind mismatch on typed builders.
        assert!(SketchSpec::gaussian(10, EmbeddingDim::Exact(4), 1)
            .build_countsketch(&d)
            .is_err());
        // Empty pipeline, inferred first stage, mismatched chain.
        assert!(Pipeline::new(vec![]).build_for(&d, 4).is_err());
        assert!(
            Pipeline::single(SketchSpec::countsketch(0, EmbeddingDim::Exact(4), 1))
                .build_for(&d, 4)
                .is_err()
        );
        let bad_chain = Pipeline::new(vec![
            SketchSpec::countsketch(64, EmbeddingDim::Exact(32), 1),
            SketchSpec::gaussian(31, EmbeddingDim::Exact(8), 2),
        ]);
        assert!(bad_chain.build_for(&d, 4).is_err());
    }

    #[test]
    fn spec_json_round_trips_and_rebuilds_bit_identically() {
        let d = device();
        // Large seed exercises full u64 fidelity through the JSON layer.
        let seed = 0xDEAD_BEEF_1234_5678u64;
        let spec = SketchSpec::srht(300, EmbeddingDim::Exact(40), seed).with_tile(256);
        let text = spec.to_json();
        let back = SketchSpec::from_json(&text).unwrap();
        assert_eq!(spec, back);

        let a = Matrix::random_gaussian(300, 3, Layout::ColMajor, 1, 0);
        let y1 = spec.build(&d).unwrap().apply_matrix(&d, &a).unwrap();
        let y2 = back.build(&d).unwrap().apply_matrix(&d, &a).unwrap();
        assert_eq!(y1.as_slice(), y2.as_slice());
    }

    #[test]
    fn pipeline_json_round_trips() {
        let plan = Pipeline::count_gauss(
            1 << 14,
            EmbeddingDim::Square(2),
            EmbeddingDim::Ratio(2),
            0xFFFF_FFFF_FFFF_FFFF,
        );
        let back = Pipeline::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back);
        // The salted Gaussian-stage seed survives the text round trip exactly.
        assert_eq!(back.stages[1].seed, plan.stages[1].seed);
    }

    #[test]
    fn malformed_json_specs_error_cleanly() {
        assert!(SketchSpec::from_json("{").is_err());
        assert!(SketchSpec::from_json("{\"kind\": \"martian\"}").is_err());
        assert!(SketchSpec::from_json(
            "{\"kind\": \"srht\", \"input_dim\": 4, \"output_dim\": {\"weird\": 1}, \"seed\": 0}"
        )
        .is_err());
        assert!(Pipeline::from_json("{\"stages\": 3}").is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Serde round trip rebuilds bit-identical sketches for every kind and seed
        /// under the Philox seed-salting convention.
        #[test]
        fn prop_spec_round_trip_rebuilds_identical_sketches(
            d_dim in 8usize..64,
            k in 2usize..16,
            seed in 0u64..u64::MAX,
        ) {
            let dev = device();
            for spec in [
                SketchSpec::countsketch(d_dim, EmbeddingDim::Exact(k), seed),
                SketchSpec::gaussian(d_dim, EmbeddingDim::Exact(k), seed),
                SketchSpec::hash_countsketch(d_dim, EmbeddingDim::Exact(k), seed),
            ] {
                let back = SketchSpec::from_json(&spec.to_json()).unwrap();
                prop_assert_eq!(&spec, &back);
                let a = Matrix::random_gaussian(d_dim, 2, Layout::RowMajor, 11, 0);
                let y1 = spec.build(&dev).unwrap().apply_matrix(&dev, &a).unwrap();
                let y2 = back.build(&dev).unwrap().apply_matrix(&dev, &a).unwrap();
                prop_assert_eq!(y1.as_slice(), y2.as_slice());
            }
        }
    }
}
