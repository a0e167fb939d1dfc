//! What every workload provides to the shared timed and traced passes.

use crate::trace::Node;
use sketch_gpu_sim::{DevicePool, KernelCost};
use sketch_la::Matrix;
use std::collections::BTreeMap;

/// One traced op: its span tree and the layer metrics read off it.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The span tree of the op.
    pub root: Node,
    /// Layer metrics by name (e.g. `la.geqrf_ms`).
    pub layers: BTreeMap<String, f64>,
    /// The op's outputs, and every replay that reproduces one, matched the
    /// timed pass bit for bit.
    pub bits_equal: bool,
}

/// A workload after set-up: inputs generated, pool built, warm-up op done and
/// its output kept as the reference every later op must reproduce.
pub trait Workload {
    /// The pool the ops run on (the trace recorder attaches here).
    fn pool(&self) -> &DevicePool;
    /// Bytes of operand data one op reads.
    fn operand_bytes(&self) -> u64;
    /// Modelled device time of one op, in ms.
    fn modelled_ms(&self) -> f64;
    /// Device cost one op charges (exact counts).
    fn op_cost(&self) -> KernelCost;
    /// One op of the timed pass: the wall time of the library call alone, and
    /// whether its output passed the checks (done after the clock stops).
    fn op(&mut self) -> (f64, bool);
    /// Timed samples of the calls an op is made of, by metric prefix (e.g.
    /// `solve_ms.multi`), one per timed op; none for a single-call op.
    fn parts(&self) -> Vec<(String, &[f64])> {
        Vec::new()
    }
    /// One op of the traced pass.
    fn traced_op(&mut self) -> Result<Traced, String>;
    /// The expensive checks of the reference output, run once outside any
    /// timing; returns extra layer metrics, or why the reference is wrong.
    fn verify(&self) -> Result<BTreeMap<String, f64>, String>;
}

/// Bit patterns of a slice of floats: the repository's determinism contract
/// is bit-for-bit, so outputs are compared this way.
pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Same shape and the same bits in every entry, whatever the layouts.
pub fn same_matrix(a: &Matrix, b: &Matrix) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && (0..a.nrows())
            .all(|i| (0..a.ncols()).all(|j| a.get(i, j).to_bits() == b.get(i, j).to_bits()))
}

/// A library error as the message the benchmark reports.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Add `value` to the layer metric `name` (metrics of repeated calls sum).
pub fn put(layers: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    *layers.entry(name.to_string()).or_insert(0.0) += value;
}
