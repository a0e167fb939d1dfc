//! The traced pass's span tree, timed from outside the library.
//!
//! Each node is one public call (or a sum of calls of one kind) into a layer,
//! with its measured wall time and the modelled device time of the cost it
//! charged.  A parent's `unattributed_ms` is the wall time its children do not
//! cover.  Children are parts of the parent timed in place (a serve batch's
//! submits and run), records the parent returned (the solvers'
//! `PhaseRecord`s), or the benchmark's own replays of the calls the parent
//! makes, on the same inputs; replays are checked bit-for-bit against the
//! parent's output where they produce the same value.

use sketch_gpu_sim::{DevicePool, KernelCost};
use sketch_obs::{JsonValue, Stopwatch};

/// A parent whose unattributed time is above this share of its wall time is
/// reported (not failed).
pub const UNATTRIBUTED_SHARE: f64 = 0.10;

/// One span of the traced op.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Crate the call goes into (`sketch-lsq`, `sketch-core`, …).
    pub layer: &'static str,
    /// The public entry point.
    pub name: String,
    /// How many calls the node sums.
    pub calls: u64,
    /// Measured wall time.
    pub wall_ms: f64,
    /// Modelled device time of the cost the call charged.
    pub modelled_ms: f64,
    /// Spans inside this one.
    pub children: Vec<Node>,
}

impl Node {
    /// A single call.
    pub fn new(
        layer: &'static str,
        name: impl Into<String>,
        wall_ms: f64,
        modelled_ms: f64,
    ) -> Self {
        Self {
            layer,
            name: name.into(),
            calls: 1,
            wall_ms,
            modelled_ms,
            children: Vec::new(),
        }
    }

    /// Wall time not covered by the children; 0 for a leaf.
    pub fn unattributed_ms(&self) -> f64 {
        if self.children.is_empty() {
            0.0
        } else {
            self.wall_ms - self.children.iter().map(|c| c.wall_ms).sum::<f64>()
        }
    }

    /// Fold `other` (a call of the same kind) into this node; children are
    /// matched by layer and name.
    pub fn absorb(&mut self, other: Node) {
        self.calls += other.calls;
        self.wall_ms += other.wall_ms;
        self.modelled_ms += other.modelled_ms;
        for child in other.children {
            self.adopt(child);
        }
    }

    /// Add `child`, summing it into an existing child of the same kind.
    pub fn adopt(&mut self, child: Node) {
        match self
            .children
            .iter_mut()
            .find(|c| c.layer == child.layer && c.name == child.name)
        {
            Some(existing) => existing.absorb(child),
            None => self.children.push(child),
        }
    }

    /// The child named `name`, if any.
    pub fn child_mut(&mut self, name: &str) -> Option<&mut Node> {
        self.children.iter_mut().find(|c| c.name == name)
    }

    /// Paths of the parents whose unattributed time exceeds
    /// [`UNATTRIBUTED_SHARE`] of their wall time.
    pub fn flagged(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.flag_into("", &mut out);
        out
    }

    fn flag_into(&self, prefix: &str, out: &mut Vec<String>) {
        let path = format!("{prefix}/{}", self.name);
        if !self.children.is_empty() && self.unattributed_ms() > UNATTRIBUTED_SHARE * self.wall_ms {
            out.push(path.clone());
        }
        for c in &self.children {
            c.flag_into(&path, out);
        }
    }

    /// The `{layer, name, wall_ms, modelled_ms, unattributed_ms, children}` tree.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("layer".into(), JsonValue::Str(self.layer.into())),
            ("name".into(), JsonValue::Str(self.name.clone())),
            ("calls".into(), JsonValue::UInt(self.calls)),
            ("wall_ms".into(), JsonValue::Float(self.wall_ms)),
            ("modelled_ms".into(), JsonValue::Float(self.modelled_ms)),
            (
                "unattributed_ms".into(),
                JsonValue::Float(self.unattributed_ms()),
            ),
            (
                "children".into(),
                JsonValue::Array(self.children.iter().map(Node::to_json).collect()),
            ),
        ])
    }
}

/// Times calls into the library and reads the modelled cost they charged to
/// a pool's devices.
pub struct Probe<'a> {
    pool: &'a DevicePool,
}

impl<'a> Probe<'a> {
    /// A probe over every device of `pool` (subpools share its devices).
    pub fn new(pool: &'a DevicePool) -> Self {
        Self { pool }
    }

    /// Run `f` as one span.
    pub fn call<T>(
        &self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Node, KernelCost) {
        let before = self.pool.total_cost();
        let sw = Stopwatch::start();
        let out = f();
        let wall_ms = sw.elapsed_seconds() * 1e3;
        let cost = self.pool.total_cost() - before;
        let modelled_ms = self.pool.device(0).model_time(&cost) * 1e3;
        (out, Node::new(layer, name, wall_ms, modelled_ms), cost)
    }
}

/// Work, wall time and modelled time summed over calls of one kernel kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    bytes: u64,
    flops: u64,
    wall_ms: f64,
    modelled_ms: f64,
}

impl Tally {
    /// Count one call.
    pub fn add(&mut self, node: &Node, cost: &KernelCost) {
        self.bytes += cost.total_bytes();
        self.flops += cost.flops;
        self.wall_ms += node.wall_ms;
        self.modelled_ms += node.modelled_ms;
    }

    /// Bytes the cost model charged, per second of measured wall time, in GB/s.
    pub fn gbps(&self) -> f64 {
        rate(self.bytes as f64, self.wall_ms)
    }

    /// Modelled flops per second of measured wall time, in GFLOP/s.
    pub fn gflops(&self) -> f64 {
        rate(self.flops as f64, self.wall_ms)
    }

    /// Measured wall time over modelled device time.
    pub fn model_ratio(&self) -> f64 {
        if self.modelled_ms > 0.0 {
            self.wall_ms / self.modelled_ms
        } else {
            0.0
        }
    }
}

fn rate(work: f64, wall_ms: f64) -> f64 {
    if wall_ms > 0.0 {
        work / (wall_ms * 1e-3) / 1e9
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Node {
        let mut root = Node::new("sketch-lsq", "solve", 10.0, 1.0);
        let mut phase = Node::new("sketch-lsq", "matrix_sketch", 7.0, 0.5);
        phase.adopt(Node::new("sketch-dist", "pipelined_sketch", 5.0, 0.5));
        root.adopt(phase);
        root.adopt(Node::new("sketch-lsq", "trsv", 1.0, 0.1));
        root.adopt(Node::new("sketch-lsq", "trsv", 1.0, 0.1));
        root
    }

    #[test]
    fn unattributed_time_is_reported_at_every_parent() {
        let root = tree();
        assert_eq!(root.children.len(), 2, "same-named calls merge");
        assert_eq!(root.children[1].calls, 2);
        assert!((root.unattributed_ms() - 1.0).abs() < 1e-12);
        assert!((root.children[0].unattributed_ms() - 2.0).abs() < 1e-12);
        assert_eq!(root.children[1].unattributed_ms(), 0.0);
        // 1 ms of 10 is not above 10%; 2 ms of 7 is.
        assert_eq!(root.flagged(), vec!["/solve/matrix_sketch".to_string()]);
    }

    #[test]
    fn tree_json_carries_the_schema() {
        let doc = tree().to_json();
        for key in [
            "layer",
            "name",
            "wall_ms",
            "modelled_ms",
            "unattributed_ms",
            "children",
        ] {
            assert!(doc.get(key).is_some(), "{key}");
        }
        let text = doc.render();
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    }

    #[test]
    fn tally_rates() {
        let mut t = Tally::default();
        let node = Node::new("sketch-la", "gram_gemm", 2.0, 1.0);
        t.add(&node, &KernelCost::new(1_000_000, 1_000_000, 4_000_000, 1));
        assert!((t.gbps() - 1.0).abs() < 1e-12);
        assert!((t.gflops() - 2.0).abs() < 1e-12);
        assert_eq!(t.model_ratio(), 2.0);
        assert_eq!(Tally::default().gbps(), 0.0);
    }
}
