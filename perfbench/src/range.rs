//! `rangefinder_csr`: the randomized rangefinder with a CountSketch test matrix
//! and one power iteration, on a tall random CSR matrix (about 1% fill) on a
//! pool of one.  The only workload dominated by `sketch-sparse` (SpMM both
//! ways and the counting-sort transpose) and by tall Householder QR.

use crate::inputs::{mix, random_csr};
use crate::trace::{Node, Probe, Tally};
use crate::workload::{bits, err, put, Traced, Workload};
use sketch_dist::ExecutorOptions;
use sketch_gpu_sim::{Device, DevicePool, KernelCost};
use sketch_la::blas3::gram_gemm;
use sketch_la::qr::geqrf;
use sketch_la::Matrix;
use sketch_lowrank::{range_finder, LowRankParams, RangeSketch};
use sketch_obs::Stopwatch;
use sketch_sparse::{spmm, CsrMatrix};
use std::collections::BTreeMap;

/// Operand rows.
pub const ROWS: usize = 1 << 15;
/// Operand columns.
pub const COLS: usize = 2048;
/// Random draws: 1% of the entries.
pub const DRAWS: usize = ROWS * COLS / 100;
/// Target rank.
pub const RANK: usize = 32;
/// `‖QᵀQ − I‖_max` a computed basis must meet.
const ORTHO_TOL: f64 = 1e-10;

/// The rangefinder workload after set-up.
pub struct Range {
    pool: DevicePool,
    a: CsrMatrix,
    params: LowRankParams,
    reference: Matrix,
    cost: KernelCost,
}

/// Generate the seeded CSR matrix and run the warm-up rangefinder.
pub fn setup(seed: u64) -> Result<Range, String> {
    let pool = DevicePool::h100(1);
    let a = random_csr(seed, ROWS, COLS, DRAWS);
    let params = LowRankParams::new(RANK)
        .with_power_iters(1)
        .with_sketch(RangeSketch::CountSketch)
        .with_seed(mix(seed, 4), 0);
    let before = pool.total_cost();
    let reference = range_finder(&pool, &a, &params, &ExecutorOptions::default()).map_err(err)?;
    let cost = pool.total_cost() - before;
    Ok(Range {
        pool,
        a,
        params,
        reference,
        cost,
    })
}

impl Range {
    fn call(&self) -> Result<Matrix, String> {
        range_finder(
            &self.pool,
            &self.a,
            &self.params,
            &ExecutorOptions::default(),
        )
        .map_err(err)
    }
}

/// The traced op's replay: the span tree it grows, and what it measures.
struct Replay<'a> {
    probe: Probe<'a>,
    dev: &'a Device,
    root: Node,
    layers: BTreeMap<String, f64>,
    spmm: Tally,
    qr: Tally,
}

impl Replay<'_> {
    /// Orthonormalise `y` as the rangefinder does: Householder QR, thin Q.
    fn orthonormalize(&mut self, y: &Matrix) -> Result<Matrix, String> {
        let dev = self.dev;
        let (f, node, cost) = self.probe.call("sketch-la", "geqrf", || geqrf(dev, y));
        let f = f.map_err(err)?;
        self.qr.add(&node, &cost);
        put(&mut self.layers, "la.geqrf_ms", node.wall_ms);
        self.root.adopt(node);
        let (q, node, cost) = self.probe.call("sketch-la", "q_thin", || f.q_thin(dev));
        self.qr.add(&node, &cost);
        put(&mut self.layers, "la.q_thin_ms", node.wall_ms);
        self.root.adopt(node);
        Ok(q)
    }

    /// `s · b` by SpMM, booked as the span `name` and the metric `sparse.<name>_ms`.
    fn spmm(&mut self, name: &str, s: &CsrMatrix, b: &Matrix) -> Matrix {
        let dev = self.dev;
        let (y, node, cost) = self.probe.call("sketch-sparse", name, || spmm(dev, s, b));
        self.spmm.add(&node, &cost);
        put(&mut self.layers, &format!("sparse.{name}_ms"), node.wall_ms);
        self.root.adopt(node);
        y
    }
}

impl Workload for Range {
    fn pool(&self) -> &DevicePool {
        &self.pool
    }

    fn operand_bytes(&self) -> u64 {
        self.a.size_bytes()
    }

    fn modelled_ms(&self) -> f64 {
        self.pool.device(0).model_time(&self.cost) * 1e3
    }

    fn op_cost(&self) -> KernelCost {
        self.cost
    }

    fn op(&mut self) -> (f64, bool) {
        let sw = Stopwatch::start();
        let q = self.call();
        let wall_ms = sw.elapsed_seconds() * 1e3;
        let ok = matches!(&q, Ok(q) if bits(q.as_slice()) == bits(self.reference.as_slice()));
        (wall_ms, ok)
    }

    /// The rangefinder, then its HMT steps replayed one call at a time:
    /// test matrix, `Y = AΩ`, orthonormalise, `Aᵀ` by counting sort,
    /// `Z = AᵀQ`, orthonormalise, `AZ`, orthonormalise.
    fn traced_op(&mut self) -> Result<Traced, String> {
        let probe = Probe::new(&self.pool);
        let dev = self.pool.device(0);
        let (q_lib, root, _) = probe.call("sketch-lowrank", "range_finder", || self.call());
        let q_lib = q_lib?;
        let mut r = Replay {
            probe,
            dev,
            root,
            layers: BTreeMap::new(),
            spmm: Tally::default(),
            qr: Tally::default(),
        };

        let (m, n) = (self.a.nrows(), self.a.ncols());
        let p = &self.params;
        let l = (p.k + p.oversample).min(m.min(n));
        let (omega, mut node, _) =
            r.probe
                .call("sketch-lowrank", "RangeSketch::test_matrix", || {
                    p.sketch.test_matrix(dev, n, l, p.seed, p.stream)
                });
        let omega = omega.map_err(err)?;
        put(&mut r.layers, "lowrank.test_matrix_ms", node.wall_ms);
        let spec = p
            .sketch
            .spec(n, l, p.seed, p.stream)
            .expect("CountSketch has a spec");
        let (cs, gen, _) = r
            .probe
            .call("sketch-core", "SketchSpec::build_countsketch", || {
                spec.build_countsketch(dev)
            });
        cs.map_err(err)?;
        put(&mut r.layers, "core.generate_ms", gen.wall_ms);
        node.adopt(gen);
        r.root.adopt(node);

        let y = r.spmm("spmm", &self.a, &omega);
        let mut q = r.orthonormalize(&y)?;
        for _ in 0..p.power_iters {
            let (at, node, _) = r.probe.call("sketch-sparse", "CsrMatrix::transpose", || {
                self.a.transpose()
            });
            put(&mut r.layers, "sparse.transpose_ms", node.wall_ms);
            r.root.adopt(node);
            let z = r.spmm("spmm_t", &at, &q);
            let z = r.orthonormalize(&z)?;
            let y = r.spmm("spmm", &self.a, &z);
            q = r.orthonormalize(&y)?;
        }
        let unattributed = r.root.unattributed_ms();
        let Replay {
            root,
            mut layers,
            spmm,
            qr,
            ..
        } = r;
        put(&mut layers, "lowrank.unattributed_ms", unattributed);
        put(&mut layers, "sparse.spmm_gbps", spmm.gbps());
        put(&mut layers, "sim.model_ratio.spmm", spmm.model_ratio());
        put(&mut layers, "la.qr_gflops", qr.gflops());
        put(&mut layers, "sim.model_ratio.geqrf", qr.model_ratio());
        let reference = bits(self.reference.as_slice());
        Ok(Traced {
            bits_equal: bits(q_lib.as_slice()) == reference && bits(q.as_slice()) == reference,
            root,
            layers,
        })
    }

    fn verify(&self) -> Result<BTreeMap<String, f64>, String> {
        let dev = self.pool.device(0);
        let g = gram_gemm(dev, &self.reference).map_err(err)?;
        let mut worst = 0.0f64;
        for i in 0..g.nrows() {
            for j in 0..g.ncols() {
                let target = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((g.get(i, j) - target).abs());
            }
        }
        if worst <= ORTHO_TOL {
            Ok(BTreeMap::new())
        } else {
            Err(format!(
                "rangefinder basis is not orthonormal: |QᵀQ - I|_max = {worst:e}"
            ))
        }
    }
}
