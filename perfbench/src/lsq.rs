//! `lsq_solve`: the paper's Figure-5 least-squares problem
//! (`LsqProblem::performance`, κ = 10², dense, row-major).  One op is a round
//! of three solves on the same problem: Normal Equations (never sketches, the
//! control for every sketch change), Multi (mostly CountSketch work) and
//! rand_cholQR (the sketch plus TRSM and Gram over all of d x n).

use crate::inputs::{mix, LsqShape};
use crate::trace::{Node, Probe, Tally};
use crate::workload::{bits, err, put, same_matrix, Traced, Workload};
use sketch_core::{Operand, Pipeline, SketchOperator};
use sketch_dist::{pipelined_sketch, ExecutorOptions, PipelinedRun};
use sketch_gpu_sim::{DevicePool, KernelCost, Phase};
use sketch_la::blas2::{gemv, trsv, Triangle};
use sketch_la::blas3::{gram_gemm, trsm_right};
use sketch_la::chol::potrf_upper;
use sketch_la::norms::relative_residual;
use sketch_la::qr::geqrf;
use sketch_la::{Layout, Matrix, Op};
use sketch_lsq::solvers::{best_residual, distortion_bound};
use sketch_lsq::{solve, LsqProblem, Method};
use sketch_obs::Stopwatch;
use std::collections::BTreeMap;

/// Problem size: d ≈ 2^16 rows, n = 32 columns.  A (16 MiB) stays in the
/// last-level cache: at 2^18 the round time followed the memory traffic of
/// other tenants of the host and spread 22% between runs.
pub const SHAPE: LsqShape = LsqShape {
    base_rows: 1 << 16,
    row_step: 16,
    row_steps: 64,
    cols: 32,
};

/// Residual envelope of the sketched solver: the sketch-and-solve distortion
/// bound at ε = 0.9, the envelope of the solver's own tests (at ε = 1/2 some
/// seeds' Multi residual, about 1.74 x optimal, would fail).  The direct
/// solvers must reach the optimum to 1e-6.
const SKETCH_EPS: f64 = 0.9;
const DIRECT_SLACK: f64 = 1.0 + 1e-6;

/// Metric-name key of a method.
fn key(method: Method) -> &'static str {
    match method {
        Method::MultiSketch => "multi",
        Method::NormalEquations => "normal_eq",
        Method::RandCholQr => "rand_cholqr",
        _ => "other",
    }
}

/// Snake-case name of a solver phase.
fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::GramMatrix => "gram",
        Phase::ATransposeB => "atb",
        Phase::SketchGen => "sketch_gen",
        Phase::MatrixSketch => "matrix_sketch",
        Phase::VectorSketch => "vector_sketch",
        Phase::Potrf => "potrf",
        Phase::Geqrf => "geqrf",
        Phase::Ormqr => "ormqr",
        Phase::Trsv => "trsv",
        Phase::Trsm => "trsm",
        Phase::Other(name) => name,
    }
}

/// Put `node` under the phase span `phase` (or the root if the solver did not
/// report that phase).
fn under(root: &mut Node, phase: &str, node: Node) {
    match root.child_mut(phase) {
        Some(p) => p.adopt(node),
        None => root.adopt(node),
    }
}

/// The methods of a round, in the order they run.
pub const METHODS: [Method; 3] = [
    Method::NormalEquations,
    Method::MultiSketch,
    Method::RandCholQr,
];

/// One method of the round: its warm-up solution and its timed samples.
struct Solver {
    method: Method,
    reference: Vec<f64>,
    model_ms: f64,
    samples: Vec<f64>,
}

/// The least-squares workload after set-up.
pub struct Lsq {
    pool: DevicePool,
    problem: LsqProblem,
    sketch_seed: u64,
    solvers: Vec<Solver>,
    cost: KernelCost,
}

/// Generate the seeded problem on a one-H100 pool and run the warm-up round.
pub fn setup(seed: u64) -> Result<Lsq, String> {
    let pool = DevicePool::h100(1);
    let problem =
        LsqProblem::performance(pool.device(0), SHAPE.rows(seed), SHAPE.cols, seed).map_err(err)?;
    let sketch_seed = mix(seed, 3);
    let before = pool.total_cost();
    let solvers = METHODS
        .iter()
        .map(|&method| {
            let sol = solve(&pool, &problem, method, sketch_seed).map_err(err)?;
            Ok(Solver {
                method,
                model_ms: sol.model_ms(),
                reference: sol.x,
                samples: Vec::new(),
            })
        })
        .collect::<Result<_, String>>()?;
    let cost = pool.total_cost() - before;
    Ok(Lsq {
        pool,
        problem,
        sketch_seed,
        solvers,
        cost,
    })
}

/// Per-kernel tallies of one traced op.
#[derive(Default)]
struct Tallies {
    countsketch: Tally,
    gram: Tally,
    qr: Tally,
    /// `PipelinedRun::overlap_efficiency` of each executor run.
    overlap: Vec<f64>,
}

impl Lsq {
    fn plan(&self, method: Method) -> Pipeline {
        method
            .sketch_pipeline(self.problem.nrows(), self.sketch_seed)
            .expect("a sketched method has a pipeline")
    }

    /// The matrix sketch through the executor, and under it the operator
    /// stages applied one by one.
    fn replay_matrix_sketch(
        &self,
        probe: &Probe<'_>,
        plan: &Pipeline,
        layers: &mut BTreeMap<String, f64>,
        t: &mut Tallies,
    ) -> Result<(PipelinedRun, Node), String> {
        let dev = self.pool.device(0);
        let a = &self.problem.a;
        let n = self.problem.ncols();
        let (run, mut node, _) = probe.call("sketch-dist", "pipelined_sketch", || {
            pipelined_sketch(&self.pool, a, plan, &ExecutorOptions::default())
        });
        let run = run.map_err(err)?;
        node.modelled_ms = run.pipelined_seconds * 1e3;
        put(layers, "dist.sketch_ms", node.wall_ms);
        put(
            layers,
            "dist.shards",
            run.schedules.iter().map(|s| s.num_shards()).sum::<usize>() as f64,
        );
        put(layers, "dist.comm_bytes", run.comm_total_bytes() as f64);
        put(
            layers,
            "dist.timeline_ops",
            run.timeline.entries().len() as f64,
        );
        t.overlap.push(run.overlap_efficiency());

        let stages = plan.resolve(n).map_err(err)?;
        let cs = stages[0].build_countsketch(dev).map_err(err)?;
        let mut y1 = Matrix::zeros_with_layout(cs.output_dim(), n, cs.output_layout());
        let (r, cs_node, cost) = probe.call("sketch-core", "CountSketch::apply_into", || {
            cs.apply_into(dev, Operand::Dense(a), &mut y1.view_mut())
        });
        r.map_err(err)?;
        t.countsketch.add(&cs_node, &cost);
        put(layers, "core.countsketch_apply_ms", cs_node.wall_ms);
        node.adopt(cs_node);
        let staged = match stages.get(1) {
            Some(stage) => {
                let g = stage.build(dev).map_err(err)?;
                let mut y2 = Matrix::zeros_with_layout(g.output_dim(), n, g.output_layout());
                let (r, g_node, _) =
                    probe.call("sketch-core", "GaussianSketch::apply_into", || {
                        g.apply_into(dev, Operand::Dense(&y1), &mut y2.view_mut())
                    });
                r.map_err(err)?;
                put(layers, "core.gaussian_apply_ms", g_node.wall_ms);
                node.adopt(g_node);
                y2
            }
            None => y1,
        };
        if !same_matrix(&staged, &run.result) {
            return Err("the stage-by-stage sketch differs from the executor's".into());
        }
        Ok((run, node))
    }

    /// Normal equations: Gram, Aᵀb, Cholesky, two triangular solves.
    fn replay_normal_eq(
        &self,
        probe: &Probe<'_>,
        root: &mut Node,
        layers: &mut BTreeMap<String, f64>,
        t: &mut Tallies,
    ) -> Result<Vec<f64>, String> {
        let dev = self.pool.device(0);
        let (a, b) = (&self.problem.a, &self.problem.b);
        let (gram, node, cost) = probe.call("sketch-la", "gram_gemm", || gram_gemm(dev, a));
        let gram = gram.map_err(err)?;
        t.gram.add(&node, &cost);
        put(layers, "la.gram_ms", node.wall_ms);
        under(root, "gram", node);
        let (atb, node, _) = probe.call("sketch-la", "gemv", || {
            gemv(dev, 1.0, Op::Trans, a, b, 0.0, None)
        });
        let atb = atb.map_err(err)?;
        under(root, "atb", node);
        let (r, node, _) = probe.call("sketch-la", "potrf_upper", || potrf_upper(dev, &gram));
        let r = r.map_err(err)?;
        put(layers, "la.potrf_ms", node.wall_ms);
        under(root, "potrf", node);
        let (x, node, _) = probe.call("sketch-la", "trsv", || {
            let y = trsv(dev, Triangle::Upper, Op::Trans, &r, &atb)?;
            trsv(dev, Triangle::Upper, Op::NoTrans, &r, &y)
        });
        under(root, "trsv", node);
        x.map_err(err)
    }

    /// Multisketch sketch-and-solve: generate, sketch A on the engine, sketch
    /// b, QR the small sketch, solve.
    fn replay_multi(
        &self,
        probe: &Probe<'_>,
        root: &mut Node,
        layers: &mut BTreeMap<String, f64>,
        t: &mut Tallies,
    ) -> Result<Vec<f64>, String> {
        let dev = self.pool.device(0);
        let plan = self.plan(Method::MultiSketch);
        let n = self.problem.ncols();
        let (sketch, node, _) = probe.call("sketch-core", "Pipeline::build_for", || {
            plan.build_for(dev, n)
        });
        let sketch = sketch.map_err(err)?;
        put(layers, "core.generate_ms", node.wall_ms);
        under(root, "sketch_gen", node);
        let (run, node) = self.replay_matrix_sketch(probe, &plan, layers, t)?;
        under(root, "matrix_sketch", node);
        let (z, node, _) = probe.call("sketch-core", "apply_vector", || {
            sketch.apply_vector(dev, &self.problem.b)
        });
        let z = z.map_err(err)?;
        put(layers, "core.vector_sketch_ms", node.wall_ms);
        under(root, "vector_sketch", node);
        let w = run.result.to_layout(dev, Layout::ColMajor);
        let (f, node, cost) = probe.call("sketch-la", "geqrf", || geqrf(dev, &w));
        let f = f.map_err(err)?;
        t.qr.add(&node, &cost);
        put(layers, "la.geqrf_ms", node.wall_ms);
        under(root, "geqrf", node);
        let (qtz, node, _) = probe.call("sketch-la", "apply_qt_vec", || f.apply_qt_vec(dev, &z));
        let qtz = qtz.map_err(err)?;
        under(root, "ormqr", node);
        let r = f.r();
        let (x, node, _) = probe.call("sketch-la", "trsv", || {
            trsv(dev, Triangle::Upper, Op::NoTrans, &r, &qtz[..n])
        });
        under(root, "trsv", node);
        x.map_err(err)
    }

    /// rand_cholQR least squares: sketch, small QR, TRSM precondition, Gram,
    /// Cholesky, three triangular solves.
    fn replay_rand_cholqr(
        &self,
        probe: &Probe<'_>,
        root: &mut Node,
        layers: &mut BTreeMap<String, f64>,
        t: &mut Tallies,
    ) -> Result<Vec<f64>, String> {
        let dev = self.pool.device(0);
        let plan = self.plan(Method::RandCholQr);
        let (a, b) = (&self.problem.a, &self.problem.b);
        let (sketch, node, _) = probe.call("sketch-core", "Pipeline::build_for", || {
            plan.build_for(dev, a.ncols())
        });
        sketch.map_err(err)?;
        put(layers, "core.generate_ms", node.wall_ms);
        under(root, "sketch_gen", node);
        let (run, node) = self.replay_matrix_sketch(probe, &plan, layers, t)?;
        under(root, "matrix_sketch", node);
        let y = run.result.to_layout(dev, Layout::ColMajor);
        let (f, node, cost) = probe.call("sketch-la", "geqrf", || geqrf(dev, &y));
        let r0 = f.map_err(err)?.r();
        t.qr.add(&node, &cost);
        put(layers, "la.geqrf_ms", node.wall_ms);
        under(root, "geqrf", node);
        let (a0, node, _) = probe.call("sketch-la", "trsm_right", || {
            trsm_right(dev, Triangle::Upper, Op::NoTrans, &r0, a)
        });
        let a0 = a0.map_err(err)?;
        put(layers, "la.trsm_ms", node.wall_ms);
        under(root, "trsm", node);
        let (gram, node, cost) = probe.call("sketch-la", "gram_gemm", || gram_gemm(dev, &a0));
        let gram = gram.map_err(err)?;
        t.gram.add(&node, &cost);
        put(layers, "la.gram_ms", node.wall_ms);
        under(root, "gram", node);
        let (z, node, _) = probe.call("sketch-la", "gemv", || {
            gemv(dev, 1.0, Op::Trans, &a0, b, 0.0, None)
        });
        let z = z.map_err(err)?;
        under(root, "atb", node);
        let (r1, node, _) = probe.call("sketch-la", "potrf_upper", || potrf_upper(dev, &gram));
        let r1 = r1.map_err(err)?;
        put(layers, "la.potrf_ms", node.wall_ms);
        under(root, "potrf", node);
        let (x, node, _) = probe.call("sketch-la", "trsv", || {
            let y1 = trsv(dev, Triangle::Upper, Op::Trans, &r1, &z)?;
            let y2 = trsv(dev, Triangle::Upper, Op::NoTrans, &r1, &y1)?;
            trsv(dev, Triangle::Upper, Op::NoTrans, &r0, &y2)
        });
        under(root, "trsv", node);
        x.map_err(err)
    }
}

impl Lsq {
    /// One traced solve: its span tree (the solver's phases, and under them
    /// the replayed calls) and whether its outputs match the reference.
    fn traced_solve(
        &self,
        probe: &Probe<'_>,
        solver: &Solver,
        layers: &mut BTreeMap<String, f64>,
        t: &mut Tallies,
    ) -> Result<(Node, bool), String> {
        let key = key(solver.method);
        let (sol, mut root, _) = probe.call("sketch-lsq", &format!("solve.{key}"), || {
            solve(&self.pool, &self.problem, solver.method, self.sketch_seed)
        });
        let sol = sol.map_err(err)?;
        root.modelled_ms = sol.model_ms();
        for rec in &sol.breakdown.phases {
            root.adopt(Node::new(
                "sketch-lsq",
                phase_name(rec.phase),
                rec.wall_seconds * 1e3,
                rec.model_seconds * 1e3,
            ));
        }
        for phase in &root.children {
            put(
                layers,
                &format!("lsq.{key}.{}_ms", phase.name),
                phase.wall_ms,
            );
        }
        put(
            layers,
            &format!("lsq.{key}.unattributed_ms"),
            root.unattributed_ms(),
        );

        let x = match solver.method {
            Method::NormalEquations => self.replay_normal_eq(probe, &mut root, layers, t)?,
            Method::MultiSketch => self.replay_multi(probe, &mut root, layers, t)?,
            _ => self.replay_rand_cholqr(probe, &mut root, layers, t)?,
        };
        let reference = bits(&solver.reference);
        Ok((root, bits(&sol.x) == reference && bits(&x) == reference))
    }
}

impl Workload for Lsq {
    fn pool(&self) -> &DevicePool {
        &self.pool
    }

    fn operand_bytes(&self) -> u64 {
        self.problem.a.size_bytes() + 8 * self.problem.b.len() as u64
    }

    fn modelled_ms(&self) -> f64 {
        self.solvers.iter().map(|s| s.model_ms).sum()
    }

    fn op_cost(&self) -> KernelCost {
        self.cost
    }

    /// The round's wall time is the sum of its three solve calls.
    fn op(&mut self) -> (f64, bool) {
        let (mut wall_ms, mut ok) = (0.0, true);
        for s in &mut self.solvers {
            let sw = Stopwatch::start();
            let out = solve(&self.pool, &self.problem, s.method, self.sketch_seed);
            let ms = sw.elapsed_seconds() * 1e3;
            s.samples.push(ms);
            wall_ms += ms;
            ok &= matches!(&out, Ok(sol) if bits(&sol.x) == bits(&s.reference));
        }
        (wall_ms, ok)
    }

    fn parts(&self) -> Vec<(String, &[f64])> {
        self.solvers
            .iter()
            .map(|s| (format!("solve_ms.{}", key(s.method)), &s.samples[..]))
            .collect()
    }

    fn traced_op(&mut self) -> Result<Traced, String> {
        let probe = Probe::new(&self.pool);
        let mut layers = BTreeMap::new();
        let mut t = Tallies::default();
        let mut root = Node::new("sketch-lsq", "round", 0.0, 0.0);
        let mut bits_equal = true;
        for solver in &self.solvers {
            let (node, equal) = self.traced_solve(&probe, solver, &mut layers, &mut t)?;
            bits_equal &= equal;
            root.wall_ms += node.wall_ms;
            root.modelled_ms += node.modelled_ms;
            root.adopt(node);
        }
        put(&mut layers, "core.countsketch_gbps", t.countsketch.gbps());
        put(
            &mut layers,
            "sim.model_ratio.countsketch",
            t.countsketch.model_ratio(),
        );
        put(&mut layers, "la.gram_gflops", t.gram.gflops());
        put(&mut layers, "sim.model_ratio.gram", t.gram.model_ratio());
        put(&mut layers, "la.qr_gflops", t.qr.gflops());
        put(&mut layers, "sim.model_ratio.geqrf", t.qr.model_ratio());
        if !t.overlap.is_empty() {
            put(
                &mut layers,
                "dist.overlap_efficiency",
                t.overlap.iter().sum::<f64>() / t.overlap.len() as f64,
            );
        }
        Ok(Traced {
            root,
            layers,
            bits_equal,
        })
    }

    /// Each residual inside its method's envelope; reports the worst ratio
    /// to the optimum over the round.
    fn verify(&self) -> Result<BTreeMap<String, f64>, String> {
        let dev = self.pool.device(0);
        let p = &self.problem;
        let best = best_residual(dev, p).map_err(err)?;
        let mut worst = 0.0f64;
        for s in &self.solvers {
            let res = relative_residual(dev, &p.a, &s.reference, &p.b).map_err(err)?;
            let ratio = res / best;
            let envelope = if s.method.has_distortion() {
                distortion_bound(SKETCH_EPS)
            } else {
                DIRECT_SLACK
            };
            if !(ratio.is_finite() && ratio <= envelope) {
                return Err(format!(
                    "{} residual is {ratio} x optimal, outside the envelope {envelope}",
                    s.method.label()
                ));
            }
            worst = worst.max(ratio);
        }
        Ok(BTreeMap::from([("lsq.residual_ratio".to_string(), worst)]))
    }
}
