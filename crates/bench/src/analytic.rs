//! Analytic cost formulas used to project the experiments to the paper's problem sizes.
//!
//! The kernels in this workspace record deterministic costs that depend only on the
//! operand shapes, so each figure can be evaluated at `d = 2²¹ … 2²³` without allocating
//! terabytes of data.  Every projected cost is the statement its kernel records: each
//! sketch's generation and applies are what its kind states from the operand's shape
//! ([`Pipeline::costs`]), and the solvers' other kernels are `sketch-la`'s statements
//! (`gemm_cost`, `gemv_cost`, `geqrf_cost`, `ormqr_cost`, `potrf_cost`, `trsv_cost`,
//! `trsm_cost`, `copy_cost`) and the SpMM's, so the projection cannot drift from the
//! implementation.  The one cost formula kept here is Table 1's useful volume
//! ([`SketchMethod::useful_cost`]), which is the paper's, not a kernel's recording.

use sketch_core::fwht::global_passes;
use sketch_core::fwht::DEFAULT_TILE;
use sketch_core::{OperandShape, Pipeline, SketchCosts};
use sketch_gpu_sim::{KernelCost, Phase};
use sketch_la::blas2::{gemv_cost, trsv_cost};
use sketch_la::blas3::{gemm_cost, trsm_cost};
use sketch_la::chol::potrf_cost;
use sketch_la::matrix::copy_cost;
use sketch_la::qr::{geqrf_cost, ormqr_cost};
use sketch_la::Layout;
use sketch_lsq::Method;
use sketch_sparse::spmm_cost;

/// Bytes of `n` doubles.
const fn f64b(n: u64) -> u64 {
    n * 8
}

/// Why a projection's statements exist: the swept shapes are far from `u64`'s range.
const STATED: &str = "the paper's kernels state their costs at every swept shape";

/// Fraction of the device memory one method's working set may occupy before the
/// benchmark harness marks it out-of-memory (the blank bars of Figures 2 and 5).
///
/// The paper reports the Gaussian sketch failing at `(d, n) = (2²², 256)` and
/// `(2²³, 128)`, where `A` plus the stored `2n x d` Gaussian is ≈26 GB — well below the
/// card's 80 GB, so the failure must come from the rest of the benchmark suite's
/// resident buffers (both layouts of `A`, every other method's sketches and outputs,
/// cuRAND states, 100-trial bookkeeping).  A 30 % budget for a single method's working
/// set reproduces exactly the paper's blank set: both reported points exceed it and
/// every point the paper does plot stays below it (`paper fig2` and `paper fig5` print
/// the blank bars as OOM rows).
pub const SUITE_MEMORY_FRACTION: f64 = 0.3;

/// Whether a method's working set exceeds the benchmark-suite memory budget on the
/// given device.  The working set is the operand, the stored operator (what its
/// generation writes), what the apply reserves, and the `k x n` result.
pub fn exceeds_suite_memory(
    method: SketchMethod,
    d: usize,
    n: usize,
    spec: &sketch_gpu_sim::DeviceSpec,
) -> bool {
    let held = method.costs(d, n).held_bytes(method.embedding_dim(n), n);
    let working_set = f64b((d * n) as u64) + held.expect(STATED);
    let budget = (spec.memory_bytes as f64 * SUITE_MEMORY_FRACTION) as u64;
    working_set > budget
}

/// The operations compared in Figures 2–4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SketchMethod {
    /// Gram matrix `AᵀA` via GEMM (the normal-equations reference cost).
    Gram,
    /// Dense Gaussian sketch, `k = 2n`.
    Gaussian,
    /// CountSketch with the Algorithm 2 kernel, `k = 2n²`.
    CountAlg2,
    /// CountSketch applied with the generic SpMM baseline, `k = 2n²`.
    CountSpmm,
    /// Multisketch: CountSketch to `2n²` then Gaussian to `2n`.
    MultiSketch,
    /// SRHT with the radix-4 FWHT, `k = 2n`.
    Srht,
}

impl SketchMethod {
    /// All methods in the order Figure 2 plots them.
    pub const ALL: [SketchMethod; 6] = [
        SketchMethod::Gram,
        SketchMethod::Gaussian,
        SketchMethod::CountAlg2,
        SketchMethod::CountSpmm,
        SketchMethod::MultiSketch,
        SketchMethod::Srht,
    ];

    /// Label matching the paper's x-axis ticks.
    pub fn label(&self) -> &'static str {
        match self {
            SketchMethod::Gram => "Gram",
            SketchMethod::Gaussian => "Gauss",
            SketchMethod::CountAlg2 => "Count (Alg 2)",
            SketchMethod::CountSpmm => "Count (SPMM)",
            SketchMethod::MultiSketch => "Multi",
            SketchMethod::Srht => "SRHT",
        }
    }

    /// The four sketches of the paper's Table 1, in the order it lists them.
    pub const TABLE1: [SketchMethod; 4] = [
        SketchMethod::Gaussian,
        SketchMethod::Srht,
        SketchMethod::CountAlg2,
        SketchMethod::MultiSketch,
    ];

    /// Output dimension used by the paper's experiments for a width-`n` operand.
    pub fn embedding_dim(&self, n: usize) -> usize {
        match self {
            SketchMethod::Gram => n,
            SketchMethod::Gaussian | SketchMethod::MultiSketch | SketchMethod::Srht => 2 * n,
            SketchMethod::CountAlg2 | SketchMethod::CountSpmm => 2 * n * n,
        }
    }

    /// Table 1's "Embed Dim." column: the asymptotically optimal embedding dimension
    /// for an `n`-dimensional subspace at distortion `eps`.  The multisketch row takes
    /// both stage distortions equal to `eps`; the Gram matrix is exact and `n x n`.
    pub fn asymptotic_embedding_dim(&self, n: usize, eps: f64) -> f64 {
        let n = n as f64;
        let inv_eps2 = eps.powi(-2);
        match self {
            SketchMethod::Gram => n,
            SketchMethod::Gaussian | SketchMethod::MultiSketch => inv_eps2 * n,
            SketchMethod::Srht => inv_eps2 * n * n.max(2.0).log2(),
            SketchMethod::CountAlg2 | SketchMethod::CountSpmm => inv_eps2 * n * n,
        }
    }

    /// Table 1's "Arithmetic" column for a dense `d x n` operand.
    pub fn arithmetic(&self, d: usize, n: usize) -> f64 {
        let (d, n) = (d as f64, n as f64);
        match self {
            SketchMethod::Gram | SketchMethod::Gaussian => d * n * n,
            SketchMethod::Srht => d * n * n.max(2.0).log2(),
            SketchMethod::CountAlg2 | SketchMethod::CountSpmm => d * n,
            SketchMethod::MultiSketch => d * n + n.powi(4),
        }
    }

    /// Table 1's "Read/Writes" column for a dense `d x n` operand, in matrix elements.
    pub fn read_writes(&self, d: usize, n: usize) -> f64 {
        let (d, n) = (d as f64, n as f64);
        match self {
            SketchMethod::Gram
            | SketchMethod::Gaussian
            | SketchMethod::CountAlg2
            | SketchMethod::CountSpmm => d * n,
            SketchMethod::Srht => d * n * n.max(2.0).log2(),
            SketchMethod::MultiSketch => d * n + n.powi(4),
        }
    }

    /// Table 1's "Max Distortion" column (the Gram matrix distorts nothing).
    pub fn max_distortion(&self, eps: f64) -> f64 {
        match self {
            SketchMethod::Gram => 1.0,
            SketchMethod::MultiSketch => (1.0 + eps) * (1.0 + eps),
            _ => 1.0 + eps,
        }
    }

    /// The least-squares method that applies this sketch (`None` for the Gram
    /// baseline; the SpMM baseline is the CountSketch applied another way).
    pub fn solver(&self) -> Option<Method> {
        match self {
            SketchMethod::Gram => None,
            SketchMethod::Gaussian => Some(Method::Gaussian),
            SketchMethod::CountAlg2 | SketchMethod::CountSpmm => Some(Method::CountSketch),
            SketchMethod::MultiSketch => Some(Method::MultiSketch),
            SketchMethod::Srht => Some(Method::Srht),
        }
    }

    /// Generation and apply costs of the method on a dense row-major `d x n`
    /// operand: the statement of its solver's sketch (with the generic SpMM's
    /// apply for the SpMM baseline), or the Gram GEMM.
    pub fn costs(&self, d: usize, n: usize) -> SketchCosts {
        let Some(solver) = self.solver() else {
            return SketchCosts {
                apply: gemm_cost(n, d, n, false).expect(STATED),
                ..SketchCosts::default()
            };
        };
        let a = OperandShape::dense(d, n, Layout::RowMajor);
        let stated = solver
            .sketch_pipeline(d, 0)
            .expect("every sketch method's solver sketches")
            .costs(a)
            .expect(STATED);
        match self {
            // The SpMM applies the CountSketch as a 2n² x d CSR matrix, one entry per column.
            SketchMethod::CountSpmm => SketchCosts {
                apply: spmm_cost(2 * n * n, d, n),
                ..stated
            },
            _ => stated,
        }
    }

    /// The *useful* (Table 1) traffic and arithmetic, used to normalise Figures 3–4.
    pub fn useful_cost(&self, d: usize, n: usize) -> KernelCost {
        let d64 = d as u64;
        let n64 = n as u64;
        match self {
            SketchMethod::Gram => {
                KernelCost::new(f64b(d64 * n64), f64b(n64 * n64), 2 * d64 * n64 * n64, 1)
            }
            SketchMethod::Gaussian => KernelCost::new(
                f64b(d64 * n64),
                f64b(2 * n64 * n64),
                2 * d64 * n64 * 2 * n64,
                1,
            ),
            SketchMethod::CountAlg2 | SketchMethod::CountSpmm => {
                KernelCost::new(f64b(d64 * n64), f64b(d64 * n64), d64 * n64, 1)
            }
            SketchMethod::MultiSketch => {
                let k1 = 2 * n64 * n64;
                let k2 = 2 * n64;
                KernelCost::new(f64b(d64 * n64), f64b(d64 * n64), d64 * n64, 1)
                    + KernelCost::new(f64b(k1 * n64), f64b(k2 * n64), 2 * k1 * k2 * n64, 1)
            }
            SketchMethod::Srht => {
                let d_pad = (d.next_power_of_two()) as u64;
                let bits = d_pad.trailing_zeros() as u64;
                let passes = global_passes(d.next_power_of_two(), DEFAULT_TILE);
                KernelCost::new(
                    f64b(d_pad * n64) * passes,
                    f64b(d_pad * n64) * passes,
                    2 * d_pad * n64 * bits,
                    1,
                )
            }
        }
    }
}

/// The sketch a sketch-and-solve [`Method`] applies; `None` for the other solvers.
pub(crate) fn solver_sketch(method: Method) -> Option<SketchMethod> {
    SketchMethod::ALL
        .into_iter()
        .find(|sketch| sketch.solver() == Some(method))
}

/// Per-phase analytic costs of solving a `d x n` least squares problem with `method`,
/// in the order the solver records them; `None` for the methods Figure 5 leaves out
/// (QR).
///
/// The sketch phases are the method's [`Pipeline::costs`]: its generation, its apply
/// to a row-major `d x n` matrix, and — resolved at `n`, like the operator the solver
/// builds — its apply to the right-hand side as a `d x 1` operand.  GEQRF includes the
/// conversion of a row-major sketch to column-major.
pub fn phase_costs(method: Method, d: usize, n: usize) -> Option<Vec<(Phase, KernelCost)>> {
    if method == Method::NormalEquations {
        return Some(vec![
            (Phase::GramMatrix, gemm_cost(n, d, n, false).expect(STATED)),
            (Phase::ATransposeB, gemv_cost(n, d, false)),
            (Phase::Potrf, potrf_cost(n)),
            (Phase::Trsv, trsv_cost(n)),
            (Phase::Trsv, trsv_cost(n)),
        ]);
    }
    let pipeline = method.sketch_pipeline(d, 0)?;
    let shape = |cols| OperandShape::dense(d, cols, Layout::RowMajor);
    let sketch = pipeline.costs(shape(n)).expect(STATED);
    let stages = pipeline.resolve(n).expect(STATED);
    let last = stages.last().expect("a sketch has a stage");
    let k = last.output_dim.resolve(n);
    let geqrf = match last.kind.output_layout() {
        Layout::RowMajor => copy_cost(k * n) + geqrf_cost(k, n),
        Layout::ColMajor => geqrf_cost(k, n),
    };
    let mut phases = vec![
        (Phase::SketchGen, sketch.generation),
        (Phase::MatrixSketch, sketch.apply),
    ];
    if method == Method::RandCholQr {
        phases.extend([
            (Phase::Geqrf, geqrf),
            (Phase::Trsm, trsm_cost(n, d)),
            (Phase::GramMatrix, gemm_cost(n, d, n, false).expect(STATED)),
            (Phase::ATransposeB, gemv_cost(n, d, false)),
            (Phase::Potrf, potrf_cost(n)),
            (Phase::Trsv, trsv_cost(n)),
            (Phase::Trsv, trsv_cost(n)),
            (Phase::Trsv, trsv_cost(n)),
        ]);
    } else {
        let vector = Pipeline::new(stages).costs(shape(1)).expect(STATED);
        phases.extend([
            (Phase::VectorSketch, vector.apply),
            (Phase::Geqrf, geqrf),
            (Phase::Ormqr, ormqr_cost(k, n)),
            (Phase::Trsv, trsv_cost(n)),
        ]);
    }
    Some(phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_gpu_sim::{Device, DevicePool};
    use sketch_la::blas3::gram_gemm;
    use sketch_la::{Layout, Matrix};
    use sketch_lsq::{solve, LsqProblem};

    /// The guarantee behind the paper-scale projections of the kernels that are
    /// not sketches (each sketch's statement is pinned against its recording in
    /// `sketch-core`): the analytic costs must match the costs the real kernels
    /// record, byte for byte and flop for flop.
    #[test]
    fn analytic_apply_costs_match_recorded_costs() {
        let d = 2048usize;
        let n = 16usize;
        let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 1, 0);

        for method in [SketchMethod::Gram, SketchMethod::CountSpmm] {
            let device = Device::unlimited();
            if method == SketchMethod::Gram {
                let _ = gram_gemm(&device, &a).unwrap();
            } else {
                let s = method
                    .solver()
                    .unwrap()
                    .sketch_pipeline(d, 3)
                    .unwrap()
                    .stages[0]
                    .resolve(n)
                    .build_countsketch(&device)
                    .unwrap();
                device.tracker().reset();
                let _ = s.apply_matrix_spmm(&device, &a).unwrap();
            }
            let recorded = device.tracker().snapshot();
            let analytic = method.costs(d, n).apply;
            assert_eq!(
                recorded,
                analytic,
                "{}: recorded {recorded:?} vs analytic {analytic:?}",
                method.label()
            );
        }
    }

    /// The guarantee behind Figure 5's paper-scale stacks: on a pool of one, each
    /// Figure-5 solver records, phase by phase, what `phase_costs` projects, and
    /// every solver's breakdown holds every cost the device records.
    #[test]
    fn figure5_projection_is_what_the_solvers_record() {
        let mut mismatches = Vec::new();
        for (d, n) in [(4096, 8), (1 << 14, 16)] {
            let pool = DevicePool::unlimited(1);
            let device = pool.device(0);
            let problem = LsqProblem::performance(device, d, n, 5).unwrap();
            for method in Method::ALL {
                let before = device.tracker().snapshot();
                let sol = solve(&pool, &problem, method, 9).unwrap();
                let recorded = device.tracker().snapshot() - before;
                if sol.breakdown.total_cost() != recorded {
                    mismatches.push(format!(
                        "{} at {d}x{n}: breakdown {:?}, device {recorded:?}",
                        method.label(),
                        sol.breakdown.total_cost()
                    ));
                }
                let Some(expected) = phase_costs(method, d, n) else {
                    continue;
                };
                let phases: Vec<(Phase, KernelCost)> = sol
                    .breakdown
                    .phases
                    .iter()
                    .map(|p| (p.phase, p.cost))
                    .collect();
                if phases != expected {
                    mismatches.push(format!(
                        "{} at {d}x{n}: recorded {phases:?}, projected {expected:?}",
                        method.label()
                    ));
                }
            }
        }
        assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    }

    #[test]
    fn gaussian_runs_out_of_memory_at_the_paper_sizes_where_the_bars_are_blank() {
        use sketch_gpu_sim::DeviceSpec;
        let spec = DeviceSpec::h100();
        // Figure 2: blank Gaussian bars at (2^22, 256) and (2^23, 128) — and nowhere
        // else in the sweep.
        for (d, n) in [(1usize << 22, 256usize), (1 << 23, 128)] {
            assert!(
                exceeds_suite_memory(SketchMethod::Gaussian, d, n, &spec),
                "expected the Gaussian to be flagged at d=2^{} n={n}",
                d.trailing_zeros()
            );
        }
        for (d, n) in [
            (1usize << 21, 256usize),
            (1 << 22, 128),
            (1 << 23, 64),
            (1 << 21, 32),
        ] {
            assert!(
                !exceeds_suite_memory(SketchMethod::Gaussian, d, n, &spec),
                "the Gaussian bar is plotted in the paper at d=2^{} n={n}",
                d.trailing_zeros()
            );
        }
        // The multisketch and CountSketch never exceed the budget.
        for (d, n) in [(1usize << 23, 128usize), (1 << 22, 256)] {
            assert!(!exceeds_suite_memory(
                SketchMethod::MultiSketch,
                d,
                n,
                &spec
            ));
            assert!(!exceeds_suite_memory(SketchMethod::CountAlg2, d, n, &spec));
        }
    }

    #[test]
    fn figure5_labels_and_phase_sets_are_sensible() {
        assert_eq!(Method::FIGURE5.len(), 6);
        for m in Method::FIGURE5 {
            let phases = phase_costs(m, 1 << 16, 64).unwrap();
            assert!(!phases.is_empty());
            let total = phases
                .iter()
                .fold(KernelCost::zero(), |acc, (_, c)| acc + *c);
            assert!(total.flops > 0);
            assert!(!m.label().is_empty());
        }
        // The normal equations have no sketch phases, and QR is not in Figure 5.
        let ne_phases = phase_costs(Method::NormalEquations, 1024, 8).unwrap();
        assert!(ne_phases.iter().all(|(p, _)| *p != Phase::MatrixSketch));
        assert!(phase_costs(Method::Qr, 1024, 8).is_none());
    }

    #[test]
    fn multisketch_beats_normal_equations_at_the_papers_headline_point() {
        // d = 2^22, n = 256: the paper reports the multisketched solver is up to 77%
        // faster than the normal equations.
        let device = Device::h100();
        let d = 1 << 22;
        let n = 256;
        let modelled = |method: Method| -> f64 {
            phase_costs(method, d, n)
                .unwrap()
                .iter()
                .map(|(_, c)| device.model_time(c))
                .sum()
        };
        let ne = modelled(Method::NormalEquations);
        let multi = modelled(Method::MultiSketch);
        assert!(
            multi < ne,
            "multi {multi} should beat normal equations {ne}"
        );
        let speedup = (ne - multi) / ne;
        assert!(
            speedup > 0.3,
            "expected a substantial speedup, got {:.1}%",
            100.0 * speedup
        );
    }

    #[test]
    fn useful_costs_are_table1_volumes() {
        // CountSketch: dn arithmetic, dn reads and dn writes.
        let count = SketchMethod::CountAlg2.useful_cost(1000, 16);
        assert_eq!(
            (count.flops, count.bytes_read, count.bytes_written),
            (16_000, 8 * 16_000, 8 * 16_000)
        );
        // Gaussian (k = 2n): 2dkn arithmetic, dn reads and kn writes.
        let gauss = SketchMethod::Gaussian.useful_cost(100, 10);
        assert_eq!(
            (gauss.flops, gauss.bytes_read, gauss.bytes_written),
            (2 * 100 * 20 * 10, 8 * 100 * 10, 8 * 20 * 10)
        );
        // SRHT: 2·n·d·log2(d) arithmetic over the padded transform, and traffic.
        let srht = SketchMethod::Srht.useful_cost(1 << 10, 8);
        assert_eq!(srht.flops, 2 * 1024 * 8 * 10);
        assert!(srht.total_bytes() > 0);
        // The multisketch adds its Gaussian stage to the CountSketch's volume.
        let (multi, count) = (
            SketchMethod::MultiSketch.useful_cost(4096, 8),
            SketchMethod::CountAlg2.useful_cost(4096, 8),
        );
        assert!(multi.flops > count.flops);
        assert!(multi.total_bytes() > count.total_bytes());
    }

    #[test]
    fn table1_lists_its_four_sketches_in_order() {
        let labels: Vec<&str> = SketchMethod::TABLE1.iter().map(|m| m.label()).collect();
        assert_eq!(labels, vec!["Gauss", "SRHT", "Count (Alg 2)", "Multi"]);
    }

    #[test]
    fn countsketch_needs_quadratic_embedding_dimension() {
        let n = 64;
        let eps = 0.5;
        let cs = SketchMethod::CountAlg2.asymptotic_embedding_dim(n, eps);
        let gauss = SketchMethod::Gaussian.asymptotic_embedding_dim(n, eps);
        assert!((cs / gauss - n as f64).abs() < 1e-9);
    }

    #[test]
    fn multisketch_matches_gaussian_embedding_dim_but_countsketch_arithmetic() {
        let (d, n, eps) = (1 << 21, 128, 0.5);
        assert_eq!(
            SketchMethod::MultiSketch.asymptotic_embedding_dim(n, eps),
            SketchMethod::Gaussian.asymptotic_embedding_dim(n, eps)
        );
        // dn + n⁴ is far below dn² for these sizes.
        assert!(
            SketchMethod::MultiSketch.arithmetic(d, n) < SketchMethod::Gaussian.arithmetic(d, n)
        );
        assert!(
            SketchMethod::MultiSketch.arithmetic(d, n) >= SketchMethod::CountAlg2.arithmetic(d, n)
        );
    }

    #[test]
    fn srht_costs_carry_the_log_factor() {
        let (d, n) = (1 << 20, 64);
        let ratio =
            SketchMethod::Srht.read_writes(d, n) / SketchMethod::CountAlg2.read_writes(d, n);
        assert!((ratio - 6.0).abs() < 1e-9); // log2(64) = 6
    }

    #[test]
    fn distortion_compounds_for_multisketch() {
        assert!((SketchMethod::Gaussian.max_distortion(0.1) - 1.1).abs() < 1e-12);
        assert!((SketchMethod::MultiSketch.max_distortion(0.1) - 1.21).abs() < 1e-12);
    }

    #[test]
    fn experimental_dimensions_match_section6() {
        let n = 128;
        assert_eq!(SketchMethod::Gaussian.embedding_dim(n), 256);
        assert_eq!(SketchMethod::Srht.embedding_dim(n), 256);
        assert_eq!(SketchMethod::MultiSketch.embedding_dim(n), 256);
        assert_eq!(SketchMethod::CountAlg2.embedding_dim(n), 2 * 128 * 128);
    }
}
