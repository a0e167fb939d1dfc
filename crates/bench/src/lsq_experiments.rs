//! Figure 5–8 experiments: least squares runtimes, residuals and stability.

use crate::analytic::{phase_costs, solver_sketch};
use crate::config::{ExperimentScale, SweepPoint};
use sketch_gpu_sim::{Device, DevicePool, Phase};
use sketch_lsq::{solve, LsqProblem, Method};
use sketch_obs::Stopwatch;
use std::collections::BTreeMap;

/// One bar of Figure 5: the per-phase breakdown of one solver at one problem size.
#[derive(Debug, Clone)]
pub struct LsqBreakdownRow {
    /// Problem size.
    pub point: SweepPoint,
    /// Solver label ("Normal Eq", "Gauss", …).
    pub method: &'static str,
    /// Modelled milliseconds per phase (ordered as executed).
    pub phase_ms: Vec<(Phase, f64)>,
    /// Total modelled milliseconds.
    pub total_model_ms: f64,
    /// Wall-clock milliseconds (zero for analytic rows).
    pub wall_ms: f64,
    /// Whether the method failed with a modelled out-of-memory error.
    pub out_of_memory: bool,
}

/// One point of Figures 6–8: the relative residual of one solver.
#[derive(Debug, Clone)]
pub struct ResidualRow {
    /// Problem size.
    pub point: SweepPoint,
    /// Condition number of the coefficient matrix (1e2 for Figures 6–7).
    pub kappa: f64,
    /// Solver label.
    pub method: &'static str,
    /// Relative residual `||b - A x|| / ||b||`; `None` when the solver failed
    /// (e.g. Cholesky breakdown of the normal equations in Figure 8).
    pub residual: Option<f64>,
}

/// Figure 5 at the paper's sizes, via the analytic cost model.
pub fn lsq_breakdown_paper_rows() -> Vec<LsqBreakdownRow> {
    let device = Device::h100();
    let mut rows = Vec::new();
    for point in ExperimentScale::PaperModel.sweep() {
        for method in Method::FIGURE5 {
            let oom = solver_sketch(method).is_some_and(|s| {
                crate::analytic::exceeds_suite_memory(s, point.d, point.n, device.spec())
            });
            let phase_ms: Vec<(Phase, f64)> = phase_costs(method, point.d, point.n)
                .expect("every Figure-5 method has an analytic model")
                .into_iter()
                .map(|(p, c)| (p, device.model_time(&c) * 1e3))
                .collect();
            let total = phase_ms.iter().map(|(_, t)| t).sum();
            rows.push(LsqBreakdownRow {
                point,
                method: method.label(),
                phase_ms: if oom { Vec::new() } else { phase_ms },
                total_model_ms: if oom { 0.0 } else { total },
                wall_ms: 0.0,
                out_of_memory: oom,
            });
        }
    }
    rows
}

/// Figure 5 measured at reduced sizes: the solvers actually run.
pub fn lsq_breakdown_measured_rows(seed: u64) -> Vec<LsqBreakdownRow> {
    let mut rows = Vec::new();
    for point in ExperimentScale::Measured.sweep() {
        let device = Device::h100();
        let problem = LsqProblem::performance(&device, point.d, point.n, seed)
            .expect("measured sweep sizes are always valid");
        for method in Method::FIGURE5 {
            // Serial execution through the unified engine: a pool of one H100.
            let pool = DevicePool::h100(1);
            let start = Stopwatch::start();
            match solve(&pool, &problem, method, seed) {
                Ok(sol) => {
                    let phase_ms: Vec<(Phase, f64)> = sol
                        .breakdown
                        .phases
                        .iter()
                        .map(|p| (p.phase, p.model_seconds * 1e3))
                        .collect();
                    rows.push(LsqBreakdownRow {
                        point,
                        method: method.label(),
                        total_model_ms: sol.breakdown.total_model_ms(),
                        phase_ms,
                        wall_ms: start.elapsed_seconds() * 1e3,
                        out_of_memory: false,
                    });
                }
                Err(e) => rows.push(LsqBreakdownRow {
                    point,
                    method: method.label(),
                    phase_ms: Vec::new(),
                    total_model_ms: 0.0,
                    wall_ms: start.elapsed_seconds() * 1e3,
                    out_of_memory: e.is_out_of_memory(),
                }),
            }
        }
    }
    rows
}

/// Figures 6–7: relative residuals on the easy/hard problems.
pub fn residual_rows(hard: bool, seed: u64) -> Vec<ResidualRow> {
    let mut rows = Vec::new();
    for point in ExperimentScale::Measured.residual_sweep() {
        let device = Device::unlimited();
        let problem = if hard {
            LsqProblem::hard(&device, point.d, point.n, seed).expect("valid sweep")
        } else {
            LsqProblem::easy(&device, point.d, point.n, seed).expect("valid sweep")
        };
        let pool = DevicePool::unlimited(1);
        for method in Method::ALL {
            let residual = solve(&pool, &problem, method, seed)
                .ok()
                .and_then(|sol| sol.relative_residual(&device, &problem).ok());
            rows.push(ResidualRow {
                point,
                kappa: 1e2,
                method: method.label(),
                residual,
            });
        }
    }
    rows
}

/// Figure 8: residual versus condition number on the exactly-consistent problem.
pub fn stability_rows(seed: u64) -> Vec<ResidualRow> {
    let (point, kappas) = ExperimentScale::Measured.stability_sweep();
    let methods = [
        Method::NormalEquations,
        Method::Gaussian,
        Method::CountSketch,
        Method::MultiSketch,
        Method::Qr,
    ];
    let mut rows = Vec::new();
    for &kappa in &kappas {
        let device = Device::unlimited();
        let problem = LsqProblem::conditioned(&device, point.d, point.n, kappa, seed)
            .expect("valid stability problem");
        let pool = DevicePool::unlimited(1);
        for method in methods {
            let residual = solve(&pool, &problem, method, seed)
                .ok()
                .and_then(|sol| sol.relative_residual(&device, &problem).ok())
                .filter(|r| r.is_finite());
            rows.push(ResidualRow {
                point,
                kappa,
                method: method.label(),
                residual,
            });
        }
    }
    rows
}

/// Summarise residual rows per method: method -> (min, max) residual over the sweep.
pub fn residual_summary(rows: &[ResidualRow]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for row in rows {
        if let Some(r) = row.residual {
            let entry = out.entry(row.method).or_insert((f64::INFINITY, 0.0));
            entry.0 = entry.0.min(r);
            entry.1 = entry.1.max(r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_figure5_shows_the_multisketch_winning_for_wide_matrices() {
        let rows = lsq_breakdown_paper_rows();
        let total = |d: usize, n: usize, label: &str| {
            rows.iter()
                .find(|r| r.point.d == d && r.point.n == n && r.method == label)
                .map(|r| r.total_model_ms)
                .unwrap()
        };
        // The paper's headline: d = 2^22, n = 256, multisketch up to 77% faster than
        // the normal equations.
        let ne = total(1 << 22, 256, "Normal Eq");
        let multi = total(1 << 22, 256, "Multi");
        assert!(multi < ne);
        let speedup = (ne - multi) / ne;
        assert!(
            (0.3..0.95).contains(&speedup),
            "speedup {:.2} out of the plausible band",
            speedup
        );
        // rand_cholQR is slower than sketch-and-solve but still competitive.
        let rc = total(1 << 22, 256, "rand_cholQR");
        assert!(rc > multi);
    }

    #[test]
    fn paper_scale_figure5_rows_cover_all_methods_and_sizes() {
        let rows = lsq_breakdown_paper_rows();
        assert_eq!(rows.len(), 11 * 6);
        assert!(rows.iter().any(|r| r.method == "Gauss" && r.out_of_memory));
    }

    #[test]
    fn measured_residuals_track_the_true_residual_within_o1() {
        let rows = residual_rows(false, 5);
        // Group by problem size and compare each sketched method to QR.
        for point in ExperimentScale::Measured.residual_sweep() {
            let of = |label: &str| {
                rows.iter()
                    .find(|r| r.point == point && r.method == label)
                    .and_then(|r| r.residual)
                    .unwrap()
            };
            let qr = of("QR");
            for label in ["Gauss", "Count", "Multi", "SRHT"] {
                let res = of(label);
                assert!(
                    res + 1e-12 >= qr,
                    "{label} residual {res} below optimum {qr}"
                );
                assert!(res < 3.0 * qr, "{label} residual {res} vs QR {qr}");
            }
            for label in ["Normal Eq", "rand_cholQR"] {
                let res = of(label);
                assert!((res - qr).abs() / qr < 1e-4, "{label} should match QR");
            }
        }
    }

    #[test]
    fn hard_problem_residuals_exceed_easy_problem_residuals() {
        let easy = residual_summary(&residual_rows(false, 7));
        let hard = residual_summary(&residual_rows(true, 7));
        let easy_qr = easy["QR"].1;
        let hard_qr = hard["QR"].0;
        assert!(hard_qr > easy_qr, "hard {hard_qr} vs easy {easy_qr}");
    }

    #[test]
    fn stability_sweep_breaks_the_normal_equations_but_not_the_sketches() {
        let rows = stability_rows(3);
        // At kappa = 1e12 the normal equations must have failed or become inaccurate...
        let ne = rows
            .iter()
            .find(|r| r.kappa == 1e12 && r.method == "Normal Eq")
            .unwrap();
        let ne_bad = ne.residual.is_none() || ne.residual.unwrap() > 1e-4;
        assert!(ne_bad, "normal equations at kappa=1e12: {:?}", ne.residual);
        // ...while QR and the multisketch stay accurate.
        for label in ["QR", "Multi"] {
            let r = rows
                .iter()
                .find(|r| r.kappa == 1e12 && r.method == label)
                .unwrap();
            assert!(
                r.residual.unwrap_or(f64::INFINITY) < 1e-4,
                "{label}: {:?}",
                r.residual
            );
        }
    }
}
