//! Problem-size sweeps for the experiments, and their random sparse operand.

use sketch_serve::{OperandData, OperandSpec};
use sketch_sparse::CsrMatrix;

/// A Philox-seeded random `rows x cols` CSR operand targeting `density` stored fill:
/// the service's [`OperandSpec::Csr`] recipe (streams 10, 11 and 12) with
/// `round(rows·cols·density)` draws, at least one.  Coincident draws merge, so the
/// realised density lands slightly below the target; callers label runs with the
/// measured density.
pub fn random_csr(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
    let nnz_target = ((rows * cols) as f64 * density).round() as usize;
    match (OperandSpec::Csr {
        rows,
        cols,
        nnz_target,
        seed,
    })
    .materialize()
    {
        OperandData::Csr(a) => a,
        OperandData::Dense(_) => unreachable!("a CSR recipe materialises a CSR operand"),
    }
}

/// One `(d, n)` point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Number of rows of the coefficient matrix.
    pub d: usize,
    /// Number of columns of the coefficient matrix.
    pub n: usize,
}

/// Which scale an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Reduced sizes that run in seconds on a 2-core container (kernels actually
    /// execute; both modelled and wall-clock times are reported).
    Measured,
    /// The paper's sizes (`d ∈ {2²¹, 2²², 2²³}`, `n ∈ {32, 64, 128, 256}`), evaluated
    /// through the analytic cost model + H100 roofline only.
    PaperModel,
}

impl ExperimentScale {
    /// The `(d, n)` sweep for this scale, mirroring Figures 2–5.
    ///
    /// The paper drops `n = 256` at `d = 2²³` (the operand alone would be 17 GB); the
    /// measured sweep keeps every point small enough to execute quickly.
    pub fn sweep(&self) -> Vec<SweepPoint> {
        match self {
            ExperimentScale::Measured => {
                let mut points = Vec::new();
                for d in [1usize << 14, 1 << 15, 1 << 16] {
                    for n in [16usize, 32, 64] {
                        points.push(SweepPoint { d, n });
                    }
                }
                points
            }
            ExperimentScale::PaperModel => {
                let mut points = Vec::new();
                for d in [1usize << 21, 1 << 22, 1 << 23] {
                    for n in [32usize, 64, 128, 256] {
                        if d == (1 << 23) && n == 256 {
                            continue;
                        }
                        points.push(SweepPoint { d, n });
                    }
                }
                points
            }
        }
    }

    /// The sweep used by the residual experiments (Figures 6–7): a single `d` with the
    /// paper's `n` progression (scaled down for the measured variant).
    pub fn residual_sweep(&self) -> Vec<SweepPoint> {
        match self {
            ExperimentScale::Measured => [8usize, 16, 32]
                .into_iter()
                .map(|n| SweepPoint { d: 1 << 14, n })
                .collect(),
            ExperimentScale::PaperModel => [32usize, 64, 128, 256]
                .into_iter()
                .map(|n| SweepPoint { d: 1 << 21, n })
                .collect(),
        }
    }

    /// The condition-number sweep of Figure 8 (`d = 2¹⁷`, `n = 16` in the paper).
    pub fn stability_sweep(&self) -> (SweepPoint, Vec<f64>) {
        let point = match self {
            ExperimentScale::Measured => SweepPoint { d: 1 << 13, n: 16 },
            ExperimentScale::PaperModel => SweepPoint { d: 1 << 17, n: 16 },
        };
        let kappas = (0..=20)
            .step_by(2)
            .map(|e| 10f64.powi(e))
            .collect::<Vec<_>>();
        (point, kappas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_sweep_is_small_enough_to_run() {
        for p in ExperimentScale::Measured.sweep() {
            assert!(p.d <= 1 << 16);
            assert!(p.n <= 64);
        }
    }

    #[test]
    fn paper_sweep_matches_figure2_and_omits_oversized_point() {
        let sweep = ExperimentScale::PaperModel.sweep();
        assert!(sweep.contains(&SweepPoint { d: 1 << 21, n: 256 }));
        assert!(!sweep.contains(&SweepPoint { d: 1 << 23, n: 256 }));
        assert_eq!(sweep.len(), 11);
    }

    #[test]
    fn stability_sweep_spans_twenty_orders_of_magnitude() {
        let (_, kappas) = ExperimentScale::PaperModel.stability_sweep();
        assert_eq!(kappas.first().copied(), Some(1.0));
        assert_eq!(kappas.last().copied(), Some(1e20));
    }

    #[test]
    fn residual_sweeps_are_nonempty() {
        assert!(!ExperimentScale::Measured.residual_sweep().is_empty());
        assert_eq!(ExperimentScale::PaperModel.residual_sweep().len(), 4);
    }
}
