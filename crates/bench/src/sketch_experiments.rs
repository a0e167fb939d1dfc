//! Figure 2–4 experiments: sketch application times and percent-of-peak plots.

use crate::analytic::SketchMethod;
use crate::config::{ExperimentScale, SweepPoint};
use sketch_core::{SketchOperator, StageOperator};
use sketch_gpu_sim::{Device, KernelCost};
use sketch_la::blas3::gram_gemm;
use sketch_la::{Layout, Matrix};
use sketch_obs::Stopwatch;

/// One bar of Figure 2 (and one point of Figures 3–4).
#[derive(Debug, Clone)]
pub struct SketchTimingRow {
    /// Problem size.
    pub point: SweepPoint,
    /// Which operation this row describes.
    pub method: SketchMethod,
    /// Modelled H100 time of the generation step, in milliseconds.
    pub gen_model_ms: f64,
    /// Modelled H100 time of the apply step, in milliseconds.
    pub apply_model_ms: f64,
    /// Wall-clock milliseconds measured on this machine (generation + apply); zero for
    /// analytic (paper-scale) rows.
    pub wall_ms: f64,
    /// Percent of peak memory throughput, normalised by the Table 1 useful traffic.
    pub pct_peak_bandwidth: f64,
    /// Percent of peak FP64 throughput, normalised by the Table 1 useful arithmetic.
    pub pct_peak_flops: f64,
    /// Whether the configuration exceeds the modelled device memory (blank bars).
    pub out_of_memory: bool,
}

impl SketchTimingRow {
    /// Total modelled time (generation + apply).
    pub fn total_model_ms(&self) -> f64 {
        self.gen_model_ms + self.apply_model_ms
    }
}

/// Percent-of-peak helpers shared by the measured and analytic paths.
fn percents(device: &Device, useful: &KernelCost, total_seconds: f64) -> (f64, f64) {
    (
        device.percent_peak_bandwidth(useful, total_seconds),
        device.percent_peak_flops(useful, total_seconds),
    )
}

/// Build one analytic (paper-scale) row.
fn analytic_row(device: &Device, point: SweepPoint, method: SketchMethod) -> SketchTimingRow {
    let oom = crate::analytic::exceeds_suite_memory(method, point.d, point.n, device.spec());
    let costs = method.costs(point.d, point.n);
    let gen_s = device.model_time(&costs.generation);
    let apply_s = device.model_time(&costs.apply);
    let useful = method.useful_cost(point.d, point.n);
    let (bw, fl) = percents(device, &useful, apply_s);
    SketchTimingRow {
        point,
        method,
        gen_model_ms: if oom { 0.0 } else { gen_s * 1e3 },
        apply_model_ms: if oom { 0.0 } else { apply_s * 1e3 },
        wall_ms: 0.0,
        pct_peak_bandwidth: if oom { 0.0 } else { bw },
        pct_peak_flops: if oom { 0.0 } else { fl },
        out_of_memory: oom,
    }
}

/// Run one measured row: the kernels actually execute at the given (reduced) size.
fn measured_row(point: SweepPoint, method: SketchMethod, seed: u64) -> SketchTimingRow {
    let device = Device::h100();
    let SweepPoint { d, n } = point;
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, seed, 0);

    let start = Stopwatch::start();
    let (gen_cost, apply_cost, oom) = match method.solver() {
        None => {
            let (_, apply) = device.tracker().measure(|| gram_gemm(&device, &a).unwrap());
            (KernelCost::zero(), apply, false)
        }
        Some(solver) => {
            let plan = solver
                .sketch_pipeline(d, seed)
                .expect("every sketch method's solver sketches");
            match plan.compose_for(&device, n) {
                Ok(s) => {
                    let gen = device.tracker().snapshot();
                    let (res, apply) = device.tracker().measure(|| match &s.stages()[0].1 {
                        StageOperator::CountSketch(cs) if method == SketchMethod::CountSpmm => {
                            cs.apply_matrix_spmm(&device, &a)
                        }
                        _ => s.apply_matrix(&device, &a),
                    });
                    (gen, apply, res.is_err())
                }
                // The Gaussian's k x d operator may not fit (the blank bars).
                Err(_) => (KernelCost::zero(), KernelCost::zero(), true),
            }
        }
    };
    let wall_ms = start.elapsed_seconds() * 1e3;

    let gen_s = device.model_time(&gen_cost);
    let apply_s = device.model_time(&apply_cost);
    let useful = method.useful_cost(d, n);
    let (bw, fl) = percents(&device, &useful, apply_s);
    SketchTimingRow {
        point,
        method,
        gen_model_ms: gen_s * 1e3,
        apply_model_ms: apply_s * 1e3,
        wall_ms,
        pct_peak_bandwidth: if oom { 0.0 } else { bw },
        pct_peak_flops: if oom { 0.0 } else { fl },
        out_of_memory: oom,
    }
}

/// Produce every row of Figure 2 (and the data behind Figures 3–4) at the given scale.
pub fn sketch_timing_rows(scale: ExperimentScale, seed: u64) -> Vec<SketchTimingRow> {
    let device = Device::h100();
    let mut rows = Vec::new();
    for point in scale.sweep() {
        for method in SketchMethod::ALL {
            let row = match scale {
                ExperimentScale::Measured => measured_row(point, method, seed),
                ExperimentScale::PaperModel => analytic_row(&device, point, method),
            };
            rows.push(row);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_rows_reproduce_the_figure2_ordering() {
        let rows = sketch_timing_rows(ExperimentScale::PaperModel, 1);
        // At d = 2^21, n = 256 the paper's ordering is:
        //   Count (Alg 2) < Multi < Gram < Count (SPMM), and Gauss is slowest / OOM.
        let at = |m: SketchMethod| {
            rows.iter()
                .find(|r| r.point.d == 1 << 21 && r.point.n == 256 && r.method == m)
                .unwrap()
        };
        let count = at(SketchMethod::CountAlg2).total_model_ms();
        let multi = at(SketchMethod::MultiSketch).total_model_ms();
        let gram = at(SketchMethod::Gram).total_model_ms();
        let spmm = at(SketchMethod::CountSpmm).total_model_ms();
        assert!(count < gram, "CountSketch {count} vs Gram {gram}");
        assert!(multi < gram, "Multi {multi} vs Gram {gram}");
        assert!(
            spmm > count,
            "SPMM {spmm} should lose to the dedicated kernel {count}"
        );
        let gauss = at(SketchMethod::Gaussian);
        assert!(gauss.out_of_memory || gauss.total_model_ms() > gram);
    }

    #[test]
    fn paper_model_reproduces_the_gaussian_oom_points() {
        let rows = sketch_timing_rows(ExperimentScale::PaperModel, 1);
        let oom_expected = [(1usize << 22, 256usize), (1 << 23, 128)];
        for (d, n) in oom_expected {
            let row = rows
                .iter()
                .find(|r| r.point.d == d && r.point.n == n && r.method == SketchMethod::Gaussian)
                .unwrap();
            assert!(row.out_of_memory, "Gaussian should OOM at d={d}, n={n}");
        }
        // The CountSketch and multisketch never OOM.
        assert!(rows
            .iter()
            .filter(|r| matches!(
                r.method,
                SketchMethod::CountAlg2 | SketchMethod::MultiSketch
            ))
            .all(|r| !r.out_of_memory));
    }

    #[test]
    fn percent_of_peak_bands_match_figure3() {
        let rows = sketch_timing_rows(ExperimentScale::PaperModel, 1);
        for r in &rows {
            if r.out_of_memory {
                continue;
            }
            match r.method {
                SketchMethod::CountAlg2 => {
                    assert!(
                        (40.0..75.0).contains(&r.pct_peak_bandwidth),
                        "Alg2 bandwidth {}% at n={}",
                        r.pct_peak_bandwidth,
                        r.point.n
                    );
                }
                SketchMethod::CountSpmm => {
                    assert!(
                        r.pct_peak_bandwidth < 30.0,
                        "SPMM bandwidth {}% should be poor",
                        r.pct_peak_bandwidth
                    );
                }
                SketchMethod::Srht => {
                    assert!(
                        r.pct_peak_bandwidth > 50.0,
                        "SRHT bandwidth {}%",
                        r.pct_peak_bandwidth
                    );
                }
                _ => {}
            }
            // Memory-bound sketches achieve a negligible fraction of peak FLOP/s.
            if matches!(
                r.method,
                SketchMethod::CountAlg2 | SketchMethod::CountSpmm | SketchMethod::Srht
            ) {
                assert!(r.pct_peak_flops < 10.0);
            }
        }
    }

    #[test]
    fn measured_rows_execute_and_fill_wall_clock_times() {
        let rows: Vec<SketchTimingRow> = [
            SketchMethod::Gram,
            SketchMethod::CountAlg2,
            SketchMethod::MultiSketch,
        ]
        .into_iter()
        .map(|m| measured_row(SweepPoint { d: 4096, n: 16 }, m, 3))
        .collect();
        for r in &rows {
            assert!(!r.out_of_memory);
            assert!(r.wall_ms > 0.0);
            assert!(r.apply_model_ms > 0.0);
        }
    }
}
