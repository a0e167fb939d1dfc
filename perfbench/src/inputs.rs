//! Seeded input generation.  Every input is a pure function of the workload
//! seed, so one seed always gives byte-identical inputs; the library under
//! test only ever receives the generated values.

use sketch_core::{EmbeddingDim, Pipeline, SketchSpec};
use sketch_rng::fill;
use sketch_serve::{DeadlineClass, JobFile, JobSpec, OperandSpec};
use sketch_sparse::{CooMatrix, CsrMatrix};

/// SplitMix64 of `seed ^ salt`: independent sub-seeds from one workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shape of the least-squares problem: `d` rows drawn from the seed in
/// `[base, base + step * steps)`, so modelled time varies a little between
/// seeds while the work stays within 1.5% of `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsqShape {
    /// Smallest row count.
    pub base_rows: usize,
    /// Row-count granularity.
    pub row_step: usize,
    /// Number of row counts the seed picks from.
    pub row_steps: u64,
    /// Columns `n`.
    pub cols: usize,
}

impl LsqShape {
    /// Rows `d` for `seed`.
    pub fn rows(&self, seed: u64) -> usize {
        self.base_rows + self.row_step * (mix(seed, 1) % self.row_steps) as usize
    }
}

/// A tall random CSR matrix: `draws` Philox `(row, col, value)` triples,
/// coincident draws summed by the COO→CSR conversion.
pub fn random_csr(seed: u64, rows: usize, cols: usize, draws: usize) -> CsrMatrix {
    let s = mix(seed, 2);
    let rr = fill::uniform_index_vec(s, 0, draws, rows);
    let cc = fill::uniform_index_vec(s, 1, draws, cols);
    let vv = fill::gaussian_vec(s, 2, draws);
    let mut coo = CooMatrix::with_capacity(rows, cols, draws);
    for ((&r, &c), &v) in rr.iter().zip(&cc).zip(&vv) {
        coo.push(r, c, v);
    }
    CsrMatrix::from_coo(&coo)
}

/// The job mix of the serve workload.  The job structure is fixed: which
/// plan, operand shape, device ask, tenant, priority and deadline each job
/// has, and their order.  The seed picks every sketch and operand seed and a
/// sub-microsecond arrival jitter, so batch cost and the schedule stay put
/// across seeds while the numbers (and the modelled makespan, slightly) move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobMix {
    /// Number of jobs in a batch.
    pub jobs: usize,
    /// Operand row counts `d`, cycled over the jobs.
    pub rows: Vec<usize>,
    /// Operand column counts `n`, cycled over the jobs.
    pub cols: Vec<usize>,
    /// Device asks, cycled over the jobs.
    pub devices: Vec<usize>,
    /// Tenant names, cycled over the jobs.
    pub tenants: Vec<&'static str>,
}

/// How many sketch plans the jobs cycle through (see [`plan`]).
const PLAN_KINDS: usize = 5;

/// Plan `kind` of the five: CountSketch, Count→Gauss, Gaussian, SRHT and the
/// hash CountSketch, with the paper's embedding dimensions.
fn plan(kind: usize, d: usize, seed: u64) -> Pipeline {
    let (square, ratio) = (EmbeddingDim::Square(2), EmbeddingDim::Ratio(2));
    match kind {
        0 => Pipeline::single(SketchSpec::countsketch(d, square, seed)),
        1 => Pipeline::count_gauss(d, square, ratio, seed),
        2 => Pipeline::single(SketchSpec::gaussian(d, ratio, seed)),
        3 => Pipeline::single(SketchSpec::srht(d, ratio, seed)),
        _ => Pipeline::single(SketchSpec::hash_countsketch(d, square, seed)),
    }
}

/// The seeded job file: every job admitted (no tenant limits, room in the
/// queue), so a rejection is a failure rather than policy.
pub fn job_file(seed: u64, shape: &JobMix) -> JobFile {
    let deadlines = [
        DeadlineClass::Interactive,
        DeadlineClass::Standard,
        DeadlineClass::Batch,
    ];
    let jobs = (0..shape.jobs)
        .map(|i| {
            let kind = i % PLAN_KINDS;
            let csr = (i / PLAN_KINDS) % 2 == 1;
            let d = shape.rows[i % shape.rows.len()];
            let n = shape.cols[(i / shape.rows.len()) % shape.cols.len()];
            let h = mix(seed, 1000 + i as u64);
            let operand_seed = mix(h, 1);
            let operand = if csr {
                OperandSpec::Csr {
                    rows: d,
                    cols: n,
                    nnz_target: d * n / 16,
                    seed: operand_seed,
                }
            } else {
                OperandSpec::Dense {
                    rows: d,
                    cols: n,
                    seed: operand_seed,
                }
            };
            JobSpec::new(
                shape.tenants[i % shape.tenants.len()],
                plan(kind, d, mix(h, 2)),
                operand,
            )
            .with_priority((i % 7) as u8)
            .with_deadline(deadlines[i % deadlines.len()])
            .with_devices(shape.devices[(i / 2) % shape.devices.len()])
            .with_arrival((h % 1000) as f64 * 1e-9)
        })
        .collect();
    JobFile {
        queue_capacity: 2 * shape.jobs,
        jobs,
        ..JobFile::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_gpu_sim::Device;
    use sketch_lsq::LsqProblem;

    fn small_mix() -> JobMix {
        JobMix {
            jobs: 12,
            rows: vec![1 << 10, 1 << 11],
            cols: vec![4, 8],
            devices: vec![1, 2, 4],
            tenants: vec!["a", "b", "c", "d"],
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn job_stream_json_is_byte_identical_for_a_seed() {
        let m = small_mix();
        assert_eq!(job_file(7, &m).to_json(), job_file(7, &m).to_json());
        assert_ne!(job_file(7, &m).to_json(), job_file(8, &m).to_json());
    }

    #[test]
    fn job_stream_round_trips_and_keeps_its_structure() {
        let m = small_mix();
        let shapes = |seed| {
            let file = JobFile::from_json(&job_file(seed, &m).to_json()).unwrap();
            file.jobs
                .iter()
                .map(|j| {
                    (
                        j.operand.rows(),
                        j.operand.cols(),
                        j.devices,
                        j.tenant.clone(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(shapes(1), shapes(2));
        let tenants: std::collections::BTreeSet<String> = job_file(1, &m)
            .jobs
            .iter()
            .map(|j| j.tenant.clone())
            .collect();
        assert_eq!(tenants.len(), 4);
    }

    #[test]
    fn csr_is_byte_identical_for_a_seed() {
        let a = random_csr(3, 500, 40, 400);
        let b = random_csr(3, 500, 40, 400);
        assert_eq!(a.row_ptr(), b.row_ptr());
        assert_eq!(a.col_idx(), b.col_idx());
        assert_eq!(bits(a.values()), bits(b.values()));
        assert_ne!(bits(a.values()), bits(random_csr(4, 500, 40, 400).values()));
    }

    #[test]
    fn lsq_problem_is_byte_identical_for_a_seed() {
        let shape = LsqShape {
            base_rows: 256,
            row_step: 8,
            row_steps: 4,
            cols: 4,
        };
        let make = |seed| {
            let dev = Device::unlimited();
            LsqProblem::performance(&dev, shape.rows(seed), shape.cols, seed).unwrap()
        };
        let (p, q) = (make(5), make(5));
        assert_eq!(bits(p.a.as_slice()), bits(q.a.as_slice()));
        assert_eq!(bits(&p.b), bits(&q.b));
        let rows: std::collections::BTreeSet<usize> = (0..64).map(|s| shape.rows(s)).collect();
        assert!(rows.len() > 1 && rows.iter().all(|r| (256..288).contains(r)));
    }
}
