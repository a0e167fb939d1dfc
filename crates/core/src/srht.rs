//! The Subsampled Randomized Hadamard Transform (Section 5).
//!
//! `S = (1/√k) P H_d D` where `D` flips signs, `H_d` is the (unnormalised) Hadamard
//! transform applied with the radix-4 FWHT of [`crate::fwht`], and `P` samples `k` rows
//! uniformly at random.  Following the paper, every step works in column-major order:
//! the FWHT dominates the cost and coalesces best on columns, and converting the operand
//! to row-major for the cheap sampling/scaling steps costs more than it saves.
//!
//! Inputs whose row count is not a power of two are zero-padded up to the next power of
//! two, which leaves all inner products unchanged.

use crate::error::Error;
use crate::fwht::{fwht_columns_cost, fwht_columns_unrecorded, DEFAULT_TILE};
use crate::operand::{Operand, OperandShape};
use crate::spec::SketchKind;
use crate::traits::{apply_stated, try_zeros, SketchCosts, SketchOperator, STATEMENT_OVERFLOW};
use sketch_gpu_sim::{Checked, Device, KernelCost};
use sketch_la::{Layout, Matrix, MatrixViewMut};
use sketch_rng::fill;

/// The SRHT operator.
#[derive(Debug, Clone)]
pub struct Srht {
    /// Logical input dimension (rows of the operand).
    d: usize,
    /// Padded transform length (next power of two ≥ `d`).
    d_pad: usize,
    /// Output dimension.
    k: usize,
    /// Rademacher signs of `D` (length `d`).
    signs: Vec<f64>,
    /// Sampled row indices of `P` (length `k`, drawn from `0..d_pad`).
    sample: Vec<usize>,
    generation_cost: KernelCost,
}

impl Srht {
    /// Generate an SRHT.  Its FWHT runs (and is modelled) with the shared-memory
    /// tile [`DEFAULT_TILE`].
    pub fn generate(device: &Device, d: usize, k: usize, seed: u64) -> Result<Self, Error> {
        if k == 0 {
            return Err(Error::invalid_param(
                "SRHT output dimension must be positive",
            ));
        }
        if d == 0 {
            return Err(Error::invalid_param(
                "SRHT input dimension must be positive",
            ));
        }
        let d_pad = d.next_power_of_two();
        let signs = fill::rademacher_vec(seed, 0, d);
        let sample = fill::uniform_index_vec(seed, 1, k, d_pad);
        let generation_cost = generation_cost(d, k).ok_or(STATEMENT_OVERFLOW)?;
        device.record(generation_cost);
        Ok(Self {
            d,
            d_pad,
            k,
            signs,
            sample,
            generation_cost,
        })
    }

    /// The padded transform length.
    pub fn padded_dim(&self) -> usize {
        self.d_pad
    }

    /// What a `d -> k` SRHT states ([`SketchCosts`]): its generation, and one apply
    /// to a `d`-row operand of shape `a` — the sign-flip into the padded
    /// column-major work matrix (reserved for the apply), the global passes of the
    /// FWHT tiled at [`DEFAULT_TILE`], and the sampling.
    pub fn costs(d: usize, k: usize, a: OperandShape) -> Result<SketchCosts, Error> {
        let d_pad = d.checked_next_power_of_two().ok_or(STATEMENT_OVERFLOW)?;
        let (d64, n, k64) = (Checked::from(d), Checked::from(a.cols()), Checked::from(k));
        let work = Checked::from(d_pad) * n * 8;
        let flip = match a {
            // Sign flip + copy: read A and the signs once, write the padded work matrix.
            OperandShape::Dense { .. } => {
                KernelCost::checked(d64 * n * 8 + d64 * 8, work, d64 * n, 1)
            }
            // Scatter the stored entries into the padded work matrix.
            OperandShape::Csr { nnz, .. } => {
                let nnz = Checked::from(nnz);
                let idx_bytes = (nnz + d64 + 1) * std::mem::size_of::<usize>() as u64;
                KernelCost::checked((nnz + d64) * 8 + idx_bytes, work, nnz, 1)
            }
        };
        let kn = k64 * n;
        let sample = KernelCost::checked(kn * 8 + k64 * 4, kn * 8, kn, 1);
        let apply = flip.and_then(|flip| {
            flip.checked_add(fwht_columns_cost(d_pad, a.cols(), DEFAULT_TILE)?)?
                .checked_add(sample?)
        });
        SketchCosts::checked(generation_cost(d, k), apply, work)
    }

    /// `out = (1/√k) P H D A`, unrecorded: sign-flip into the padded work matrix
    /// (reserved fallibly on the host), transform its columns, sample.
    pub(crate) fn compute_into(
        &self,
        a: Operand<'_>,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), Error> {
        let mut work = self.work_matrix(&a)?;
        fwht_columns_unrecorded(&mut work, DEFAULT_TILE);
        self.sample_rows_into(&work, out);
        Ok(())
    }

    /// The sign-flipped, zero-padded, column-major work matrix `D A` of a dense or
    /// CSR operand.
    fn work_matrix(&self, a: &Operand<'_>) -> Result<Matrix, Error> {
        let n = a.ncols();
        let mut work = try_zeros(self.d_pad, n, Layout::ColMajor)?;
        match a {
            Operand::Dense(m) => {
                for j in 0..n {
                    let col = work.col_mut(j).expect("col-major");
                    for i in 0..self.d {
                        col[i] = self.signs[i] * m.get(i, j);
                    }
                }
            }
            Operand::Csr(s) => {
                for i in 0..self.d {
                    for (j, v) in s.row(i) {
                        work.set(i, j, self.signs[i] * v);
                    }
                }
            }
            Operand::CsrRows(v) => {
                for i in 0..self.d {
                    for (j, val) in v.row(i) {
                        work.set(i, j, self.signs[i] * val);
                    }
                }
            }
        }
        Ok(work)
    }

    /// Sample and scale the transformed work matrix into the caller's buffer:
    /// `out = (1/√k) P (H D A)`.
    fn sample_rows_into(&self, work: &Matrix, out: &mut MatrixViewMut<'_>) {
        let scale = 1.0 / (self.k as f64).sqrt();
        for j in 0..work.ncols() {
            let src = work.col(j).expect("col-major");
            for (i, &row) in self.sample.iter().enumerate() {
                out.set(i, j, scale * src[row]);
            }
        }
    }
}

/// What generating a `d -> k` SRHT records: `d` signs and `k` sampled indices.
fn generation_cost(d: usize, k: usize) -> Option<KernelCost> {
    let (d, k) = (Checked::from(d), Checked::from(k));
    KernelCost::checked(Checked::ZERO, d + k * 4, d + k, 1)
}

impl SketchOperator for Srht {
    fn input_dim(&self) -> usize {
        self.d
    }

    fn output_dim(&self) -> usize {
        self.k
    }

    fn name(&self) -> &'static str {
        "SRHT"
    }

    fn output_layout(&self) -> Layout {
        SketchKind::Srht.output_layout()
    }

    /// Sign-flip + FWHT + sample.  The padded FWHT work matrix is inherent to the
    /// transform (it is the `H D A` intermediate the paper also materialises) and is
    /// reserved on the modelled device here; only the *output* is caller-owned.
    fn apply_into(
        &self,
        device: &Device,
        a: Operand<'_>,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), Error> {
        self.check_operand(&a)?;
        self.check_output(out, a.ncols())?;
        let costs = Self::costs(self.d, self.k, a.shape())?;
        apply_stated(device, costs, || self.compute_into(a, out))
    }

    fn apply_vector(&self, device: &Device, x: &[f64]) -> Result<Vec<f64>, Error> {
        self.check_input_dim(x.len())?;
        let a = Matrix::from_vec(x.len(), 1, Layout::ColMajor, x.to_vec());
        let y = self.apply_matrix(device, &a)?;
        Ok(y.col_to_vec(0))
    }

    fn generation_cost(&self) -> KernelCost {
        self.generation_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_la::norms::vec_norm2;

    fn device() -> Device {
        Device::unlimited()
    }

    /// Dense reference: build S explicitly by applying the operator to the identity.
    fn dense_srht_apply(s: &Srht, x: &[f64]) -> Vec<f64> {
        let d = x.len();
        let d_pad = s.padded_dim();
        // D x, padded.
        let mut v = vec![0.0; d_pad];
        for i in 0..d {
            v[i] = s.signs[i] * x[i];
        }
        // H v via the O(d²) definition.
        let mut h = vec![0.0; d_pad];
        for (i, slot) in h.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &vj) in v.iter().enumerate() {
                // Hadamard entry (-1)^{popcount(i & j)}.
                let sign = if ((i & j) as u64).count_ones().is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                acc += sign * vj;
            }
            *slot = acc;
        }
        let scale = 1.0 / (s.output_dim() as f64).sqrt();
        s.sample.iter().map(|&r| scale * h[r]).collect()
    }

    #[test]
    fn srht_matches_dense_reference_on_vectors() {
        let d = device();
        let s = Srht::generate(&d, 64, 16, 3).unwrap();
        let x = fill::gaussian_vec(5, 0, 64);
        let got = s.apply_vector(&d, &x).unwrap();
        let want = dense_srht_apply(&s, &x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn srht_pads_non_power_of_two_inputs() {
        let d = device();
        let s = Srht::generate(&d, 100, 20, 4).unwrap();
        assert_eq!(s.padded_dim(), 128);
        let x = fill::gaussian_vec(6, 0, 100);
        let got = s.apply_vector(&d, &x).unwrap();
        let want = dense_srht_apply(&s, &x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn srht_matrix_apply_is_columnwise_vector_apply() {
        let d = device();
        let s = Srht::generate(&d, 32, 8, 7).unwrap();
        let a = Matrix::random_gaussian(32, 4, Layout::ColMajor, 8, 0);
        let y = s.apply_matrix(&d, &a).unwrap();
        for c in 0..4 {
            let col = a.col_to_vec(c);
            let yc = s.apply_vector(&d, &col).unwrap();
            for i in 0..8 {
                assert!((y.get(i, c) - yc[i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn srht_roughly_preserves_norms() {
        let d = device();
        let dim = 4096;
        let s = Srht::generate(&d, dim, 256, 11).unwrap();
        let x = fill::gaussian_vec(13, 0, dim);
        let y = s.apply_vector(&d, &x).unwrap();
        let ratio = vec_norm2(&y) / vec_norm2(&x);
        assert!((ratio - 1.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn srht_is_linear() {
        let d = device();
        let s = Srht::generate(&d, 64, 16, 2).unwrap();
        let x = fill::gaussian_vec(1, 0, 64);
        let y = fill::gaussian_vec(1, 1, 64);
        let combo: Vec<f64> = x.iter().zip(&y).map(|(a, b)| 2.0 * a - 3.0 * b).collect();
        let s_combo = s.apply_vector(&d, &combo).unwrap();
        let sx = s.apply_vector(&d, &x).unwrap();
        let sy = s.apply_vector(&d, &y).unwrap();
        for i in 0..16 {
            assert!((s_combo[i] - (2.0 * sx[i] - 3.0 * sy[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn apply_into_reused_buffer_is_bit_identical_to_apply_matrix() {
        let d = device();
        let s = Srht::generate(&d, 48, 12, 5).unwrap();
        let a = Matrix::random_gaussian(48, 3, Layout::ColMajor, 9, 0);
        let y = s.apply_matrix(&d, &a).unwrap();
        let mut out = Matrix::from_fn(12, 3, Layout::ColMajor, |_, _| f64::NAN);
        s.apply_into(&d, crate::Operand::Dense(&a), &mut out.view_mut())
            .unwrap();
        assert_eq!(out.as_slice(), y.as_slice());
    }

    #[test]
    fn csr_operand_matches_dense_operand() {
        use sketch_sparse::{CooMatrix, CsrMatrix};
        let d = device();
        let s = Srht::generate(&d, 40, 8, 3).unwrap();
        let mut coo = CooMatrix::new(40, 4);
        for i in 0..40 {
            coo.push(i, i % 4, ((i + 1) as f64).ln());
        }
        let csr = CsrMatrix::from_coo(&coo);
        let rows = csr.to_dense();
        let dense = Matrix::from_fn(40, 4, Layout::ColMajor, |i, j| rows[i][j]);
        let y_dense = s.apply_matrix(&d, &dense).unwrap();
        let y_sparse = s.apply_operand(&d, crate::Operand::Csr(&csr)).unwrap();
        assert!(y_dense.max_abs_diff(&y_sparse).unwrap() < 1e-10);
    }

    #[test]
    fn apply_into_models_the_work_matrix_memory() {
        use sketch_gpu_sim::DeviceSpec;
        // The padded FWHT work matrix (64 x 4 doubles = 2 KiB) is inherent to the
        // transform, so even the buffer-reusing path must report OOM on a 1 KiB
        // device.
        let mut spec = DeviceSpec::h100();
        spec.memory_bytes = 1024;
        let d = Device::new(spec);
        let s = Srht::generate(&d, 64, 8, 1).unwrap();
        let a = Matrix::zeros_with_layout(64, 4, Layout::ColMajor);
        let mut out = Matrix::zeros(8, 4);
        assert!(matches!(
            s.apply_into(&d, crate::Operand::Dense(&a), &mut out.view_mut()),
            Err(Error::WouldExceedMemory(_))
        ));
    }

    #[test]
    fn srht_rejects_bad_parameters_and_dimensions() {
        let d = device();
        assert!(Srht::generate(&d, 0, 4, 1).is_err());
        assert!(Srht::generate(&d, 16, 0, 1).is_err());
        let s = Srht::generate(&d, 16, 4, 1).unwrap();
        assert!(s.apply_vector(&d, &[0.0; 15]).is_err());
    }

    #[test]
    fn generation_cost_is_populated() {
        let d = device();
        let s = Srht::generate(&d, 1 << 10, 64, 9).unwrap();
        assert!(s.generation_cost().bytes_written > 0);
        assert_eq!(s.name(), "SRHT");
    }
}
