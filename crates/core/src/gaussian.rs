//! The dense Gaussian sketch, applied with GEMM.
//!
//! `S ∈ R^{k x d}` with `s_ij ~ N(0, 1/k)`.  The paper applies it with cuBLAS GEMM and
//! charges the generation of the `k·d` Gaussians to the sketch ("the Gaussian sketch is
//! noticeably slower than computing the Gram matrix, because one performs a GeMM using a
//! matrix that is twice as large and one has to generate 2n·d i.i.d. Gaussian random
//! variables").  At the largest problem sizes the `k x d` matrix simply does not fit on
//! the 80 GB card — the blank bars of Figures 2 and 5 — which this implementation
//! reproduces through the device memory tracker.

use crate::error::Error;
use crate::operand::{Operand, OperandShape};
use crate::spec::SketchKind;
use crate::traits::{apply_stated, SketchCosts, SketchOperator, STATEMENT_OVERFLOW};
use sketch_gpu_sim::{Checked, Device, KernelCost};
use sketch_la::{blas2, blas3, Layout, Matrix, MatrixViewMut, Op};
use sketch_rng::fill;

/// Approximate flop cost of producing one Gaussian variate with Box–Muller.
const FLOPS_PER_GAUSSIAN: u64 = 12;

/// A dense Gaussian sketch `S ∈ R^{k x d}` with entries `N(0, 1/k)`.
#[derive(Debug, Clone)]
pub struct GaussianSketch {
    matrix: Matrix,
    generation_cost: KernelCost,
}

impl GaussianSketch {
    /// Generate the sketch, reserving (and then releasing) the modelled device memory it
    /// would occupy.  Fails with [`Error::WouldExceedMemory`] exactly where the
    /// paper reports GPU out-of-memory failures, and with
    /// [`Error::HostAllocationFailed`] when the host refuses the `k x d` buffer.
    pub fn generate(device: &Device, d: usize, k: usize, seed: u64) -> Result<Self, Error> {
        if k == 0 {
            return Err(Error::invalid_param(
                "Gaussian sketch output dimension must be positive",
            ));
        }
        let len = k
            .checked_mul(d)
            .filter(|&len| len <= isize::MAX as usize / std::mem::size_of::<f64>())
            .ok_or_else(|| {
                Error::invalid_param(format!(
                    "a {k} x {d} Gaussian sketch exceeds isize::MAX bytes"
                ))
            })?;
        let bytes = KernelCost::f64_bytes(len as u64);
        if !device.memory().would_fit(bytes) {
            // Report the same error try_reserve would produce, without reserving.
            return Err(device
                .try_reserve(bytes)
                .expect_err("would_fit said no")
                .into());
        }
        let scale = 1.0 / (k as f64).sqrt();
        let data = fill::scaled_gaussian_vec(seed, 0, len, scale)
            .map_err(|_| Error::HostAllocationFailed { bytes })?;
        let matrix = Matrix::from_vec(k, d, Layout::RowMajor, data);
        let generation_cost = generation_cost(d, k).ok_or(STATEMENT_OVERFLOW)?;
        device.record(generation_cost);
        Ok(Self {
            matrix,
            generation_cost,
        })
    }

    /// The explicit sketch matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Bytes the stored sketch occupies on the device.
    pub fn size_bytes(&self) -> u64 {
        self.matrix.size_bytes()
    }

    /// What a `d -> k` Gaussian sketch states ([`SketchCosts`]): generating its
    /// `k·d` draws, and one apply to a `d`-row operand of shape `a` — a GEMM for a
    /// dense operand, the dense sketch's columns gathered per non-zero for a
    /// sparse one.  The `k x d` operator is stored, not reserved per apply.
    pub fn costs(d: usize, k: usize, a: OperandShape) -> Result<SketchCosts, Error> {
        let apply = match a {
            OperandShape::Dense { cols, .. } => blas3::gemm_cost(k, d, cols, false),
            OperandShape::Csr { cols, nnz, .. } => {
                let (nnz, n, k) = (Checked::from(nnz), Checked::from(cols), Checked::from(k));
                let idx_bytes = (nnz + Checked::from(d) + 1) * std::mem::size_of::<usize>() as u64;
                KernelCost::checked((nnz + k * nnz) * 8 + idx_bytes, k * n * 8, k * nnz * 2, 1)
            }
        };
        SketchCosts::checked(generation_cost(d, k), apply, Checked::ZERO)
    }

    /// `out = S A`, unrecorded: GEMM straight into the caller's buffer (dense
    /// operands), or a dense×CSR accumulation for sparse operands.  No intermediate
    /// matrix is allocated.
    pub(crate) fn compute_into(
        &self,
        a: Operand<'_>,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), Error> {
        match a {
            Operand::Dense(m) => {
                blas3::gemm_into_unrecorded(
                    1.0,
                    Op::NoTrans,
                    &self.matrix,
                    Op::NoTrans,
                    m,
                    0.0,
                    None,
                    out,
                )?;
            }
            Operand::Csr(s) => {
                // Y[:, c] += a_jc * S[:, j] for every stored entry: the dense sketch
                // columns are gathered per non-zero, which is exactly how cuSPARSE
                // would drive a dense-times-sparse product from the right.
                out.fill(0.0);
                for j in 0..s.nrows() {
                    for (c, v) in s.row(j) {
                        for i in 0..self.output_dim() {
                            out.add_to(i, c, self.matrix.get(i, j) * v);
                        }
                    }
                }
            }
            Operand::CsrRows(v) => {
                out.fill(0.0);
                for j in 0..v.nrows() {
                    for (c, val) in v.row(j) {
                        for i in 0..self.output_dim() {
                            out.add_to(i, c, self.matrix.get(i, j) * val);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// What generating a `k x d` Gaussian records: write `k·d` Box–Muller draws.
fn generation_cost(d: usize, k: usize) -> Option<KernelCost> {
    let len = Checked::from(k) * Checked::from(d);
    KernelCost::checked(Checked::ZERO, len * 8, len * FLOPS_PER_GAUSSIAN, 1)
}

impl SketchOperator for GaussianSketch {
    fn input_dim(&self) -> usize {
        self.matrix.ncols()
    }

    fn output_dim(&self) -> usize {
        self.matrix.nrows()
    }

    fn name(&self) -> &'static str {
        "Gaussian"
    }

    fn output_layout(&self) -> Layout {
        SketchKind::Gaussian.output_layout()
    }

    /// GEMM straight into the caller's buffer (dense operands), or a dense×CSR
    /// accumulation for sparse operands.  No intermediate matrix is allocated.
    fn apply_into(
        &self,
        device: &Device,
        a: Operand<'_>,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), Error> {
        self.check_operand(&a)?;
        self.check_output(out, a.ncols())?;
        let costs = Self::costs(self.input_dim(), self.output_dim(), a.shape())?;
        apply_stated(device, costs, || self.compute_into(a, out))
    }

    fn apply_matrix(&self, device: &Device, a: &Matrix) -> Result<Matrix, Error> {
        self.apply_operand(device, Operand::Dense(a))
    }

    fn apply_operand(&self, device: &Device, a: Operand<'_>) -> Result<Matrix, Error> {
        self.check_operand(&a)?;
        // The sketch itself plus the result must fit on the device alongside A.
        let _res_s = device.try_reserve(self.size_bytes())?;
        let _res_y = device.try_reserve(KernelCost::f64_bytes(
            (self.output_dim() * a.ncols()) as u64,
        ))?;
        let mut y = Matrix::zeros(self.output_dim(), a.ncols());
        self.apply_into(device, a, &mut y.view_mut())?;
        Ok(y)
    }

    fn apply_vector(&self, device: &Device, x: &[f64]) -> Result<Vec<f64>, Error> {
        self.check_input_dim(x.len())?;
        let _res_s = device.try_reserve(self.size_bytes())?;
        Ok(blas2::gemv(
            device,
            1.0,
            Op::NoTrans,
            &self.matrix,
            x,
            0.0,
            None,
        )?)
    }

    fn generation_cost(&self) -> KernelCost {
        self.generation_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_gpu_sim::DeviceSpec;
    use sketch_la::norms::vec_norm2;
    use sketch_sparse::{CooMatrix, CsrMatrix};

    fn device() -> Device {
        Device::unlimited()
    }

    #[test]
    fn entries_have_variance_one_over_k() {
        let d = device();
        let g = GaussianSketch::generate(&d, 400, 100, 3).unwrap();
        let data = g.matrix().as_slice();
        let var: f64 = data.iter().map(|x| x * x).sum::<f64>() / data.len() as f64;
        assert!((var - 0.01).abs() < 2e-3, "variance {var}");
    }

    #[test]
    fn apply_matrix_matches_manual_gemv_per_column() {
        let d = device();
        let g = GaussianSketch::generate(&d, 50, 10, 1).unwrap();
        let a = Matrix::random_gaussian(50, 3, Layout::ColMajor, 2, 0);
        let y = g.apply_matrix(&d, &a).unwrap();
        for c in 0..3 {
            let col = a.col_to_vec(c);
            let yc = g.apply_vector(&d, &col).unwrap();
            for i in 0..10 {
                assert!((y.get(i, c) - yc[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn apply_into_reused_buffer_is_bit_identical_to_apply_matrix() {
        let d = device();
        let g = GaussianSketch::generate(&d, 60, 12, 5).unwrap();
        let a = Matrix::random_gaussian(60, 4, Layout::RowMajor, 6, 0);
        let y = g.apply_matrix(&d, &a).unwrap();
        let mut out = Matrix::from_fn(12, 4, Layout::ColMajor, |_, _| f64::NAN);
        g.apply_into(&d, Operand::Dense(&a), &mut out.view_mut())
            .unwrap();
        assert_eq!(out.as_slice(), y.as_slice());
    }

    #[test]
    fn csr_operand_matches_dense_operand() {
        let d = device();
        let g = GaussianSketch::generate(&d, 30, 8, 2).unwrap();
        let mut coo = CooMatrix::new(30, 5);
        for i in 0..30 {
            coo.push(i, i % 5, (i as f64 * 0.3).cos());
            if i % 3 == 0 {
                coo.push(i, (i + 2) % 5, -1.5);
            }
        }
        let csr = CsrMatrix::from_coo(&coo);
        let rows = csr.to_dense();
        let dense = Matrix::from_fn(30, 5, Layout::RowMajor, |i, j| rows[i][j]);
        let y_dense = g.apply_matrix(&d, &dense).unwrap();
        let y_sparse = g.apply_operand(&d, Operand::Csr(&csr)).unwrap();
        assert!(y_dense.max_abs_diff(&y_sparse).unwrap() < 1e-12);
    }

    #[test]
    fn apply_into_performs_zero_device_allocations() {
        let d = device();
        let g = GaussianSketch::generate(&d, 64, 8, 9).unwrap();
        let a = Matrix::random_gaussian(64, 4, Layout::RowMajor, 1, 0);
        let mut out = Matrix::zeros(8, 4);
        let before = d.memory().allocations();
        g.apply_into(&d, Operand::Dense(&a), &mut out.view_mut())
            .unwrap();
        assert_eq!(
            d.memory().allocations(),
            before,
            "apply_into must not reserve device memory"
        );
        let _ = g.apply_matrix(&d, &a).unwrap();
        assert!(d.memory().allocations() > before);

        // A disabled recorder must keep the hot path allocation-free too: the
        // launch site reads one relaxed flag and does nothing else.
        d.set_recorder(Some(std::sync::Arc::new(sketch_gpu_sim::obs::NoopRecorder)));
        let with_noop = d.memory().allocations();
        g.apply_into(&d, Operand::Dense(&a), &mut out.view_mut())
            .unwrap();
        assert_eq!(
            d.memory().allocations(),
            with_noop,
            "a NoopRecorder must not change the zero-allocation certification"
        );
    }

    #[test]
    fn norm_preservation_is_reasonable_for_k_2n() {
        // For a 1-dimensional subspace (a single vector) and k = 128 the distortion
        // should be small with overwhelming probability.
        let d = device();
        let dim = 2048;
        let g = GaussianSketch::generate(&d, dim, 128, 5).unwrap();
        let x = fill::gaussian_vec(9, 0, dim);
        let y = g.apply_vector(&d, &x).unwrap();
        let ratio = vec_norm2(&y) / vec_norm2(&x);
        assert!((ratio - 1.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn csr_operand_path_reports_oom_like_the_dense_path() {
        // Device that can generate the sketch but cannot hold sketch + output during
        // an apply: both the dense and the CSR allocating paths must report OOM.
        let mut spec = DeviceSpec::h100();
        spec.memory_bytes = 530 * 1024;
        let d = Device::new(spec);
        let g = GaussianSketch::generate(&d, 1024, 64, 1).unwrap(); // 512 KiB sketch
        let a = Matrix::zeros_with_layout(1024, 64, sketch_la::Layout::RowMajor);
        let mut coo = CooMatrix::new(1024, 64);
        coo.push(0, 0, 1.0);
        let csr = CsrMatrix::from_coo(&coo);
        assert!(matches!(
            g.apply_matrix(&d, &a),
            Err(Error::WouldExceedMemory(_))
        ));
        assert!(matches!(
            g.apply_operand(&d, Operand::Csr(&csr)),
            Err(Error::WouldExceedMemory(_))
        ));
    }

    #[test]
    fn oom_reproduces_the_blank_bars() {
        // 1 GiB device cannot hold a 2n x d Gaussian for d = 2^24, n = 64.
        let mut spec = DeviceSpec::h100();
        spec.memory_bytes = 1 << 30;
        let d = Device::new(spec);
        let err = GaussianSketch::generate(&d, 1 << 24, 128, 1).unwrap_err();
        assert!(matches!(err, Error::WouldExceedMemory(_)));
    }

    #[test]
    fn an_operator_past_isize_max_bytes_is_a_typed_error() {
        // k·d overflows usize here, and 2^60 doubles overflow isize::MAX bytes.
        for (d, k) in [(usize::MAX, 2), (1 << 30, 1 << 30)] {
            let err = GaussianSketch::generate(&device(), d, k, 1).unwrap_err();
            assert!(matches!(err, Error::InvalidParameter { .. }), "{err}");
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let d = device();
        let a = GaussianSketch::generate(&d, 64, 16, 42).unwrap();
        let b = GaussianSketch::generate(&d, 64, 16, 42).unwrap();
        assert_eq!(a.matrix(), b.matrix());
    }

    #[test]
    fn invalid_k_and_dimension_mismatch_are_rejected() {
        let d = device();
        assert!(matches!(
            GaussianSketch::generate(&d, 10, 0, 1),
            Err(Error::InvalidParameter { .. })
        ));
        let g = GaussianSketch::generate(&d, 10, 4, 1).unwrap();
        assert!(g.apply_vector(&d, &[0.0; 9]).is_err());
        let a = Matrix::zeros(11, 2);
        assert!(g.apply_matrix(&d, &a).is_err());
    }

    #[test]
    fn generation_cost_scales_with_k_times_d() {
        let d = device();
        let g = GaussianSketch::generate(&d, 100, 20, 1).unwrap();
        assert_eq!(g.generation_cost().bytes_written, 8 * 2000);
        assert_eq!(g.name(), "Gaussian");
        assert_eq!(g.input_dim(), 100);
        assert_eq!(g.output_dim(), 20);
    }
}
