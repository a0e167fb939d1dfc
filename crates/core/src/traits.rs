//! The [`SketchOperator`] abstraction shared by every sketch in the workspace, and
//! the [`SketchCosts`] each sketch kind states for itself.

use crate::error::Error;
use crate::operand::Operand;
use sketch_gpu_sim::{Checked, Device, KernelCost};
use sketch_la::{Layout, Matrix, MatrixViewMut};

/// What a sketch kind states, from the operand's shape alone, about generating its
/// operator and applying it once: the one cost model behind every recorded sketch
/// cost.  [`SketchSpec::costs`](crate::SketchSpec::costs) returns it for a resolved
/// spec, [`Pipeline::costs`](crate::Pipeline::costs) for a chain.
///
/// Each operator's [`apply_into`](SketchOperator::apply_into) computes, then records
/// exactly [`apply`](Self::apply) under a reservation of
/// [`apply_reserve`](Self::apply_reserve), and its generation records
/// [`generation`](Self::generation); the multi-device executor charges shards the
/// same statements instead of running their kernels, and the service admits jobs
/// by them.  At a shape whose counts overflow `u64`, every kind's `costs` returns
/// [`Error::SizeOverflow`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchCosts {
    /// What generating the operator records (the "Sketch gen" cost); its bytes
    /// written are the operator's stored ingredients.
    pub generation: KernelCost,
    /// What one `apply_into` records: its launches summed into one cost, whose
    /// `launches` counts them.
    pub apply: KernelCost,
    /// Device bytes one `apply_into` reserves at its peak (and releases before it
    /// returns) beyond the operand and the caller-owned output: the SRHT's padded
    /// work matrix, a pipeline's intermediates.
    pub apply_reserve: u64,
}

/// The typed refusal of a cost statement that overflows `u64` at its shape.
pub(crate) const STATEMENT_OVERFLOW: Error = Error::SizeOverflow {
    quantity: "cost statement",
};

impl SketchCosts {
    /// A statement from its [`Checked`] parts, or [`Error::SizeOverflow`] when one
    /// of them overflowed `u64`.
    pub(crate) fn checked(
        generation: Option<KernelCost>,
        apply: Option<KernelCost>,
        apply_reserve: Checked,
    ) -> Result<Self, Error> {
        let (generation, apply) = generation.zip(apply).ok_or(STATEMENT_OVERFLOW)?;
        let apply_reserve = apply_reserve.0.ok_or(STATEMENT_OVERFLOW)?;
        Ok(Self {
            generation,
            apply,
            apply_reserve,
        })
    }

    /// Device bytes the built operator and one allocating apply of it hold beyond
    /// the operand: the stored ingredients (what the generation writes), the
    /// apply's peak reservation, and the `k x n` result.  [`Error::SizeOverflow`]
    /// when the sum overflows `u64`.
    pub fn held_bytes(&self, k: usize, n: usize) -> Result<u64, Error> {
        let result = Checked::from(k) * Checked::from(n) * 8;
        (result + self.generation.bytes_written + self.apply_reserve)
            .0
            .ok_or(Error::SizeOverflow {
                quantity: "held bytes",
            })
    }
}

/// Reserve what `costs` states on `device`, run the unrecorded `compute`, then
/// record the stated apply cost: every sketch kind's `apply_into` after its checks.
pub(crate) fn apply_stated(
    device: &Device,
    costs: SketchCosts,
    compute: impl FnOnce() -> Result<(), Error>,
) -> Result<(), Error> {
    let _work = match costs.apply_reserve {
        0 => None,
        bytes => Some(device.try_reserve(bytes)?),
    };
    compute()?;
    device.record(costs.apply);
    Ok(())
}

/// A zeroed host buffer of `len` elements, or [`Error::HostAllocationFailed`] when
/// the host refuses it: the buffers an untrusted shape sizes are reserved with
/// `try_reserve_exact`, so a refusal is a typed error, not an abort.
pub fn try_zeroed<T: Clone + Default>(len: usize) -> Result<Vec<T>, Error> {
    let mut buf = Vec::new();
    buf.try_reserve_exact(len)
        .map_err(|_| Error::HostAllocationFailed {
            bytes: (len as u64).saturating_mul(std::mem::size_of::<T>() as u64),
        })?;
    buf.resize(len, T::default());
    Ok(buf)
}

/// A zeroed `rows x cols` matrix in `layout`, reserved like [`try_zeroed`].
pub(crate) fn try_zeros(rows: usize, cols: usize, layout: Layout) -> Result<Matrix, Error> {
    let len = rows
        .checked_mul(cols)
        .ok_or(Error::HostAllocationFailed { bytes: u64::MAX })?;
    Ok(Matrix::from_vec(rows, cols, layout, try_zeroed(len)?))
}

/// A random linear operator `S : R^d -> R^k` that can be applied to matrices and
/// vectors on the simulated device.
///
/// The trait deliberately mirrors how the paper's evaluation drives the sketches: a
/// sketch is *generated* once (with a cost the paper charges as "Sketch gen time") and
/// then *applied* to the coefficient matrix and the right-hand side.
///
/// The hot path is [`apply_into`](Self::apply_into): operand-generic (dense or CSR via
/// [`Operand`]) and allocation-free — the caller owns the `k x n` output buffer and
/// reuses it across calls.  [`apply_matrix`](Self::apply_matrix) and
/// [`apply_vector`](Self::apply_vector) are thin allocating wrappers kept for
/// convenience.
pub trait SketchOperator {
    /// Input dimension `d` (number of rows the operand must have).
    fn input_dim(&self) -> usize;

    /// Output dimension `k` (number of rows of the sketched result).
    fn output_dim(&self) -> usize;

    /// Short name used in reports ("CountSketch", "Gaussian", …).
    fn name(&self) -> &'static str;

    /// The layout this operator naturally produces (what
    /// [`apply_matrix`](Self::apply_matrix) allocates): row-major for the
    /// scatter-style CountSketch kernels, column-major for the GEMM-backed sketches.
    fn output_layout(&self) -> Layout {
        Layout::RowMajor
    }

    /// Apply the sketch to an operand, writing `out = S A` into a caller-owned
    /// `k x n` buffer.  Implementations overwrite every element of `out` (dirty
    /// buffers are fine) and perform **zero** intermediate matrix allocations on the
    /// CountSketch and Gaussian hot paths.
    ///
    /// Memory modelling of the *output* is the caller's job on this path: the
    /// allocating wrappers
    /// ([`apply_matrix`](Self::apply_matrix)/[`apply_operand`](Self::apply_operand))
    /// reserve it on the device, while the CountSketch/Gaussian `apply_into` hot
    /// paths touch the [`MemoryTracker`](sketch_gpu_sim::MemoryTracker) not at all.
    /// Operators with *inherent* intermediates (the multisketch's `k₁ x n` stage,
    /// the SRHT's padded FWHT work matrix) still reserve those inside `apply_into`.
    fn apply_into(
        &self,
        device: &Device,
        a: Operand<'_>,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), Error>;

    /// Apply the sketch to a dense matrix: `Y = S A` with `A ∈ R^{d x n}`.
    ///
    /// Thin allocating wrapper over [`apply_into`](Self::apply_into): reserves the
    /// output on the modelled device, allocates it in the operator's natural layout,
    /// and delegates — so the two paths are bit-for-bit identical by construction.
    fn apply_matrix(&self, device: &Device, a: &Matrix) -> Result<Matrix, Error> {
        self.apply_operand(device, Operand::Dense(a))
    }

    /// Apply the sketch to any [`Operand`], allocating the output (the CSR-capable
    /// sibling of [`apply_matrix`](Self::apply_matrix)).
    fn apply_operand(&self, device: &Device, a: Operand<'_>) -> Result<Matrix, Error> {
        self.check_operand(&a)?;
        let n = a.ncols();
        let _reservation =
            device.try_reserve(KernelCost::f64_bytes((self.output_dim() * n) as u64))?;
        let mut y = Matrix::zeros_with_layout(self.output_dim(), n, self.output_layout());
        self.apply_into(device, a, &mut y.view_mut())?;
        Ok(y)
    }

    /// Apply the sketch to a vector: `y = S x` with `x ∈ R^d`.
    fn apply_vector(&self, device: &Device, x: &[f64]) -> Result<Vec<f64>, Error>;

    /// Cost charged for generating the sketch's random ingredients (the "Sketch gen
    /// time" component of Figures 2 and 5).
    fn generation_cost(&self) -> KernelCost;

    /// Check that an operand with `rows` leading dimension is compatible.
    fn check_input_dim(&self, rows: usize) -> Result<(), Error> {
        if rows == self.input_dim() {
            Ok(())
        } else {
            Err(Error::dimension_mismatch(
                self.name(),
                self.input_dim(),
                rows,
                format!("leading dimension {rows}"),
            ))
        }
    }

    /// Check a full operand, producing an error that names this operator and the
    /// operand's shape.
    fn check_operand(&self, a: &Operand<'_>) -> Result<(), Error> {
        if a.nrows() == self.input_dim() {
            Ok(())
        } else {
            Err(Error::dimension_mismatch(
                self.name(),
                self.input_dim(),
                a.nrows(),
                a.describe(),
            ))
        }
    }

    /// Check that a caller-provided output buffer matches `k x n` for an operand
    /// with `ncols` columns.
    fn check_output(&self, out: &MatrixViewMut<'_>, ncols: usize) -> Result<(), Error> {
        if out.nrows() == self.output_dim() && out.ncols() == ncols {
            Ok(())
        } else {
            // Report whichever dimension actually mismatches.
            let (expected, found) = if out.nrows() != self.output_dim() {
                (self.output_dim(), out.nrows())
            } else {
                (ncols, out.ncols())
            };
            Err(Error::dimension_mismatch(
                self.name(),
                expected,
                found,
                format!(
                    "output buffer {}x{}, expected {}x{ncols}",
                    out.nrows(),
                    out.ncols(),
                    self.output_dim()
                ),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_gpu_sim::Device;

    /// A trivial sketch (identity on the first k coordinates) to exercise the trait's
    /// default methods.
    struct TakeFirst {
        d: usize,
        k: usize,
    }

    impl SketchOperator for TakeFirst {
        fn input_dim(&self) -> usize {
            self.d
        }
        fn output_dim(&self) -> usize {
            self.k
        }
        fn name(&self) -> &'static str {
            "TakeFirst"
        }
        fn apply_into(
            &self,
            device: &Device,
            a: Operand<'_>,
            out: &mut MatrixViewMut<'_>,
        ) -> Result<(), Error> {
            self.check_operand(&a)?;
            self.check_output(out, a.ncols())?;
            out.fill(0.0);
            match a {
                Operand::Dense(m) => {
                    for i in 0..self.k {
                        for j in 0..m.ncols() {
                            out.set(i, j, m.get(i, j));
                        }
                    }
                }
                Operand::Csr(s) => {
                    for i in 0..self.k {
                        for (j, v) in s.row(i) {
                            out.set(i, j, v);
                        }
                    }
                }
                Operand::CsrRows(view) => {
                    for i in 0..self.k {
                        for (j, v) in view.row(i) {
                            out.set(i, j, v);
                        }
                    }
                }
            }
            let bytes = KernelCost::f64_bytes((self.k * a.ncols()) as u64);
            device.record(KernelCost::new(bytes, bytes, 0, 1));
            Ok(())
        }
        fn apply_vector(&self, _device: &Device, x: &[f64]) -> Result<Vec<f64>, Error> {
            self.check_input_dim(x.len())?;
            Ok(x[..self.k].to_vec())
        }
        fn generation_cost(&self) -> KernelCost {
            KernelCost::zero()
        }
    }

    #[test]
    fn check_input_dim_accepts_and_rejects_with_context() {
        let s = TakeFirst { d: 10, k: 3 };
        assert!(s.check_input_dim(10).is_ok());
        let err = s.check_input_dim(9).unwrap_err();
        match err {
            Error::DimensionMismatch {
                op,
                expected,
                found,
                ..
            } => {
                assert_eq!(op, "TakeFirst");
                assert_eq!((expected, found), (10, 9));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn default_apply_matrix_wraps_apply_into() {
        let device = Device::unlimited();
        let s = TakeFirst { d: 4, k: 2 };
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 8.0]]);
        let y = s.apply_matrix(&device, &a).unwrap();
        assert_eq!(y.nrows(), 2);
        assert_eq!(y.get(1, 1), 4.0);

        // The reusing path writes the same bits into a dirty buffer.
        let mut out = Matrix::from_fn(2, 2, Layout::RowMajor, |_, _| f64::NAN);
        s.apply_into(&device, Operand::Dense(&a), &mut out.view_mut())
            .unwrap();
        assert_eq!(out.as_slice(), y.as_slice());
    }

    #[test]
    fn trait_object_usage_works() {
        let device = Device::unlimited();
        let s: Box<dyn SketchOperator> = Box::new(TakeFirst { d: 4, k: 2 });
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(s.apply_vector(&device, &x).unwrap(), vec![1.0, 2.0]);
        assert_eq!(s.name(), "TakeFirst");
        assert_eq!(s.output_dim(), 2);
        assert_eq!(s.generation_cost(), KernelCost::zero());
    }

    #[test]
    fn output_buffer_shape_is_validated() {
        let device = Device::unlimited();
        let s = TakeFirst { d: 4, k: 2 };
        let a = Matrix::zeros(4, 3);
        let mut wrong = Matrix::zeros(3, 3);
        let err = s
            .apply_into(&device, Operand::Dense(&a), &mut wrong.view_mut())
            .unwrap_err();
        assert!(err.is_dimension_mismatch());
    }
}
