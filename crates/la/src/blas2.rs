//! Level-2 BLAS: matrix-vector operations (GEMV, TRSV) with device cost accounting.

use crate::error::{dim_err, LaError};
use crate::matrix::{Layout, Matrix, Op};
use sketch_gpu_sim::{Device, KernelCost};

/// Which triangle of a matrix a triangular routine reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triangle {
    /// The upper triangle (including the diagonal).
    Upper,
    /// The lower triangle (including the diagonal).
    Lower,
}

/// General matrix-vector product `y <- alpha * op(A) * x + beta * y`.
///
/// Returns the new `y` vector.  `A` is read once in storage order: when a storage run
/// holds one output's terms (`NoTrans` row-major, `Trans` column-major) each output is
/// one dot product; otherwise (`Trans` row-major — the `Aᵀb` of the normal equations —
/// and `NoTrans` column-major) each run adds one term to every output's accumulator.
/// Either way output `i` is `alpha·(0 + Σ_j op(A)[i,j]·x[j])` summed in ascending `j`,
/// bit-identical to [`gemv_naive`].
pub fn gemv(
    device: &Device,
    alpha: f64,
    op_a: Op,
    a: &Matrix,
    x: &[f64],
    beta: f64,
    y: Option<&[f64]>,
) -> Result<Vec<f64>, LaError> {
    let (m, k) = check_gemv(op_a, a, x, y)?;
    let mut out = scaled_y(m, beta, y);
    let mut acc = vec![0.0; m];
    match (op_a, a.layout()) {
        (Op::NoTrans, Layout::RowMajor) | (Op::Trans, Layout::ColMajor) => {
            for (acc_i, run) in acc.iter_mut().zip(a.as_slice().chunks_exact(k.max(1))) {
                let mut sum = 0.0;
                for (aij, xj) in run.iter().zip(x) {
                    sum += aij * xj;
                }
                *acc_i = sum;
            }
        }
        (Op::Trans, Layout::RowMajor) | (Op::NoTrans, Layout::ColMajor) => {
            for (xj, run) in x.iter().zip(a.as_slice().chunks_exact(m.max(1))) {
                for (acc_i, aij) in acc.iter_mut().zip(run) {
                    *acc_i += aij * xj;
                }
            }
        }
    }
    for (o, acc_i) in out.iter_mut().zip(&acc) {
        *o += alpha * acc_i;
    }
    device.record(gemv_cost(m, k, beta != 0.0));
    Ok(out)
}

/// The per-element GEMV [`gemv`] replaced: one `op(A)[i, j]` lookup per term and one
/// serial chain per output, whatever the storage order.
///
/// Retained as the `fig_kernels` baseline and the oracle of the bitwise proptests;
/// records the same modelled cost as [`gemv`].
pub fn gemv_naive(
    device: &Device,
    alpha: f64,
    op_a: Op,
    a: &Matrix,
    x: &[f64],
    beta: f64,
    y: Option<&[f64]>,
) -> Result<Vec<f64>, LaError> {
    let (m, k) = check_gemv(op_a, a, x, y)?;
    let mut out = scaled_y(m, beta, y);
    for i in 0..m {
        let mut acc = 0.0;
        for j in 0..k {
            acc += op_a.get(a, i, j) * x[j];
        }
        out[i] += alpha * acc;
    }
    device.record(gemv_cost(m, k, beta != 0.0));
    Ok(out)
}

/// Validate the GEMV operand lengths, returning the shape `(m, k)` of `op(A)`.
fn check_gemv(
    op_a: Op,
    a: &Matrix,
    x: &[f64],
    y: Option<&[f64]>,
) -> Result<(usize, usize), LaError> {
    let m = op_a.rows(a);
    let k = op_a.cols(a);
    if x.len() != k {
        return Err(dim_err(
            "gemv",
            format!("op(A) is {m}x{k} but x has length {}", x.len()),
        ));
    }
    if let Some(y0) = y {
        if y0.len() != m {
            return Err(dim_err(
                "gemv",
                format!("op(A) is {m}x{k} but y has length {}", y0.len()),
            ));
        }
    }
    Ok((m, k))
}

/// The output before the product is added: `beta * y`, or zeros when `beta == 0`.
fn scaled_y(m: usize, beta: f64, y: Option<&[f64]>) -> Vec<f64> {
    let mut out = vec![0.0; m];
    if beta != 0.0 {
        if let Some(y0) = y {
            for (o, &v) in out.iter_mut().zip(y0.iter()) {
                *o = beta * v;
            }
        }
    }
    out
}

/// The modelled cost of an `m x k` GEMV (`2mk` flops; `op(A)` and `x` read once, `y`
/// written once), reading a `beta`-scaled `y` when `read_y`: what [`gemv`] and
/// [`gemv_naive`] record, stated from the shape alone.
pub fn gemv_cost(m: usize, k: usize, read_y: bool) -> KernelCost {
    let (m64, k64) = (m as u64, k as u64);
    let read_y = if read_y { m64 } else { 0 };
    KernelCost::new(
        KernelCost::f64_bytes(m64 * k64 + k64 + read_y),
        KernelCost::f64_bytes(m64),
        2 * m64 * k64,
        1,
    )
}

/// Triangular solve `op(T) x = b` with a vector right-hand side (TRSV).
///
/// `t` must be square; only the requested triangle is read.
pub fn trsv(
    device: &Device,
    triangle: Triangle,
    op_t: Op,
    t: &Matrix,
    b: &[f64],
) -> Result<Vec<f64>, LaError> {
    let n = t.nrows();
    if t.ncols() != n {
        return Err(dim_err("trsv", format!("T is {}x{}", t.nrows(), t.ncols())));
    }
    if b.len() != n {
        return Err(dim_err(
            "trsv",
            format!("T is {n}x{n} but b has length {}", b.len()),
        ));
    }

    // Solving with op(T)=Trans flips the effective triangle.
    let effective = match (triangle, op_t) {
        (Triangle::Upper, Op::NoTrans) | (Triangle::Lower, Op::Trans) => Triangle::Upper,
        (Triangle::Lower, Op::NoTrans) | (Triangle::Upper, Op::Trans) => Triangle::Lower,
    };
    let elem = |i: usize, j: usize| op_t.get(t, i, j);

    let mut x = b.to_vec();
    match effective {
        Triangle::Upper => {
            for i in (0..n).rev() {
                let diag = elem(i, i);
                if diag == 0.0 {
                    return Err(LaError::SingularTriangular { index: i });
                }
                let mut acc = x[i];
                for j in i + 1..n {
                    acc -= elem(i, j) * x[j];
                }
                x[i] = acc / diag;
            }
        }
        Triangle::Lower => {
            for i in 0..n {
                let diag = elem(i, i);
                if diag == 0.0 {
                    return Err(LaError::SingularTriangular { index: i });
                }
                let mut acc = x[i];
                for j in 0..i {
                    acc -= elem(i, j) * x[j];
                }
                x[i] = acc / diag;
            }
        }
    }

    device.record(trsv_cost(n));
    Ok(x)
}

/// The modelled cost of one triangular solve with an `n x n` factor (the triangle
/// and the right-hand side read once, `n²` flops): what [`trsv`] records.
pub fn trsv_cost(n: usize) -> KernelCost {
    let n = n as u64;
    KernelCost::new(
        KernelCost::f64_bytes(n * (n + 1) / 2 + n),
        KernelCost::f64_bytes(n),
        n * n,
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::unlimited()
    }

    #[test]
    fn gemv_matches_manual_product() {
        let d = device();
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = gemv(&d, 1.0, Op::NoTrans, &a, &[1.0, 1.0], 0.0, None).unwrap();
        assert_eq!(y, vec![3.0, 7.0, 11.0]);
    }

    #[test]
    fn gemv_transposed_operand() {
        let d = device();
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        // op(A) = Aᵀ is 2x3.
        let y = gemv(&d, 1.0, Op::Trans, &a, &[1.0, 0.0, -1.0], 0.0, None).unwrap();
        assert_eq!(y, vec![-4.0, -4.0]);
    }

    #[test]
    fn gemv_alpha_beta_combination() {
        let d = device();
        let a = Matrix::identity(2);
        let y0 = vec![10.0, 20.0];
        let y = gemv(&d, 2.0, Op::NoTrans, &a, &[1.0, 2.0], 0.5, Some(&y0)).unwrap();
        assert_eq!(y, vec![7.0, 14.0]);
    }

    #[test]
    fn gemv_rejects_bad_dimensions() {
        let d = device();
        let a = Matrix::identity(3);
        assert!(gemv(&d, 1.0, Op::NoTrans, &a, &[1.0], 0.0, None).is_err());
        assert!(gemv(&d, 1.0, Op::NoTrans, &a, &[1.0; 3], 1.0, Some(&[1.0])).is_err());
    }

    #[test]
    fn gemv_records_flops() {
        let d = device();
        let a = Matrix::zeros(4, 5);
        let _ = gemv(&d, 1.0, Op::NoTrans, &a, &[0.0; 5], 0.0, None).unwrap();
        assert_eq!(d.tracker().snapshot().flops, 40);
    }

    #[test]
    fn trsv_upper_and_lower_round_trip() {
        let d = device();
        // Upper triangular system.
        let u = Matrix::from_rows(&[&[2.0, 1.0, 0.5], &[0.0, 3.0, -1.0], &[0.0, 0.0, 4.0]]);
        let x_true = vec![1.0, -2.0, 0.5];
        // b = U * x_true
        let b = gemv(&d, 1.0, Op::NoTrans, &u, &x_true, 0.0, None).unwrap();
        let x = trsv(&d, Triangle::Upper, Op::NoTrans, &u, &b).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-12);
        }

        // Lower triangular via the transpose of U.
        let bt = gemv(&d, 1.0, Op::Trans, &u, &x_true, 0.0, None).unwrap();
        let xt = trsv(&d, Triangle::Upper, Op::Trans, &u, &bt).unwrap();
        for (a, b) in xt.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn trsv_lower_triangle() {
        let d = device();
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
        let b = vec![4.0, 11.0];
        let x = trsv(&d, Triangle::Lower, Op::NoTrans, &l, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn trsv_detects_singularity_and_bad_shapes() {
        let d = device();
        let mut u = Matrix::identity(3);
        u.set(1, 1, 0.0);
        let err = trsv(&d, Triangle::Upper, Op::NoTrans, &u, &[1.0; 3]).unwrap_err();
        assert_eq!(err, LaError::SingularTriangular { index: 1 });

        let rect = Matrix::zeros_with_layout(2, 3, Layout::ColMajor);
        assert!(trsv(&d, Triangle::Upper, Op::NoTrans, &rect, &[1.0; 2]).is_err());
        let sq = Matrix::identity(2);
        assert!(trsv(&d, Triangle::Upper, Op::NoTrans, &sq, &[1.0; 3]).is_err());
    }
}
