//! Householder QR factorisation (GEQRF), reflector application (ORMQR) and thin-Q
//! formation (ORGQR).
//!
//! The paper's sketch-and-solve pipeline (Section 6.1) computes the QR factorisation of
//! the *sketched* matrix with cuSOLVER's `GeQRF`, applies the reflectors to the sketched
//! right-hand side with `OrMQR`, and finishes with a triangular solve — explicitly
//! avoiding `GeLS`, which the authors found much slower.  This module provides the same
//! three building blocks plus the explicit thin `Q` that the randomized rangefinder
//! (`sketch-lowrank`) returns as its orthonormal basis.
//!
//! # Kernels and the bit contract
//!
//! [`geqrf`] is LAPACK's unblocked `geqr2` and [`QrFactors::into_q_thin`] is `org2r`
//! (Golub & Van Loan, *Matrix Computations*, §5.2).  Each reflector is formed serially;
//! its application to the trailing columns runs `GROUP` (4) columns at a time, with one
//! independent accumulator chain per column sharing each load of `v`, and disjoint
//! column groups run as parallel tasks.  Every column keeps the exact operation
//! sequence of the per-column references [`geqrf_naive`] and [`QrFactors::q_thin_naive`]:
//!
//! * **`geqrf`**: reflector `k` updates trailing column `t` as
//!   `w = 0 + 1·t[k] + Σ_{i>k} v[i]·t[i]` (ascending `i`), `w *= tau`,
//!   `t[k] -= w`, `t[i] -= w·v[i]`;
//! * **thin `Q`**: column `j` is `H_0 ⋯ H_j e_j`, each `H_k` applied as
//!   `w = y[k] + Σ_{i>k} v[i]·y[i]`, `w *= tau`, `y[k] -= w`, `y[i] -= w·v[i]`.
//!
//! No sum is split, reordered or fused, so grouping and threads only decide which
//! columns run side by side: the bits are independent of the thread count.  The
//! reference applies `H_{n-1} … H_{j+1}` to `e_j` first; for **finite factors** those
//! are exact no-ops (`w` is `+0.0`), so `into_q_thin` skips them as `org2r` does and
//! still reproduces the reference bit for bit.
//!
//! Callers that own their input use [`geqrf_owned`] + [`QrFactors::into_q_thin`]: the
//! factorisation runs in the caller's buffer and `Q` overwrites the factors, so an
//! orthonormalisation holds one `m x n` buffer (two if the input is row-major and must
//! change layout).

use crate::blas1::nrm2_unrecorded;
use crate::blas2::{trsv, Triangle};
use crate::error::{dim_err, LaError};
use crate::matrix::{Layout, Matrix, Op};
use rayon::prelude::*;
use sketch_gpu_sim::{Device, KernelCost};

/// The compact Householder QR factorisation of an `m x n` matrix (`m >= n`).
///
/// `factors` holds `R` in its upper triangle and the Householder vectors below the
/// diagonal (each with an implicit unit leading entry); `taus` holds the scalar
/// coefficients, mirroring LAPACK's `geqrf` output.
#[derive(Debug, Clone)]
pub struct QrFactors {
    factors: Matrix,
    taus: Vec<f64>,
}

/// Approximate block size used when modelling the memory traffic of a blocked QR; the
/// flop counts are exact, the traffic model assumes the panel is re-read once per block
/// column rather than once per column.
const QR_MODEL_BLOCK: u64 = 32;

/// Columns one reflector application updates together: their accumulator chains
/// interleave and share each load of `v`.  A fixed constant — the bits never depend on
/// it, only the speed does.
const GROUP: usize = 4;

/// Trailing-update size (elements touched) below which one reflector step stays on the
/// calling thread: small factorisations (the `64 x 32` sketches of the least-squares
/// solvers) must not pay a parallel dispatch per reflector.
const PAR_MIN_ELEMS: usize = 1 << 15;

fn check_overdetermined(a: &Matrix) -> Result<(), LaError> {
    if a.nrows() < a.ncols() {
        return Err(LaError::NotOverdetermined {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    Ok(())
}

/// Compute the Householder QR factorisation of `a` (GEQRF).
///
/// Requires `a.nrows() >= a.ncols()`.  Copies `a`; callers that own their input should
/// use [`geqrf_owned`], which factors in place.
pub fn geqrf(device: &Device, a: &Matrix) -> Result<QrFactors, LaError> {
    check_overdetermined(a)?;
    geqrf_owned(device, a.to_layout(device, Layout::ColMajor))
}

/// [`geqrf`] in the caller's buffer: a column-major `a` is factored in place, a
/// row-major one is converted once (recording the conversion, as [`geqrf`] does).
/// Bit-identical to [`geqrf`] and to [`geqrf_naive`].
pub fn geqrf_owned(device: &Device, a: Matrix) -> Result<QrFactors, LaError> {
    check_overdetermined(&a)?;
    let mut f = match a.layout() {
        Layout::ColMajor => a,
        Layout::RowMajor => a.to_layout(device, Layout::ColMajor),
    };
    let (m, n) = (f.nrows(), f.ncols());
    let mut taus = vec![0.0; n];
    let data = f.as_mut_slice();

    for k in 0..n {
        let (head, trailing) = data.split_at_mut((k + 1) * m);
        let col = &mut head[k * m..];
        // Build the Householder reflector for column k from rows k..m.
        let norm = nrm2_unrecorded(&col[k..]);
        if norm == 0.0 {
            continue;
        }
        let a_kk = col[k];
        let beta = if a_kk >= 0.0 { -norm } else { norm };
        let tau = (beta - a_kk) / beta;
        let scale = 1.0 / (a_kk - beta);
        // Write the reflector back into the column: implicit 1 at row k, scaled tail.
        col[k] = beta;
        for x in &mut col[k + 1..] {
            *x *= scale;
        }
        taus[k] = tau;

        // Apply H = I - tau v vᵀ to the trailing columns, reading v in place.
        let v = &col[k + 1..];
        for_each_group(trailing, m, (m - k) * (n - k - 1), |group| {
            reflect_group::<true>(group, m, k, v, tau)
        });
    }

    device.record(geqrf_cost(m, n));
    Ok(QrFactors { factors: f, taus })
}

/// The per-column GEQRF the grouped kernel replaced: one serial dot product and update
/// per trailing column, with the reflector copied out to a scratch vector.
///
/// Retained (not routed to by anything on the hot path) as the measured baseline for
/// the `fig_kernels` harness and the oracle of the bitwise proptests.  Records the same
/// modelled cost as [`geqrf`].
pub fn geqrf_naive(device: &Device, a: &Matrix) -> Result<QrFactors, LaError> {
    check_overdetermined(a)?;
    let m = a.nrows();
    let n = a.ncols();
    let mut f = a.to_layout_naive(device, Layout::ColMajor);
    let mut taus = vec![0.0; n];

    for k in 0..n {
        let col = f.col(k).expect("col-major");
        let x = &col[k..m];
        let norm = nrm2_unrecorded(x);
        if norm == 0.0 {
            taus[k] = 0.0;
            continue;
        }
        let a_kk = x[0];
        let beta = if a_kk >= 0.0 { -norm } else { norm };
        let tau = (beta - a_kk) / beta;
        let scale = 1.0 / (a_kk - beta);
        {
            let col = f.col_mut(k).expect("col-major");
            col[k] = beta;
            for i in k + 1..m {
                col[i] *= scale;
            }
        }
        taus[k] = tau;

        let v: Vec<f64> = {
            let col = f.col(k).expect("col-major");
            let mut v = vec![0.0; m - k];
            v[0] = 1.0;
            v[1..].copy_from_slice(&col[k + 1..m]);
            v
        };
        for j in k + 1..n {
            let col_j = f.col_mut(j).expect("col-major");
            let tail = &mut col_j[k..m];
            let mut w = 0.0;
            for (vi, ti) in v.iter().zip(tail.iter()) {
                w += vi * ti;
            }
            w *= tau;
            for (vi, ti) in v.iter().zip(tail.iter_mut()) {
                *ti -= w * vi;
            }
        }
    }

    device.record(geqrf_cost(m, n));
    Ok(QrFactors { factors: f, taus })
}

/// The modelled cost of the Householder QR of an `m x n` column-major matrix (one
/// read and write of the panel per 32-column block, `2mn² - 2n³/3` flops, one launch
/// per column): what [`geqrf`], [`geqrf_owned`] and [`geqrf_naive`] record
/// after any layout conversion.
pub fn geqrf_cost(m: usize, n: usize) -> KernelCost {
    let (m64, n64) = (m as u64, n as u64);
    let flops = 2 * m64 * n64 * n64 - (2 * n64 * n64 * n64) / 3;
    let passes = n64.div_ceil(QR_MODEL_BLOCK).max(1);
    KernelCost::new(
        KernelCost::f64_bytes(m64 * n64) * passes,
        KernelCost::f64_bytes(m64 * n64) * passes,
        flops,
        n64,
    )
}

/// The modelled cost of applying `Q` or `Qᵀ` from the QR of an `m x n` matrix to one
/// vector (the reflectors and the vector read once, `4mn` flops): what
/// [`QrFactors::apply_qt_vec`] and [`QrFactors::apply_q_vec`] record.
pub fn ormqr_cost(m: usize, n: usize) -> KernelCost {
    let (m64, n64) = (m as u64, n as u64);
    KernelCost::new(
        KernelCost::f64_bytes(m64 * n64 + m64),
        KernelCost::f64_bytes(m64),
        4 * m64 * n64,
        1,
    )
}

fn record_q_thin_cost(device: &Device, m: usize, n: usize) {
    let (m64, n64) = (m as u64, n as u64);
    device.record(KernelCost::new(
        KernelCost::f64_bytes(m64 * n64),
        KernelCost::f64_bytes(m64 * n64),
        4 * m64 * n64 * n64,
        1,
    ));
}

/// Run `body` over the [`GROUP`]-column groups of `cols` (whole columns of height
/// `m`): as disjoint parallel tasks when the step touches at least [`PAR_MIN_ELEMS`]
/// elements, on the calling thread otherwise.
fn for_each_group(cols: &mut [f64], m: usize, elems: usize, body: impl Fn(&mut [f64]) + Sync) {
    if elems < PAR_MIN_ELEMS {
        cols.chunks_mut(GROUP * m).for_each(body);
    } else {
        cols.par_chunks_mut(GROUP * m).for_each(body);
    }
}

/// Apply `H = I - tau v vᵀ`, `v = [1, v_tail]`, to rows `k..` of each column of
/// `group` (at most [`GROUP`] whole columns of height `m`).
///
/// `FROM_ZERO` selects the GEQRF chain, which starts at `0.0` and adds `1·t[k]` (so a
/// `-0.0` head becomes `+0.0`); otherwise the chain starts at `y[k]`, as the reference
/// `apply_reflector` does when forming `Q`.
#[inline(always)]
fn reflect_group<const FROM_ZERO: bool>(
    group: &mut [f64],
    m: usize,
    k: usize,
    v_tail: &[f64],
    tau: f64,
) {
    let start = |head: f64| if FROM_ZERO { 0.0 + head } else { head };
    if group.len() == GROUP * m {
        let (c0, rest) = group.split_at_mut(m);
        let (c1, rest) = rest.split_at_mut(m);
        let (c2, c3) = rest.split_at_mut(m);
        let (h0, t0) = c0[k..].split_first_mut().expect("k < m");
        let (h1, t1) = c1[k..].split_first_mut().expect("k < m");
        let (h2, t2) = c2[k..].split_first_mut().expect("k < m");
        let (h3, t3) = c3[k..].split_first_mut().expect("k < m");
        let mut w = [start(*h0), start(*h1), start(*h2), start(*h3)];
        for ((((vi, a), b), c), d) in v_tail.iter().zip(&*t0).zip(&*t1).zip(&*t2).zip(&*t3) {
            w[0] += vi * a;
            w[1] += vi * b;
            w[2] += vi * c;
            w[3] += vi * d;
        }
        for x in &mut w {
            *x *= tau;
        }
        *h0 -= w[0];
        *h1 -= w[1];
        *h2 -= w[2];
        *h3 -= w[3];
        for ((((vi, a), b), c), d) in v_tail.iter().zip(t0).zip(t1).zip(t2).zip(t3) {
            *a -= w[0] * vi;
            *b -= w[1] * vi;
            *c -= w[2] * vi;
            *d -= w[3] * vi;
        }
    } else {
        for col in group.chunks_exact_mut(m) {
            let (head, tail) = col[k..].split_first_mut().expect("k < m");
            let mut w = start(*head);
            for (vi, ti) in v_tail.iter().zip(tail.iter()) {
                w += vi * ti;
            }
            w *= tau;
            *head -= w;
            for (vi, ti) in v_tail.iter().zip(tail.iter_mut()) {
                *ti -= w * vi;
            }
        }
    }
}

impl QrFactors {
    /// Number of rows of the factored matrix.
    pub fn nrows(&self) -> usize {
        self.factors.nrows()
    }

    /// Number of columns of the factored matrix.
    pub fn ncols(&self) -> usize {
        self.factors.ncols()
    }

    /// The raw compact factors (R + reflectors), mainly for diagnostics.
    pub fn factors(&self) -> &Matrix {
        &self.factors
    }

    /// The Householder coefficients.
    pub fn taus(&self) -> &[f64] {
        &self.taus
    }

    /// Extract the `n x n` upper triangular factor `R`.
    pub fn r(&self) -> Matrix {
        let n = self.ncols();
        Matrix::from_fn(n, n, Layout::ColMajor, |i, j| {
            if i <= j {
                self.factors.get(i, j)
            } else {
                0.0
            }
        })
    }

    /// Apply `Qᵀ` to a vector of length `m` (ORMQR with side=left, trans=T).
    pub fn apply_qt_vec(&self, device: &Device, b: &[f64]) -> Result<Vec<f64>, LaError> {
        let m = self.nrows();
        let n = self.ncols();
        if b.len() != m {
            return Err(dim_err(
                "ormqr",
                format!("factor has {m} rows but b has length {}", b.len()),
            ));
        }
        let mut y = b.to_vec();
        // Qᵀ = H_{n-1} ... H_1 H_0 applied as H_0 first.
        for k in 0..n {
            self.apply_reflector(k, &mut y);
        }
        device.record(ormqr_cost(m, n));
        Ok(y)
    }

    /// Apply `Q` to a vector of length `m` (ORMQR with side=left, trans=N).
    pub fn apply_q_vec(&self, device: &Device, b: &[f64]) -> Result<Vec<f64>, LaError> {
        let m = self.nrows();
        let n = self.ncols();
        if b.len() != m {
            return Err(dim_err(
                "ormqr",
                format!("factor has {m} rows but b has length {}", b.len()),
            ));
        }
        let mut y = b.to_vec();
        for k in (0..n).rev() {
            self.apply_reflector(k, &mut y);
        }
        device.record(ormqr_cost(m, n));
        Ok(y)
    }

    /// Apply reflector `k` (symmetric, so the same routine serves Q and Qᵀ) to `y`.
    fn apply_reflector(&self, k: usize, y: &mut [f64]) {
        let m = self.nrows();
        let tau = self.taus[k];
        if tau == 0.0 {
            return;
        }
        let col = self.factors.col(k).expect("col-major");
        // v = [1, col[k+1..m]] acting on y[k..m].
        let mut w = y[k];
        for i in k + 1..m {
            w += col[i] * y[i];
        }
        w *= tau;
        y[k] -= w;
        for i in k + 1..m {
            y[i] -= w * col[i];
        }
    }

    /// Materialise the thin orthogonal factor `Q` (`m x n`) from a copy of the factors;
    /// see [`into_q_thin`](Self::into_q_thin), which reuses their buffer.
    pub fn q_thin(&self, device: &Device) -> Matrix {
        self.clone().into_q_thin(device)
    }

    /// Turn the factors into the thin orthogonal factor `Q` (`m x n`, column-major) in
    /// place (ORGQR, LAPACK's `org2r` order).
    ///
    /// Walks `i = n-1 … 0`: applies `H_i` to the already-formed columns `i+1..` (in
    /// parallel groups of four columns), then overwrites column `i` with `H_i e_i`.
    /// For finite factors every column is bit-identical to
    /// [`q_thin_naive`](Self::q_thin_naive)'s `H_0 ⋯ H_{n-1} e_j`.
    pub fn into_q_thin(self, device: &Device) -> Matrix {
        let QrFactors {
            factors: mut q,
            taus,
        } = self;
        let (m, n) = (q.nrows(), q.ncols());
        let data = q.as_mut_slice();
        for i in (0..n).rev() {
            let tau = taus[i];
            let (head, formed) = data.split_at_mut((i + 1) * m);
            let col = &mut head[i * m..];
            if tau != 0.0 {
                let v = &col[i + 1..];
                for_each_group(formed, m, (m - i) * (n - i - 1), |group| {
                    reflect_group::<false>(group, m, i, v, tau)
                });
            }
            // `0.0 - tau·v` rather than `-(tau·v)`: the reference subtracts from a
            // `+0.0` entry of `e_i`, which decides the sign of zero products.  A
            // `tau == 0` column is all zeros, so this yields `e_i` exactly.
            col[..i].fill(0.0);
            col[i] = 1.0 - tau;
            for x in &mut col[i + 1..] {
                *x = 0.0 - tau * *x;
            }
        }
        record_q_thin_cost(device, m, n);
        q
    }

    /// The per-column thin-`Q` extraction `into_q_thin` replaced: applies every
    /// reflector `H_{n-1}, …, H_0` to a fresh `e_j` for each column `j`.
    ///
    /// Retained as the `fig_kernels` baseline and the oracle of the bitwise proptests.
    /// Records the same modelled cost as [`q_thin`](Self::q_thin).
    pub fn q_thin_naive(&self, device: &Device) -> Matrix {
        let m = self.nrows();
        let n = self.ncols();
        let mut q = Matrix::zeros(m, n);
        for j in 0..n {
            let mut e = vec![0.0; m];
            e[j] = 1.0;
            for k in (0..n).rev() {
                self.apply_reflector(k, &mut e);
            }
            q.col_mut(j).expect("col-major").copy_from_slice(&e);
        }
        record_q_thin_cost(device, m, n);
        q
    }

    /// Solve the least squares problem `min ||b - A x||` given this factorisation of
    /// `A`: `x = R^{-1} (Qᵀ b)[0..n]` — GEQRF + ORMQR + TRSV, the exact sequence the
    /// paper uses for its sketch-and-solve solves.
    pub fn solve_ls(&self, device: &Device, b: &[f64]) -> Result<Vec<f64>, LaError> {
        let n = self.ncols();
        let qtb = self.apply_qt_vec(device, b)?;
        let r = self.r();
        trsv(device, Triangle::Upper, Op::NoTrans, &r, &qtb[..n])
    }
}

/// Convenience: full economy QR returning `(Q, R)` explicitly.
pub fn economy_qr(device: &Device, a: &Matrix) -> Result<(Matrix, Matrix), LaError> {
    let f = geqrf(device, a)?;
    let r = f.r();
    Ok((f.into_q_thin(device), r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{gemm, gemm_op};
    use proptest::prelude::*;

    fn device() -> Device {
        Device::unlimited()
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert!(
            a.max_abs_diff(b).unwrap() < tol,
            "difference {}",
            a.max_abs_diff(b).unwrap()
        );
    }

    #[test]
    fn qr_reconstructs_the_matrix() {
        let d = device();
        let a = Matrix::random_gaussian(30, 8, Layout::ColMajor, 1, 0);
        let (q, r) = economy_qr(&d, &a).unwrap();
        let qr = gemm(&d, 1.0, &q, &r, 0.0, None).unwrap();
        assert_close(&qr, &a, 1e-10);
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let d = device();
        let a = Matrix::random_gaussian(40, 10, Layout::ColMajor, 2, 0);
        let (q, _) = economy_qr(&d, &a).unwrap();
        let qtq = gemm_op(&d, 1.0, Op::Trans, &q, Op::NoTrans, &q, 0.0, None).unwrap();
        assert_close(&qtq, &Matrix::identity(10), 1e-10);
    }

    #[test]
    fn r_is_upper_triangular() {
        let d = device();
        let a = Matrix::random_gaussian(20, 6, Layout::ColMajor, 3, 0);
        let r = geqrf(&d, &a).unwrap().r();
        for i in 0..6 {
            for j in 0..i {
                assert_eq!(r.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn qt_then_q_is_identity_on_vectors() {
        let d = device();
        let a = Matrix::random_gaussian(25, 5, Layout::ColMajor, 4, 0);
        let f = geqrf(&d, &a).unwrap();
        let b: Vec<f64> = (0..25).map(|i| (i as f64).sin()).collect();
        let qtb = f.apply_qt_vec(&d, &b).unwrap();
        let back = f.apply_q_vec(&d, &qtb).unwrap();
        for (x, y) in b.iter().zip(&back) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_ls_recovers_exact_solution_for_consistent_system() {
        let d = device();
        let a = Matrix::random_gaussian(50, 7, Layout::ColMajor, 5, 0);
        let x_true: Vec<f64> = (0..7).map(|i| 1.0 + i as f64).collect();
        let b = crate::blas2::gemv(&d, 1.0, Op::NoTrans, &a, &x_true, 0.0, None).unwrap();
        let f = geqrf(&d, &a).unwrap();
        let x = f.solve_ls(&d, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn qr_of_square_identity_is_identity() {
        let d = device();
        let f = geqrf(&d, &Matrix::identity(5)).unwrap();
        let q = f.q_thin(&d);
        // Q should be +/- identity columns; QR = I must hold exactly up to roundoff.
        let qr = gemm(&d, 1.0, &q, &f.r(), 0.0, None).unwrap();
        assert_close(&qr, &Matrix::identity(5), 1e-12);
    }

    #[test]
    fn qr_handles_rank_deficient_zero_column() {
        let d = device();
        let mut a = Matrix::random_gaussian(10, 4, Layout::ColMajor, 6, 0);
        for i in 0..10 {
            a.set(i, 2, 0.0);
        }
        let f = geqrf(&d, &a).unwrap();
        let (q, r) = (f.q_thin(&d), f.r());
        let qr = gemm(&d, 1.0, &q, &r, 0.0, None).unwrap();
        assert_close(&qr, &a, 1e-10);
        // The zero column yields a zero diagonal in R.
        assert!(r.get(2, 2).abs() < 1e-12);
    }

    #[test]
    fn qr_rejects_underdetermined_input() {
        let d = device();
        let a = Matrix::zeros(3, 5);
        assert!(matches!(
            geqrf(&d, &a),
            Err(LaError::NotOverdetermined { rows: 3, cols: 5 })
        ));
    }

    #[test]
    fn ormqr_rejects_wrong_vector_length() {
        let d = device();
        let a = Matrix::random_gaussian(8, 3, Layout::ColMajor, 7, 0);
        let f = geqrf(&d, &a).unwrap();
        assert!(f.apply_qt_vec(&d, &[1.0; 5]).is_err());
        assert!(f.apply_q_vec(&d, &[1.0; 5]).is_err());
    }

    #[test]
    fn qt_preserves_euclidean_norm() {
        let d = device();
        let a = Matrix::random_gaussian(60, 12, Layout::ColMajor, 8, 0);
        let f = geqrf(&d, &a).unwrap();
        let b: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).cos()).collect();
        let qtb = f.apply_qt_vec(&d, &b).unwrap();
        let nb = nrm2_unrecorded(&b);
        let nq = nrm2_unrecorded(&qtb);
        assert!((nb - nq).abs() / nb < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_qr_reconstruction(m in 4usize..40, n in 1usize..8, seed in 0u64..500) {
            prop_assume!(m >= n);
            let d = device();
            let a = Matrix::random_gaussian(m, n, Layout::ColMajor, seed, 0);
            let (q, r) = economy_qr(&d, &a).unwrap();
            let qr = gemm(&d, 1.0, &q, &r, 0.0, None).unwrap();
            prop_assert!(qr.max_abs_diff(&a).unwrap() < 1e-9);
        }

        #[test]
        fn prop_solve_ls_matches_normal_equations(
            m in 24usize..60,
            n in 1usize..7,
            seed in 0u64..300,
        ) {
            // Tall i.i.d. Gaussian matrices with m >= 3n are well conditioned with
            // overwhelming probability, so the normal equations are trustworthy here.
            prop_assume!(m >= 3 * n);
            let d = device();
            let a = Matrix::random_gaussian(m, n, Layout::ColMajor, seed, 0);
            let b: Vec<f64> = (0..m).map(|i| (i as f64 * 0.61).sin()).collect();

            let x_qr = geqrf(&d, &a).unwrap().solve_ls(&d, &b).unwrap();

            // Normal equations: AᵀA x = Aᵀb via Cholesky (Rᵀ R x = Aᵀ b).
            let gram = crate::blas3::gram_gemm(&d, &a).unwrap();
            let r = crate::chol::potrf_upper(&d, &gram).unwrap();
            let atb = crate::blas2::gemv(&d, 1.0, Op::Trans, &a, &b, 0.0, None).unwrap();
            let z = trsv(&d, Triangle::Upper, Op::Trans, &r, &atb).unwrap();
            let x_ne = trsv(&d, Triangle::Upper, Op::NoTrans, &r, &z).unwrap();

            let scale = x_ne.iter().fold(1.0f64, |acc, x| acc.max(x.abs()));
            for (q, ne) in x_qr.iter().zip(&x_ne) {
                prop_assert!((q - ne).abs() < 1e-8 * scale, "{q} vs {ne}");
            }
        }

        #[test]
        fn prop_q_orthonormal(m in 4usize..40, n in 1usize..8, seed in 0u64..500) {
            prop_assume!(m >= n);
            let d = device();
            let a = Matrix::random_gaussian(m, n, Layout::ColMajor, seed, 0);
            let (q, _) = economy_qr(&d, &a).unwrap();
            let qtq = gemm_op(&d, 1.0, Op::Trans, &q, Op::NoTrans, &q, 0.0, None).unwrap();
            prop_assert!(qtq.max_abs_diff(&Matrix::identity(n)).unwrap() < 1e-9);
        }
    }
}
