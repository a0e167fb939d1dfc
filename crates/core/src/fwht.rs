//! Fast Walsh–Hadamard transforms (Algorithm 3).
//!
//! The SRHT of Section 5 needs an FWHT that is fast on the device.  The paper adapts the
//! single-vector radix-4 FWHT from NVIDIA's CUDA samples to operate on all columns of a
//! matrix and to exploit shared memory: once the butterfly span fits into the available
//! shared memory, the remaining stages are executed entirely out of the on-chip tile,
//! which removes `O(log tile)` global read/write passes.  [`fwht_matrix_columns`] runs
//! exactly that schedule on the host via [`fwht_tiled_in_place`] — large-span stages as
//! whole-vector passes, then every cache-tile-sized block finished in one resident
//! sweep — so the recorded traffic model and the executed memory traffic agree.
//!
//! All implementations here run their butterfly stages in **descending span order**, and
//! one radix-4 stage performs bit-for-bit the adds of its two constituent radix-2 stages
//! in the same order.  Any radix-2/radix-4 split and any tile size therefore produces
//! bitwise-identical output — tiling is a scheduling choice, not a numeric one, which is
//! what keeps the repo's bitwise determinism gates indifferent to FWHT tuning.  The
//! tiled transform runs in the widest [`Tier`] the host has; a butterfly only adds and
//! subtracts, so every tier computes the same bits.

use rayon::prelude::*;
use sketch_gpu_sim::{Checked, Device, KernelCost};
use sketch_la::{Layout, Matrix};
use sketch_rng::Tier;

/// Default modelled "shared memory" tile: 2048 doubles = 16 KiB per column tile.
pub const DEFAULT_TILE: usize = 2048;

/// One radix-2 butterfly stage with half-span `h` (pairs `(i, i + h)`).
///
/// Blocks are walked with `chunks_exact_mut` and each half as a zipped iterator pair,
/// so the inner loop carries no bounds checks and vectorizes; the butterflies and their
/// order are identical to the indexed formulation.
#[inline(always)]
fn radix2_stage(a: &mut [f64], h: usize) {
    for block in a.chunks_exact_mut(2 * h) {
        let (lo, hi) = block.split_at_mut(h);
        for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
            let (xv, yv) = (*x, *y);
            *x = xv + yv;
            *y = xv - yv;
        }
    }
}

/// One radix-4 butterfly stage with stride `s` (Algorithm 3's inner loop body).
///
/// Same bounds-check-free structure as [`radix2_stage`]: each span splits into its four
/// quarter lanes and the butterfly runs over the zipped lanes.
#[inline(always)]
fn radix4_stage(a: &mut [f64], stride: usize) {
    for block in a.chunks_exact_mut(4 * stride) {
        let (q0, rest) = block.split_at_mut(stride);
        let (q1, rest) = rest.split_at_mut(stride);
        let (q2, q3) = rest.split_at_mut(stride);
        for (((p0, p1), p2), p3) in q0
            .iter_mut()
            .zip(q1.iter_mut())
            .zip(q2.iter_mut())
            .zip(q3.iter_mut())
        {
            let (x, y, z, t) = (*p0, *p1, *p2, *p3);
            let xx = x + z;
            let yy = y + t;
            let zz = x - z;
            let tt = y - t;
            *p0 = xx + yy;
            *p1 = xx - yy;
            *p2 = zz + tt;
            *p3 = zz - tt;
        }
    }
}

/// In-place unnormalised Walsh–Hadamard transform using radix-4 stages (Algorithm 3),
/// with a single radix-2 stage when `log2(len)` is odd.
///
/// # Panics
/// Panics if the length is not a power of two (the SRHT pads to the next power of two
/// before calling this).
pub fn fwht_in_place(a: &mut [f64]) {
    let d = a.len();
    if d <= 1 {
        return;
    }
    assert!(d.is_power_of_two(), "FWHT length must be a power of two");
    radix4_stages(a);
}

/// The stages of [`fwht_in_place`] on a power-of-two `a` longer than one.
#[inline(always)]
fn radix4_stages(a: &mut [f64]) {
    let d = a.len();
    let bits = d.trailing_zeros() as usize;
    let pairs = bits / 2;
    let mut stride = d / 4;
    for _ in 0..pairs {
        radix4_stage(a, stride);
        stride /= 4;
    }
    if bits % 2 == 1 {
        radix2_stage(a, 1);
    }
}

/// Reference radix-2 implementation (used by tests and the FWHT ablation bench).
///
/// Stages run in descending span order (`h = d/2` down to `1`), matching the radix-4
/// kernel's schedule: one radix-4 stage at stride `s` performs exactly the adds of the
/// radix-2 stages at `h = 2s` then `h = s`, so this reference is **bitwise** equal to
/// [`fwht_in_place`] and [`fwht_tiled_in_place`], not merely close.
pub fn fwht_radix2_in_place(a: &mut [f64]) {
    let d = a.len();
    if d <= 1 {
        return;
    }
    assert!(d.is_power_of_two(), "FWHT length must be a power of two");
    let mut h = d / 2;
    while h >= 1 {
        radix2_stage(a, h);
        h /= 2;
    }
}

/// Cache-tiled in-place FWHT: radix-4 stages run as whole-vector passes while their
/// butterfly span exceeds `tile`; once the remaining sub-transforms fit, every
/// `tile`-sized block is finished in a single resident sweep ([`fwht_in_place`] on the
/// block — the remaining stages touch no indices outside it).
///
/// Bitwise identical to [`fwht_in_place`] for every `tile`: a stage's butterflies are
/// disjoint, so executing them block-by-block instead of stage-by-stage reorders only
/// independent operations.  This is the host realisation of the shared-memory schedule
/// that [`global_passes`] has always charged for.  It runs in the widest [`Tier`] the
/// host has ([`fwht_in_place`] stays on the baseline build).
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn fwht_tiled_in_place(a: &mut [f64], tile: usize) {
    fwht_tiled_in(Tier::detect(), a, tile);
}

/// [`fwht_tiled_in_place`] in `tier`.
fn fwht_tiled_in(tier: Tier, a: &mut [f64], tile: usize) {
    let d = a.len();
    if d <= 1 {
        return;
    }
    assert!(d.is_power_of_two(), "FWHT length must be a power of two");
    match tier {
        Tier::Baseline => tiled_stages(a, tile),
        // SAFETY: `Tier::Avx2` is only constructed after AVX2 was detected.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { tiled_stages_avx2(a, tile) },
        // SAFETY: `Tier::Avx512` is only constructed after AVX-512F, DQ, VL and BW
        // were detected.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { tiled_stages_avx512(a, tile) },
    }
}

/// The stages of [`fwht_tiled_in_place`] on a power-of-two `a` longer than one.
#[inline(always)]
fn tiled_stages(a: &mut [f64], tile: usize) {
    let tile = tile.max(4);
    let mut len = a.len();
    while len > tile {
        radix4_stage(a, len / 4);
        len /= 4;
    }
    // `len` ends above `tile / 4 >= 1`: every block still has stages to run.
    for chunk in a.chunks_mut(len) {
        radix4_stages(chunk);
    }
}

/// [`tiled_stages`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tiled_stages_avx2(a: &mut [f64], tile: usize) {
    tiled_stages(a, tile);
}

/// [`tiled_stages`] compiled with AVX-512F, DQ, VL and BW enabled.
///
/// # Safety
///
/// The host must support AVX-512F, DQ, VL and BW.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw")]
unsafe fn tiled_stages_avx512(a: &mut [f64], tile: usize) {
    tiled_stages(a, tile);
}

/// Number of *global-memory* passes the tiled device implementation needs for a
/// transform of length `d` with a shared-memory tile of `tile` doubles.
///
/// Radix-4 stages whose butterfly span exceeds the tile each stream the whole vector
/// through global memory; all remaining stages run out of the tile and cost one
/// combined pass.
pub fn global_passes(d: usize, tile: usize) -> u64 {
    if d <= 1 {
        return 0;
    }
    let bits = (d.max(2)).trailing_zeros() as usize;
    let pairs = bits / 2;
    let mut passes = 0u64;
    let mut stride = d / 4;
    let tile = tile.max(4);
    for _ in 0..pairs {
        if stride * 4 > tile {
            passes += 1;
        }
        stride /= 4;
    }
    if bits % 2 == 1 && 2 > tile {
        passes += 1;
    }
    // All in-tile stages together cost one read + write pass.
    passes + 1
}

/// Apply the unnormalised FWHT to every column of a column-major matrix in parallel,
/// executing the cache-tiled schedule ([`fwht_tiled_in_place`] with the same `tile` the
/// traffic model charges for) and recording that model on `device`.
///
/// Parallel task boundaries are one column each — a pure function of the matrix shape,
/// never of thread count or tile tuning — and the tiled kernel is bitwise identical to
/// the un-tiled one, so results are bit-for-bit stable under both knobs.
///
/// # Panics
/// Panics if the matrix is not column-major, its row count is not a power of two, or
/// its transform's cost overflows `u64` (which no matrix a host holds does).
pub fn fwht_matrix_columns(device: &Device, a: &mut Matrix, tile: usize) {
    fwht_columns_unrecorded(a, tile);
    let cost = fwht_columns_cost(a.nrows(), a.ncols(), tile);
    device.record(cost.expect("a stored matrix states its transform's cost"));
}

/// [`fwht_matrix_columns`] without the cost record.
pub(crate) fn fwht_columns_unrecorded(a: &mut Matrix, tile: usize) {
    assert_eq!(
        a.layout(),
        Layout::ColMajor,
        "the SRHT pipeline keeps everything column-major (Section 5)"
    );
    let d = a.nrows();
    if d > 1 {
        assert!(d.is_power_of_two(), "FWHT length must be a power of two");
    }
    let tier = Tier::detect();
    a.as_mut_slice()
        .par_chunks_mut(d.max(1))
        .for_each(|col| fwht_tiled_in(tier, col, tile));
}

/// The modelled cost of transforming the `n` length-`d` columns of a matrix with a
/// `tile`-double shared-memory tile: [`global_passes`] read/write passes over the
/// matrix, one launch each.  `None` when a count overflows `u64`.
pub(crate) fn fwht_columns_cost(d: usize, n: usize, tile: usize) -> Option<KernelCost> {
    let passes = global_passes(d, tile);
    let dn = Checked::from(d) * Checked::from(n);
    let bits = if d > 1 { d.trailing_zeros() as u64 } else { 0 };
    KernelCost::checked(
        dn * 8 * passes,
        dn * 8 * passes,
        dn * 2 * bits,
        passes.max(1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// O(d²) reference: multiply by the Hadamard matrix built from the recursion.
    fn dense_hadamard_apply(x: &[f64]) -> Vec<f64> {
        let d = x.len();
        let mut h = vec![vec![1.0f64]];
        while h.len() < d {
            let m = h.len();
            let mut next = vec![vec![0.0; 2 * m]; 2 * m];
            for i in 0..m {
                for j in 0..m {
                    next[i][j] = h[i][j];
                    next[i][j + m] = h[i][j];
                    next[i + m][j] = h[i][j];
                    next[i + m][j + m] = -h[i][j];
                }
            }
            h = next;
        }
        (0..d)
            .map(|i| (0..d).map(|j| h[i][j] * x[j]).sum())
            .collect()
    }

    #[test]
    fn radix4_matches_dense_hadamard_for_power_of_four() {
        for d in [4usize, 16, 64] {
            let x: Vec<f64> = (0..d).map(|i| (i as f64 * 0.7).sin()).collect();
            let mut a = x.clone();
            fwht_in_place(&mut a);
            let expect = dense_hadamard_apply(&x);
            for (got, want) in a.iter().zip(&expect) {
                assert!((got - want).abs() < 1e-10, "d={d}");
            }
        }
    }

    #[test]
    fn radix4_matches_dense_hadamard_for_odd_log2() {
        for d in [2usize, 8, 32, 128] {
            let x: Vec<f64> = (0..d).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let mut a = x.clone();
            fwht_in_place(&mut a);
            let expect = dense_hadamard_apply(&x);
            for (got, want) in a.iter().zip(&expect) {
                assert!((got - want).abs() < 1e-10, "d={d}");
            }
        }
    }

    #[test]
    fn radix4_and_radix2_agree_bitwise() {
        // Descending-order radix-2 runs the exact adds of the radix-4 schedule, so the
        // agreement is bit-for-bit even on irrational data.
        for d in [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
            let x = sketch_rng::fill::gaussian_vec(42, d as u64, d);
            let mut a = x.clone();
            let mut b = x;
            fwht_in_place(&mut a);
            fwht_radix2_in_place(&mut b);
            for (i, (ai, bi)) in a.iter().zip(&b).enumerate() {
                assert_eq!(ai.to_bits(), bi.to_bits(), "d={d} i={i}");
            }
        }
    }

    #[test]
    fn tiled_fwht_is_bitwise_equal_to_untiled_for_any_tile() {
        for d in [2usize, 8, 64, 256, 4096] {
            let x = sketch_rng::fill::gaussian_vec(7, d as u64, d);
            let mut want = x.clone();
            fwht_in_place(&mut want);
            for tile in [1usize, 4, 16, 64, 2048, 1 << 20] {
                let mut got = x.clone();
                fwht_tiled_in_place(&mut got, tile);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "d={d} tile={tile} i={i}");
                }
            }
        }
    }

    #[test]
    fn tiled_fwht_matches_radix2_reference_up_to_2_pow_20() {
        // Satellite gate: every power-of-two length up to 2^20, bit-for-bit against the
        // independent radix-2 reference, at the production DEFAULT_TILE.
        for pow in 1u32..=20 {
            let d = 1usize << pow;
            let x = sketch_rng::fill::gaussian_vec(1234, pow as u64, d);
            let mut tiled = x.clone();
            let mut reference = x;
            fwht_tiled_in_place(&mut tiled, DEFAULT_TILE);
            fwht_radix2_in_place(&mut reference);
            assert!(
                tiled
                    .iter()
                    .zip(&reference)
                    .all(|(t, r)| t.to_bits() == r.to_bits()),
                "d=2^{pow} differs from the radix-2 reference"
            );
        }
    }

    #[test]
    fn every_tier_transforms_to_the_radix2_bits() {
        // Gaussian entries with exact zeros of both signs and subnormals mixed in.
        for pow in [1u32, 2, 3, 11, 12, 13, 16] {
            let d = 1usize << pow;
            let x: Vec<f64> = sketch_rng::fill::gaussian_vec(3, pow as u64, d)
                .into_iter()
                .enumerate()
                .map(|(i, v)| match i % 6 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => v * 1e-310,
                    _ => v,
                })
                .collect();
            let mut reference = x.clone();
            fwht_radix2_in_place(&mut reference);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for tier in Tier::supported() {
                for tile in [4, DEFAULT_TILE] {
                    let mut tiled = x.clone();
                    fwht_tiled_in(tier, &mut tiled, tile);
                    assert_eq!(
                        bits(&tiled),
                        bits(&reference),
                        "{tier:?} d=2^{pow} tile={tile}"
                    );
                }
            }
        }
    }

    #[test]
    fn fwht_is_an_involution_up_to_scaling() {
        let d = 256;
        let x: Vec<f64> = (0..d).map(|i| (i as f64).cos()).collect();
        let mut a = x.clone();
        fwht_in_place(&mut a);
        fwht_in_place(&mut a);
        for (got, want) in a.iter().zip(&x) {
            assert!((got - d as f64 * want).abs() < 1e-9);
        }
    }

    #[test]
    fn fwht_preserves_energy_with_hadamard_scaling() {
        // ||H x||² = d ||x||² because HᵀH = d I.
        let d = 512;
        let x: Vec<f64> = (0..d).map(|i| ((i % 13) as f64) / 13.0 - 0.5).collect();
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let mut a = x;
        fwht_in_place(&mut a);
        let ea: f64 = a.iter().map(|v| v * v).sum();
        assert!((ea - d as f64 * ex).abs() / (d as f64 * ex) < 1e-12);
    }

    #[test]
    fn trivial_lengths_are_noops() {
        let mut a: Vec<f64> = vec![];
        fwht_in_place(&mut a);
        let mut b = vec![3.0];
        fwht_in_place(&mut b);
        assert_eq!(b, vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_is_rejected() {
        let mut a = vec![1.0; 12];
        fwht_in_place(&mut a);
    }

    #[test]
    fn global_passes_decrease_with_larger_tiles() {
        let d = 1 << 20;
        let small = global_passes(d, 256);
        let large = global_passes(d, 1 << 16);
        let whole = global_passes(d, d);
        assert!(small > large);
        assert_eq!(whole, 1);
        assert_eq!(global_passes(1, 16), 0);
    }

    #[test]
    fn matrix_fwht_transforms_each_column_independently() {
        let device = Device::unlimited();
        let d = 64;
        let n = 3;
        let mut m = Matrix::random_gaussian(d, n, Layout::ColMajor, 5, 0);
        let cols: Vec<Vec<f64>> = (0..n).map(|j| m.col_to_vec(j)).collect();
        fwht_matrix_columns(&device, &mut m, DEFAULT_TILE);
        for (j, col) in cols.iter().enumerate() {
            let mut expect = col.clone();
            fwht_in_place(&mut expect);
            for i in 0..d {
                assert!((m.get(i, j) - expect[i]).abs() < 1e-10);
            }
        }
        // Cost was recorded.
        assert!(device.tracker().snapshot().total_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "column-major")]
    fn matrix_fwht_requires_col_major() {
        let device = Device::unlimited();
        let mut m = Matrix::zeros_with_layout(8, 2, Layout::RowMajor);
        fwht_matrix_columns(&device, &mut m, DEFAULT_TILE);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_fwht_matches_radix2(pow in 1u32..11, seed in 0u64..1000) {
            let d = 1usize << pow;
            let x = sketch_rng::fill::gaussian_vec(seed, 0, d);
            let mut a = x.clone();
            let mut b = x;
            fwht_in_place(&mut a);
            fwht_radix2_in_place(&mut b);
            for (ai, bi) in a.iter().zip(&b) {
                prop_assert!(ai.to_bits() == bi.to_bits());
            }
        }

        #[test]
        fn prop_tiled_fwht_is_tile_invariant(pow in 1u32..13, tile_pow in 0u32..14, seed in 0u64..1000) {
            let d = 1usize << pow;
            let x = sketch_rng::fill::gaussian_vec(seed, 2, d);
            let mut tiled = x.clone();
            let mut plain = x;
            fwht_tiled_in_place(&mut tiled, 1usize << tile_pow);
            fwht_in_place(&mut plain);
            for (ti, pi) in tiled.iter().zip(&plain) {
                prop_assert!(ti.to_bits() == pi.to_bits());
            }
        }

        #[test]
        fn prop_parseval_identity(pow in 1u32..11, seed in 0u64..1000) {
            let d = 1usize << pow;
            let x = sketch_rng::fill::gaussian_vec(seed, 1, d);
            let ex: f64 = x.iter().map(|v| v * v).sum();
            let mut a = x;
            fwht_in_place(&mut a);
            let ea: f64 = a.iter().map(|v| v * v).sum();
            prop_assert!((ea - d as f64 * ex).abs() <= 1e-9 * (1.0 + d as f64 * ex));
        }
    }
}
