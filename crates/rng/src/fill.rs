//! Deterministic parallel fills of large arrays.
//!
//! A Gaussian sketch of a `d x n` matrix with `d = 2^23` needs `2n·d` Gaussian variates;
//! the paper counts that generation cost as part of the sketch time (the "Sketch gen
//! time" stacks of Figures 2 and 5).  On the GPU every thread generates its own values
//! from `(seed, counter)`; here every rayon chunk does the same, so the result is
//! bit-identical regardless of thread count or chunk scheduling.
//!
//! Every fill runs one chunked loop: each chunk generates the Philox blocks it reads a
//! batch at a time ([`Philox4x32::blocks`]), compiled in the widest [`Tier`] the host
//! has.
//! The Gaussian fill turns each batch into Box–Muller pairs in one branch-free,
//! libm-free loop.  The index, sign and uniform fills read their batches in
//! [`PhiloxRng`](crate::PhiloxRng)'s order, block by block and words 0 to 3, so each
//! value is the one the per-word generator draws from the chunk's first block.

use crate::distributions::{box_muller, unit_f64, UniformIndex};
use crate::philox::Philox4x32;
use crate::tier::Tier;
use rayon::prelude::*;
use std::collections::TryReserveError;

/// Number of elements generated per independent chunk.
///
/// Each chunk starts at its own Philox block so chunks never share counter ranges;
/// 8192 elements keeps scheduling overhead negligible while staying cache friendly.
/// Element `e` of a fill belongs to chunk `e / CHUNK`, which starts at block
/// `(e / CHUNK) · CHUNK · BLOCKS_PER_ELEMENT` of the fill's stream.
pub const CHUNK: usize = 8192;

/// Worst-case Philox blocks consumed per generated element, used to space the chunk
/// starting blocks far enough apart that chunks can never overlap.
/// (A Gaussian pair consumes 4 words = 1 block; a rejection-sampled index may retry.)
pub const BLOCKS_PER_ELEMENT: u64 = 4;

/// Philox blocks a fill generates per batch (`2 · BATCH` Gaussian draws, `4 · BATCH`
/// words), sized so the batch's words and draws stay in L1.
const BATCH: usize = 64;

/// What one fill computes from the Philox blocks of a chunk.
trait ChunkFill: Sync {
    /// The element type.
    type Item: Send;

    /// Fill one chunk, `out`, from the blocks of `philox` from block `first` on.
    /// Every implementation is `#[inline(always)]`, so each tier's wrapper in
    /// [`fill_chunk`] compiles its own copy.
    fn fill(&self, philox: &Philox4x32, first: u64, out: &mut [Self::Item]);
}

/// Fill `out` chunk by chunk, in parallel: chunk `c` reads the blocks of
/// `(seed, stream)` from block `c · CHUNK · BLOCKS_PER_ELEMENT` on, in the widest tier
/// the host has.
fn fill_chunks<F: ChunkFill>(seed: u64, stream: u64, fill: &F, out: &mut [F::Item]) {
    let philox = Philox4x32::new_stream(seed, stream);
    let tier = Tier::detect();
    out.par_chunks_mut(CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| fill_chunk(tier, fill, &philox, first_block(ci), chunk));
}

/// The first block chunk `ci` of a fill reads.
fn first_block(ci: usize) -> u64 {
    (ci as u64) * (CHUNK as u64) * BLOCKS_PER_ELEMENT
}

/// One chunk of `fill` in `tier`.
fn fill_chunk<F: ChunkFill>(
    tier: Tier,
    fill: &F,
    philox: &Philox4x32,
    first: u64,
    out: &mut [F::Item],
) {
    match tier {
        Tier::Baseline => fill.fill(philox, first, out),
        // SAFETY: `Tier::Avx2` is only constructed after AVX2 was detected.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { fill_chunk_avx2(fill, philox, first, out) },
        // SAFETY: `Tier::Avx512` is only constructed after AVX2 and AVX-512F, DQ, VL
        // and BW were detected.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { fill_chunk_avx512(fill, philox, first, out) },
    }
}

/// [`ChunkFill::fill`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_chunk_avx2<F: ChunkFill>(
    fill: &F,
    philox: &Philox4x32,
    first: u64,
    out: &mut [F::Item],
) {
    fill.fill(philox, first, out);
}

/// [`ChunkFill::fill`] compiled with AVX-512F, DQ, VL and BW enabled.
///
/// # Safety
///
/// The host must support AVX-512F, DQ, VL and BW.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw")]
unsafe fn fill_chunk_avx512<F: ChunkFill>(
    fill: &F,
    philox: &Philox4x32,
    first: u64,
    out: &mut [F::Item],
) {
    fill.fill(philox, first, out);
}

/// The words of consecutive Philox blocks in [`PhiloxRng`](crate::PhiloxRng)'s order
/// (block by block, words 0 to 3), generated [`BATCH`] blocks at a time.
struct Words<'a> {
    philox: &'a Philox4x32,
    /// The block the next batch starts at.
    next: u64,
    /// The batch's words as [`Philox4x32::blocks`] writes them, word by word.
    lanes: [[u32; BATCH]; 4],
    /// The same words in the generator's order.
    batch: [u32; 4 * BATCH],
}

impl<'a> Words<'a> {
    /// The words of `philox` from block `first` on.
    #[inline(always)]
    fn new(philox: &'a Philox4x32, first: u64) -> Self {
        Self {
            philox,
            next: first,
            lanes: [[0; BATCH]; 4],
            batch: [0; 4 * BATCH],
        }
    }

    /// The next `4 · BATCH` words.
    #[inline(always)]
    fn next_batch(&mut self) -> &[u32; 4 * BATCH] {
        self.philox.blocks(self.next, &mut self.lanes);
        self.next = self.next.wrapping_add(BATCH as u64);
        for (b, block) in self.batch.chunks_exact_mut(4).enumerate() {
            for (w, word) in block.iter_mut().enumerate() {
                *word = self.lanes[w][b];
            }
        }
        &self.batch
    }
}

/// Standard normal variates times `scale`: pair `p` of a chunk is the Box–Muller
/// pair of the chunk's block `p`.
struct Gaussian {
    scale: f64,
}

impl ChunkFill for Gaussian {
    type Item = f64;

    /// Batches of [`BATCH`] Philox blocks, each transformed in one loop.  A ragged
    /// last batch generates whole blocks and writes only what fits.
    #[inline(always)]
    fn fill(&self, philox: &Philox4x32, first: u64, out: &mut [f64]) {
        let mut words = [[0u32; BATCH]; 4];
        let mut pairs = [[0.0f64; 2]; BATCH];
        for (bi, run) in out.chunks_mut(2 * BATCH).enumerate() {
            philox.blocks(first + (bi * BATCH) as u64, &mut words);
            transform_batch(&words, self.scale, &mut pairs);
            run.copy_from_slice(&pairs.as_flattened()[..run.len()]);
        }
    }
}

/// The Box–Muller pair of every block of a batch, times `scale`.
#[inline(always)]
fn transform_batch(words: &[[u32; BATCH]; 4], scale: f64, pairs: &mut [[f64; 2]; BATCH]) {
    for (p, pair) in pairs.iter_mut().enumerate() {
        let (z0, z1) = box_muller([words[0][p], words[1][p], words[2][p], words[3][p]]);
        *pair = [z0 * scale, z1 * scale];
    }
}

/// Uniform indices: [`UniformIndex::accept`] on each word until one is accepted.
struct Indices(UniformIndex);

impl ChunkFill for Indices {
    type Item = usize;

    #[inline(always)]
    fn fill(&self, philox: &Philox4x32, first: u64, out: &mut [usize]) {
        let mut words = Words::new(philox, first);
        let mut filled = 0;
        while filled < out.len() {
            for &x in words.next_batch() {
                if let Some(index) = self.0.accept(x) {
                    out[filled] = index;
                    filled += 1;
                    if filled == out.len() {
                        break;
                    }
                }
            }
        }
    }
}

/// Rademacher signs: the low bit of one word each, `true` for `+1`.
struct Signs;

impl ChunkFill for Signs {
    type Item = bool;

    #[inline(always)]
    fn fill(&self, philox: &Philox4x32, first: u64, out: &mut [bool]) {
        let mut words = Words::new(philox, first);
        for run in out.chunks_mut(4 * BATCH) {
            for (sign, x) in run.iter_mut().zip(words.next_batch()) {
                *sign = x & 1 == 1;
            }
        }
    }
}

/// Uniform doubles in `[0, 1)`: the top 53 bits of two words, high word first.
struct Units;

impl ChunkFill for Units {
    type Item = f64;

    #[inline(always)]
    fn fill(&self, philox: &Philox4x32, first: u64, out: &mut [f64]) {
        let mut words = Words::new(philox, first);
        for run in out.chunks_mut(2 * BATCH) {
            for (x, pair) in run.iter_mut().zip(words.next_batch().chunks_exact(2)) {
                *x = unit_f64(pair[0], pair[1]);
            }
        }
    }
}

/// Fill a new vector with standard normal variates, in parallel, deterministically.
pub fn gaussian_vec(seed: u64, stream: u64, len: usize) -> Vec<f64> {
    let mut out = vec![0.0; len];
    gaussian_fill(seed, stream, &mut out);
    out
}

/// Fill an existing slice with standard normal variates (parallel, deterministic).
///
/// Pair `p` of chunk `c` (elements `c·CHUNK + 2p` and `c·CHUNK + 2p + 1`) is the
/// [`BoxMuller`](crate::BoxMuller) pair of block `c·CHUNK·BLOCKS_PER_ELEMENT + p`, so
/// every draw is a pure function of `(seed, stream, index)` and a shorter fill is a
/// prefix of a longer one.  Each chunk generates a batch of Philox blocks, then
/// transforms the batch in one branch-free loop, in the widest [`Tier`] the host has;
/// every tier computes the same bits.
pub fn gaussian_fill(seed: u64, stream: u64, out: &mut [f64]) {
    fill_chunks(seed, stream, &Gaussian { scale: 1.0 }, out);
}

/// Fill a new vector with scaled normal variates `N(0, scale^2)`, or return the
/// host's refusal to allocate it: the buffer is reserved with `try_reserve_exact`,
/// so a length the host cannot hold is an error value instead of an abort.
///
/// Each element is the fill's draw times `scale`, rounded once, multiplied inside
/// the transform loop: the bits of scaling after the fill, without a second pass
/// (and `scale = 1` changes no bit).
pub fn scaled_gaussian_vec(
    seed: u64,
    stream: u64,
    len: usize,
    scale: f64,
) -> Result<Vec<f64>, TryReserveError> {
    let mut out = Vec::new();
    out.try_reserve_exact(len)?;
    out.resize(len, 0.0);
    fill_chunks(seed, stream, &Gaussian { scale }, &mut out);
    Ok(out)
}

/// Fill a new vector with Rademacher signs stored as `+1.0` / `-1.0`.
pub fn rademacher_vec(seed: u64, stream: u64, len: usize) -> Vec<f64> {
    rademacher_bool_vec(seed, stream, len)
        .into_iter()
        .map(|b| if b { 1.0 } else { -1.0 })
        .collect()
}

/// Fill a new vector with Rademacher signs stored as booleans (`true` = `+1`),
/// which is the representation Algorithm 2 consumes.
///
/// Element `i` of chunk `c` is [`Rademacher::sample_bool`](crate::Rademacher::sample_bool)'s
/// `i`-th draw from block `c·CHUNK·BLOCKS_PER_ELEMENT` of the stream.
pub fn rademacher_bool_vec(seed: u64, stream: u64, len: usize) -> Vec<bool> {
    let mut out = vec![false; len];
    fill_chunks(seed, stream, &Signs, &mut out);
    out
}

/// Fill a new vector with uniform indices in `{0, …, bound-1}` — the CountSketch row
/// map and the SRHT row sample both use this.
pub fn uniform_index_vec(seed: u64, stream: u64, len: usize, bound: usize) -> Vec<usize> {
    let mut out = vec![0usize; len];
    uniform_index_fill(seed, stream, bound, &mut out);
    out
}

/// Fill an existing slice with uniform indices in `{0, …, bound-1}`: the values of
/// [`uniform_index_vec`] of the same length.
///
/// Element `i` of chunk `c` is [`UniformIndex::sample`]'s `i`-th draw from block
/// `c·CHUNK·BLOCKS_PER_ELEMENT` of the stream: every rejection and every index is the
/// per-word sampler's.
///
/// # Panics
/// Panics if `bound` is 0 or exceeds `u32::MAX` (see [`UniformIndex::new`]).
pub fn uniform_index_fill(seed: u64, stream: u64, bound: usize, out: &mut [usize]) {
    fill_chunks(seed, stream, &Indices(UniformIndex::new(bound)), out);
}

/// Fill a new vector with uniform doubles in `[0, 1)`.
///
/// Element `i` of chunk `c` is [`PhiloxRng::next_f64`](crate::PhiloxRng::next_f64)'s
/// `i`-th draw from block `c·CHUNK·BLOCKS_PER_ELEMENT` of the stream.
pub fn uniform_vec(seed: u64, stream: u64, len: usize) -> Vec<f64> {
    let mut out = vec![0.0; len];
    fill_chunks(seed, stream, &Units, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamFactory;

    #[test]
    fn gaussian_fill_is_deterministic_across_calls() {
        let a = gaussian_vec(1, 0, 3 * CHUNK + 17);
        let b = gaussian_vec(1, 0, 3 * CHUNK + 17);
        assert_eq!(a, b);
    }

    #[test]
    fn gaussian_fill_prefix_is_chunk_stable() {
        // The first CHUNK elements must not depend on total length (chunking is local).
        let long = gaussian_vec(5, 1, 2 * CHUNK);
        let short = gaussian_vec(5, 1, CHUNK);
        assert_eq!(&long[..CHUNK], &short[..]);
    }

    #[test]
    fn gaussian_fill_has_unit_variance() {
        let v = gaussian_vec(2, 0, 100_000);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 2e-2);
        assert!((var - 1.0).abs() < 3e-2);
    }

    #[test]
    fn scaled_gaussian_scales_variance() {
        let v = scaled_gaussian_vec(2, 0, 100_000, 0.5).unwrap();
        let var = v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64;
        assert!((var - 0.25).abs() < 2e-2, "var = {var}");
    }

    #[test]
    fn different_streams_give_different_data() {
        let a = gaussian_vec(1, 0, 1000);
        let b = gaussian_vec(1, 1, 1000);
        assert_ne!(a, b);
    }

    #[test]
    fn rademacher_vec_is_signs_only_and_balanced() {
        let v = rademacher_vec(3, 0, 50_000);
        assert!(v.iter().all(|&x| x == 1.0 || x == -1.0));
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 2e-2);
    }

    #[test]
    fn rademacher_bool_matches_f64_version() {
        let b = rademacher_bool_vec(3, 0, 4096);
        let f = rademacher_vec(3, 0, 4096);
        for (bi, fi) in b.iter().zip(f.iter()) {
            assert_eq!(*bi, *fi > 0.0);
        }
    }

    #[test]
    fn uniform_index_vec_respects_bound() {
        let v = uniform_index_vec(4, 0, 100_000, 37);
        assert!(v.iter().all(|&r| r < 37));
        // All buckets should be hit for this many samples.
        let mut seen = [false; 37];
        for &r in &v {
            seen[r] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_vec_in_unit_interval() {
        let v = uniform_vec(6, 2, 10_000);
        assert!(v.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn gaussian_fill_known_answers() {
        // Draws 0–3 and draw CHUNK (the second chunk's first) of two streams, as bit
        // patterns, plus an FNV-1a digest of the bytes of their first 2^16 draws: any
        // drift of the transform (even a sub-ulp one), the counter map, the ISA tier or
        // the thread count fails here.
        let cases: [((u64, u64), [u64; 5], u64); 2] = [
            (
                (0, 0),
                [
                    0xBFBF_1BCD_5498_37C3,
                    0xBFF5_99BB_D8A9_EDA7,
                    0xBFB4_F5B5_4DF9_7F00,
                    0xBFCC_81BA_FE55_415C,
                    0xBFF4_E64F_36B1_517B,
                ],
                0xE492_7E0A_EBCF_DBFF,
            ),
            (
                (42, 7),
                [
                    0xBFF3_1186_3FAF_E123,
                    0x3FE3_CAD9_F70E_CBCF,
                    0xBFDB_7E52_E9E1_99E5,
                    0xBFC6_77CB_5D40_7A50,
                    0xBFC0_912F_0533_A3C3,
                ],
                0xDC75_60CE_5383_1DD4,
            ),
        ];
        for ((seed, stream), want, want_digest) in cases {
            let v = gaussian_vec(seed, stream, 1 << 16);
            let got = [0, 1, 2, 3, CHUNK].map(|i| v[i].to_bits());
            assert_eq!(got, want, "gaussian_vec({seed}, {stream}, ..)");
            let digest = v
                .iter()
                .flat_map(|x| x.to_bits().to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                });
            assert_eq!(
                digest, want_digest,
                "digest of gaussian_vec({seed}, {stream}, 2^16)"
            );
        }
    }

    #[test]
    fn box_muller_sample_pair_matches_the_fill() {
        let (seed, stream) = (11, 3);
        let len = 2 * CHUNK + 5;
        let fill = gaussian_vec(seed, stream, len);
        let factory = StreamFactory::new(seed);
        for (ci, chunk) in fill.chunks(CHUNK).enumerate() {
            let block = (ci as u64) * (CHUNK as u64) * BLOCKS_PER_ELEMENT;
            let mut rng = factory.stream_at(stream, block);
            for pair in chunk.chunks(2) {
                let (z0, z1) = crate::BoxMuller::sample_pair(&mut rng);
                assert_eq!(pair[0].to_bits(), z0.to_bits());
                if let Some(x) = pair.get(1) {
                    assert_eq!(x.to_bits(), z1.to_bits());
                }
            }
        }
    }

    #[test]
    fn scaled_fill_has_the_bits_of_scaling_after_the_fill() {
        for (len, scale) in [
            (3 * CHUNK + 17, 1.0 / 24.0f64.sqrt()),
            (2 * BATCH + 3, -3.5),
            (1, 1e-300),
            (CHUNK, 1.0),
        ] {
            let two_pass: Vec<u64> = gaussian_vec(8, 2, len)
                .iter()
                .map(|x| (x * scale).to_bits())
                .collect();
            let one_pass: Vec<u64> = scaled_gaussian_vec(8, 2, len, scale)
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(one_pass, two_pass, "len {len}, scale {scale}");
        }
    }

    /// [`transform_batch`] in `tier`.
    fn transform_in(tier: Tier, words: &[[u32; BATCH]; 4]) -> Vec<u64> {
        /// [`transform_batch`] compiled with AVX2 enabled.
        ///
        /// # Safety
        ///
        /// The host must support AVX2.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn transform_avx2(words: &[[u32; BATCH]; 4], pairs: &mut [[f64; 2]; BATCH]) {
            transform_batch(words, 1.0, pairs);
        }
        /// [`transform_batch`] compiled with AVX-512F, DQ, VL and BW enabled.
        ///
        /// # Safety
        ///
        /// The host must support AVX-512F, DQ, VL and BW.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw")]
        unsafe fn transform_avx512(words: &[[u32; BATCH]; 4], pairs: &mut [[f64; 2]; BATCH]) {
            transform_batch(words, 1.0, pairs);
        }
        let mut pairs = [[0.0; 2]; BATCH];
        match tier {
            Tier::Baseline => transform_batch(words, 1.0, &mut pairs),
            // SAFETY: `Tier::Avx2` is only constructed after AVX2 was detected.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { transform_avx2(words, &mut pairs) },
            // SAFETY: `Tier::Avx512` is only constructed after AVX-512 was detected.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { transform_avx512(words, &mut pairs) },
        }
        pairs.as_flattened().iter().map(|x| x.to_bits()).collect()
    }

    /// `fill` of `len` elements of stream `(seed, stream)`, chunk by chunk, in `tier`.
    fn fill_in<F: ChunkFill>(
        tier: Tier,
        fill: &F,
        (seed, stream): (u64, u64),
        out: &mut [F::Item],
    ) {
        let philox = Philox4x32::new_stream(seed, stream);
        for (ci, chunk) in out.chunks_mut(CHUNK).enumerate() {
            fill_chunk(tier, fill, &philox, first_block(ci), chunk);
        }
    }

    #[test]
    fn every_tier_fills_the_baseline_bits() {
        // On a host without the wider tiers this pins the baseline against itself.
        let len = 1 << 20;
        let mut base = vec![0.0; len];
        fill_in(Tier::Baseline, &Gaussian { scale: 1.0 }, (5, 9), &mut base);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&base), bits(&gaussian_vec(5, 9, len)));
        let len = 3 * CHUNK + 5;
        let mut base_units = vec![0.0; len];
        fill_in(Tier::Baseline, &Units, (6, 1), &mut base_units);
        let mut base_indices = vec![0; len];
        let indices = Indices(UniformIndex::new((1 << 31) + 1));
        fill_in(Tier::Baseline, &indices, (6, 2), &mut base_indices);
        let mut base_signs = vec![false; len];
        fill_in(Tier::Baseline, &Signs, (6, 3), &mut base_signs);
        for tier in Tier::supported() {
            let mut wide = vec![0.0; 1 << 20];
            fill_in(tier, &Gaussian { scale: 1.0 }, (5, 9), &mut wide);
            assert_eq!(bits(&wide), bits(&base), "{tier:?}");
            let mut units = vec![0.0; len];
            fill_in(tier, &Units, (6, 1), &mut units);
            assert_eq!(bits(&units), bits(&base_units), "{tier:?}");
            let mut wide_indices = vec![0; len];
            fill_in(tier, &indices, (6, 2), &mut wide_indices);
            assert_eq!(wide_indices, base_indices, "{tier:?}");
            let mut signs = vec![false; len];
            fill_in(tier, &Signs, (6, 3), &mut signs);
            assert_eq!(signs, base_signs, "{tier:?}");
        }
    }

    #[test]
    fn edge_uniforms_agree_across_tiers_and_quarter_turns_are_exact() {
        // `u` as the two words whose top 53 bits are `m`, for `u = m · 2^-53`.
        let words_of = |m: u64| [(m >> 21) as u32, (m << 11) as u32];
        let u1s = [0u64, 1, 2]; // 0 → EPSILON, 2^-53, EPSILON
        let u2s = [
            0u64,
            1 << 50,       // 1/8
            1 << 51,       // 1/4
            1 << 52,       // 1/2
            3 << 51,       // 3/4
            (1 << 53) - 1, // 1 − 2^-53
        ];
        let mut words = [[0u32; BATCH]; 4];
        let mut lanes = 0;
        for &m1 in &u1s {
            for &m2 in &u2s {
                let ([w0, w1], [w2, w3]) = (words_of(m1), words_of(m2));
                [
                    words[0][lanes],
                    words[1][lanes],
                    words[2][lanes],
                    words[3][lanes],
                ] = [w0, w1, w2, w3];
                lanes += 1;
            }
        }
        let base = transform_in(Tier::Baseline, &words);
        for tier in Tier::supported() {
            assert_eq!(transform_in(tier, &words), base, "{tier:?}");
        }

        // u1 = 0 and u1 = EPSILON are the same draw.
        let radius = f64::from_bits(base[0]);
        assert_eq!(base[..2 * u2s.len()], base[4 * u2s.len()..6 * u2s.len()]);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-15 * b.abs().max(1.0);
        assert!(close(radius, (2.0 * 52.0 * std::f64::consts::LN_2).sqrt()));
        // Whole quarter turns: (cos, sin) is exactly (1, +0), (-0, 1), (-1, -0), (+0, -1).
        let pair = |u2: usize| {
            let (c, s) = (
                f64::from_bits(base[2 * u2]),
                f64::from_bits(base[2 * u2 + 1]),
            );
            ((c / radius).to_bits(), (s / radius).to_bits())
        };
        assert_eq!(pair(0), (1.0f64.to_bits(), 0.0f64.to_bits()));
        assert_eq!(pair(2), ((-0.0f64).to_bits(), 1.0f64.to_bits()));
        assert_eq!(pair(3), ((-1.0f64).to_bits(), (-0.0f64).to_bits()));
        assert_eq!(pair(4), (0.0f64.to_bits(), (-1.0f64).to_bits()));
        // An eighth turn and the last representable turn stay on the unit circle.
        let (c, s) = pair(1);
        let half_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        assert!(close(f64::from_bits(c), half_sqrt2) && close(f64::from_bits(s), half_sqrt2));
        let (c, s) = pair(5);
        assert_eq!(f64::from_bits(c), 1.0);
        assert!(f64::from_bits(s) < 0.0 && f64::from_bits(s) > -1e-15);
    }

    /// The per-word reference of a fill: element `i` of chunk `c` is `draw`'s `i`-th
    /// value from a generator at block `c · CHUNK · BLOCKS_PER_ELEMENT` of the stream.
    fn per_word<T>(
        (seed, stream): (u64, u64),
        len: usize,
        mut draw: impl FnMut(&mut crate::PhiloxRng) -> T,
    ) -> Vec<T> {
        let factory = StreamFactory::new(seed);
        let mut out = Vec::with_capacity(len);
        for ci in 0..len.div_ceil(CHUNK) {
            let block = (ci as u64) * (CHUNK as u64) * BLOCKS_PER_ELEMENT;
            let mut rng = factory.stream_at(stream, block);
            let n = CHUNK.min(len - ci * CHUNK);
            out.extend((0..n).map(|_| draw(&mut rng)));
        }
        out
    }

    /// Bounds of the index fill: the smallest, a power of two, the smallest with a
    /// rejection, one that rejects almost half of all words, and the largest.
    const BOUNDS: [usize; 5] = [1, 2, 3, (1 << 31) + 1, u32::MAX as usize];

    /// Fill lengths: empty, one, and around multiples of a 64-block batch (256
    /// words: 256 signs, about 256 indices, 128 uniforms) and of `CHUNK`.
    const LENGTHS: [usize; 14] = [
        0,
        1,
        127,
        128,
        129,
        255,
        256,
        257,
        CHUNK - 1,
        CHUNK,
        CHUNK + 1,
        2 * CHUNK + 256,
        3 * CHUNK - 1,
        3 * CHUNK,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn prop_integer_fills_are_the_per_word_draws(
            seed in 0u64..u64::MAX,
            stream in 0u64..u64::MAX,
            len_at in 0usize..LENGTHS.len(),
        ) {
            let (key, len) = ((seed, stream), LENGTHS[len_at]);
            for bound in BOUNDS {
                let sampler = UniformIndex::new(bound);
                let want = per_word(key, len, |rng| sampler.sample(rng));
                proptest::prop_assert_eq!(
                    uniform_index_vec(seed, stream, len, bound), want,
                    "bound {} len {}", bound, len
                );
            }
            let signs = per_word(key, len, crate::Rademacher::sample_bool);
            proptest::prop_assert_eq!(rademacher_bool_vec(seed, stream, len), signs);
            let signs = per_word(key, len, crate::Rademacher::sample_f64);
            proptest::prop_assert_eq!(rademacher_vec(seed, stream, len), signs);
            let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let units = per_word(key, len, |rng| rng.next_f64());
            proptest::prop_assert_eq!(bits(uniform_vec(seed, stream, len)), bits(units));
        }
    }

    #[test]
    fn empty_fills_are_fine() {
        assert!(gaussian_vec(1, 0, 0).is_empty());
        assert!(uniform_index_vec(1, 0, 0, 5).is_empty());
        assert!(rademacher_bool_vec(1, 0, 0).is_empty());
    }
}
