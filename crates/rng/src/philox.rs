//! Philox4x32-10 counter-based pseudo-random number generator.
//!
//! Philox is the default generator of NVIDIA's cuRAND device API and the generator the
//! paper implicitly relies on when it reports "Sketch gen time".  It maps a 128-bit
//! *counter* and a 64-bit *key* to 128 bits of output through ten rounds of a simple
//! multiply/xor network (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
//! SC'11).  Because each block is a pure function of `(key, counter)`, any thread can
//! generate any block without coordination — which is exactly the property a GPU (or a
//! rayon parallel fill) needs.

use crate::distributions::unit_f64;

/// Number of rounds used by the standard Philox4x32-10 variant.
pub const PHILOX_ROUNDS: usize = 10;

/// First Weyl key increment (from the reference implementation).
const PHILOX_W32_0: u32 = 0x9E37_79B9;
/// Second Weyl key increment.
const PHILOX_W32_1: u32 = 0xBB67_AE85;
/// First round multiplier.
const PHILOX_M4X32_0: u32 = 0xD251_1F53;
/// Second round multiplier.
const PHILOX_M4X32_1: u32 = 0xCD9E_8D57;

/// The raw Philox4x32-10 block function with an incrementing 128-bit counter.
///
/// The generator is deliberately tiny and `Copy`: a GPU thread (or a rayon task) holds
/// one by value, positions it with [`Philox4x32::set_counter`], and squeezes 32-bit
/// words out of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Philox4x32 {
    /// 64-bit key, split into two 32-bit halves as in the reference implementation.
    key: [u32; 2],
    /// 128-bit counter, little-endian limbs.
    counter: [u32; 4],
}

impl Philox4x32 {
    /// Create a generator with the given 64-bit key (seed) and a zero counter.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self {
            key: [seed as u32, (seed >> 32) as u32],
            counter: [0; 4],
        }
    }

    /// Create a generator for a specific `(seed, stream)` pair.
    ///
    /// The stream id is folded into the high counter limbs so that distinct streams
    /// generate disjoint counter ranges (each stream still has 2^64 blocks available).
    #[inline]
    pub fn new_stream(seed: u64, stream: u64) -> Self {
        Self {
            key: [seed as u32, (seed >> 32) as u32],
            counter: [0, 0, stream as u32, (stream >> 32) as u32],
        }
    }

    /// Position the low 64 bits of the counter.
    ///
    /// Together with [`Philox4x32::new_stream`] this gives O(1) jump-ahead: block `i`
    /// of stream `s` is always the same four words, no matter who computes it.
    #[inline]
    pub fn set_counter(&mut self, block: u64) {
        self.counter[0] = block as u32;
        self.counter[1] = (block >> 32) as u32;
    }

    /// Return the low 64 bits of the counter (the block index within the stream).
    #[inline]
    pub fn block_index(&self) -> u64 {
        (self.counter[0] as u64) | ((self.counter[1] as u64) << 32)
    }

    /// One Philox round: two 32x32->64 multiplies plus xors with the key.
    #[inline(always)]
    fn round(ctr: [u32; 4], key: [u32; 2]) -> [u32; 4] {
        let prod0 = (PHILOX_M4X32_0 as u64).wrapping_mul(ctr[0] as u64);
        let prod1 = (PHILOX_M4X32_1 as u64).wrapping_mul(ctr[2] as u64);
        let hi0 = (prod0 >> 32) as u32;
        let lo0 = prod0 as u32;
        let hi1 = (prod1 >> 32) as u32;
        let lo1 = prod1 as u32;
        [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0]
    }

    /// Run the full 10-round block function on an arbitrary counter value.
    #[inline]
    pub fn block(&self, counter: [u32; 4]) -> [u32; 4] {
        Self::rounds(counter, self.key)
    }

    /// The ten rounds, with the key bumped between them.
    #[inline(always)]
    fn rounds(mut ctr: [u32; 4], mut key: [u32; 2]) -> [u32; 4] {
        for round in 0..PHILOX_ROUNDS {
            ctr = Self::round(ctr, key);
            if round + 1 < PHILOX_ROUNDS {
                key[0] = key[0].wrapping_add(PHILOX_W32_0);
                key[1] = key[1].wrapping_add(PHILOX_W32_1);
            }
        }
        ctr
    }

    /// The block function on `N` consecutive counters at once, structure-of-arrays:
    /// `out[w][i]` is word `w` of [`Philox4x32::block`] at the counter whose low 64
    /// bits are `first + i` (wrapping) and whose high 64 bits are this generator's
    /// (its stream).
    ///
    /// Each lane runs the same straight-line rounds, so the compiler keeps a vector
    /// of counters in registers and computes several blocks per instruction.
    #[inline(always)]
    pub fn blocks<const N: usize>(&self, first: u64, out: &mut [[u32; N]; 4]) {
        let [w0, w1, w2, w3] = out;
        for i in 0..N {
            let low = first.wrapping_add(i as u64);
            let ctr = [
                low as u32,
                (low >> 32) as u32,
                self.counter[2],
                self.counter[3],
            ];
            [w0[i], w1[i], w2[i], w3[i]] = Self::rounds(ctr, self.key);
        }
    }

    /// Generate the next block of four 32-bit words and advance the counter.
    #[inline]
    pub fn next_block(&mut self) -> [u32; 4] {
        let out = self.block(self.counter);
        self.advance(1);
        out
    }

    /// Advance the 128-bit counter by `blocks`.
    #[inline]
    pub fn advance(&mut self, blocks: u64) {
        let lo = self.counter[0] as u64 | ((self.counter[1] as u64) << 32);
        let (new_lo, carry) = lo.overflowing_add(blocks);
        self.counter[0] = new_lo as u32;
        self.counter[1] = (new_lo >> 32) as u32;
        if carry {
            let hi = self.counter[2] as u64 | ((self.counter[3] as u64) << 32);
            let new_hi = hi.wrapping_add(1);
            self.counter[2] = new_hi as u32;
            self.counter[3] = (new_hi >> 32) as u32;
        }
    }
}

/// A buffered [`rand::RngCore`] adaptor over [`Philox4x32`].
///
/// Each call to the block function yields four 32-bit words; this wrapper buffers them
/// so scalar consumers (e.g. `rand` distributions) see an ordinary stream.
#[derive(Debug, Clone)]
pub struct PhiloxRng {
    core: Philox4x32,
    buffer: [u32; 4],
    /// Index of the next unconsumed word in `buffer`; 4 means "empty".
    cursor: usize,
}

impl PhiloxRng {
    /// Construct from a seed with stream id 0.
    #[inline]
    pub fn seed_from(seed: u64) -> Self {
        Self::with_stream(seed, 0)
    }

    /// Construct a generator on an explicit `(seed, stream)` pair.
    #[inline]
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        Self {
            core: Philox4x32::new_stream(seed, stream),
            buffer: [0; 4],
            cursor: 4,
        }
    }

    /// Skip ahead to the given block index (each block is four 32-bit words).
    #[inline]
    pub fn seek_block(&mut self, block: u64) {
        self.core.set_counter(block);
        self.cursor = 4;
    }

    /// Next uniformly distributed `u32`.
    #[inline]
    pub fn next_word(&mut self) -> u32 {
        if self.cursor == 4 {
            self.buffer = self.core.next_block();
            self.cursor = 0;
        }
        let word = self.buffer[self.cursor];
        self.cursor += 1;
        word
    }

    /// Uniform double in `[0, 1)` built from 53 random mantissa bits: the top 53 bits
    /// of the next two words, high word first, times `2^-53`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        let hi = self.next_word();
        unit_f64(hi, self.next_word())
    }

    /// Uniform double in the interval `(0, 1)`: [`PhiloxRng::next_f64`] with a zero
    /// replaced by `f64::EPSILON`, Box–Muller's `u1`.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        let u = self.next_f64();
        if u == 0.0 {
            f64::EPSILON
        } else {
            u
        }
    }
}

impl rand::RngCore for PhiloxRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let hi = self.next_word() as u64;
        let lo = self.next_word() as u64;
        (hi << 32) | lo
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_word().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let word = self.next_word().to_le_bytes();
            rem.copy_from_slice(&word[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl rand::SeedableRng for PhiloxRng {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Self::seed_from(u64::from_le_bytes(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn philox_is_deterministic() {
        let mut a = Philox4x32::new(0xDEAD_BEEF);
        let mut b = Philox4x32::new(0xDEAD_BEEF);
        for _ in 0..100 {
            assert_eq!(a.next_block(), b.next_block());
        }
    }

    #[test]
    fn philox_streams_differ() {
        let mut a = Philox4x32::new_stream(1, 0);
        let mut b = Philox4x32::new_stream(1, 1);
        let blocks_a: Vec<_> = (0..16).map(|_| a.next_block()).collect();
        let blocks_b: Vec<_> = (0..16).map(|_| b.next_block()).collect();
        assert_ne!(blocks_a, blocks_b);
    }

    #[test]
    fn philox_counter_jump_matches_sequential() {
        let mut seq = Philox4x32::new(7);
        // Burn 5 blocks sequentially.
        for _ in 0..5 {
            seq.next_block();
        }
        let sixth_sequential = seq.next_block();

        let mut jumped = Philox4x32::new(7);
        jumped.set_counter(5);
        let sixth_jumped = jumped.next_block();
        assert_eq!(sixth_sequential, sixth_jumped);
    }

    #[test]
    fn philox_counter_carry_propagates() {
        let mut g = Philox4x32::new(3);
        g.set_counter(u64::MAX);
        g.advance(1);
        // Low 64 bits wrapped to zero, high limbs incremented.
        assert_eq!(g.block_index(), 0);
        assert_eq!(g.counter[2], 1);
    }

    #[test]
    fn philox_known_answer_nonzero_and_stable() {
        // Regression anchor: the first block for (seed=0, counter=0) must never change,
        // otherwise every "random" experiment in the workspace silently changes.
        let g = Philox4x32::new(0);
        let block = g.block([0, 0, 0, 0]);
        assert_eq!(block, g.block([0, 0, 0, 0]));
        assert_ne!(block, [0, 0, 0, 0]);
    }

    #[test]
    fn philox_matches_the_random123_known_answers() {
        // philox4x32-10 vectors of Random123's kat_vectors: (key, counter) -> block.
        let cases: [(u64, [u32; 4], [u32; 4]); 3] = [
            (
                0,
                [0; 4],
                [0x6627_e8d5, 0xe169_c58d, 0xbc57_ac4c, 0x9b00_dbd8],
            ),
            (
                u64::MAX,
                [u32::MAX; 4],
                [0x408f_276d, 0x41c8_3b0e, 0xa20b_c7c6, 0x6d54_51fd],
            ),
            (
                0x299f_31d0_a409_3822,
                [0x243f_6a88, 0x85a3_08d3, 0x1319_8a2e, 0x0370_7344],
                [0xd16c_fe09, 0x94fd_cceb, 0x5001_e420, 0x2412_6ea1],
            ),
        ];
        for (seed, ctr, want) in cases {
            assert_eq!(Philox4x32::new(seed).block(ctr), want, "seed {seed:#x}");
        }
    }

    #[test]
    fn batched_blocks_equal_block_for_every_counter() {
        let g = Philox4x32::new_stream(0xDEAD_BEEF, 0x1234_5678_9ABC_DEF0);
        // The second start crosses the 2^32 boundary of the low counter word.
        for first in [0u64, (1 << 32) - 37, u64::MAX - 70] {
            let mut words = [[0u32; 64]; 4];
            g.blocks(first, &mut words);
            for i in 0..64 {
                let low = first.wrapping_add(i as u64);
                let want = g.block([low as u32, (low >> 32) as u32, 0x9ABC_DEF0, 0x1234_5678]);
                let got = [words[0][i], words[1][i], words[2][i], words[3][i]];
                assert_eq!(got, want, "block {low:#x}");
            }
        }
    }

    #[test]
    fn rng_uniform_in_unit_interval() {
        let mut rng = PhiloxRng::seed_from(11);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn rng_mean_is_roughly_half() {
        let mut rng = PhiloxRng::seed_from(1234);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 5e-3, "mean = {mean}");
    }

    #[test]
    fn rng_fill_bytes_handles_remainders() {
        let mut rng = PhiloxRng::seed_from(9);
        for len in [0usize, 1, 3, 4, 5, 7, 8, 17] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 4 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} produced all zeros");
            }
        }
    }

    #[test]
    fn rng_seek_block_is_reproducible() {
        let mut a = PhiloxRng::seed_from(5);
        a.seek_block(123);
        let wa: Vec<u32> = (0..8).map(|_| a.next_word()).collect();

        let mut b = PhiloxRng::seed_from(5);
        // Consume some unrelated words first.
        for _ in 0..37 {
            b.next_word();
        }
        b.seek_block(123);
        let wb: Vec<u32> = (0..8).map(|_| b.next_word()).collect();
        assert_eq!(wa, wb);
    }

    #[test]
    fn rng_core_next_u64_uses_two_words() {
        let mut a = PhiloxRng::seed_from(2);
        let mut b = PhiloxRng::seed_from(2);
        let w0 = b.next_word() as u64;
        let w1 = b.next_word() as u64;
        assert_eq!(a.next_u64(), (w0 << 32) | w1);
    }
}
