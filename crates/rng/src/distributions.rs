//! Distributions layered on top of the Philox generator.
//!
//! The sketches in the paper need exactly three random ingredients (Section 4 and 6.1):
//!
//! * i.i.d. standard **Gaussians** scaled by `1/sqrt(k)` for the Gaussian sketch,
//! * i.i.d. **Rademacher** signs (±1) for the CountSketch signs and the SRHT's `D`,
//! * i.i.d. **uniform integers** in `{0, …, k-1}` for the CountSketch row map and the
//!   SRHT's row sampling `P`.
//!
//! The Gaussians come from one Box–Muller transform ([`BoxMuller::sample_pair`] and the
//! parallel fill share it) that calls no libm: its logarithm and its sine and cosine
//! are built here from `+ − × ÷`, `sqrt` and integer bit operations, each of which
//! IEEE-754 rounds exactly one way, and no product is fused into an add.  So a
//! Gaussian's bits are a pure function of its four Philox words on every IEEE-754
//! host, and the transform is branch-free, so a loop of them vectorises.

use crate::philox::PhiloxRng;

/// Bits of `2^52`: OR-ing an integer `n < 2^52` into them gives the double `2^52 + n`.
const TWO_52_BITS: u64 = 0x4330_0000_0000_0000;
/// `2^52` as a double.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `ln 2` split so that `k · LN2_HI` is exact for every exponent `k` of a double.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// `2·atanh(s) = 2s + 2s·z·Σ_j z^j / (2j + 3)` with `z = s²`: the series' coefficients
/// `1/3, 1/5, …, 1/23`.  With `|s| ≤ 3 − 2√2` the first omitted term is below
/// `2^-60` of the sum.
const ATANH_TAIL: [f64; 11] = [
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
    1.0 / 21.0,
    1.0 / 23.0,
];

/// Taylor coefficients of `sin(πr/2) / r` in `r²`: `(−1)^j (π/2)^(2j+1) / (2j+1)!`.
/// For `|r| ≤ 1/2` the first omitted term of `sin(πr/2)` is below `1e-19`.
const SIN_HALF_PI: [f64; 9] = [
    std::f64::consts::FRAC_PI_2,
    -6.459_640_975_062_463e-1,
    7.969_262_624_616_705e-2,
    -4.681_754_135_318_688e-3,
    1.604_411_847_873_598_3e-4,
    -3.598_843_235_212_085e-6,
    5.692_172_921_967_927e-8,
    -6.688_035_109_811_468e-10,
    6.066_935_731_106_195_5e-12,
];

/// Taylor coefficients of `cos(πr/2)` in `r²`: `(−1)^j (π/2)^(2j) / (2j)!`.
/// For `|r| ≤ 1/2` the first omitted term is below `1e-20`.
const COS_HALF_PI: [f64; 10] = [
    1.0,
    -1.233_700_550_136_169_7,
    2.536_695_079_010_480_3e-1,
    -2.086_348_076_335_296e-2,
    9.192_602_748_394_266e-4,
    -2.520_204_237_306_060_7e-5,
    4.710_874_778_818_172e-7,
    -6.386_603_083_791_852e-9,
    6.565_963_114_979_473e-11,
    -5.294_400_200_734_623e-13,
];

/// Exact conversion of an integer `n < 2^52`: it becomes the low mantissa bits of
/// `2^52 + n`, and subtracting `2^52` is exact.  (Baseline x86-64 has no packed
/// integer-to-double instruction for 64-bit lanes; this is two vector instructions.)
#[inline(always)]
fn small_to_f64(n: u64) -> f64 {
    f64::from_bits(TWO_52_BITS | n) - TWO_52
}

/// The uniform double in `[0, 1)` of two words: the top 53 bits of `hi:lo` times
/// `2^-53`, which [`PhiloxRng::next_f64`], Box–Muller and the uniform fill all read.
/// Both halves and their sum convert exactly.
#[inline(always)]
pub(crate) fn unit_f64(hi: u32, lo: u32) -> f64 {
    (small_to_f64(hi as u64) * (1u64 << 21) as f64 + small_to_f64((lo >> 11) as u64))
        * (1.0 / (1u64 << 53) as f64)
}

/// Horner evaluation of `Σ_j c[j]·z^j`, highest degree first.
#[inline(always)]
fn horner<const N: usize>(z: f64, c: &[f64; N]) -> f64 {
    let mut p = c[N - 1];
    for &cj in c[..N - 1].iter().rev() {
        p = p * z + cj;
    }
    p
}

/// Natural logarithm of a positive normal double.
///
/// `x = 2^k · m` with `m ∈ [√½, √2)`, found branch-free on the bits: subtracting the
/// bits of `√½` leaves `k` in the exponent field (biased here, so the shift is
/// logical).  Then `ln m = 2·atanh(s)` with `s = (m − 1)/(m + 1)`, `|s| ≤ 0.172`, and
/// `ln x = k·ln2_hi + (k·ln2_lo + ln m)`.  On the uniforms Box–Muller feeds it,
/// `[2^-53, 1)`, the relative error is below `4e-16`.
#[inline(always)]
fn ln(x: f64) -> f64 {
    const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;
    const BIAS: u64 = 1023;
    let bits = x.to_bits();
    let shifted = bits.wrapping_add(BIAS << 52).wrapping_sub(SQRT_HALF_BITS);
    let exponent = shifted & !((1u64 << 52) - 1);
    // `bits − k·2^52`, with `exponent = (k + BIAS)·2^52`.
    let m = f64::from_bits(bits.wrapping_add(BIAS << 52).wrapping_sub(exponent));
    let k = small_to_f64(shifted >> 52) - BIAS as f64;
    let s = (m - 1.0) / (m + 1.0);
    let z = s * s;
    let two_s = s + s;
    let ln_m = two_s + two_s * (z * horner(z, &ATANH_TAIL));
    k * LN2_HI + (k * LN2_LO + ln_m)
}

/// `(sin 2πu, cos 2πu)` for `u ∈ [0, 1)`.
///
/// `t = 4u` counts quarter turns; `q` is `t` rounded half-to-even (adding and
/// subtracting `2^52`) and `r = t − q ∈ [−½, ½]`.  Every step so far is exact.  Taylor
/// polynomials give `sin(πr/2)` and `cos(πr/2)`, and the turn by `q` quarters swaps
/// them on odd `q` and flips signs through the sign bit, so whole quarter turns give
/// exactly `±1` and `±0`.  The absolute error is below `2e-16`.
#[inline(always)]
fn sincos_turns(u: f64) -> (f64, f64) {
    let t = 4.0 * u;
    let rounded = t + TWO_52;
    let q = rounded.to_bits();
    let r = t - (rounded - TWO_52);
    let z = r * r;
    let sin_r = (r * horner(z, &SIN_HALF_PI)).to_bits();
    let cos_r = horner(z, &COS_HALF_PI).to_bits();
    let swap = (q & 1).wrapping_neg();
    let sin = ((sin_r & !swap) | (cos_r & swap)) ^ ((q & 2) << 62);
    let cos = ((cos_r & !swap) | (sin_r & swap)) ^ ((q.wrapping_add(1) & 2) << 62);
    (f64::from_bits(sin), f64::from_bits(cos))
}

/// The Box–Muller pair of one Philox block: `u1` from words 0–1 (a zero becomes
/// `f64::EPSILON`), `u2` from words 2–3, `ρ = √(−2 ln u1)`, and
/// `(ρ·cos 2πu2, ρ·sin 2πu2)`.
#[inline(always)]
pub(crate) fn box_muller([w0, w1, w2, w3]: [u32; 4]) -> (f64, f64) {
    let u1 = unit_f64(w0, w1);
    let u1 = if u1 == 0.0 { f64::EPSILON } else { u1 };
    let radius = (-2.0 * ln(u1)).sqrt();
    let (sin, cos) = sincos_turns(unit_f64(w2, w3));
    (radius * cos, radius * sin)
}

/// Box–Muller transform producing standard normal variates two at a time.
///
/// cuRAND's normal generators use the same transform; it consumes two uniforms per pair
/// which is what the generation-cost model in `sketch-gpu-sim` assumes.  The pair is a
/// pure function of the four Philox words it reads, with the same bits on every host
/// (see the module docs), and it is the pair the parallel fill writes.
#[derive(Debug, Clone, Default)]
pub struct BoxMuller {
    /// Cached second variate of the most recent pair.
    spare: Option<f64>,
}

impl BoxMuller {
    /// Create a transform with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draw one standard normal variate.
    #[inline]
    pub fn sample(&mut self, rng: &mut PhiloxRng) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let (z0, z1) = Self::sample_pair(rng);
        self.spare = Some(z1);
        z0
    }

    /// Draw a pair of independent standard normal variates from the next four words.
    #[inline]
    pub fn sample_pair(rng: &mut PhiloxRng) -> (f64, f64) {
        box_muller([
            rng.next_word(),
            rng.next_word(),
            rng.next_word(),
            rng.next_word(),
        ])
    }
}

/// Rademacher distribution: ±1 with equal probability.
///
/// The CountSketch kernel (Algorithm 2) never multiplies by the sign — it branches on a
/// boolean — so the sampler exposes both a `f64` and a `bool` view.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rademacher;

impl Rademacher {
    /// Sample a sign as `+1.0` / `-1.0`.
    #[inline]
    pub fn sample_f64(rng: &mut PhiloxRng) -> f64 {
        if Self::sample_bool(rng) {
            1.0
        } else {
            -1.0
        }
    }

    /// Sample a sign as a boolean (`true` = `+1`).
    #[inline]
    pub fn sample_bool(rng: &mut PhiloxRng) -> bool {
        rng.next_word() & 1 == 1
    }
}

/// Uniform integer in `{0, …, bound-1}` using Lemire-style rejection to avoid modulo bias.
///
/// Used for the CountSketch row map `r_j` and the SRHT row sampling matrix `P`.
#[derive(Debug, Clone, Copy)]
pub struct UniformIndex {
    bound: u32,
    /// Rejection threshold: values below it would introduce bias and are re-drawn.
    threshold: u32,
}

impl UniformIndex {
    /// Create a sampler over `{0, …, bound-1}`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn new(bound: usize) -> Self {
        assert!(bound > 0, "UniformIndex bound must be positive");
        assert!(bound <= u32::MAX as usize, "UniformIndex bound too large");
        let bound = bound as u32;
        let threshold = bound.wrapping_neg() % bound;
        Self { bound, threshold }
    }

    /// Upper bound (exclusive) of the sampled range.
    #[inline]
    pub fn bound(&self) -> usize {
        self.bound as usize
    }

    /// Sample one index: [`UniformIndex::accept`] on the generator's next words until
    /// one is accepted.
    #[inline]
    pub fn sample(&self, rng: &mut PhiloxRng) -> usize {
        loop {
            if let Some(index) = self.accept(rng.next_word()) {
                return index;
            }
        }
    }

    /// One accept-or-reject step on the word `x`: the index `⌊x · bound / 2^32⌋`, or
    /// `None` when the low half of `x · bound` falls below the rejection threshold and
    /// the sampler must read another word.  [`UniformIndex::sample`] and the batched
    /// index fill both draw through this step.
    #[inline(always)]
    pub fn accept(&self, x: u32) -> Option<usize> {
        let m = (x as u64).wrapping_mul(self.bound as u64);
        ((m as u32) >= self.threshold).then_some((m >> 32) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_muller_moments() {
        let mut rng = PhiloxRng::seed_from(99);
        let mut bm = BoxMuller::new();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| bm.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 1e-2, "mean = {mean}");
        assert!((var - 1.0).abs() < 2e-2, "var = {var}");
    }

    #[test]
    fn box_muller_pair_components_are_uncorrelated() {
        let mut rng = PhiloxRng::seed_from(4);
        let n = 100_000;
        let mut cov = 0.0;
        for _ in 0..n {
            let (a, b) = BoxMuller::sample_pair(&mut rng);
            cov += a * b;
        }
        cov /= n as f64;
        assert!(cov.abs() < 1e-2, "cov = {cov}");
    }

    #[test]
    fn rademacher_is_balanced() {
        let mut rng = PhiloxRng::seed_from(7);
        let n = 100_000;
        let plus = (0..n).filter(|_| Rademacher::sample_bool(&mut rng)).count();
        let frac = plus as f64 / n as f64;
        assert!((frac - 0.5).abs() < 1e-2, "frac = {frac}");
    }

    #[test]
    fn rademacher_f64_is_plus_or_minus_one() {
        let mut rng = PhiloxRng::seed_from(8);
        for _ in 0..1000 {
            let s = Rademacher::sample_f64(&mut rng);
            assert!(s == 1.0 || s == -1.0);
        }
    }

    #[test]
    fn uniform_index_stays_in_range() {
        let mut rng = PhiloxRng::seed_from(21);
        for bound in [1usize, 2, 3, 7, 64, 1000, 1 << 20] {
            let sampler = UniformIndex::new(bound);
            for _ in 0..1000 {
                assert!(sampler.sample(&mut rng) < bound);
            }
        }
    }

    #[test]
    fn uniform_index_bound_one_is_always_zero() {
        let mut rng = PhiloxRng::seed_from(22);
        let sampler = UniformIndex::new(1);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng), 0);
        }
    }

    #[test]
    fn uniform_index_is_roughly_uniform() {
        let mut rng = PhiloxRng::seed_from(23);
        let bound = 16;
        let sampler = UniformIndex::new(bound);
        let n = 160_000;
        let mut counts = vec![0usize; bound];
        for _ in 0..n {
            counts[sampler.sample(&mut rng)] += 1;
        }
        let expected = n as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "bucket {i} off by {rel}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn uniform_index_rejects_zero_bound() {
        UniformIndex::new(0);
    }
}
