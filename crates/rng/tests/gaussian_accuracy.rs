//! The libm-free Gaussian fill against the textbook Box–Muller on the host's libm.
//!
//! Both read the same Philox words (pair `p` of chunk `c` reads block
//! `c·CHUNK·BLOCKS_PER_ELEMENT + p`), so they differ only by rounding: the fill's
//! own logarithm and quarter-turn sine/cosine against libm's `ln`, `cos` and `sin` of
//! a rounded `2πu`.

use sketch_rng::fill::{gaussian_vec, BLOCKS_PER_ELEMENT, CHUNK};
use sketch_rng::StreamFactory;

/// `ρ·(cos θ, sin θ)` with `ρ = √(−2 ln u1)` and `θ = 2πu2`, on the host's libm.
fn libm_reference(seed: u64, stream: u64, len: usize) -> Vec<f64> {
    let factory = StreamFactory::new(seed);
    let mut out = vec![0.0; len];
    for (ci, chunk) in out.chunks_mut(CHUNK).enumerate() {
        let mut rng = factory.stream_at(stream, ci as u64 * CHUNK as u64 * BLOCKS_PER_ELEMENT);
        for pair in chunk.chunks_mut(2) {
            let u1 = rng.next_f64_open();
            let u2 = rng.next_f64();
            let radius = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            pair[0] = radius * theta.cos();
            if let Some(z1) = pair.get_mut(1) {
                *z1 = radius * theta.sin();
            }
        }
    }
    out
}

#[test]
fn gaussian_fill_is_within_1e_14_of_libm_over_2_20_draws() {
    let len = 1 << 20;
    for (seed, stream) in [(0u64, 0u64), (2024, 3)] {
        let fill = gaussian_vec(seed, stream, len);
        let reference = libm_reference(seed, stream, len);
        let max_diff = fill
            .iter()
            .zip(&reference)
            .fold(0.0f64, |acc, (a, b)| acc.max((a - b).abs()));
        assert!(
            max_diff <= 1e-14,
            "seed {seed}, stream {stream}: max |fill - libm| = {max_diff:e}"
        );
    }
}
