//! Instruction-set tiers of the workspace's SIMD loops.

/// Instruction-set tier of a compute loop, detected once per call.
///
/// Every tier compiles the same `#[inline(always)]` loop bodies; a wider tier only
/// lets the compiler use wider registers.  Products and sums stay separate
/// instructions (rustc never contracts them into an FMA, even where the tier's
/// features would allow one), so every tier computes the baseline's bits.  The
/// Gaussian and integer fills, the GEBP microkernel, the TRSM group update and the
/// FWHT all select their tier through this one type.  Tiers are ordered narrowest
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Baseline code generation for the target: every host.
    Baseline,
    /// The same bodies compiled with AVX2 enabled, on hosts that support it.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The same bodies compiled with AVX-512F, DQ, VL and BW enabled (the x86-64-v4
    /// set), on hosts that support all four and AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// Every tier this target compiles, narrowest first.
    const ALL: &'static [Tier] = &[
        Tier::Baseline,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512,
    ];

    /// The widest tier this host supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") {
                if has!("avx512f") && has!("avx512dq") && has!("avx512vl") && has!("avx512bw") {
                    return Tier::Avx512;
                }
                return Tier::Avx2;
            }
        }
        Tier::Baseline
    }

    /// Every tier this host supports, narrowest first: the tiers a bitwise test
    /// compares against the baseline.
    pub fn supported() -> impl Iterator<Item = Tier> {
        let widest = Self::detect();
        Self::ALL.iter().copied().filter(move |&t| t <= widest)
    }

    /// The tier's name: `"baseline"`, `"avx2"` or `"avx512"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => "avx512",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_the_widest_supported_tier() {
        let supported: Vec<Tier> = Tier::supported().collect();
        assert_eq!(supported.first(), Some(&Tier::Baseline));
        assert_eq!(supported.last(), Some(&Tier::detect()));
        assert!(supported.windows(2).all(|w| w[0] < w[1]));
    }
}
