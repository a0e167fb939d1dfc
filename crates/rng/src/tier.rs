//! Instruction-set tiers of the workspace's SIMD loops.

/// Instruction-set tier of a compute loop, detected once per call.
///
/// Every tier compiles the same `#[inline(always)]` loop bodies; a wider tier only
/// lets the compiler use wider registers.  Products and sums stay separate
/// instructions (rustc never contracts them into an FMA), so every tier computes the
/// baseline's bits.  The Gaussian fill, the GEBP microkernel and the TRSM group
/// update all select their tier through this one type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Baseline code generation for the target: every host.
    Baseline,
    /// The same bodies compiled with AVX2 enabled, on hosts that support it.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Tier {
    /// The widest tier this host supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
        Tier::Baseline
    }
}
