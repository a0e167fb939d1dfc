//! Byte and flop accounting.
//!
//! Every kernel in the workspace (dense GEMM, sparse SpMM, the CountSketch kernel, the
//! FWHT, …) reports exactly how many bytes it read, how many it wrote, how many floating
//! point operations it performed, and how many kernel launches it needed.  These counts
//! are the raw material of the paper's Figures 3 and 4 and of the roofline time model.

use std::ops::{Add, AddAssign, Mul, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// The cost of one kernel (or one accumulated region of kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCost {
    /// Bytes read from device global memory.
    pub bytes_read: u64,
    /// Bytes written to device global memory.
    pub bytes_written: u64,
    /// Floating point operations executed.
    pub flops: u64,
    /// Number of kernel launches (each pays a fixed launch latency in the model).
    pub launches: u64,
}

impl KernelCost {
    /// Construct a cost record.
    #[inline]
    pub const fn new(bytes_read: u64, bytes_written: u64, flops: u64, launches: u64) -> Self {
        Self {
            bytes_read,
            bytes_written,
            flops,
            launches,
        }
    }

    /// A zero cost.
    #[inline]
    pub const fn zero() -> Self {
        Self::new(0, 0, 0, 0)
    }

    /// Total bytes moved (read + written).
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity in flops per byte moved; zero traffic yields infinity.
    #[inline]
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.total_bytes();
        if bytes == 0 {
            if self.flops == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.flops as f64 / bytes as f64
        }
    }

    /// Cost of reading/writing `n` double precision values.
    #[inline]
    pub const fn f64_bytes(n: u64) -> u64 {
        n * 8
    }

    /// A cost from [`Checked`] counts, or `None` when one of them overflowed.
    pub fn checked(read: Checked, written: Checked, flops: Checked, launches: u64) -> Option<Self> {
        Some(Self::new(read.0?, written.0?, flops.0?, launches))
    }

    /// `self + rhs`, or `None` when a counter overflows.
    pub fn checked_add(self, rhs: KernelCost) -> Option<Self> {
        Some(Self::new(
            self.bytes_read.checked_add(rhs.bytes_read)?,
            self.bytes_written.checked_add(rhs.bytes_written)?,
            self.flops.checked_add(rhs.flops)?,
            self.launches.checked_add(rhs.launches)?,
        ))
    }
}

/// A count whose `+` and `*` are checked, as [`std::num::Wrapping`]'s wrap: a cost
/// statement written in `Checked` counts is exact, or `Checked(None)` once any
/// step overflows `u64`, so a statement evaluated at an untrusted shape is never
/// a wrapped value and never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checked(pub Option<u64>);

impl Checked {
    /// An exact zero.
    pub const ZERO: Checked = Checked(Some(0));
}

impl From<usize> for Checked {
    fn from(n: usize) -> Self {
        Checked(u64::try_from(n).ok())
    }
}

macro_rules! checked_op {
    ($op:ident, $method:ident, $checked:ident) => {
        impl $op for Checked {
            type Output = Checked;
            fn $method(self, rhs: Checked) -> Checked {
                Checked(self.0.zip(rhs.0).and_then(|(a, b)| a.$checked(b)))
            }
        }

        impl $op<u64> for Checked {
            type Output = Checked;
            fn $method(self, rhs: u64) -> Checked {
                self.$method(Checked(Some(rhs)))
            }
        }
    };
}

checked_op!(Add, add, checked_add);
checked_op!(Mul, mul, checked_mul);

impl Add for KernelCost {
    type Output = KernelCost;
    fn add(self, rhs: KernelCost) -> KernelCost {
        KernelCost {
            bytes_read: self.bytes_read + rhs.bytes_read,
            bytes_written: self.bytes_written + rhs.bytes_written,
            flops: self.flops + rhs.flops,
            launches: self.launches + rhs.launches,
        }
    }
}

impl AddAssign for KernelCost {
    fn add_assign(&mut self, rhs: KernelCost) {
        *self = *self + rhs;
    }
}

impl Sub for KernelCost {
    type Output = KernelCost;
    fn sub(self, rhs: KernelCost) -> KernelCost {
        KernelCost {
            bytes_read: self.bytes_read.saturating_sub(rhs.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(rhs.bytes_written),
            flops: self.flops.saturating_sub(rhs.flops),
            launches: self.launches.saturating_sub(rhs.launches),
        }
    }
}

/// Thread-safe accumulator of [`KernelCost`]s.
///
/// Kernels run inside rayon parallel regions, so the tracker uses relaxed atomics; the
/// numbers are only ever read after the parallel region finishes.
#[derive(Debug, Default)]
pub struct CostTracker {
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    flops: AtomicU64,
    launches: AtomicU64,
}

impl CostTracker {
    /// New tracker with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one kernel's cost.
    #[inline]
    pub fn record(&self, cost: KernelCost) {
        self.bytes_read
            .fetch_add(cost.bytes_read, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(cost.bytes_written, Ordering::Relaxed);
        self.flops.fetch_add(cost.flops, Ordering::Relaxed);
        self.launches.fetch_add(cost.launches, Ordering::Relaxed);
    }

    /// Current accumulated totals.
    #[inline]
    pub fn snapshot(&self) -> KernelCost {
        KernelCost {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            flops: self.flops.load(Ordering::Relaxed),
            launches: self.launches.load(Ordering::Relaxed),
        }
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.flops.store(0, Ordering::Relaxed);
        self.launches.store(0, Ordering::Relaxed);
    }

    /// Run a closure and return its result along with the cost it added to the tracker.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, KernelCost) {
        let before = self.snapshot();
        let out = f();
        let after = self.snapshot();
        (out, after - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_addition_and_subtraction() {
        let a = KernelCost::new(10, 20, 30, 1);
        let b = KernelCost::new(1, 2, 3, 1);
        assert_eq!(a + b, KernelCost::new(11, 22, 33, 2));
        assert_eq!(a - b, KernelCost::new(9, 18, 27, 0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn subtraction_saturates() {
        let a = KernelCost::new(1, 1, 1, 1);
        let b = KernelCost::new(5, 5, 5, 5);
        assert_eq!(a - b, KernelCost::zero());
    }

    #[test]
    fn arithmetic_intensity_cases() {
        assert_eq!(KernelCost::zero().arithmetic_intensity(), 0.0);
        assert!(KernelCost::new(0, 0, 10, 1)
            .arithmetic_intensity()
            .is_infinite());
        let c = KernelCost::new(50, 50, 200, 1);
        assert!((c.arithmetic_intensity() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn f64_bytes_helper() {
        assert_eq!(KernelCost::f64_bytes(3), 24);
    }

    #[test]
    fn checked_counts_are_exact_or_none() {
        let big = Checked(Some(u64::MAX / 2));
        assert_eq!(big * 2, Checked(Some(u64::MAX - 1)));
        assert_eq!(big * 3, Checked(None));
        assert_eq!(big * 3 + 1, Checked(None));
        assert_eq!(Checked::from(7usize) + 1, Checked(Some(8)));
        assert_eq!(
            KernelCost::checked(big * 2, Checked::ZERO + 8, big + big, 1),
            Some(KernelCost::new(u64::MAX - 1, 8, u64::MAX - 1, 1))
        );
        assert_eq!(KernelCost::checked(big * 3, Checked::ZERO, big, 1), None);
        let a = KernelCost::new(1, 2, 3, 1);
        assert_eq!(a.checked_add(a), Some(a + a));
        assert_eq!(a.checked_add(KernelCost::new(0, 0, u64::MAX, 0)), None);
    }

    #[test]
    fn tracker_accumulates() {
        let t = CostTracker::new();
        t.record(KernelCost::new(1, 2, 3, 1));
        t.record(KernelCost::new(10, 20, 30, 1));
        assert_eq!(t.snapshot(), KernelCost::new(11, 22, 33, 2));
        t.reset();
        assert_eq!(t.snapshot(), KernelCost::zero());
    }

    #[test]
    fn tracker_measure_returns_delta_only() {
        let t = CostTracker::new();
        t.record(KernelCost::new(100, 100, 100, 1));
        let ((), delta) = t.measure(|| t.record(KernelCost::new(5, 6, 7, 1)));
        assert_eq!(delta, KernelCost::new(5, 6, 7, 1));
    }

    #[test]
    fn tracker_is_thread_safe() {
        let t = CostTracker::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        t.record(KernelCost::new(1, 1, 1, 1));
                    }
                });
            }
        });
        assert_eq!(t.snapshot(), KernelCost::new(4000, 4000, 4000, 4000));
    }
}
