//! Sampling timing shim for the subset of `criterion` this workspace uses.
//!
//! Each `bench_function` runs its routine [`WARMUP_ITERS`] times untimed (cache
//! and pool warm-up, discarded), then collects per-iteration wall-clock samples:
//! at least [`MIN_SAMPLES`], continuing until either [`MAX_SAMPLES`] or the
//! [`SAMPLE_BUDGET`] time budget is reached.  Both the **minimum** (the least
//! noise-contaminated estimate of the routine's true cost) and the **median**
//! (robust central tendency) are reported; `nanos_per_iter` is the median.
//! This replaces the old mean-of-2, which was too noisy for wall-clock gating;
//! `sketch_bench::walltime`, which times the rows of `BENCH_kernels.json`, samples
//! the same way.

use std::fmt;
use std::time::{Duration, Instant};

/// Untimed executions before sampling starts (results discarded).
pub const WARMUP_ITERS: u32 = 2;

/// Minimum number of timed samples per benchmark.
pub const MIN_SAMPLES: usize = 5;

/// Maximum number of timed samples per benchmark.
pub const MAX_SAMPLES: usize = 31;

/// Soft time budget for the sampling loop; once `MIN_SAMPLES` have been taken,
/// sampling stops when the budget is exhausted.
pub const SAMPLE_BUDGET: Duration = Duration::from_millis(100);

/// Identifier for one benchmark within a group: `function/parameter`.
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// Create an id from a function name and a parameter label.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            function: function.to_string(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.function, self.parameter)
    }
}

/// The timing harness handed to benchmark closures.
#[derive(Default)]
pub struct Bencher {
    nanos_per_iter: f64,
    min_nanos: f64,
    samples: usize,
}

impl Bencher {
    /// Run `routine` [`WARMUP_ITERS`] times untimed, then sample it per
    /// iteration until the sample count/budget rules are met.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(routine());
        }
        let mut samples: Vec<f64> = Vec::with_capacity(MIN_SAMPLES);
        let budget_start = Instant::now();
        while samples.len() < MAX_SAMPLES
            && (samples.len() < MIN_SAMPLES || budget_start.elapsed() < SAMPLE_BUDGET)
        {
            let start = Instant::now();
            std::hint::black_box(routine());
            samples.push(start.elapsed().as_nanos() as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        self.samples = samples.len();
        self.min_nanos = samples[0];
        self.nanos_per_iter = samples[samples.len() / 2];
    }

    /// Median nanoseconds per iteration over the timed samples.
    pub fn median_nanos(&self) -> f64 {
        self.nanos_per_iter
    }

    /// Minimum nanoseconds per iteration over the timed samples.
    pub fn min_nanos(&self) -> f64 {
        self.min_nanos
    }

    /// Number of timed samples taken.
    pub fn sample_count(&self) -> usize {
        self.samples
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim always runs a fixed iteration
    /// count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Run one benchmark and print its median and minimum times.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::default();
        f(&mut bencher);
        println!(
            "bench {:<50} {:>12.1} ns/iter (median, min {:.1}, n={})",
            format!("{}/{}", self.name, id),
            bencher.median_nanos(),
            bencher.min_nanos(),
            bencher.sample_count()
        );
        self
    }

    /// End the group (no-op in the shim).
    pub fn finish(self) {}
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _criterion: self,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Prevent the compiler from optimising a value away.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Collect benchmark functions into one runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        /// Runs every benchmark registered in this group.
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate `fn main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench -- --test` passes flags the shim does not need to
            // interpret: every bench always runs exactly once per timing loop.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_times_a_routine() {
        let mut b = Bencher::default();
        let mut count = 0u32;
        b.iter(|| {
            count += 1;
            std::thread::sleep(std::time::Duration::from_micros(50));
        });
        assert_eq!(count as usize, WARMUP_ITERS as usize + b.sample_count());
        assert!(b.sample_count() >= MIN_SAMPLES);
        assert!(b.sample_count() <= MAX_SAMPLES);
        assert!(b.min_nanos() > 0.0);
        assert!(b.median_nanos() >= b.min_nanos());
    }

    #[test]
    fn long_routines_stop_at_the_budget() {
        let mut b = Bencher::default();
        b.iter(|| std::thread::sleep(std::time::Duration::from_millis(25)));
        // 25 ms per sample blows the 100 ms budget right after MIN_SAMPLES.
        assert_eq!(b.sample_count(), MIN_SAMPLES);
    }

    #[test]
    fn groups_run_their_benches() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_test");
        let mut ran = false;
        group
            .sample_size(10)
            .bench_function(BenchmarkId::new("f", "p"), |b| b.iter(|| ran = true));
        group.finish();
        assert!(ran);
    }
}
