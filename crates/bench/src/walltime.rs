//! Measured wall-clock timing: sampling helpers and thread-pool scaffolding for
//! the `fig_kernels` binary.
//!
//! Everything else in this crate reports *modelled* `KernelCost` times (the H100
//! roofline).  This module is the measured counterpart: it times the kernels as
//! they actually execute on this host, under an explicit rayon pool whose size
//! the caller sweeps.  The two numbers are deliberately reported side by side —
//! modelled time answers "what would the paper's GPU do", measured time answers
//! "what does this build do on this machine, at N threads".
//!
//! The sampling discipline: warm-up iterations are discarded, every timed
//! iteration is an independent sample, and the **median**/**minimum** are
//! reported rather than a mean-of-few, so one descheduled sample cannot poison a
//! row of `BENCH_kernels.json`.

use sketch_obs::{CostBreakdown, RecorderHandle, Stopwatch, TraceEvent, Track};
use std::time::Duration;

/// Untimed executions before sampling starts (pool spin-up, cache warm-up).
pub const WARMUP_ITERS: usize = 1;

/// Minimum number of timed samples per measurement.
pub const MIN_SAMPLES: usize = 3;

/// Maximum number of timed samples per measurement.
pub const MAX_SAMPLES: usize = 15;

/// Soft time budget per measurement; sampling stops once it is exhausted
/// (but never before [`MIN_SAMPLES`]).
pub const SAMPLE_BUDGET: Duration = Duration::from_millis(400);

/// Wall-clock samples of one routine, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Median of the timed samples — the headline number.
    pub median_ns: f64,
    /// Minimum of the timed samples — the least noise-contaminated estimate.
    pub min_ns: f64,
    /// Number of timed samples taken.
    pub samples: usize,
}

impl Sample {
    /// Median time in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median_ns / 1e6
    }

    /// Minimum time in milliseconds.
    pub fn min_ms(&self) -> f64 {
        self.min_ns / 1e6
    }
}

/// Time `routine`: [`WARMUP_ITERS`] discarded runs, then per-iteration samples
/// until [`MIN_SAMPLES`]..[`MAX_SAMPLES`] within the [`SAMPLE_BUDGET`].
pub fn time_fn(mut routine: impl FnMut()) -> Sample {
    time_fn_with(&mut routine, |_| {})
}

/// Like [`time_fn`], but additionally emits one wall-track [`TraceEvent`] per
/// timed sample into `recorder`, named `name` — the measured half of a trace
/// whose modelled half stays deterministic.
pub fn time_fn_traced(recorder: &RecorderHandle, name: &str, mut routine: impl FnMut()) -> Sample {
    time_fn_with(&mut routine, |ns| {
        recorder.record(TraceEvent {
            name: name.to_string(),
            device: 0,
            track: Track::Wall,
            sim: None,
            wall_ns: ns as u64,
            cost: CostBreakdown::default(),
        });
    })
}

/// Shared sampling loop: `on_sample` observes each timed duration in ns.
fn time_fn_with(routine: &mut impl FnMut(), mut on_sample: impl FnMut(f64)) -> Sample {
    for _ in 0..WARMUP_ITERS {
        routine();
    }
    let mut samples: Vec<f64> = Vec::with_capacity(MIN_SAMPLES);
    let budget_start = Stopwatch::start();
    while samples.len() < MAX_SAMPLES
        && (samples.len() < MIN_SAMPLES
            || budget_start.elapsed_seconds() < SAMPLE_BUDGET.as_secs_f64())
    {
        let start = Stopwatch::start();
        routine();
        let ns = start.elapsed_ns() as f64;
        on_sample(ns);
        samples.push(ns);
    }
    Sample::of(samples)
}

/// Time `routines` with their samples interleaved: [`WARMUP_ITERS`] discarded
/// rounds, then [`MAX_SAMPLES`] rounds of one timed run of each in turn, so load
/// that drifts while they are sampled slows them alike and their medians compare.
pub fn time_interleaved(routines: &mut [&mut dyn FnMut()]) -> Vec<Sample> {
    let mut samples = vec![Vec::with_capacity(MAX_SAMPLES); routines.len()];
    for round in 0..WARMUP_ITERS + MAX_SAMPLES {
        for (routine, times) in routines.iter_mut().zip(&mut samples) {
            let start = Stopwatch::start();
            routine();
            if round >= WARMUP_ITERS {
                times.push(start.elapsed_ns() as f64);
            }
        }
    }
    samples.into_iter().map(Sample::of).collect()
}

impl Sample {
    /// The median, minimum and count of non-empty `samples` (in ns).
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        Sample {
            median_ns: samples[samples.len() / 2],
            min_ns: samples[0],
            samples: samples.len(),
        }
    }
}

/// Run `f` with every parallel operation dispatched to a fresh pool of exactly
/// `threads` threads (the calling thread plus `threads - 1` workers).
pub fn with_thread_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds");
    pool.install(f)
}

/// Number of hardware threads this host exposes.  Measured speedup > 1 is only
/// physically possible when this exceeds 1; `fig_kernels` records it in the
/// JSON and conditions its thread speedup gate on it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Bit patterns of a float slice, for exact cross-thread-count comparison
/// (`to_bits` distinguishes `-0.0` from `0.0`; `==` does not).
pub fn bits_of(data: &[f64]) -> Vec<u64> {
    data.iter().map(|x| x.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_fn_respects_sample_bounds() {
        let mut runs = 0usize;
        let s = time_fn(|| {
            runs += 1;
            std::thread::sleep(Duration::from_micros(200));
        });
        assert_eq!(runs, WARMUP_ITERS + s.samples);
        assert!((MIN_SAMPLES..=MAX_SAMPLES).contains(&s.samples));
        assert!(s.min_ns > 0.0 && s.median_ns >= s.min_ns);
    }

    #[test]
    fn with_thread_pool_pins_current_num_threads() {
        for n in [1, 2, 4] {
            let seen = with_thread_pool(n, rayon::current_num_threads);
            assert_eq!(seen, n);
        }
    }

    #[test]
    fn bits_of_distinguishes_signed_zero() {
        assert_ne!(bits_of(&[0.0])[0], bits_of(&[-0.0])[0]);
    }

    #[test]
    fn traced_sampling_emits_one_wall_event_per_sample() {
        let collector = sketch_obs::TraceCollector::shared();
        let recorder: RecorderHandle = collector.clone();
        let s = time_fn_traced(&recorder, "spin", || {
            std::thread::sleep(Duration::from_micros(50));
        });
        let events = collector.snapshot();
        assert_eq!(events.len(), s.samples);
        for e in &events {
            assert_eq!(e.track, Track::Wall);
            assert_eq!(e.name, "spin");
            assert!(e.sim.is_none());
            assert!(e.wall_ns > 0);
        }
    }
}
