//! Phase-level profiling matching the paper's runtime breakdowns.
//!
//! Figure 5 stacks the least-squares solver runtimes into named phases: "Gram matrix",
//! "AT*b", "Sketch gen", "Matrix sketch", "Vector sketch", "POTRF", "GEQRF", "ORMQR",
//! "TRSV", "TRSM".  Figure 2 similarly splits sketch times into generation and apply.
//! [`Profiler`] captures, for each phase, both the modelled device time (from the cost
//! counters) and the measured wall-clock time, so the bench harness can print the exact
//! same stacks.

//! Since the observability layer landed, each phase is captured as a
//! [`sketch_obs::TraceEvent`] span first (fed to the device's attached
//! [`Recorder`](sketch_obs::Recorder), if any) and the [`PhaseRecord`] is
//! derived from that span, so Figure 5 and a Perfetto trace always agree.
//! Wall time is captured with the monotonic [`Stopwatch`] and accumulated
//! *exclusively* per phase: when phases nest (the same `Phase` re-entered via
//! [`Profiler::enter`] guards, e.g. a per-shard sketch apply inside a driver
//! phase), the inner span's wall time is subtracted from the outer record, so
//! the total wall across records never double-counts.

use crate::counters::KernelCost;
use crate::device::Device;
use serde::Serialize;
use sketch_obs::{Stopwatch, TraceEvent, Track};
use std::cell::RefCell;

/// The phases used across the paper's breakdown figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Phase {
    /// Gram matrix `AᵀA` (normal equations / comparisons in Figure 2).
    GramMatrix,
    /// Right-hand side product `Aᵀb`.
    ATransposeB,
    /// Random generation of the sketch ingredients.
    SketchGen,
    /// Applying the sketch to the coefficient matrix.
    MatrixSketch,
    /// Applying the sketch to the right-hand side vector.
    VectorSketch,
    /// Cholesky factorisation.
    Potrf,
    /// Householder QR factorisation.
    Geqrf,
    /// Application of the Householder reflectors to the right-hand side.
    Ormqr,
    /// Triangular solve with a vector.
    Trsv,
    /// Triangular solve with a matrix.
    Trsm,
    /// Anything else (named free-form).
    Other(&'static str),
}

impl Phase {
    /// The label used in reports; matches the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::GramMatrix => "Gram matrix",
            Phase::ATransposeB => "AT*b",
            Phase::SketchGen => "Sketch gen",
            Phase::MatrixSketch => "Matrix sketch",
            Phase::VectorSketch => "Vector sketch",
            Phase::Potrf => "POTRF",
            Phase::Geqrf => "GEQRF",
            Phase::Ormqr => "ORMQR",
            Phase::Trsv => "TRSV",
            Phase::Trsm => "TRSM",
            Phase::Other(name) => name,
        }
    }
}

/// One recorded phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PhaseRecord {
    /// Which phase this record belongs to.
    pub phase: Phase,
    /// Cost accumulated on the device during the phase.
    #[serde(skip)]
    pub cost: KernelCost,
    /// Modelled device time in seconds.
    pub model_seconds: f64,
    /// Measured host wall-clock time in seconds.
    pub wall_seconds: f64,
}

/// A completed run: an ordered list of phase records.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunBreakdown {
    /// Phases in execution order.
    pub phases: Vec<PhaseRecord>,
}

impl RunBreakdown {
    /// Total modelled time across phases, in seconds.
    pub fn total_model_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.model_seconds).sum()
    }

    /// Total modelled time in milliseconds.
    pub fn total_model_ms(&self) -> f64 {
        self.total_model_seconds() * 1e3
    }

    /// Total wall-clock time across phases, in seconds.
    pub fn total_wall_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.wall_seconds).sum()
    }

    /// Total device cost across phases.
    pub fn total_cost(&self) -> KernelCost {
        self.phases
            .iter()
            .fold(KernelCost::zero(), |acc, p| acc + p.cost)
    }

    /// Modelled time of a specific phase (summed over repeats), in seconds.
    pub fn model_seconds_of(&self, phase: Phase) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.phase == phase)
            .map(|p| p.model_seconds)
            .sum()
    }

    /// Merge another breakdown after this one (e.g. sketch phases + solve phases).
    pub fn extend(&mut self, other: RunBreakdown) {
        self.phases.extend(other.phases);
    }
}

/// A phase currently being captured (an open span).
#[derive(Debug)]
struct ActivePhase {
    phase: Phase,
    start_cost: KernelCost,
    watch: Stopwatch,
    /// Wall seconds already attributed to spans nested inside this one.
    child_wall: f64,
}

#[derive(Debug, Default)]
struct ProfilerState {
    breakdown: RunBreakdown,
    active: Vec<ActivePhase>,
    /// Profiler-local modelled clock for the Phase trace track, in seconds.
    phase_clock: f64,
}

/// Records phases executed on one device.
#[derive(Debug)]
pub struct Profiler<'a> {
    device: &'a Device,
    state: RefCell<ProfilerState>,
}

impl<'a> Profiler<'a> {
    /// Start profiling on a device.
    pub fn new(device: &'a Device) -> Self {
        Self {
            device,
            state: RefCell::new(ProfilerState::default()),
        }
    }

    /// The device being profiled.
    #[inline]
    pub fn device(&self) -> &Device {
        self.device
    }

    /// Run `f` as `phase`, recording its device cost delta and wall time.
    pub fn phase<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let span = self.enter(phase);
        let out = f();
        drop(span);
        out
    }

    /// Open `phase` as a guard; the record is captured when the guard drops.
    ///
    /// Unlike [`Profiler::phase`], guards allow the same `Phase` to be open
    /// twice (nested): each entry still produces its own [`PhaseRecord`], but
    /// wall time is attributed exclusively — the inner span's elapsed time is
    /// subtracted from the outer record (clamped at zero), so
    /// [`RunBreakdown::total_wall_seconds`] never double-counts a nanosecond.
    pub fn enter(&self, phase: Phase) -> PhaseSpan<'_, 'a> {
        self.state.borrow_mut().active.push(ActivePhase {
            phase,
            start_cost: self.device.tracker().snapshot(),
            watch: Stopwatch::start(),
            child_wall: 0.0,
        });
        PhaseSpan { profiler: self }
    }

    /// Append a phase measured outside the profiler (e.g. a matrix sketch run
    /// across a whole pool, whose cost and modelled makespan are pool-wide):
    /// it advances the phase clock and feeds the device's recorder exactly as
    /// a phase run through [`Profiler::phase`] does.
    pub fn record(&mut self, record: PhaseRecord) {
        let mut state = self.state.borrow_mut();
        if let Some(parent) = state.active.last_mut() {
            parent.child_wall += record.wall_seconds;
        }
        self.push(&mut state, record);
    }

    /// Close the innermost open span: derive its record, feed it to the
    /// device's recorder, and charge its wall time to the parent span.
    fn exit_innermost(&self) {
        let mut state = self.state.borrow_mut();
        let Some(open) = state.active.pop() else {
            return;
        };
        let elapsed = open.watch.elapsed_seconds();
        let wall = (elapsed - open.child_wall).max(0.0);
        if let Some(parent) = state.active.last_mut() {
            parent.child_wall += elapsed;
        }
        let cost = self.device.tracker().snapshot() - open.start_cost;
        let record = PhaseRecord {
            phase: open.phase,
            cost,
            model_seconds: self.device.model_time(&cost),
            wall_seconds: wall,
        };
        self.push(&mut state, record);
    }

    /// Lay `record` on the phase clock, emit its Phase-track span, and append it.
    fn push(&self, state: &mut ProfilerState, record: PhaseRecord) {
        let start = state.phase_clock;
        state.phase_clock = start + record.model_seconds;
        if let Some(recorder) = self.device.recorder() {
            recorder.record(TraceEvent {
                name: record.phase.label().to_string(),
                device: self.device.ordinal(),
                track: Track::Phase,
                sim: Some((start, state.phase_clock)),
                wall_ns: (record.wall_seconds * 1e9) as u64,
                cost: record.cost.into(),
            });
        }
        state.breakdown.phases.push(record);
    }

    /// Finish and return the breakdown.
    pub fn finish(self) -> RunBreakdown {
        self.state.into_inner().breakdown
    }
}

/// Guard for an open profiler phase; dropping it captures the record.
#[derive(Debug)]
pub struct PhaseSpan<'p, 'a> {
    profiler: &'p Profiler<'a>,
}

impl Drop for PhaseSpan<'_, '_> {
    fn drop(&mut self) {
        self.profiler.exit_innermost();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_match_figure5_legend() {
        assert_eq!(Phase::GramMatrix.label(), "Gram matrix");
        assert_eq!(Phase::ATransposeB.label(), "AT*b");
        assert_eq!(Phase::SketchGen.label(), "Sketch gen");
        assert_eq!(Phase::MatrixSketch.label(), "Matrix sketch");
        assert_eq!(Phase::VectorSketch.label(), "Vector sketch");
        assert_eq!(Phase::Potrf.label(), "POTRF");
        assert_eq!(Phase::Geqrf.label(), "GEQRF");
        assert_eq!(Phase::Ormqr.label(), "ORMQR");
        assert_eq!(Phase::Trsv.label(), "TRSV");
        assert_eq!(Phase::Trsm.label(), "TRSM");
        assert_eq!(Phase::Other("custom").label(), "custom");
    }

    #[test]
    fn profiler_records_cost_deltas_per_phase() {
        let device = Device::h100();
        let mut prof = Profiler::new(&device);
        prof.phase(Phase::MatrixSketch, || {
            device.record(KernelCost::new(1000, 500, 100, 1));
        });
        prof.phase(Phase::Geqrf, || {
            device.record(KernelCost::new(10, 10, 10_000, 1));
        });
        let breakdown = prof.finish();
        assert_eq!(breakdown.phases.len(), 2);
        assert_eq!(breakdown.phases[0].cost.bytes_read, 1000);
        assert_eq!(breakdown.phases[1].cost.flops, 10_000);
        assert!(breakdown.total_model_seconds() > 0.0);
        assert!(breakdown.total_wall_seconds() >= 0.0);
        assert_eq!(breakdown.total_cost().launches, 2);
    }

    #[test]
    fn model_seconds_of_sums_repeated_phases() {
        let device = Device::h100();
        let mut prof = Profiler::new(&device);
        for _ in 0..3 {
            prof.phase(Phase::Trsv, || {
                device.record(KernelCost::new(800, 800, 100, 1));
            });
        }
        let b = prof.finish();
        let single = b.phases[0].model_seconds;
        assert!((b.model_seconds_of(Phase::Trsv) - 3.0 * single).abs() < 1e-12);
        assert_eq!(b.model_seconds_of(Phase::Potrf), 0.0);
    }

    #[test]
    fn extend_concatenates_breakdowns() {
        let device = Device::h100();
        let mut p1 = Profiler::new(&device);
        p1.phase(Phase::SketchGen, || {
            device.record(KernelCost::new(8, 8, 1, 1))
        });
        let mut b1 = p1.finish();

        let mut p2 = Profiler::new(&device);
        p2.phase(Phase::MatrixSketch, || {
            device.record(KernelCost::new(8, 8, 1, 1))
        });
        let b2 = p2.finish();

        b1.extend(b2);
        assert_eq!(b1.phases.len(), 2);
        assert_eq!(b1.phases[1].phase, Phase::MatrixSketch);
    }

    #[test]
    fn reentrant_phases_never_double_count_wall_time() {
        // Regression: the same Phase entered twice with overlapping lifetimes
        // (per-shard sketch apply inside a driver phase).  The old capture
        // took two independent `Instant` windows, so the inner window's time
        // was counted twice in total_wall_seconds.  Exclusive accounting must
        // keep the total at (roughly) the true elapsed time.
        let device = Device::h100();
        let prof = Profiler::new(&device);
        let total = Stopwatch::start();
        {
            let _outer = prof.enter(Phase::MatrixSketch);
            device.record(KernelCost::new(100, 100, 10, 1));
            {
                let _inner = prof.enter(Phase::MatrixSketch);
                device.record(KernelCost::new(50, 50, 5, 1));
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
        let elapsed = total.elapsed_seconds();
        let b = prof.finish();
        assert_eq!(b.phases.len(), 2, "each entry still yields its own record");
        // Completion order: the inner span closes first; the outer cost delta
        // includes the nested kernel (cost nests, wall time does not).
        assert_eq!(b.phases[0].cost.launches, 1);
        assert_eq!(b.phases[1].cost.launches, 2);
        for p in &b.phases {
            assert!(p.wall_seconds >= 0.0);
        }
        // Double counting would make the sum exceed the true elapsed time by
        // the inner sleep (~10ms); exclusive accounting keeps it at <= elapsed
        // (plus bookkeeping noise well under a millisecond).
        assert!(
            b.total_wall_seconds() <= elapsed + 1e-3,
            "wall sum {} exceeds elapsed {}",
            b.total_wall_seconds(),
            elapsed
        );
        // The inner sleep is inside exactly one record, so the sum is also at
        // least the sleep duration.
        assert!(b.total_wall_seconds() >= 10e-3 - 1e-4);
    }

    #[test]
    fn sequential_reentry_still_yields_one_record_per_entry() {
        let device = Device::h100();
        let mut prof = Profiler::new(&device);
        for _ in 0..2 {
            prof.phase(Phase::MatrixSketch, || {
                device.record(KernelCost::new(100, 100, 10, 1));
            });
        }
        let b = prof.finish();
        assert_eq!(b.phases.len(), 2);
        assert_eq!(b.phases[0].cost, b.phases[1].cost);
        assert!(b.phases.iter().all(|p| p.wall_seconds >= 0.0));
    }

    #[test]
    fn phases_feed_the_device_recorder_as_spans() {
        let device = Device::h100();
        let collector = sketch_obs::TraceCollector::shared();
        device.set_recorder(Some(collector.clone()));
        let mut prof = Profiler::new(&device);
        prof.phase(Phase::SketchGen, || {
            device.record(KernelCost::new(1 << 20, 1 << 20, 1 << 10, 1));
        });
        prof.phase(Phase::MatrixSketch, || {
            device.record(KernelCost::new(1 << 21, 1 << 20, 1 << 12, 1));
        });
        let b = prof.finish();
        let events = collector.snapshot();
        assert_eq!(events.len(), 2);
        // The span IS the record: same names, same modelled durations, laid
        // end-to-end on the profiler's deterministic phase clock.
        assert_eq!(events[0].name, "Sketch gen");
        assert_eq!(events[1].name, "Matrix sketch");
        let (s0, e0) = events[0].sim.unwrap();
        let (s1, e1) = events[1].sim.unwrap();
        assert_eq!(s0, 0.0);
        assert_eq!(e0 - s0, b.phases[0].model_seconds);
        assert_eq!(s1, e0);
        assert_eq!(e1 - s1, b.phases[1].model_seconds);
        assert_eq!(events[0].track, sketch_obs::Track::Phase);
        assert_eq!(events[1].cost.flops, 1 << 12);
    }

    #[test]
    fn breakdown_is_identical_with_and_without_a_recorder() {
        // The Figure-5 acceptance criterion: attaching the trace layer must
        // not perturb the Profiler output at all.
        let run = |device: &Device| {
            let mut prof = Profiler::new(device);
            prof.phase(Phase::GramMatrix, || {
                device.record(KernelCost::new(4096, 64, 1 << 14, 1));
            });
            prof.phase(Phase::Potrf, || {
                device.record(KernelCost::new(512, 512, 1 << 10, 3));
            });
            prof.finish()
        };
        let bare = Device::h100();
        let without = run(&bare);
        let traced = Device::h100();
        traced.set_recorder(Some(sketch_obs::TraceCollector::shared()));
        let with = run(&traced);
        assert_eq!(without.phases.len(), with.phases.len());
        for (a, b) in without.phases.iter().zip(&with.phases) {
            assert_eq!(a.phase, b.phase);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.model_seconds.to_bits(), b.model_seconds.to_bits());
        }
    }

    #[test]
    fn profiler_passes_through_return_values() {
        let device = Device::h100();
        let mut prof = Profiler::new(&device);
        let value = prof.phase(Phase::Other("compute"), || 42);
        assert_eq!(value, 42);
        assert!(std::ptr::eq(prof.device(), &device));
    }
}
