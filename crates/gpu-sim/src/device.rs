//! Device specifications and the [`Device`] handle shared by every kernel.

use crate::counters::{CostTracker, KernelCost};
use crate::fault::{DeviceFailed, FaultSpec};
use crate::memory::{MemoryError, MemoryTracker, Reservation};
use crate::roofline::RooflineModel;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sketch_obs::{CostBreakdown, Recorder, TraceEvent, Track};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Published peak characteristics of the accelerator being modelled.
///
/// The defaults follow NVIDIA's public datasheets; the efficiency factor captures the
/// fact that real streaming kernels do not achieve the full theoretical bandwidth (the
/// paper's own best kernels plateau at 50–70 % of peak, Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human readable name used in reports.
    pub name: &'static str,
    /// Peak global memory bandwidth in bytes per second.
    pub peak_bandwidth_bytes_per_s: f64,
    /// Peak double precision throughput in FLOP/s (without tensor cores, as used by
    /// cuBLAS DGEMM on FP64 data).
    pub peak_flops_f64: f64,
    /// Device memory capacity in bytes (used to reproduce the out-of-memory behaviour
    /// of the Gaussian sketch at the largest problem sizes).
    pub memory_bytes: u64,
    /// Fixed overhead charged per kernel launch, in seconds.
    pub kernel_launch_overhead_s: f64,
    /// Fraction of peak bandwidth a well-written streaming kernel actually sustains.
    pub streaming_efficiency: f64,
    /// Fraction of peak FLOP/s a well-written GEMM actually sustains.
    pub gemm_efficiency: f64,
}

impl DeviceSpec {
    /// NVIDIA H100 SXM5 80 GB — the device used throughout the paper's evaluation.
    pub const fn h100() -> Self {
        Self {
            name: "NVIDIA H100 SXM5 80GB (modelled)",
            // 3.35 TB/s HBM3.
            peak_bandwidth_bytes_per_s: 3.35e12,
            // 34 TFLOP/s FP64 (non tensor-core).
            peak_flops_f64: 34.0e12,
            memory_bytes: 80 * (1 << 30),
            kernel_launch_overhead_s: 5.0e-6,
            streaming_efficiency: 0.85,
            gemm_efficiency: 0.80,
        }
    }

    /// NVIDIA A100 SXM4 80 GB — the device used by the rand_cholQR paper the authors
    /// compare against; provided for cross-checking.
    pub const fn a100() -> Self {
        Self {
            name: "NVIDIA A100 SXM4 80GB (modelled)",
            peak_bandwidth_bytes_per_s: 2.039e12,
            peak_flops_f64: 9.7e12,
            memory_bytes: 80 * (1 << 30),
            kernel_launch_overhead_s: 5.0e-6,
            streaming_efficiency: 0.85,
            gemm_efficiency: 0.80,
        }
    }

    /// A modest host CPU, useful when interpreting the measured wall-clock numbers that
    /// accompany the modelled device times in the benchmark reports.
    pub const fn host_cpu() -> Self {
        Self {
            name: "host CPU (modelled)",
            peak_bandwidth_bytes_per_s: 5.0e10,
            peak_flops_f64: 1.0e11,
            memory_bytes: 16 * (1 << 30),
            kernel_launch_overhead_s: 1.0e-7,
            streaming_efficiency: 0.7,
            gemm_efficiency: 0.7,
        }
    }

    /// A spec with effectively unlimited memory, used by tests that should never hit
    /// the modelled OOM path.
    pub const fn unlimited() -> Self {
        let mut spec = Self::h100();
        spec.memory_bytes = u64::MAX;
        spec
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self::h100()
    }
}

/// A handle to the simulated device: spec + cost counters + memory tracker.
///
/// The handle is `Send + Sync`; kernels take `&Device` and record their costs into it.
///
/// A [`Recorder`] can be attached
/// ([`Device::set_recorder`]); labelled kernels entered through
/// [`Device::launch`] then emit [`TraceEvent`]s on the device's serial
/// modelled clock.  The default is no recorder: the hot-path overhead is one
/// relaxed atomic load, and no event is allocated or built.
#[derive(Debug, Default)]
pub struct Device {
    spec: DeviceSpec,
    tracker: CostTracker,
    memory: MemoryTracker,
    ordinal: usize,
    recording: AtomicBool,
    recorder: Mutex<Option<Arc<dyn Recorder>>>,
    kernel_clock: Mutex<f64>,
    fault: Mutex<Option<FaultSpec>>,
    failed: AtomicBool,
}

impl From<KernelCost> for CostBreakdown {
    fn from(cost: KernelCost) -> Self {
        CostBreakdown {
            bytes_read: cost.bytes_read,
            bytes_written: cost.bytes_written,
            flops: cost.flops,
            launches: cost.launches,
            comm_bytes: 0,
        }
    }
}

impl Device {
    /// Create a device from an explicit spec.
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            memory: MemoryTracker::new(spec.memory_bytes),
            tracker: CostTracker::new(),
            spec,
            ordinal: 0,
            recording: AtomicBool::new(false),
            recorder: Mutex::new(None),
            kernel_clock: Mutex::new(0.0),
            fault: Mutex::new(None),
            failed: AtomicBool::new(false),
        }
    }

    /// Create a device with an explicit pool position (used by `DevicePool` so
    /// trace events carry the right device id).
    pub fn with_ordinal(spec: DeviceSpec, ordinal: usize) -> Self {
        let mut device = Self::new(spec);
        device.ordinal = ordinal;
        device
    }

    /// The H100 used in the paper.
    pub fn h100() -> Self {
        Self::new(DeviceSpec::h100())
    }

    /// An A100 for cross-checks.
    pub fn a100() -> Self {
        Self::new(DeviceSpec::a100())
    }

    /// A device that never reports out-of-memory; convenient in unit tests.
    pub fn unlimited() -> Self {
        Self::new(DeviceSpec::unlimited())
    }

    /// The spec this device was built with.
    #[inline]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The cost tracker accumulating every kernel executed on this device.
    #[inline]
    pub fn tracker(&self) -> &CostTracker {
        &self.tracker
    }

    /// The memory tracker modelling device memory capacity.
    #[inline]
    pub fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    /// This device's position in its pool (0 for a standalone device).
    #[inline]
    pub fn ordinal(&self) -> usize {
        self.ordinal
    }

    /// Attach (or with `None` detach) the recorder labelled kernels and
    /// profiler phases emit into.  A disabled recorder (e.g.
    /// [`sketch_obs::NoopRecorder`]) keeps the hot path event-free.
    pub fn set_recorder(&self, recorder: Option<Arc<dyn Recorder>>) {
        let enabled = recorder.as_ref().is_some_and(|r| r.enabled());
        *self.recorder.lock() = recorder;
        self.recording.store(enabled, Ordering::Release);
    }

    /// The attached recorder, if any (and enabled).
    pub fn recorder(&self) -> Option<Arc<dyn Recorder>> {
        if !self.recording() {
            return None;
        }
        self.recorder.lock().clone()
    }

    /// Whether an enabled recorder is attached (one relaxed atomic load).
    #[inline]
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Current position of the device's serial modelled kernel clock, in
    /// seconds: the sum of the modelled times of every [`Device::launch`] so
    /// far.  Deterministic — it advances only by roofline times.
    pub fn kernel_clock(&self) -> f64 {
        *self.kernel_clock.lock()
    }

    /// Record a kernel cost.
    #[inline]
    pub fn record(&self, cost: KernelCost) {
        self.tracker.record(cost);
    }

    /// Record a *labelled* kernel cost: identical to [`Device::record`], plus,
    /// when an enabled recorder is attached, a [`TraceEvent`] on the device's
    /// serial kernel track (`Track::Kernel`), spanning the kernel's modelled
    /// time on the device's [`Device::kernel_clock`].
    ///
    /// Without a recorder this is exactly `record` plus one relaxed atomic
    /// load — no allocation, no lock.
    #[inline]
    pub fn launch(&self, label: &str, cost: KernelCost) {
        self.tracker.record(cost);
        if self.recording() {
            self.emit_kernel_span(label, cost);
        }
    }

    #[cold]
    fn emit_kernel_span(&self, label: &str, cost: KernelCost) {
        let Some(recorder) = self.recorder.lock().clone() else {
            return;
        };
        let duration = self.model_time(&cost);
        let (start, end) = {
            let mut clock = self.kernel_clock.lock();
            let start = *clock;
            *clock = start + duration;
            (start, *clock)
        };
        recorder.record(TraceEvent {
            name: label.to_string(),
            device: self.ordinal,
            track: Track::Kernel,
            sim: Some((start, end)),
            wall_ns: 0,
            cost: cost.into(),
        });
    }

    /// Inject (or with `None` clear) this device's fault.  Clearing or
    /// replacing a fault also resets the sticky [`Device::is_failed`] flag —
    /// re-applying a [`crate::FaultPlan`] starts a fresh run's fault clocks.
    pub fn set_fault(&self, fault: Option<FaultSpec>) {
        *self.fault.lock() = fault;
        self.failed.store(false, Ordering::Release);
    }

    /// The injected fault, if any.
    pub fn fault(&self) -> Option<FaultSpec> {
        *self.fault.lock()
    }

    /// Multiplier on this device's modelled kernel times (1.0 when healthy —
    /// see [`FaultSpec::time_scale`]).
    pub fn time_scale(&self) -> f64 {
        self.fault.lock().map_or(1.0, |f| f.time_scale())
    }

    /// Multiplier on this device's modelled interconnect hops (1.0 when
    /// healthy — see [`FaultSpec::link_scale`]).
    pub fn link_scale(&self) -> f64 {
        self.fault.lock().map_or(1.0, |f| f.link_scale())
    }

    /// The simulated instant this device dies, if a [`FaultSpec::Dies`] fault
    /// is injected.
    pub fn death_time(&self) -> Option<f64> {
        self.fault.lock().and_then(|f| f.death_time())
    }

    /// Modelled execution time of `cost` on this device *including* any
    /// injected straggler slowdown.
    ///
    /// The healthy path multiplies by exactly `1.0`, so a
    /// [`FaultSpec::Straggler`] with factor 1.0 is bit-identical to no fault
    /// at all (pinned by the fault proptests).
    #[inline]
    pub fn scaled_time(&self, cost: &KernelCost) -> f64 {
        self.model_time(cost) * self.time_scale()
    }

    /// Check that the device survives to simulated instant `at_sim_seconds`.
    ///
    /// A [`FaultSpec::Dies`] fault kills the device strictly *after* its
    /// death instant: an operation ending exactly at `after_sim_seconds`
    /// still completes.  On failure the sticky [`Device::is_failed`] flag is
    /// set, so schedulers can retire the device without re-deriving the
    /// timeline.
    pub fn check_alive(&self, at_sim_seconds: f64) -> Result<(), DeviceFailed> {
        if let Some(death) = self.death_time() {
            if at_sim_seconds > death {
                self.failed.store(true, Ordering::Release);
                return Err(DeviceFailed {
                    ordinal: self.ordinal,
                    after_sim_seconds: death,
                });
            }
        }
        Ok(())
    }

    /// Whether a [`Device::check_alive`] has already observed this device's
    /// death.  Death is permanent for the lifetime of the injected fault: the
    /// flag clears only when the fault is replaced via [`Device::set_fault`].
    #[inline]
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Reserve `bytes` of modelled device memory, failing like `cudaMalloc` would.
    pub fn try_reserve(&self, bytes: u64) -> Result<Reservation<'_>, MemoryError> {
        self.memory.try_reserve(bytes)
    }

    /// The roofline model for this device.
    #[inline]
    pub fn roofline(&self) -> RooflineModel {
        RooflineModel::new(self.spec)
    }

    /// Modelled execution time of a kernel cost on this device, in seconds.
    #[inline]
    pub fn model_time(&self, cost: &KernelCost) -> f64 {
        self.roofline().time(cost)
    }

    /// Percent of peak memory bandwidth achieved by `cost` if it ran in `seconds`.
    #[inline]
    pub fn percent_peak_bandwidth(&self, cost: &KernelCost, seconds: f64) -> f64 {
        self.roofline().percent_peak_bandwidth(cost, seconds)
    }

    /// Percent of peak FP64 throughput achieved by `cost` if it ran in `seconds`.
    #[inline]
    pub fn percent_peak_flops(&self, cost: &KernelCost, seconds: f64) -> f64 {
        self.roofline().percent_peak_flops(cost, seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_relationships() {
        let h100 = DeviceSpec::h100();
        let a100 = DeviceSpec::a100();
        assert!(h100.peak_bandwidth_bytes_per_s > a100.peak_bandwidth_bytes_per_s);
        assert!(h100.peak_flops_f64 > a100.peak_flops_f64);
        assert_eq!(h100.memory_bytes, 80 * (1 << 30));
    }

    #[test]
    fn device_records_costs() {
        let d = Device::h100();
        d.record(KernelCost::new(8, 8, 2, 1));
        d.record(KernelCost::new(8, 0, 1, 1));
        let snap = d.tracker().snapshot();
        assert_eq!(snap.bytes_read, 16);
        assert_eq!(snap.bytes_written, 8);
        assert_eq!(snap.flops, 3);
        assert_eq!(snap.launches, 2);
    }

    #[test]
    fn device_memory_reservation_fails_beyond_capacity() {
        let d = Device::h100();
        assert!(d.try_reserve(1 << 30).is_ok());
        assert!(d.try_reserve(100 * (1 << 30)).is_err());
    }

    #[test]
    fn unlimited_device_never_ooms() {
        let d = Device::unlimited();
        assert!(d.try_reserve(u64::MAX / 2).is_ok());
    }

    #[test]
    fn model_time_positive_for_nonzero_cost() {
        let d = Device::h100();
        let t = d.model_time(&KernelCost::new(1 << 20, 1 << 20, 1 << 10, 1));
        assert!(t > 0.0);
    }

    #[test]
    fn launch_without_recorder_only_records_cost() {
        let d = Device::h100();
        assert!(!d.recording());
        d.launch("gemm", KernelCost::new(8, 8, 2, 1));
        assert_eq!(d.tracker().snapshot().launches, 1);
        assert_eq!(d.kernel_clock(), 0.0);
        assert!(d.recorder().is_none());
    }

    #[test]
    fn noop_recorder_keeps_the_hot_path_disabled() {
        let d = Device::h100();
        d.set_recorder(Some(Arc::new(sketch_obs::NoopRecorder)));
        assert!(!d.recording());
        d.launch("gemm", KernelCost::new(8, 8, 2, 1));
        assert_eq!(d.kernel_clock(), 0.0);
    }

    #[test]
    fn healthy_device_has_unit_scales_and_never_dies() {
        let d = Device::h100();
        assert_eq!(d.fault(), None);
        assert_eq!(d.time_scale(), 1.0);
        assert_eq!(d.link_scale(), 1.0);
        assert_eq!(d.death_time(), None);
        assert!(!d.is_failed());
        assert!(d.check_alive(f64::MAX).is_ok());
        let cost = KernelCost::new(1 << 20, 1 << 20, 1 << 10, 1);
        // The healthy scaled time is *bit-identical* to the raw model time.
        assert_eq!(
            d.scaled_time(&cost).to_bits(),
            d.model_time(&cost).to_bits()
        );
    }

    #[test]
    fn straggler_scales_kernel_times() {
        let d = Device::h100();
        d.set_fault(Some(FaultSpec::Straggler {
            slowdown_factor: 4.0,
        }));
        let cost = KernelCost::new(1 << 20, 1 << 20, 1 << 10, 1);
        assert_eq!(d.scaled_time(&cost), 4.0 * d.model_time(&cost));
        assert_eq!(d.time_scale(), 4.0);
        // Stragglers are slow, not dead.
        assert!(d.check_alive(f64::MAX).is_ok());
        assert!(!d.is_failed());
    }

    #[test]
    fn death_is_sticky_until_the_fault_is_replaced() {
        let d = Device::with_ordinal(DeviceSpec::h100(), 2);
        d.set_fault(Some(FaultSpec::Dies {
            after_sim_seconds: 1.0,
        }));
        // Ending exactly at the death instant still completes.
        assert!(d.check_alive(1.0).is_ok());
        assert!(!d.is_failed());
        let err = d.check_alive(1.5).unwrap_err();
        assert_eq!(err.ordinal, 2);
        assert_eq!(err.after_sim_seconds, 1.0);
        assert!(d.is_failed());
        // Death is permanent: even an early operation now sees a failed flag.
        assert!(d.is_failed());
        // Re-applying a plan resets the run's fault clocks.
        d.set_fault(Some(FaultSpec::Dies {
            after_sim_seconds: 1.0,
        }));
        assert!(!d.is_failed());
        d.set_fault(None);
        assert!(d.check_alive(f64::MAX).is_ok());
    }

    #[test]
    fn launch_emits_sequential_kernel_spans() {
        let d = Device::with_ordinal(DeviceSpec::h100(), 3);
        assert_eq!(d.ordinal(), 3);
        let collector = sketch_obs::TraceCollector::shared();
        d.set_recorder(Some(collector.clone()));
        assert!(d.recording());
        let cost = KernelCost::new(1 << 20, 1 << 20, 1 << 10, 1);
        d.launch("k0", cost);
        d.launch("k1", cost);
        let events = collector.snapshot();
        assert_eq!(events.len(), 2);
        let t = d.model_time(&cost);
        assert_eq!(events[0].sim, Some((0.0, t)));
        assert_eq!(events[1].sim, Some((t, 2.0 * t)));
        assert_eq!(events[0].device, 3);
        assert_eq!(events[0].track, Track::Kernel);
        assert_eq!(events[0].cost.flops, 1 << 10);
        assert_eq!(d.kernel_clock(), 2.0 * t);
        // Detaching stops emission and re-disables the fast path.
        d.set_recorder(None);
        d.launch("k2", cost);
        assert_eq!(collector.len(), 2);
    }
}
