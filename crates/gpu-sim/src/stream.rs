//! Simulated streams, events and the execution [`Timeline`].
//!
//! Real multi-GPU pipelines hide communication behind compute by enqueueing kernels
//! and NCCL collectives on separate CUDA streams and expressing cross-stream
//! dependencies with events (`cudaEventRecord` / `cudaStreamWaitEvent`).  This module
//! reproduces that machinery on the modelled clock: a [`SimStream`] is an ordered
//! queue with a cursor in simulated seconds, an [`Event`] is a completion timestamp
//! another stream can wait on, and a [`StreamSet`] owns one compute stream and one
//! communication stream per device plus the [`Timeline`] of everything that ran.
//!
//! The scheduling rule is the CUDA one: an operation starts at the maximum of its
//! stream's cursor (in-order streams) and every event it waits on, and finishes
//! `duration` later.  Nothing here executes numerics — the executor in `sketch-dist`
//! computes each stage for real and uses this module only to answer "when would
//! its shards have run on real hardware".
//!
//! ```
//! use sketch_gpu_sim::{StreamKind, StreamSet};
//!
//! // Two devices; overlap device 1's communication with device 0's compute.
//! let mut set = StreamSet::new(2);
//! let c0 = set.enqueue(0, StreamKind::Compute, "k0", &[], 2.0);
//! let m0 = set.enqueue(0, StreamKind::Comm, "send0", &[c0], 1.0);
//! let c1 = set.enqueue(1, StreamKind::Compute, "k1", &[], 2.5);
//! let _m1 = set.enqueue(1, StreamKind::Comm, "send1", &[c1, m0], 1.0);
//! let timeline = set.finish();
//! assert_eq!(timeline.makespan(), 4.0);          // send1 waits for send0 (ring order)
//! assert_eq!(timeline.serial_seconds(), 6.5);    // what a single stream would take
//! assert!(timeline.utilization(0) > 0.0);
//! ```

/// A completion timestamp on the simulated clock, recorded when an operation is
/// enqueued and waitable from any stream (the `cudaEvent` analogue).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time (seconds) at which the recorded operation completes.
    pub at: f64,
}

impl Event {
    /// An event that is already complete at time zero (waiting on it is a no-op).
    pub const fn ready() -> Self {
        Self { at: 0.0 }
    }
}

/// Which of a device's two streams an operation ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// The kernel-execution stream.
    Compute,
    /// The communication (interconnect) stream.
    Comm,
}

/// One in-order operation queue with a cursor in simulated seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStream {
    cursor: f64,
}

impl SimStream {
    /// A fresh stream with its cursor at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time at which the last enqueued operation completes.
    pub fn cursor(&self) -> f64 {
        self.cursor
    }

    /// When an operation waiting for `waits` (cross-stream events) and for every
    /// earlier operation on this stream would start: the latest of the cursor and
    /// the events.  A pure query; [`SimStream::enqueue`] starts its operation here.
    pub fn start(&self, waits: &[Event]) -> f64 {
        waits
            .iter()
            .fold(self.cursor, |acc, event| acc.max(event.at))
    }

    /// Enqueue an operation that starts at [`SimStream::start`] of `waits` and
    /// runs for `duration` seconds.
    ///
    /// Returns `(start, end)`; the stream cursor advances to `end`.
    pub fn enqueue(&mut self, waits: &[Event], duration: f64) -> (f64, f64) {
        let start = self.start(waits);
        let end = start + duration.max(0.0);
        self.cursor = end;
        (start, end)
    }
}

/// One scheduled operation in a [`Timeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Pool index of the device the operation ran on.
    pub device: usize,
    /// Which of the device's streams it ran on.
    pub stream: StreamKind,
    /// Human-readable label ("CountSketch shard 3", "allreduce fold 3", …).
    pub label: String,
    /// Simulated start time in seconds.
    pub start: f64,
    /// Simulated completion time in seconds.
    pub end: f64,
    /// What the operation read, wrote, computed and moved over the interconnect.
    pub cost: sketch_obs::CostBreakdown,
}

impl TimelineEntry {
    /// Duration of the operation in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The operation as a costed [`sketch_obs::TraceEvent`] on its
    /// device×stream sim track.
    pub fn trace_event(&self) -> sketch_obs::TraceEvent {
        sketch_obs::TraceEvent {
            name: self.label.clone(),
            device: self.device,
            track: match self.stream {
                StreamKind::Compute => sketch_obs::Track::Compute,
                StreamKind::Comm => sketch_obs::Track::Comm,
            },
            sim: Some((self.start, self.end)),
            wall_ns: 0,
            cost: self.cost,
        }
    }
}

/// The complete record of a simulated multi-device execution.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    entries: Vec<TimelineEntry>,
    devices: usize,
}

impl Timeline {
    /// An empty timeline spanning `devices` devices — the starting point for
    /// a service-level timeline that merges per-job runs with
    /// [`Timeline::merge_shifted`].
    pub fn with_devices(devices: usize) -> Self {
        Self {
            entries: Vec::new(),
            devices,
        }
    }

    /// Merge another timeline into this one, shifting every entry forward by
    /// `offset_s` seconds, remapping its device positions through
    /// `device_map` (`device_map[i]` is the position in *this* timeline of the
    /// other timeline's device `i`) and prefixing its labels with
    /// `label_prefix`.
    ///
    /// This is the modelled cluster clock: a job scheduled at `offset_s` on a
    /// device subset contributes its per-job timeline to the service-level
    /// view, on the physical device rows it actually occupied, under the
    /// job's name.
    ///
    /// # Panics
    /// Panics if `device_map` is shorter than the other timeline's device
    /// count, or maps to a position outside this timeline.
    pub fn merge_shifted(
        &mut self,
        other: &Timeline,
        offset_s: f64,
        device_map: &[usize],
        label_prefix: &str,
    ) {
        assert!(
            device_map.len() >= other.num_devices(),
            "device_map covers every device of the merged timeline"
        );
        for entry in other.entries() {
            let device = device_map[entry.device];
            assert!(
                device < self.devices,
                "device_map stays inside the target timeline"
            );
            self.entries.push(TimelineEntry {
                device,
                stream: entry.stream,
                label: format!("{label_prefix}{}", entry.label),
                start: entry.start + offset_s,
                end: entry.end + offset_s,
                cost: entry.cost,
            });
        }
    }

    /// The scheduled operations, in enqueue order.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }

    /// Number of devices the timeline spans.
    pub fn num_devices(&self) -> usize {
        self.devices
    }

    /// Completion time of the last operation (the pipelined makespan), in seconds.
    pub fn makespan(&self) -> f64 {
        self.entries.iter().fold(0.0, |acc, e| acc.max(e.end))
    }

    /// Sum of every operation's duration — the makespan a single device with a single
    /// stream (no overlap at all) would need, in seconds.
    pub fn serial_seconds(&self) -> f64 {
        self.entries.iter().map(TimelineEntry::duration).sum()
    }

    /// Total duration of operations of one stream kind, in seconds.
    pub fn seconds_of(&self, kind: StreamKind) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.stream == kind)
            .map(TimelineEntry::duration)
            .sum()
    }

    /// Seconds during which `device` had at least one stream busy (union of its
    /// compute and comm intervals).
    pub fn busy_seconds(&self, device: usize) -> f64 {
        let mut intervals: Vec<(f64, f64)> = self
            .entries
            .iter()
            .filter(|e| e.device == device && e.end > e.start)
            .map(|e| (e.start, e.end))
            .collect();
        intervals.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let mut busy = 0.0;
        let mut current: Option<(f64, f64)> = None;
        for (s, e) in intervals {
            match current {
                Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    busy += ce - cs;
                    current = Some((s, e));
                }
                None => current = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = current {
            busy += ce - cs;
        }
        busy
    }

    /// Fraction of the makespan during which `device` was busy (0 when nothing ran).
    pub fn utilization(&self, device: usize) -> f64 {
        let makespan = self.makespan();
        if makespan <= 0.0 {
            return 0.0;
        }
        self.busy_seconds(device) / makespan
    }

    /// Per-device utilization, indexed by pool position.
    pub fn utilizations(&self) -> Vec<f64> {
        (0..self.devices).map(|d| self.utilization(d)).collect()
    }
}

/// One compute stream and one comm stream per device, plus the shared timeline.
#[derive(Debug, Clone, Default)]
pub struct StreamSet {
    compute: Vec<SimStream>,
    comm: Vec<SimStream>,
    timeline: Timeline,
}

impl StreamSet {
    /// Create streams for `devices` devices.
    pub fn new(devices: usize) -> Self {
        Self {
            compute: vec![SimStream::new(); devices],
            comm: vec![SimStream::new(); devices],
            timeline: Timeline {
                entries: Vec::new(),
                devices,
            },
        }
    }

    /// Number of devices this set schedules for.
    pub fn num_devices(&self) -> usize {
        self.compute.len()
    }

    /// Enqueue an operation on `device`'s `kind` stream, waiting on `waits`, running
    /// for `duration` seconds.  Records a [`TimelineEntry`] and returns the
    /// completion [`Event`].
    ///
    /// # Panics
    /// Panics if `device` is out of range.
    pub fn enqueue(
        &mut self,
        device: usize,
        kind: StreamKind,
        label: impl Into<String>,
        waits: &[Event],
        duration: f64,
    ) -> Event {
        self.enqueue_costed(
            device,
            kind,
            label,
            waits,
            duration,
            sketch_obs::CostBreakdown::default(),
        )
    }

    /// [`StreamSet::enqueue`] carrying the operation's cost counters into its
    /// [`TimelineEntry`] (and so into its [`TimelineEntry::trace_event`]).
    pub fn enqueue_costed(
        &mut self,
        device: usize,
        kind: StreamKind,
        label: impl Into<String>,
        waits: &[Event],
        duration: f64,
        cost: sketch_obs::CostBreakdown,
    ) -> Event {
        let stream = match kind {
            StreamKind::Compute => &mut self.compute[device],
            StreamKind::Comm => &mut self.comm[device],
        };
        let (start, end) = stream.enqueue(waits, duration);
        self.timeline.entries.push(TimelineEntry {
            device,
            stream: kind,
            label: label.into(),
            start,
            end,
            cost,
        });
        Event { at: end }
    }

    /// `device`'s `kind` stream, to ask when an operation would start
    /// ([`SimStream::start`]) before enqueueing it.
    ///
    /// # Panics
    /// Panics if `device` is out of range.
    pub fn stream(&self, device: usize, kind: StreamKind) -> &SimStream {
        match kind {
            StreamKind::Compute => &self.compute[device],
            StreamKind::Comm => &self.comm[device],
        }
    }

    /// Consume the set and return the recorded timeline.
    pub fn finish(self) -> Timeline {
        self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_serialises_its_own_operations() {
        let mut s = SimStream::new();
        let (a0, a1) = s.enqueue(&[], 2.0);
        assert_eq!((a0, a1), (0.0, 2.0));
        let (b0, b1) = s.enqueue(&[], 1.5);
        assert_eq!((b0, b1), (2.0, 3.5));
        assert_eq!(s.cursor(), 3.5);
    }

    #[test]
    fn events_delay_starts_across_streams() {
        let mut a = SimStream::new();
        let mut b = SimStream::new();
        let (_, a_end) = a.enqueue(&[], 4.0);
        let (b_start, _) = b.enqueue(&[Event { at: a_end }], 1.0);
        assert_eq!(b_start, 4.0);
        // A ready event never delays anything.
        let (c_start, _) = b.enqueue(&[Event::ready()], 1.0);
        assert_eq!(c_start, 5.0);
    }

    #[test]
    fn negative_durations_are_clamped() {
        let mut s = SimStream::new();
        let (start, end) = s.enqueue(&[], -3.0);
        assert_eq!(start, end);
    }

    #[test]
    fn timeline_makespan_and_serial_time() {
        let mut set = StreamSet::new(2);
        let c0 = set.enqueue(0, StreamKind::Compute, "k0", &[], 3.0);
        set.enqueue(1, StreamKind::Compute, "k1", &[], 2.0);
        set.enqueue(0, StreamKind::Comm, "m0", &[c0], 1.0);
        let t = set.finish();
        assert_eq!(t.makespan(), 4.0); // dev0 compute then comm
        assert_eq!(t.serial_seconds(), 6.0);
        assert_eq!(t.seconds_of(StreamKind::Comm), 1.0);
        assert_eq!(t.num_devices(), 2);
        assert_eq!(t.entries().len(), 3);
    }

    #[test]
    fn busy_seconds_unions_overlapping_streams() {
        let mut set = StreamSet::new(1);
        let c = set.enqueue(0, StreamKind::Compute, "k", &[], 4.0);
        // Comm fully inside the compute window must not double count.
        set.enqueue(0, StreamKind::Comm, "m", &[], 2.0);
        set.enqueue(0, StreamKind::Comm, "m2", &[c], 1.0);
        let t = set.finish();
        assert_eq!(t.busy_seconds(0), 5.0);
        assert!((t.utilization(0) - 1.0).abs() < 1e-12);
        assert_eq!(t.utilizations().len(), 1);
    }

    #[test]
    fn empty_timeline_is_all_zero() {
        let t = StreamSet::new(3).finish();
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.serial_seconds(), 0.0);
        assert_eq!(t.utilization(1), 0.0);
    }

    #[test]
    fn utilization_of_an_empty_timeline_is_zero_for_any_device() {
        // Degenerate but reachable: a pool whose schedule produced no ops.
        let t = StreamSet::new(2).finish();
        assert_eq!(t.serial_seconds(), 0.0);
        assert_eq!(t.busy_seconds(0), 0.0);
        // Out-of-range device indices must not panic either — utilization is
        // a query, not an invariant.
        assert_eq!(t.utilization(0), 0.0);
        assert_eq!(t.utilization(99), 0.0);
        assert_eq!(t.utilizations(), vec![0.0, 0.0]);
    }

    #[test]
    fn zero_duration_ops_contribute_nothing_but_keep_event_semantics() {
        let mut set = StreamSet::new(1);
        let a = set.enqueue(0, StreamKind::Compute, "instant", &[], 0.0);
        assert_eq!(a.at, 0.0);
        let b = set.enqueue(0, StreamKind::Compute, "real", &[a], 2.0);
        // A zero-duration op after the real one starts (and ends) at the cursor.
        set.enqueue(0, StreamKind::Compute, "instant2", &[b], 0.0);
        let t = set.finish();
        assert_eq!(t.entries().len(), 3);
        assert_eq!(t.makespan(), 2.0);
        assert_eq!(t.serial_seconds(), 2.0);
        // busy_seconds filters empty intervals, so zero-duration ops cannot
        // create spurious busy windows.
        assert_eq!(t.busy_seconds(0), 2.0);
        assert!((t.utilization(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_zero_duration_timeline_has_zero_utilization_not_nan() {
        let mut set = StreamSet::new(1);
        set.enqueue(0, StreamKind::Compute, "a", &[], 0.0);
        set.enqueue(0, StreamKind::Comm, "b", &[], 0.0);
        let t = set.finish();
        assert_eq!(t.makespan(), 0.0);
        let u = t.utilization(0);
        assert!(u == 0.0 && !u.is_nan(), "zero makespan must not divide");
    }

    #[test]
    fn single_stream_pool_of_one_serial_equals_makespan() {
        // The pool-of-one "serial" shape: every op on one compute stream, no
        // comm.  serial_seconds and makespan must agree exactly, and
        // utilization is exactly 1.
        let mut set = StreamSet::new(1);
        for i in 0..4 {
            set.enqueue(0, StreamKind::Compute, format!("k{i}"), &[], 0.25);
        }
        let t = set.finish();
        assert_eq!(t.makespan(), 1.0);
        assert_eq!(t.serial_seconds(), t.makespan());
        assert_eq!(t.seconds_of(StreamKind::Comm), 0.0);
        assert_eq!(t.utilization(0), 1.0);
    }

    #[test]
    fn trace_events_carry_each_entry_with_its_costs() {
        let mut set = StreamSet::new(2);
        let c0 = set.enqueue_costed(
            0,
            StreamKind::Compute,
            "k0",
            &[],
            2.0,
            sketch_obs::CostBreakdown {
                bytes_read: 64,
                bytes_written: 32,
                flops: 16,
                launches: 1,
                comm_bytes: 0,
            },
        );
        set.enqueue_costed(
            1,
            StreamKind::Comm,
            "send",
            &[c0],
            1.0,
            sketch_obs::CostBreakdown {
                comm_bytes: 64,
                ..Default::default()
            },
        );
        set.enqueue(0, StreamKind::Compute, "k1", &[], 1.0);
        let t = set.finish();
        let events: Vec<_> = t.entries().iter().map(TimelineEntry::trace_event).collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].sim, Some((0.0, 2.0)));
        assert_eq!(events[0].track, sketch_obs::Track::Compute);
        assert_eq!(events[0].cost.bytes_read, 64);
        assert_eq!(events[1].device, 1);
        assert_eq!(events[1].track, sketch_obs::Track::Comm);
        assert_eq!(events[1].sim, Some((2.0, 3.0)));
        assert_eq!(events[1].cost.comm_bytes, 64);
        assert_eq!(events[2].cost, sketch_obs::CostBreakdown::default());
        // Events mirror the timeline exactly.
        for (event, entry) in events.iter().zip(t.entries()) {
            assert_eq!(event.name, entry.label);
            assert_eq!(event.sim, Some((entry.start, entry.end)));
            assert_eq!(event.cost, entry.cost);
        }
    }

    #[test]
    fn merge_shifted_offsets_and_remaps_devices() {
        // Job A: one op on its device 0.  Job B: ops on its devices 0 and 1.
        let mut a = StreamSet::new(1);
        a.enqueue(0, StreamKind::Compute, "a-k", &[], 2.0);
        let a = a.finish();
        let mut b = StreamSet::new(2);
        let c = b.enqueue(0, StreamKind::Compute, "b-k", &[], 1.0);
        b.enqueue(1, StreamKind::Comm, "b-m", &[c], 0.5);
        let b = b.finish();

        // Cluster of 4 devices: A on physical device 3 at t=1, B on physical
        // devices 0 and 2 at t=2.
        let mut service = Timeline::with_devices(4);
        service.merge_shifted(&a, 1.0, &[3], "");
        service.merge_shifted(&b, 2.0, &[0, 2], "job-b ");
        assert_eq!(service.num_devices(), 4);
        assert_eq!(service.entries().len(), 3);
        assert_eq!(service.makespan(), 3.5); // B's comm: 2.0 + 1.0 + 0.5
        assert_eq!(service.serial_seconds(), 3.5);
        let a_entry = &service.entries()[0];
        assert_eq!((a_entry.device, a_entry.start, a_entry.end), (3, 1.0, 3.0));
        assert_eq!(a_entry.label, "a-k");
        assert_eq!(service.entries()[1].label, "job-b b-k");
        let m_entry = &service.entries()[2];
        assert_eq!(m_entry.device, 2);
        assert_eq!(m_entry.stream, StreamKind::Comm);
        // Device 1 never ran anything.
        assert_eq!(service.busy_seconds(1), 0.0);
        assert!(service.utilization(3) > 0.0);
    }

    #[test]
    #[should_panic(expected = "device_map covers")]
    fn merge_shifted_rejects_short_device_maps() {
        let mut inner = StreamSet::new(2);
        inner.enqueue(0, StreamKind::Compute, "k", &[], 1.0);
        let inner = inner.finish();
        let mut service = Timeline::with_devices(4);
        service.merge_shifted(&inner, 0.0, &[1], "");
    }

    #[test]
    #[should_panic(expected = "inside the target")]
    fn merge_shifted_rejects_out_of_range_targets() {
        let mut inner = StreamSet::new(1);
        inner.enqueue(0, StreamKind::Compute, "k", &[], 1.0);
        let inner = inner.finish();
        let mut service = Timeline::with_devices(2);
        service.merge_shifted(&inner, 0.0, &[5], "");
    }

    #[test]
    fn comm_overlaps_next_shard_compute() {
        // The executor's pattern: shard i's comm runs while shard i+1 computes.
        let mut set = StreamSet::new(1);
        let mut prev_comm: Option<Event> = None;
        for i in 0..3 {
            let c = set.enqueue(0, StreamKind::Compute, format!("shard {i}"), &[], 2.0);
            let mut waits = vec![c];
            if let Some(p) = prev_comm {
                waits.push(p);
            }
            prev_comm = Some(set.enqueue(0, StreamKind::Comm, format!("fold {i}"), &waits, 1.0));
        }
        let t = set.finish();
        // 3 computes back to back (6s) + the last fold (1s) = 7, not 9.
        assert_eq!(t.makespan(), 7.0);
        assert_eq!(t.serial_seconds(), 9.0);
    }
}
