//! Incremental (chunk-wise) versions of the log parsers.
//!
//! The batch functions in [`crate::intervals`] take the whole log as a
//! slice, which forces every consumer to hold every 12-byte entry in memory
//! before analysis can even start.  The builders here accept the log in
//! arbitrary chunks — the natural unit a `quanto_core::LogSink` receives —
//! and emit completed intervals/segments eagerly, keeping only *open* state
//! between chunks.  The batch functions are thin wrappers over them (and
//! equivalence is property-tested), so feeding a builder the entire log as
//! one chunk reproduces the batch output exactly, byte for byte.
//!
//! Memory held by each builder:
//!
//! * [`TimeUnwrapper`] — O(1): the wrap count and the previous 32-bit stamp.
//! * [`IntervalBuilder`] — O(sinks) open state plus whatever completed
//!   intervals the caller has not yet drained.
//! * [`SegmentBuilder`] with `resolve_bindings = false` — O(1) open state;
//!   completed segments are final as soon as they close.
//! * [`SegmentBuilder`] with `resolve_bindings = true` — completed segments
//!   stay *retained* until [`SegmentBuilder::finish`]: an `ActivityBind`
//!   relabels the maximal trailing run of same-labelled segments, and
//!   successive binds can merge that run arbitrarily far back, so no segment
//!   is provably final before the log ends.  This is inherent to the paper's
//!   proxy-binding semantics, not an implementation shortcut.
//! * [`MultiSegmentBuilder`] — O(concurrent activities) open state.

use crate::intervals::{
    ActivitySegment, MultiSegment, PowerInterval, StateCombination, UnwrappedEntry, STATE_WORDS,
};
use hw_model::{Catalog, SimTime};
use quanto_core::{ActivityLabel, DeviceId, EntryKind, LogEntry, Stamp};

/// Incrementally reconstructs monotonic 64-bit time from the wrapping 32-bit
/// v1 log timestamps: each backwards jump is one wrap of the counter.
///
/// v2 entries carry absolute 64-bit timestamps, which are monotone, so the
/// wrap rule never fires and they pass through unchanged — one unwrapper
/// handles both formats.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeUnwrapper {
    high: u64,
    prev: u64,
    seen_any: bool,
}

impl TimeUnwrapper {
    /// A fresh unwrapper (no entries seen).
    pub fn new() -> Self {
        TimeUnwrapper::default()
    }

    /// Unwraps the next timestamp.  Entries must be offered in the order
    /// they were logged — *every* entry, not just the kinds a consumer cares
    /// about, since any entry can witness a wrap.
    pub fn unwrap(&mut self, time_us: u64) -> SimTime {
        if self.seen_any && time_us < self.prev {
            self.high += 1 << 32;
        }
        self.seen_any = true;
        self.prev = time_us;
        SimTime::from_micros(self.high + time_us)
    }

    /// Unwraps one entry.
    pub fn unwrap_entry(&mut self, entry: &LogEntry) -> UnwrappedEntry {
        UnwrappedEntry {
            time: self.unwrap(entry.time_us),
            entry: *entry,
        }
    }
}

/// Incremental [`crate::intervals::power_intervals`]: feed it entry chunks,
/// drain completed [`PowerInterval`]s as they close.
///
/// Each interval carries its state combination inline (a copy of the open
/// [`StateCombination`]), so once the ready buffer has grown to one chunk's
/// worth of intervals, pushing and draining allocate nothing.
#[derive(Debug, Clone)]
pub struct IntervalBuilder {
    open: OpenInterval,
    ready: Vec<PowerInterval>,
}

/// Everything an [`IntervalBuilder`] carries between entries.  It is `Copy`
/// so [`IntervalBuilder::push_chunk`] folds a whole chunk with it in locals:
/// nothing is re-read through `self` after each emitted interval, and a
/// state change never stores a byte that the next emission reloads as part
/// of a wider word (a store-forwarding stall).
#[derive(Debug, Clone, Copy)]
struct OpenInterval {
    unwrapper: TimeUnwrapper,
    /// The open combination as little-endian words of eight states each
    /// (see `StateCombination::to_le_words`), and its length.
    state_words: [u64; STATE_WORDS],
    sinks: u8,
    start: SimTime,
    start_counts: u32,
}

impl OpenInterval {
    /// Every sink in its catalog default state, time and counter at zero.
    fn boot(catalog: &Catalog) -> Self {
        let (state_words, sinks) = StateCombination::defaults(catalog).to_le_words();
        OpenInterval {
            unwrapper: TimeUnwrapper::new(),
            state_words,
            sinks,
            start: SimTime::ZERO,
            start_counts: 0,
        }
    }

    /// Closes the open interval at `end`, if it has any length.
    fn close(&self, end: SimTime, end_counts: u32, ready: &mut Vec<PowerInterval>) {
        if end > self.start {
            ready.push(PowerInterval {
                start: self.start,
                end,
                counts: end_counts.wrapping_sub(self.start_counts),
                states: StateCombination::from_le_words(&self.state_words, self.sinks),
            });
        }
    }

    /// Sets sink `i`'s state (sinks outside the catalog are ignored).  Each
    /// word is rewritten through a mask instead of being indexed, which
    /// keeps the words in registers.
    fn set_state(&mut self, i: usize, state: u8) {
        if i >= usize::from(self.sinks) {
            return;
        }
        let shift = 8 * (i % 8);
        for (w, word) in self.state_words.iter_mut().enumerate() {
            let mask = if i / 8 == w { 0xff << shift } else { 0 };
            *word = (*word & !mask) | ((u64::from(state) << shift) & mask);
        }
    }
}

impl IntervalBuilder {
    /// A builder for a platform booting with every sink in its catalog
    /// default state and the iCount counter at zero.
    pub fn new(catalog: &Catalog) -> Self {
        IntervalBuilder {
            open: OpenInterval::boot(catalog),
            ready: Vec::new(),
        }
    }

    /// Consumes one entry.
    pub fn push(&mut self, entry: &LogEntry) {
        self.push_chunk(std::slice::from_ref(entry));
    }

    /// Consumes one chunk of entries, in log order.
    pub fn push_chunk(&mut self, chunk: &[LogEntry]) {
        let mut open = self.open;
        for entry in chunk {
            // Every entry advances the wrap detector, even the kinds this
            // builder ignores.
            let time = open.unwrapper.unwrap(entry.time_us);
            if entry.kind != EntryKind::PowerState {
                continue;
            }
            let sink = entry.sink().expect("power-state entry has a sink");
            open.close(time, entry.icount, &mut self.ready);
            open.set_state(sink.as_usize(), entry.value as u8);
            open.start = time;
            open.start_counts = entry.icount;
        }
        self.open = open;
    }

    /// Drains the intervals completed so far (each interval is emitted
    /// exactly once across all drains and [`IntervalBuilder::finish`]).
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, PowerInterval> {
        self.ready.drain(..)
    }

    /// Number of completed-but-undrained intervals.
    pub fn completed_len(&self) -> usize {
        self.ready.len()
    }

    /// Non-consuming [`IntervalBuilder::finish`]: closes the last interval
    /// at `final_stamp` (if any), leaving it ready to drain.  After a flush
    /// the builder should be [`IntervalBuilder::reset`] before reuse — the
    /// closing interval has already been emitted.
    pub fn flush(&mut self, final_stamp: Option<Stamp>) {
        if let Some(end) = final_stamp {
            self.open.close(end.time, end.icount, &mut self.ready);
        }
    }

    /// Returns the builder to its boot state (catalog-default sink states,
    /// zero cursor, no wraps seen), keeping its ready buffer — so one
    /// builder can be reused across runs without reallocating.
    pub fn reset(&mut self, catalog: &Catalog) {
        self.open = OpenInterval::boot(catalog);
        self.ready.clear();
    }

    /// Closes the stream.  If `final_stamp` is given it closes the last
    /// interval (the simulator records one at the end of a run); otherwise
    /// the span after the final power-state entry is dropped.  Returns the
    /// undrained completed intervals.
    pub fn finish(mut self, final_stamp: Option<Stamp>) -> Vec<PowerInterval> {
        self.flush(final_stamp);
        self.ready
    }
}

/// Incremental [`crate::intervals::activity_segments`] for one
/// single-activity device.
#[derive(Debug, Clone)]
pub struct SegmentBuilder {
    open: OpenSegment,
    device: DeviceId,
    resolve_bindings: bool,
    /// Segments that can no longer change (always empty while
    /// `resolve_bindings`, see the module docs).
    ready: Vec<ActivitySegment>,
    /// Completed segments an `ActivityBind` may still relabel (always empty
    /// without `resolve_bindings`).
    retained: Vec<ActivitySegment>,
}

/// Everything a [`SegmentBuilder`] carries between entries, `Copy` for the
/// same reason as the interval builder's: a chunk is folded with it in
/// locals.
#[derive(Debug, Clone, Copy)]
struct OpenSegment {
    unwrapper: TimeUnwrapper,
    label: ActivityLabel,
    start: SimTime,
    start_counts: u32,
}

impl OpenSegment {
    /// Idle at time zero, no wraps seen.
    fn boot() -> Self {
        OpenSegment {
            unwrapper: TimeUnwrapper::new(),
            label: ActivityLabel::IDLE,
            start: SimTime::ZERO,
            start_counts: 0,
        }
    }

    /// The open segment closed at `end`, if it has any length.
    fn close(&self, end: SimTime, end_counts: u32) -> Option<ActivitySegment> {
        (end > self.start).then(|| ActivitySegment {
            start: self.start,
            end,
            label: self.label,
            counts: end_counts.wrapping_sub(self.start_counts),
        })
    }
}

impl SegmentBuilder {
    /// A builder for `device`, starting idle at time zero.  See
    /// [`crate::intervals::activity_segments`] for what `resolve_bindings`
    /// does.
    pub fn new(device: DeviceId, resolve_bindings: bool) -> Self {
        SegmentBuilder {
            open: OpenSegment::boot(),
            device,
            resolve_bindings,
            ready: Vec::new(),
            retained: Vec::new(),
        }
    }

    /// Consumes one entry.
    pub fn push(&mut self, entry: &LogEntry) {
        self.push_chunk(std::slice::from_ref(entry));
    }

    /// Consumes one chunk of entries, in log order.
    pub fn push_chunk(&mut self, chunk: &[LogEntry]) {
        let mut open = self.open;
        for entry in chunk {
            let time = open.unwrapper.unwrap(entry.time_us);
            if entry.device() != Some(self.device)
                || !matches!(
                    entry.kind,
                    EntryKind::ActivityChange | EntryKind::ActivityBind
                )
            {
                continue;
            }
            let new_label = entry.label().expect("activity entry has a label");
            if let Some(closed) = open.close(time, entry.icount) {
                // Without binding, a closed segment is final immediately.
                if self.resolve_bindings {
                    self.retained.push(closed);
                } else {
                    self.ready.push(closed);
                }
            }
            if self.resolve_bindings && entry.kind == EntryKind::ActivityBind {
                // Charge the just-finished run of `current`-labelled
                // segments to the activity it is being bound to.
                let proxy = open.label;
                for seg in self.retained.iter_mut().rev() {
                    if seg.label == proxy {
                        seg.label = new_label;
                    } else {
                        break;
                    }
                }
            }
            open.label = new_label;
            open.start = time;
            open.start_counts = entry.icount;
        }
        self.open = open;
    }

    /// Drains the segments that can no longer change.  With
    /// `resolve_bindings` this is empty until [`SegmentBuilder::finish`];
    /// without it, every closed segment is final.
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, ActivitySegment> {
        self.ready.drain(..)
    }

    /// Non-consuming [`SegmentBuilder::finish`]: closes the last segment at
    /// `final_stamp` (if any) and promotes every retained segment to ready.
    /// After a flush the builder should be [`SegmentBuilder::reset`] before
    /// reuse.
    pub fn flush(&mut self, final_stamp: Option<Stamp>) {
        if let Some(closed) = final_stamp.and_then(|end| self.open.close(end.time, end.icount)) {
            self.retained.push(closed);
        }
        self.ready.append(&mut self.retained);
    }

    /// Returns the builder to its boot state (idle at time zero, no wraps
    /// seen), keeping its allocations.
    pub fn reset(&mut self) {
        self.open = OpenSegment::boot();
        self.ready.clear();
        self.retained.clear();
    }

    /// Like [`SegmentBuilder::reset`], but also retargets the builder to
    /// `device` — so one pooled builder can serve nodes whose device ids
    /// differ across scenarios.
    pub fn reset_for(&mut self, device: DeviceId) {
        self.device = device;
        self.reset();
    }

    /// Closes the stream, optionally closing the last segment at
    /// `final_stamp`.  Returns the undrained segments.
    pub fn finish(mut self, final_stamp: Option<Stamp>) -> Vec<ActivitySegment> {
        self.flush(final_stamp);
        self.ready
    }
}

/// Incremental [`crate::intervals::multi_segments`] for one multi-activity
/// device.
#[derive(Debug, Clone)]
pub struct MultiSegmentBuilder {
    unwrapper: TimeUnwrapper,
    device: DeviceId,
    current: Vec<ActivityLabel>,
    seg_start: SimTime,
    ready: Vec<MultiSegment>,
}

impl MultiSegmentBuilder {
    /// A builder for `device`, starting with an empty activity set.
    pub fn new(device: DeviceId) -> Self {
        MultiSegmentBuilder {
            unwrapper: TimeUnwrapper::new(),
            device,
            current: Vec::new(),
            seg_start: SimTime::ZERO,
            ready: Vec::new(),
        }
    }

    /// Consumes one entry.
    pub fn push(&mut self, entry: &LogEntry) {
        let time = self.unwrapper.unwrap(entry.time_us);
        if entry.device() != Some(self.device)
            || !matches!(entry.kind, EntryKind::MultiAdd | EntryKind::MultiRemove)
        {
            return;
        }
        let label = entry.label().expect("multi entry has a label");
        if time > self.seg_start {
            self.ready.push(MultiSegment {
                start: self.seg_start,
                end: time,
                labels: self.current.clone(),
            });
        }
        match entry.kind {
            EntryKind::MultiAdd => {
                if !self.current.contains(&label) {
                    self.current.push(label);
                }
            }
            EntryKind::MultiRemove => self.current.retain(|l| *l != label),
            _ => unreachable!("filtered to multi entries"),
        }
        self.seg_start = time;
    }

    /// Consumes one chunk of entries, in log order.
    pub fn push_chunk(&mut self, chunk: &[LogEntry]) {
        for entry in chunk {
            self.push(entry);
        }
    }

    /// Drains the segments completed so far.
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, MultiSegment> {
        self.ready.drain(..)
    }

    /// Closes the stream, optionally closing the last segment at
    /// `final_stamp`.  Returns the undrained segments.
    pub fn finish(mut self, final_stamp: Option<Stamp>) -> Vec<MultiSegment> {
        if let Some(end) = final_stamp {
            if end.time > self.seg_start {
                self.ready.push(MultiSegment {
                    start: self.seg_start,
                    end: end.time,
                    labels: self.current,
                });
            }
        }
        self.ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals::{activity_segments, multi_segments, power_intervals, unwrap_times};
    use hw_model::catalog::blink_catalog;
    use hw_model::SinkId;
    use quanto_core::{ActivityId, NodeId};

    fn ps(t_us: u64, ic: u32, sink: SinkId, v: u16) -> LogEntry {
        LogEntry::power_state(SimTime::from_micros(t_us), ic, sink, v)
    }

    fn lbl(id: u8) -> ActivityLabel {
        ActivityLabel::new(NodeId(1), ActivityId(id))
    }

    fn act(t_us: u64, ic: u32, dev: DeviceId, label: ActivityLabel, bind: bool) -> LogEntry {
        LogEntry::activity(
            if bind {
                EntryKind::ActivityBind
            } else {
                EntryKind::ActivityChange
            },
            SimTime::from_micros(t_us),
            ic,
            dev,
            label,
        )
    }

    /// A log that wraps the 32-bit clock twice, mixing power-state and
    /// activity entries so the unwrap depends on entries each builder skips.
    fn wrapping_log() -> Vec<LogEntry> {
        let dev = DeviceId(0);
        vec![
            ps(100, 1, SinkId(1), 1),
            act(5_000, 2, dev, lbl(1), false),
            ps(u32::MAX as u64 - 50, 7, SinkId(1), 0),
            // First wrap witnessed by an activity entry.
            act(40, 9, dev, lbl(2), false),
            ps(90, 11, SinkId(2), 1),
            act(u32::MAX as u64 - 3, 13, dev, lbl(1), true),
            // Second wrap witnessed by a power-state entry.
            ps(7, 15, SinkId(2), 0),
            act(900, 16, dev, ActivityLabel::IDLE, false),
        ]
    }

    #[test]
    fn unwrapper_matches_batch_unwrap() {
        let log = wrapping_log();
        let batch = unwrap_times(&log);
        let mut u = TimeUnwrapper::new();
        for (i, e) in log.iter().enumerate() {
            assert_eq!(u.unwrap_entry(e), batch[i], "entry {i}");
        }
    }

    #[test]
    fn interval_builder_matches_batch_for_every_chunk_size() {
        let (cat, _cpu, _leds) = blink_catalog();
        let log = wrapping_log();
        let stamp = Some(Stamp::new(SimTime::from_micros(3 << 32), 20));
        let batch = power_intervals(&log, &cat, stamp);
        for chunk_size in 1..=log.len() {
            let mut b = IntervalBuilder::new(&cat);
            let mut streamed = Vec::new();
            for chunk in log.chunks(chunk_size) {
                b.push_chunk(chunk);
                streamed.extend(b.drain_completed());
            }
            streamed.extend(b.finish(stamp));
            assert_eq!(streamed, batch, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn segment_builder_matches_batch_with_and_without_binding() {
        let dev = DeviceId(0);
        let log = wrapping_log();
        let stamp = Some(Stamp::new(SimTime::from_micros(3 << 32), 20));
        for resolve in [false, true] {
            let batch = activity_segments(&log, dev, resolve, stamp);
            for chunk_size in 1..=log.len() {
                let mut b = SegmentBuilder::new(dev, resolve);
                let mut streamed = Vec::new();
                for chunk in log.chunks(chunk_size) {
                    b.push_chunk(chunk);
                    streamed.extend(b.drain_completed());
                }
                streamed.extend(b.finish(stamp));
                assert_eq!(streamed, batch, "resolve {resolve} chunk {chunk_size}");
            }
        }
    }

    #[test]
    fn eager_segments_without_binding_flow_before_finish() {
        let dev = DeviceId(0);
        let mut b = SegmentBuilder::new(dev, false);
        b.push(&act(100, 1, dev, lbl(1), false));
        b.push(&act(300, 2, dev, lbl(2), false));
        // Two closed segments, both final already.
        assert_eq!(b.drain_completed().len(), 2);
        assert_eq!(b.finish(None).len(), 0);
    }

    #[test]
    fn binding_mode_retains_until_finish() {
        // Successive binds can reach arbitrarily far back: [A][B] + bind(A)
        // merges the runs, and a further bind relabels both — so nothing is
        // final before the log ends.
        let dev = DeviceId(0);
        let a = lbl(1);
        let c = lbl(3);
        let log = vec![
            act(100, 0, dev, a, false),
            act(200, 0, dev, lbl(2), false), // closes an A segment
            act(300, 0, dev, a, true),       // bind: B-run becomes A, merging with it
            act(400, 0, dev, c, true),       // bind: the whole A-run becomes C
        ];
        let mut b = SegmentBuilder::new(dev, true);
        b.push_chunk(&log);
        assert_eq!(b.drain_completed().len(), 0, "binding mode defers");
        let segs = b.finish(Some(Stamp::new(SimTime::from_micros(500), 0)));
        let batch = activity_segments(
            &log,
            dev,
            true,
            Some(Stamp::new(SimTime::from_micros(500), 0)),
        );
        assert_eq!(segs, batch);
        // All three middle segments carry the final bound label.
        assert!(segs[1..4].iter().all(|s| s.label == c), "{segs:?}");
    }

    /// `flush` + `reset` must behave like a fresh consuming `finish`: the
    /// reuse path exists so per-node builders can live across scenarios
    /// without reallocating.
    #[test]
    fn flush_and_reset_reproduce_consuming_finish() {
        let (cat, _cpu, _leds) = blink_catalog();
        let log = wrapping_log();
        let stamp = Some(Stamp::new(SimTime::from_micros(3 << 32), 20));
        let batch = power_intervals(&log, &cat, stamp);
        let mut b = IntervalBuilder::new(&cat);
        for round in 0..3 {
            let mut streamed = Vec::new();
            for chunk in log.chunks(2) {
                b.push_chunk(chunk);
                streamed.extend(b.drain_completed());
            }
            b.flush(stamp);
            streamed.extend(b.drain_completed());
            assert_eq!(streamed, batch, "round {round}");
            b.reset(&cat);
        }

        let dev = DeviceId(0);
        let seg_batch = activity_segments(&log, dev, true, stamp);
        let mut s = SegmentBuilder::new(dev, true);
        for round in 0..3 {
            s.push_chunk(&log);
            s.flush(stamp);
            let segs: Vec<ActivitySegment> = s.drain_completed().collect();
            assert_eq!(segs, seg_batch, "round {round}");
            s.reset();
        }
    }

    #[test]
    fn multi_segment_builder_matches_batch() {
        let dev = DeviceId(3);
        let mk = |t, kind, label: ActivityLabel| {
            LogEntry::activity(kind, SimTime::from_micros(t), 0, dev, label)
        };
        let log = vec![
            mk(100, EntryKind::MultiAdd, lbl(1)),
            mk(u32::MAX as u64 - 5, EntryKind::MultiAdd, lbl(2)),
            mk(50, EntryKind::MultiRemove, lbl(1)), // wraps
        ];
        let stamp = Some(Stamp::new(SimTime::from_micros((1u64 << 32) + 500), 0));
        let batch = multi_segments(&log, dev, stamp);
        for chunk_size in 1..=log.len() {
            let mut b = MultiSegmentBuilder::new(dev);
            let mut streamed = Vec::new();
            for chunk in log.chunks(chunk_size) {
                b.push_chunk(chunk);
                streamed.extend(b.drain_completed());
            }
            streamed.extend(b.finish(stamp));
            assert_eq!(streamed, batch, "chunk size {chunk_size}");
        }
    }
}
