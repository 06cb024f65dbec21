//! Allocation gate for the analysis half of the streaming sink.
//!
//! `crates/core/tests/counting_alloc.rs` proves the record → drain → digest
//! fold half allocates nothing per entry.  This binary covers what the
//! fleet's per-node sink does with the same chunks next — the interval
//! builder, the observation pool and the CPU segment builder — and then the
//! whole warm scenario path:
//!
//! 1. With every buffer warm and every state combination already pooled,
//!    folding thousands more entries through digest → `IntervalBuilder` →
//!    `drain_completed` → `ObservationPool::add` and `SegmentBuilder` makes
//!    **zero** heap allocations.
//! 2. A warm `ScenarioResult::execute_streaming_in` of one LPL cell makes
//!    the same number of allocations whether it simulates 60 s or 600 s, so
//!    the count cannot grow with the length of the log.
//!
//! `#[global_allocator]` is per binary, and the binary holds exactly one
//! `#[test]` so no concurrent test touches the allocator between counter
//! reads.

use analysis::{IntervalBuilder, ObservationPool, SegmentBuilder};
use hw_model::catalog::hydrowatch;
use hw_model::{SimDuration, SimTime};
use quanto_core::{ActivityId, ActivityLabel, DeviceId, EntryKind, LogEntry, NodeId, StreamDigest};
use quanto_fleet::{Scenario, ScenarioResult, SimWorkspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation (frees are irrelevant to the
/// gate) and delegates the actual work to the system allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The fewest allocations `f` makes over a few attempts.  The libtest
/// harness thread occasionally allocates concurrently; a real allocation on
/// the measured path shows up in *every* attempt, harness noise does not.
fn min_allocations(mut f: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            f();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("at least one attempt")
}

/// The per-node analysis sink, shaped like the fleet's `LiveNode`: digest,
/// interval builder feeding the observation pool, CPU segment builder.
struct Sink {
    digest: StreamDigest,
    scratch: Vec<u8>,
    intervals: IntervalBuilder,
    pool: ObservationPool,
    segments: SegmentBuilder,
    cpu_segments: u64,
}

impl Sink {
    fn accept(&mut self, chunk: &[LogEntry]) {
        self.digest.fold_chunk(chunk, &mut self.scratch);
        self.intervals.push_chunk(chunk);
        for iv in self.intervals.drain_completed() {
            self.pool.add(&iv);
        }
        self.segments.push_chunk(chunk);
        self.cpu_segments += self.segments.drain_completed().count() as u64;
    }
}

/// A HydroWatch log toggling the CPU, the radio receiver and three LEDs
/// through a dozen-odd state combinations, with CPU activity changes
/// interleaved.
fn hydrowatch_log(entries: u64) -> Vec<LogEntry> {
    let (_, ids) = hydrowatch();
    let sinks = [ids.cpu, ids.radio_rx, ids.led0, ids.led1, ids.led2];
    let cpu = DeviceId(0);
    (0..entries)
        .map(|i| {
            let time = SimTime::from_micros(100 * (i + 1));
            let icount = (3 * i) as u32;
            if i % 4 == 3 {
                let label = ActivityLabel::new(NodeId(1), ActivityId((i % 3) as u8));
                LogEntry::activity(EntryKind::ActivityChange, time, icount, cpu, label)
            } else {
                let sink = sinks[(i % 5) as usize];
                let value = if sink == ids.cpu {
                    [0, 5][(i / 5 % 2) as usize]
                } else {
                    (i / 5 % 2) as u16
                };
                LogEntry::power_state(time, icount, sink, value)
            }
        })
        .collect()
}

#[test]
fn warm_analysis_sink_and_scenario_allocate_independently_of_log_length() {
    // Part 1: the analysis sink over thousands of entries.
    const CHUNK: usize = 64;
    let (catalog, _) = hydrowatch();
    let log = hydrowatch_log(8_192);
    let mut sink = Sink {
        digest: StreamDigest::new(),
        scratch: Vec::new(),
        intervals: IntervalBuilder::new(&catalog),
        pool: ObservationPool::new(),
        segments: SegmentBuilder::new(DeviceId(0), false),
        cpu_segments: 0,
    };
    // Warm-up: two passes (the second starts from the states the first
    // ended in) pool every combination the replayed log expresses and grow
    // the encode scratch and both ready buffers to a chunk's worth.
    for _ in 0..2 {
        for chunk in log.chunks(CHUNK) {
            sink.accept(chunk);
        }
    }
    let combinations = sink.pool.len();
    assert!(combinations >= 8, "log exercises the pool ({combinations})");
    let steady = min_allocations(|| {
        for chunk in log.chunks(CHUNK) {
            sink.accept(chunk);
        }
    });
    assert_eq!(
        steady,
        0,
        "warm digest → intervals → pool → segments allocated over {} entries",
        log.len()
    );
    assert_eq!(sink.pool.len(), combinations, "no new combinations");
    assert!(sink.cpu_segments > 0, "segment builder saw the stream");
    assert!(
        sink.digest.entries() > log.len() as u64,
        "digest saw the stream"
    );

    // Part 2: a warm workspace, one LPL cell, two log lengths.
    let cell = |secs| Scenario::lpl(17, 0.18, SimDuration::from_secs(secs));
    let mut ws = SimWorkspace::new();
    let mut run = |secs| {
        ScenarioResult::execute_streaming_in(0, cell(secs), &mut ws).stream_meta()[0].entries
    };
    let (short_log, long_log) = (run(60), run(600));
    assert!(
        long_log > 5 * short_log,
        "{short_log} vs {long_log} entries"
    );
    let short = min_allocations(|| {
        run(60);
    });
    let long = min_allocations(|| {
        run(600);
    });
    assert_eq!(
        short, long,
        "a warm LPL cell allocated {short} times over 60 s but {long} times over 600 s"
    );
}
