//! Criterion bench: the fleet's per-node streaming sink on a real log.
//!
//! `analysis/stream_sink_lpl` runs one node's sink — the entry digest, the
//! interval builder draining into the observation pool, and the CPU segment
//! builder — over the log of one 1800 s LPL channel-17 listener under 18 %
//! Wi-Fi interference (the paper's Figure 13 cell).  The log is handed over
//! as one chunk, which is how the fleet's sink receives any log shorter
//! than the kernel's RAM buffer.  One iteration consumes the whole log, so
//! the summary line's `ns/element` is the sink's cost per log entry: the
//! analysis coefficient a per-layer cost model should reproduce.

use analysis::{IntervalBuilder, ObservationPool, SegmentBuilder};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hw_model::{Catalog, SimDuration};
use quanto_core::{DeviceId, LogEntry, Stamp, StreamDigest};
use quanto_fleet::{Scenario, ScenarioResult};

/// One node's analysis sink, shaped like the fleet's.
struct Sink {
    digest: StreamDigest,
    intervals: IntervalBuilder,
    pool: ObservationPool,
    segments: SegmentBuilder,
    cpu_segments: u64,
}

impl Sink {
    fn new(catalog: &Catalog, cpu: DeviceId) -> Self {
        Sink {
            digest: StreamDigest::new(),
            intervals: IntervalBuilder::new(catalog),
            pool: ObservationPool::new(),
            segments: SegmentBuilder::new(cpu, false),
            cpu_segments: 0,
        }
    }

    /// One node's whole run through a warm sink: reset, every entry, close.
    fn run(&mut self, catalog: &Catalog, log: &[LogEntry], end: Stamp) -> u64 {
        self.digest = StreamDigest::new();
        self.intervals.reset(catalog);
        self.pool.clear();
        self.segments.reset();
        self.cpu_segments = 0;
        self.digest.fold_chunk(log, &mut Vec::new());
        self.intervals.push_chunk(log);
        self.intervals.flush(Some(end));
        for iv in self.intervals.drain_completed() {
            self.pool.add(&iv);
        }
        self.segments.push_chunk(log);
        self.segments.flush(Some(end));
        self.cpu_segments += self.segments.drain_completed().count() as u64;
        self.digest.digest() ^ self.pool.len() as u64 ^ self.cpu_segments
    }
}

fn bench_stream_sink(c: &mut Criterion) {
    let scenario = Scenario::lpl(17, 0.18, SimDuration::from_secs(1800));
    let (_, raw) = ScenarioResult::execute(0, scenario);
    let (_, out, ctx) = raw.into_single_node_parts();
    let mut sink = Sink::new(&ctx.catalog, ctx.cpu_dev);
    let mut group = c.benchmark_group("analysis");
    group.throughput(Throughput::Elements(out.log.len() as u64));
    group.bench_function("stream_sink_lpl", |b| {
        b.iter(|| sink.run(&ctx.catalog, &out.log, out.final_stamp));
    });
    group.finish();
}

criterion_group!(benches, bench_stream_sink);
criterion_main!(benches);
