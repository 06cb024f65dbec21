//! Criterion bench: the synchronous logging path (Table 4's 102-cycle claim,
//! measured here as host-side nanoseconds per recorded sample), the
//! ground-truth energy stamp that precedes every logged sample in the
//! simulator, and the logging-vs-counting ablation of Section 5.1.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hw_model::catalog::{blink_catalog, cpu_state, hydrowatch};
use hw_model::{EnergyAccumulator, PowerModel, SimTime, SinkId};
use quanto_core::{
    AccountingMode, LogEntry, OverflowPolicy, QuantoRuntime, RamLogger, RuntimeConfig, Stamp,
};
use std::sync::Arc;

fn bench_ram_logger(c: &mut Criterion) {
    let mut group = c.benchmark_group("logger");
    for policy in [
        OverflowPolicy::Stop,
        OverflowPolicy::Wrap,
        OverflowPolicy::Flush,
    ] {
        group.bench_function(format!("record_{policy:?}"), |b| {
            b.iter_batched(
                || RamLogger::new(800, policy),
                |mut logger| {
                    for i in 0..1000u32 {
                        logger.record(LogEntry::power_state(
                            SimTime::from_micros(i as u64),
                            i,
                            SinkId(1),
                            (i % 2) as u16,
                        ));
                    }
                    logger
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_runtime_sample(c: &mut Criterion) {
    let (catalog, _cpu, leds) = blink_catalog();
    let mut group = c.benchmark_group("runtime");
    for (name, mode) in [
        ("log_mode", AccountingMode::Log),
        ("counters_mode", AccountingMode::Counters),
    ] {
        group.bench_function(format!("power_state_change_{name}"), |b| {
            b.iter_batched(
                || {
                    QuantoRuntime::new(
                        quanto_core::NodeId(1),
                        &catalog,
                        RuntimeConfig {
                            mode,
                            overflow_policy: OverflowPolicy::Wrap,
                            ..RuntimeConfig::default()
                        },
                    )
                },
                |mut rt| {
                    for i in 0..1000u32 {
                        let stamp = Stamp::new(SimTime::from_micros(i as u64 * 10), i);
                        rt.set_power_state(stamp, leds[0], (i % 2) as u16);
                    }
                    rt
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// A warm HydroWatch accumulator stepping the way the kernel stamps: a CPU
/// wake or sleep, then an advance one 102-cycle log cost (102 µs at the
/// default 1 MHz clock) later — 1000 of each per iteration.
fn bench_stamp_advance(c: &mut Criterion) {
    let (catalog, ids) = hydrowatch();
    let model = Arc::new(PowerModel::ideal(Arc::new(catalog)));
    let mut acc = EnergyAccumulator::new(model);
    let mut t = 0u64;
    c.bench_function("power/stamp_advance_hydrowatch", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                let state = if i % 2 == 0 {
                    cpu_state::ACTIVE
                } else {
                    cpu_state::LPM3
                };
                acc.set_state(SimTime::from_micros(t), ids.cpu, state);
                t += 102;
                acc.advance(SimTime::from_micros(t));
                t += 102;
            }
            acc.total_energy()
        });
    });
}

fn bench_entry_codec(c: &mut Criterion) {
    let entry = LogEntry::power_state(SimTime::from_micros(123_456), 789, SinkId(3), 1);
    c.bench_function("entry_encode_decode", |b| {
        b.iter(|| {
            let bytes = std::hint::black_box(entry).encode();
            LogEntry::decode(&bytes).unwrap()
        });
    });
}

criterion_group!(
    benches,
    bench_ram_logger,
    bench_runtime_sample,
    bench_stamp_advance,
    bench_entry_codec
);
criterion_main!(benches);
