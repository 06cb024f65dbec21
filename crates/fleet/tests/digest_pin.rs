//! Pins the report digests of fixed scenario batches across refactors of
//! the analysis pipeline.
//!
//! Two families of pins, one proof chain:
//!
//! * The **pinned digests** were recorded on the pre-streaming batch
//!   pipeline (whole-log `power_intervals`, raw outputs retained to the
//!   end).  They fold each node's entry count *before* its raw entry bytes,
//!   which no stream can reproduce (FNV-1a is not seekable), so the library
//!   no longer computes them: [`legacy_digest`] below is the test-local
//!   oracle that refolds that exact byte layout from the public data of
//!   [`ScenarioResult::execute`]'s materialized outputs.
//! * The **stream digests** ([`FleetReport::digest`]) fold each node's
//!   in-run entry stream (count + FNV over the encoded bytes) instead of
//!   the raw bytes, which is what the fleet's zero-materialization path
//!   computes.  The bridge test below proves, scenario by scenario and node
//!   by node, that the sink-fed path sees byte-identical entry streams to
//!   the materializing call — so the pinned constants transitively cover
//!   the streaming path too, and the stream constants pin it directly.

use hw_model::SimDuration;
use quanto_core::NodeId;
use quanto_fleet::{
    scenarios, FleetReport, FleetRunner, GridSpec, MediumSpec, RawScenarioOutputs,
    ReportAccumulator, Retention, Scenario, ScenarioResult,
};

/// `pin_batch()` pinned digest recorded on the pre-refactor batch pipeline.
const PIN_BATCH_DIGEST: u64 = 0x766a_a912_dcd1_2f29;
/// Single 4-second LPL channel-17 scenario, same provenance.
const SINGLE_LPL_DIGEST: u64 = 0x297e_7546_08a5_134c;

/// `pin_batch()` stream digest, recorded on the zero-materialization path
/// whose entry streams the bridge test proves byte-identical to the batch
/// pipeline above.
const PIN_BATCH_STREAM_DIGEST: u64 = 0xf73f_b2e3_9f24_1280;
/// Single 4-second LPL channel-17 scenario, stream digest.
const SINGLE_LPL_STREAM_DIGEST: u64 = 0x1f37_3cb5_5ee7_ff3a;

/// FNV-1a 64, byte at a time — the hash both digest families use.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// A node id: its historical single byte in the v1 range, else the
    /// `0xFF` escape byte followed by the full little-endian id.
    fn write_node(&mut self, id: NodeId) {
        if id.fits_v1() {
            self.write(&[id.as_u32() as u8]);
        } else {
            self.write(&[0xFF]);
            self.write(&id.as_u32().to_le_bytes());
        }
    }
}

/// Runs every scenario through the materializing call, in submission
/// order, and merges the results through the same accumulator the fleet
/// paths use — so the report's stream digest is comparable to theirs.
fn materialize(batch: Vec<Scenario>) -> (FleetReport, Vec<RawScenarioOutputs>) {
    let mut acc = ReportAccumulator::new(batch.len(), Retention::Stream);
    let mut raws = Vec::with_capacity(batch.len());
    for (i, s) in batch.into_iter().enumerate() {
        let (result, raw) = ScenarioResult::execute(i, s);
        acc.absorb(result);
        raws.push(raw);
    }
    (acc.finish(1, std::time::Duration::ZERO, 0), raws)
}

/// The legacy pinned digest, refolded from public data in the byte layout
/// of the pre-streaming pipeline: the batch length, then per scenario its
/// name and index; per node its id, entry count, every encoded entry, the
/// final stamp, the drop count, three radio counters and the ground-truth
/// energy bits; then every node's average power, energy and radio duty
/// bits; then, for counter-tracking mediums only, the medium kind and its
/// four outcome counters.
fn legacy_digest(report: &FleetReport, raws: &[RawScenarioOutputs]) -> u64 {
    assert_eq!(report.results.len(), raws.len());
    let mut h = Fnv::new();
    h.write(&(report.results.len() as u64).to_le_bytes());
    let mut bytes = Vec::new();
    for (r, raw) in report.results.iter().zip(raws) {
        let encoding = r.scenario.log_encoding();
        h.write(r.scenario.name.as_bytes());
        h.write(&(r.index as u64).to_le_bytes());
        for (id, out) in &raw.outputs {
            h.write_node(*id);
            h.write(&(out.log.len() as u64).to_le_bytes());
            bytes.clear();
            for entry in &out.log {
                encoding.encode_entry(entry, &mut bytes);
            }
            h.write(&bytes);
            h.write(&out.final_stamp.time.as_micros().to_le_bytes());
            h.write(&out.final_stamp.icount.to_le_bytes());
            h.write(&out.log_dropped.to_le_bytes());
            h.write(&out.radio_stats.packets_sent.to_le_bytes());
            h.write(&out.radio_stats.packets_received.to_le_bytes());
            h.write(&out.radio_stats.false_wakeups.to_le_bytes());
            h.write(
                &out.ground_truth
                    .total
                    .as_micro_joules()
                    .to_bits()
                    .to_le_bytes(),
            );
        }
        for s in &r.summaries {
            h.write(&s.average_power.as_micro_watts().to_bits().to_le_bytes());
            h.write(&s.total_energy.as_micro_joules().to_bits().to_le_bytes());
            h.write(&s.radio_duty_cycle.to_bits().to_le_bytes());
        }
        if let Ok(c) = r.medium_counters() {
            h.write(r.medium_kind.as_bytes());
            h.write(&c.delivered.to_le_bytes());
            h.write(&c.lost_out_of_range.to_le_bytes());
            h.write(&c.lost_below_sensitivity.to_le_bytes());
            h.write(&c.lost_captured.to_le_bytes());
        }
    }
    h.0
}

fn pin_batch() -> Vec<Scenario> {
    let d = SimDuration::from_secs(2);
    let mut batch = scenarios::lpl_grid(&[1, 2], &[17, 26], 0.18, d);
    batch.push(Scenario::blink(d));
    batch.push(Scenario::bounce(d));
    batch.push(Scenario::idle(SimDuration::from_secs(1)));
    batch
}

/// The same batch as `pin_batch()`, but written as a grid config file — a
/// `GridSpec` must reproduce a hand-built grid scenario-for-scenario, and
/// therefore digest-for-digest.
const PIN_BATCH_GRID: &str = "
[grid]
name = pin_batch
seconds = 2

[cell.lpl]
app = lpl
interference = 0.18
seeds = 1..2
channels = 17, 26
name = lpl_ch{channel}_seed{seed}

[cell.blink]
app = blink

[cell.bounce]
app = bounce

[cell.idle]
app = idle
seconds = 1
";

#[test]
fn materializing_modes_reproduce_pre_refactor_digests() {
    let (report, raws) = materialize(pin_batch());
    assert_eq!(
        legacy_digest(&report, &raws),
        PIN_BATCH_DIGEST,
        "pinned digest drifted from the pre-refactor batch pipeline"
    );
    assert_eq!(
        report.digest(),
        PIN_BATCH_STREAM_DIGEST,
        "stream digest of the materializing call drifted"
    );
}

#[test]
fn streaming_mode_reproduces_the_stream_digest_pin() {
    for runner in [FleetRunner::sequential(), FleetRunner::new(4)] {
        let report = runner.run(pin_batch());
        assert_eq!(
            report.digest(),
            PIN_BATCH_STREAM_DIGEST,
            "zero-materialization stream digest drifted (threads {})",
            runner.threads(),
        );
    }
}

/// The bridge that extends the pre-refactor pins to the sink-fed path: for
/// every scenario and node, the zero-materialization run must report the
/// same entry count and the same FNV digest over the encoded entry bytes as
/// the materializing call — i.e. the sink saw exactly the bytes the
/// materialized log holds, in the same order.
#[test]
fn in_run_streaming_is_byte_identical_to_the_batch_pipeline() {
    let streamed = FleetRunner::new(4).run(pin_batch());
    let (materialized, raws) = materialize(pin_batch());
    assert_eq!(legacy_digest(&materialized, &raws), PIN_BATCH_DIGEST);
    for (a, b) in streamed.results.iter().zip(materialized.results.iter()) {
        assert_eq!(
            a.stream_meta(),
            b.stream_meta(),
            "scenario {} entry streams diverged between the sink-fed and \
             materializing paths",
            a.scenario.name
        );
    }
    assert_eq!(streamed.digest(), materialized.digest());
}

#[test]
fn single_scenario_digests_are_pinned_too() {
    let batch = || vec![Scenario::lpl(17, 0.18, SimDuration::from_secs(4))];
    let (report, raws) = materialize(batch());
    assert_eq!(legacy_digest(&report, &raws), SINGLE_LPL_DIGEST);
    assert_eq!(report.digest(), SINGLE_LPL_STREAM_DIGEST);
    for runner in [FleetRunner::sequential(), FleetRunner::new(4)] {
        assert_eq!(runner.run(batch()).digest(), SINGLE_LPL_STREAM_DIGEST);
    }
}

/// The `Ideal` medium is the pre-medium-subsystem explicit-topology path:
/// spelling it out with `with_medium` must reproduce the pinned digests byte
/// for byte (same deliveries, same logs, no counter bytes folded).
#[test]
fn explicit_ideal_medium_reproduces_the_pinned_digests() {
    let batch: Vec<Scenario> = pin_batch()
        .into_iter()
        .map(|s| s.with_medium(MediumSpec::Ideal))
        .collect();
    let (report, raws) = materialize(batch);
    assert_eq!(
        legacy_digest(&report, &raws),
        PIN_BATCH_DIGEST,
        "an explicit Ideal medium must be byte-identical to the topology path"
    );
    assert!(report
        .results
        .iter()
        .all(|r| r.medium_kind == "ideal" && !r.has_medium_counters()));
}

/// A config-file grid reproducing the pin batch yields byte-identical
/// digests — the `GridSpec` subsystem composes the same scenarios the
/// hand-written constructors built, down to the pinned pre-refactor bytes.
#[test]
fn grid_config_file_reproduces_the_pinned_digests() {
    let grid = GridSpec::parse(PIN_BATCH_GRID).expect("pin grid parses");
    let batch = grid.expand().expect("pin grid expands");
    assert_eq!(batch, pin_batch(), "grid must expand to the exact batch");
    let (report, raws) = materialize(batch.clone());
    assert_eq!(legacy_digest(&report, &raws), PIN_BATCH_DIGEST);
    assert_eq!(report.digest(), PIN_BATCH_STREAM_DIGEST);
    assert_eq!(
        FleetRunner::new(4).run(batch).digest(),
        PIN_BATCH_STREAM_DIGEST
    );
}
