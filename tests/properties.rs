//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use quanto::analysis::{self, PowerInterval, RegressionOptions, StateCombination};
use quanto::hw_model::catalog::{blink_catalog, hydrowatch, led_state};
use quanto::hw_model::{
    Energy, EnergyAccumulator, NoiseModel, PowerModel, SimDuration, SimTime, SinkId, StateIndex,
    StateVector, Voltage, MAX_SINKS,
};
use quanto::quanto_core::{
    ActivityId, ActivityLabel, DeviceId, EntryKind, LogEntry, NodeId, OverflowPolicy, RamLogger,
    Stamp,
};
use std::collections::BTreeMap;
use std::sync::Arc;

proptest! {
    /// Activity labels survive the wire encoding for every representable
    /// (origin, id) pair — including origins beyond the one-byte v1 range.
    #[test]
    fn activity_labels_round_trip(origin in 0u32..=NodeId::MAX_LABEL_ORIGIN, id in 0u8..=255) {
        let label = ActivityLabel::new(NodeId(origin), ActivityId(id));
        prop_assert_eq!(ActivityLabel::decode(label.encode()), label);
    }

    /// Log entries survive the 12-byte v1 wire encoding for arbitrary
    /// v1-representable fields, and the 18-byte v2 encoding for arbitrary
    /// wide fields.
    #[test]
    fn log_entries_round_trip(
        kind in 0u8..5,
        res in 0u8..=255,
        time in any::<u32>(),
        wide_time in any::<u64>(),
        ic in any::<u32>(),
        value in any::<u16>(),
        wide_value in any::<u32>(),
    ) {
        let entry = LogEntry {
            kind: EntryKind::from_u8(kind).unwrap(),
            res_id: res,
            time_us: time as u64,
            icount: ic,
            value: value as u32,
        };
        prop_assert!(entry.fits_v1());
        prop_assert_eq!(LogEntry::decode(&entry.encode()), Some(entry));
        let wide = LogEntry { time_us: wide_time, value: wide_value, ..entry };
        prop_assert_eq!(LogEntry::decode_v2(&wide.encode_v2()), Some(wide));
    }

    /// The RAM logger never exceeds its capacity and never loses entries
    /// under the Flush policy.
    #[test]
    fn logger_respects_capacity(capacity in 1usize..64, n in 0usize..256) {
        for policy in [OverflowPolicy::Stop, OverflowPolicy::Wrap, OverflowPolicy::Flush] {
            let mut logger = RamLogger::new(capacity, policy);
            for i in 0..n {
                logger.record(LogEntry::power_state(
                    SimTime::from_micros(i as u64),
                    i as u32,
                    SinkId(0),
                    (i % 3) as u16,
                ));
            }
            prop_assert!(logger.ram_bytes_used() <= logger.capacity_bytes());
            prop_assert_eq!(logger.offered(), n as u64);
            match policy {
                OverflowPolicy::Flush => prop_assert_eq!(logger.len(), n),
                OverflowPolicy::Stop | OverflowPolicy::Wrap => {
                    prop_assert_eq!(logger.len(), n.min(capacity));
                }
            }
            // Survivors come out oldest first: Stop keeps the first
            // `capacity`, Wrap the last `capacity`, Flush everything.
            let held: Vec<u32> = logger.chunks().flatten().map(|e| e.icount).collect();
            let kept = match policy {
                OverflowPolicy::Stop => 0..n.min(capacity),
                OverflowPolicy::Wrap => n.saturating_sub(capacity)..n,
                OverflowPolicy::Flush => 0..n,
            };
            prop_assert_eq!(held, kept.map(|i| i as u32).collect::<Vec<_>>());
        }
    }

    /// Ground-truth energy accounting is additive: the per-sink energies sum
    /// to the total, for arbitrary sequences of LED switches.
    #[test]
    fn energy_accumulator_is_additive(switches in prop::collection::vec((0usize..3, any::<bool>(), 1u64..500), 1..40)) {
        let (cat, _cpu, leds) = blink_catalog();
        let cat = Arc::new(cat);
        let model = Arc::new(PowerModel::ideal(cat));
        let mut acc = quanto::hw_model::EnergyAccumulator::new(model);
        let mut t = 0u64;
        for (led, on, dt) in switches {
            t += dt;
            let state = if on { led_state::ON } else { led_state::OFF };
            acc.set_state(SimTime::from_millis(t), leds[led], state);
        }
        acc.advance(SimTime::from_millis(t + 100));
        let bd = acc.breakdown();
        let sum: f64 = bd.per_sink.values().map(|e| e.as_micro_joules()).sum();
        prop_assert!((sum - bd.total.as_micro_joules()).abs() < 1e-6);
    }

    /// The accumulator's cached draws are bit-exact: for random `set_state`
    /// (same-state and same-time calls included) and `advance` sequences on
    /// biased HydroWatch and Blink models, the total, the current power and
    /// every sink's energy equal, bit for bit, a reference that re-derives
    /// every draw and re-sums the whole state vector on each advance.
    #[test]
    fn energy_accumulator_matches_full_resum_reference(
        noise_seed in 0u64..1_000,
        ops in prop::collection::vec((0usize..64, 0usize..8, 0u64..3_000, 0u8..4), 1..120),
    ) {
        let catalogs = [hydrowatch().0, blink_catalog().0];
        for cat in catalogs {
            let model = Arc::new(PowerModel::new(
                Arc::new(cat),
                Voltage::from_volts(3.0),
                NoiseModel::realistic(noise_seed),
            ));
            let mut acc = EnergyAccumulator::new(model.clone());
            let mut reference = FullResumAccumulator::new(model.clone());
            let cat = model.catalog().clone();
            let mut t = 0u64;
            for &(sink, state, dt, kind) in &ops {
                let sink = SinkId((sink % cat.sink_count()) as u16);
                let state = match kind {
                    // Re-assert the sink's current state: must change nothing.
                    0 => acc.state().state(sink),
                    _ => StateIndex((state % cat.sink(sink).state_count()) as u8),
                };
                // A quarter of the steps land at the same instant.
                if dt % 4 != 0 {
                    t += dt;
                }
                let to = SimTime::from_micros(t);
                if kind == 3 {
                    acc.advance(to);
                    reference.advance(to);
                } else {
                    prop_assert_eq!(acc.set_state(to, sink, state), reference.set_state(to, sink, state));
                }
                prop_assert_eq!(
                    acc.current_power().as_micro_watts().to_bits(),
                    model.true_power(&reference.state).as_micro_watts().to_bits()
                );
            }
            acc.advance(SimTime::from_micros(t + 1_000));
            reference.advance(SimTime::from_micros(t + 1_000));
            prop_assert_eq!(
                acc.total_energy().as_micro_joules().to_bits(),
                reference.total.as_micro_joules().to_bits()
            );
            let bd = acc.breakdown();
            prop_assert_eq!(bd.total.as_micro_joules().to_bits(), reference.total.as_micro_joules().to_bits());
            for (i, e) in reference.per_sink.iter().enumerate() {
                prop_assert_eq!(
                    bd.sink(SinkId(i as u16)).as_micro_joules().to_bits(),
                    e.as_micro_joules().to_bits()
                );
            }
        }
    }

    /// The regression recovers per-LED power draws (within quantization
    /// error) for randomized schedules that exercise all LED combinations.
    #[test]
    fn regression_recovers_powers_for_random_schedules(seed_durs in prop::collection::vec(200u64..2_000, 8)) {
        let (cat, _cpu, leds) = blink_catalog();
        let cat = Arc::new(cat);
        let model = PowerModel::ideal(cat.clone());
        let mut intervals = Vec::new();
        let mut t = SimTime::ZERO;
        let mut cumulative = 0.0f64;
        let mut prev = 0u64;
        for (mask, ms) in seed_durs.iter().enumerate() {
            let mut sv = StateVector::baseline(&cat);
            for (i, led) in leds.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    sv.set_state(*led, led_state::ON);
                }
            }
            let dur = SimDuration::from_millis(*ms);
            cumulative += model.energy_over(&sv, dur).as_micro_joules();
            let counts = cumulative.floor() as u64;
            intervals.push(PowerInterval {
                start: t,
                end: t + dur,
                counts: (counts - prev) as u32,
                states: (0..cat.sink_count()).map(|i| sv.state(SinkId(i as u16))).collect(),
            });
            prev = counts;
            t += dur;
        }
        let reg = analysis::regress_intervals(
            &intervals,
            &cat,
            Energy::from_micro_joules(1.0),
            RegressionOptions::default(),
        );
        prop_assume!(reg.is_ok());
        let reg = reg.unwrap();
        let supply = Voltage::from_volts(3.0);
        let i0 = reg
            .state_current(&cat, leds[0], led_state::ON, supply)
            .unwrap()
            .as_milli_amps();
        // Blink-catalog LED0 nominal is 2.5 mA; quantization on short
        // intervals can cost a few percent.
        prop_assert!((i0 - 2.5).abs() < 0.25, "estimated {} mA", i0);
    }

    /// The streaming interval builder fed arbitrary chunk sizes (including
    /// 1-entry chunks, with wall-clock steps large enough that chunk
    /// boundaries straddle 32-bit time wraps many times per case) produces
    /// exactly the batch `power_intervals` output — and the incremental
    /// observation pool regresses to exactly the batch `regress_intervals`
    /// result, bit for bit.
    #[test]
    fn streamed_intervals_match_batch_for_random_chunkings(
        steps in prop::collection::vec(
            (1u64..2_000_000_000, 0usize..4, 1u32..50_000, any::<bool>()),
            1..60,
        ),
        chunk in 1usize..17,
    ) {
        let (cat, _cpu, leds) = blink_catalog();
        // Build a log whose 32-bit clock wraps roughly every four entries.
        let mut t: u64 = 0;
        let mut ic: u32 = 0;
        let mut entries = Vec::new();
        for (dt, which, dic, on) in &steps {
            t += dt;
            ic = ic.wrapping_add(*dic);
            if *which < 3 {
                entries.push(LogEntry::power_state(
                    SimTime::from_micros(t),
                    ic,
                    leds[*which],
                    if *on { led_state::ON.as_u8() as u16 } else { led_state::OFF.as_u8() as u16 },
                ));
            } else {
                // Activity entries matter only for wrap detection here; the
                // interval builder must still consume their timestamps.
                entries.push(LogEntry::activity(
                    EntryKind::ActivityChange,
                    SimTime::from_micros(t),
                    ic,
                    DeviceId(0),
                    ActivityLabel::new(NodeId(1), ActivityId(1)),
                ));
            }
        }
        let stamp = Some(quanto::quanto_core::Stamp::new(
            SimTime::from_micros(t + 500),
            ic.wrapping_add(3),
        ));
        let batch = analysis::power_intervals(&entries, &cat, stamp);

        let mut builder = analysis::IntervalBuilder::new(&cat);
        let mut streamed = Vec::new();
        let mut pool = analysis::ObservationPool::new();
        for c in entries.chunks(chunk) {
            builder.push_chunk(c);
            for iv in builder.drain_completed() {
                pool.add(&iv);
                streamed.push(iv);
            }
        }
        for iv in builder.finish(stamp) {
            pool.add(&iv);
            streamed.push(iv);
        }
        prop_assert!(streamed == batch, "streamed != batch at chunk size {}", chunk);

        let epc = Energy::from_micro_joules(1.0);
        let batch_reg = analysis::regress_intervals(&batch, &cat, epc, RegressionOptions::default());
        let stream_reg = analysis::regress(&pool.observations(epc), &cat, RegressionOptions::default());
        match (batch_reg, stream_reg) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.columns, &b.columns);
                prop_assert_eq!(a.relative_error.to_bits(), b.relative_error.to_bits());
                for (pa, pb) in a.power_uw.iter().zip(b.power_uw.iter()) {
                    prop_assert_eq!(pa.to_bits(), pb.to_bits());
                }
                prop_assert_eq!(a.constant_uw.to_bits(), b.constant_uw.to_bits());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "regressions diverged: {:?} vs {:?}", a, b),
        }
    }

    /// The streaming segment builder matches batch `activity_segments` for
    /// random schedules with binds, at random chunk sizes, in both binding
    /// modes.
    #[test]
    fn streamed_segments_match_batch_for_random_chunkings(
        changes in prop::collection::vec((1u64..1_500_000_000, 0u8..4, any::<bool>()), 1..50),
        chunk in 1usize..9,
        resolve in any::<bool>(),
    ) {
        let dev = DeviceId(0);
        let mut t = 0u64;
        let mut entries = Vec::new();
        for (dt, act, bind) in &changes {
            t += dt;
            entries.push(LogEntry::activity(
                if *bind { EntryKind::ActivityBind } else { EntryKind::ActivityChange },
                SimTime::from_micros(t),
                0,
                dev,
                ActivityLabel::new(NodeId(1), ActivityId(*act)),
            ));
        }
        let stamp = Some(quanto::quanto_core::Stamp::new(SimTime::from_micros(t + 100), 0));
        let batch = analysis::activity_segments(&entries, dev, resolve, stamp);
        let mut builder = analysis::SegmentBuilder::new(dev, resolve);
        let mut streamed = Vec::new();
        for c in entries.chunks(chunk) {
            builder.push_chunk(c);
            streamed.extend(builder.drain_completed());
        }
        streamed.extend(builder.finish(stamp));
        prop_assert!(streamed == batch, "streamed != batch (resolve {}, chunk {})", resolve, chunk);
    }

    /// Activity-segment extraction conserves time: segments of a device
    /// partition [0, end) with no overlaps and no gaps.
    #[test]
    fn activity_segments_partition_time(changes in prop::collection::vec((1u64..10_000, 0u8..5), 1..50)) {
        let dev = DeviceId(0);
        let mut entries = Vec::new();
        let mut t = 0u64;
        for (dt, act) in &changes {
            t += dt;
            entries.push(LogEntry::activity(
                EntryKind::ActivityChange,
                SimTime::from_micros(t),
                0,
                dev,
                ActivityLabel::new(NodeId(1), ActivityId(*act)),
            ));
        }
        let end = t + 1_000;
        let final_stamp = quanto::quanto_core::Stamp::new(SimTime::from_micros(end), 0);
        let segs = analysis::activity_segments(&entries, dev, false, Some(final_stamp));
        // Total coverage equals the window.
        let covered: u64 = segs.iter().map(|s| s.duration().as_micros()).sum();
        prop_assert_eq!(covered, end);
        // Segments are contiguous and ordered.
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
    }

    /// The observation pool groups arbitrary chunked interval streams over
    /// the 17-sink HydroWatch catalog exactly as a `BTreeMap<Vec<u8>, _>`
    /// keyed by the state bytes does: the same combinations, in the same
    /// (lexicographic) order, with equal times and bit-equal energies — and
    /// again after `clear`, so a pooled (reused) pool agrees too.
    #[test]
    fn pool_groups_like_the_byte_keyed_btreemap(
        steps in prop::collection::vec((1u64..5_000, 0u16..17, 0u16..4, 0u32..400), 1..120),
        chunk in 1usize..17,
        epc_pj in 1u32..1_000_000,
    ) {
        let (cat, _) = hydrowatch();
        let mut t = 0u64;
        let mut ic = 0u32;
        let entries: Vec<LogEntry> = steps
            .iter()
            .map(|(dt, sink, value, dic)| {
                t += dt;
                ic = ic.wrapping_add(*dic);
                LogEntry::power_state(SimTime::from_micros(t), ic, SinkId(*sink), *value)
            })
            .collect();
        let stamp = Some(Stamp::new(SimTime::from_micros(t + 250), ic.wrapping_add(9)));
        let epc = Energy::from_micro_joules(f64::from(epc_pj) * 1e-6);

        let mut builder = analysis::IntervalBuilder::new(&cat);
        let mut pool = analysis::ObservationPool::new();
        for _ in 0..2 {
            let mut oracle: BTreeMap<Vec<u8>, (SimDuration, u64)> = BTreeMap::new();
            let mut absorb = |iv: &PowerInterval, pool: &mut analysis::ObservationPool| {
                pool.add(iv);
                let key: Vec<u8> = iv.states.iter().map(|s| s.as_u8()).collect();
                let slot = oracle.entry(key).or_insert((SimDuration::ZERO, 0));
                slot.0 += iv.duration();
                slot.1 += iv.counts as u64;
            };
            for c in entries.chunks(chunk) {
                builder.push_chunk(c);
                for iv in builder.drain_completed() {
                    absorb(&iv, &mut pool);
                }
            }
            builder.flush(stamp);
            for iv in builder.drain_completed() {
                absorb(&iv, &mut pool);
            }

            let got = pool.observations(epc);
            prop_assert_eq!(got.len(), oracle.len());
            prop_assert_eq!(pool.len(), oracle.len());
            for (obs, (key, (time, counts))) in got.iter().zip(&oracle) {
                let states: Vec<u8> = obs.states.iter().map(|s| s.as_u8()).collect();
                prop_assert_eq!(&states, key);
                prop_assert_eq!(obs.time, *time);
                prop_assert_eq!(
                    obs.energy.as_micro_joules().to_bits(),
                    (epc * *counts as f64).as_micro_joules().to_bits()
                );
            }
            builder.reset(&cat);
            pool.clear();
        }
    }

    /// The pool's packed-key lookup (a branch-free scan while the pool is
    /// small, binary search past its 32-group scan limit) pools
    /// exactly like a plain binary search over the combinations' slices.
    /// Streams draw from 1–40 distinct combinations of HydroWatch and Blink
    /// lengths, so a pool can cross from scanning to searching mid-stream.
    /// A third of the HydroWatch-length combinations hold state index 0
    /// (what unused inline slots hold) past the Blink length, so they can
    /// share every state word with a Blink combination and differ only in
    /// length.  `observations()` must
    /// equal the reference bit for bit and in order, round after round of
    /// `clear()`.
    #[test]
    fn pool_matches_a_binary_search_reference(
        combos in prop::collection::vec((0u8..3, prop::collection::vec(0u8..3, MAX_SINKS)), 1..41),
        picks in prop::collection::vec((0usize..1_000, 0u64..5_000, 0u32..400), 1..300),
        rounds in 1usize..5,
        epc_pj in 1u32..1_000_000,
    ) {
        let blink = blink_catalog().0.sink_count();
        let hydro = hydrowatch().0.sink_count();
        let combos: Vec<StateCombination> = combos
            .iter()
            .map(|(kind, states)| {
                let len = if *kind == 0 { blink } else { hydro };
                let states = states[..len].iter().enumerate().map(|(i, &s)| {
                    StateIndex(if *kind == 2 && i >= blink { 0 } else { s })
                });
                states.collect()
            })
            .collect();
        let epc = Energy::from_micro_joules(f64::from(epc_pj) * 1e-6);
        let mut pool = analysis::ObservationPool::new();
        for round in 0..rounds {
            let mut reference: Vec<(StateCombination, SimDuration, u64)> = Vec::new();
            let mut t = SimTime::ZERO;
            for &(pick, dt, counts) in &picks {
                let iv = PowerInterval {
                    start: t,
                    end: t + SimDuration::from_micros(dt),
                    // Each round visits the combinations in another order.
                    states: combos[(pick + round) % combos.len()],
                    counts,
                };
                t = iv.end;
                pool.add(&iv);
                let i = match reference.binary_search_by(|(key, ..)| key[..].cmp(&iv.states[..])) {
                    Ok(i) => i,
                    Err(i) => {
                        reference.insert(i, (iv.states, SimDuration::ZERO, 0));
                        i
                    }
                };
                reference[i].1 += iv.duration();
                reference[i].2 += u64::from(iv.counts);
            }
            let got = pool.observations(epc);
            prop_assert_eq!(got.len(), reference.len());
            for (obs, (states, time, counts)) in got.iter().zip(&reference) {
                prop_assert_eq!(&obs.states[..], &states[..]);
                prop_assert_eq!(obs.time, *time);
                prop_assert_eq!(
                    obs.energy.as_micro_joules().to_bits(),
                    (epc * *counts as f64).as_micro_joules().to_bits()
                );
            }
            pool.clear();
            prop_assert!(pool.is_empty());
        }
    }

    /// A `StateCombination` compares exactly like the slice it holds, for
    /// every pair of lengths up to the inline capacity (prefixes included:
    /// the small state range makes shared prefixes and ties common).
    #[test]
    fn state_combinations_order_like_their_slices(
        a in prop::collection::vec(0u8..3, 0..=MAX_SINKS),
        b in prop::collection::vec(0u8..3, 0..=MAX_SINKS),
        b_from_a_prefix in any::<bool>(),
    ) {
        let a: Vec<StateIndex> = a.into_iter().map(StateIndex).collect();
        let mut b: Vec<StateIndex> = b.into_iter().map(StateIndex).collect();
        if b_from_a_prefix {
            // Share a prefix with `a`, so ties on leading states are common.
            let keep = b.len().min(a.len());
            b[..keep].copy_from_slice(&a[..keep]);
        }
        let (ca, cb) = (StateCombination::from_slice(&a), StateCombination::from_slice(&b));
        prop_assert_eq!(&*ca, a.as_slice());
        prop_assert_eq!(ca.cmp(&cb), a.cmp(&b));
        prop_assert_eq!(ca == cb, a == b);
        prop_assert_eq!(ca.partial_cmp(&cb), a.partial_cmp(&b));
    }
}

/// The accumulator as it integrated before it cached draws: each advance
/// looks up every sink's current, multiplies it out, and re-sums the whole
/// state vector for the total.
struct FullResumAccumulator {
    model: Arc<PowerModel>,
    state: StateVector,
    now: SimTime,
    total: Energy,
    per_sink: Vec<Energy>,
}

impl FullResumAccumulator {
    fn new(model: Arc<PowerModel>) -> Self {
        let state = StateVector::boot(model.catalog());
        let per_sink = vec![Energy::ZERO; state.len()];
        FullResumAccumulator {
            model,
            state,
            now: SimTime::ZERO,
            total: Energy::ZERO,
            per_sink,
        }
    }

    fn advance(&mut self, to: SimTime) {
        if to <= self.now {
            return;
        }
        let dur = to.duration_since(self.now);
        for (sink, state) in self.state.iter() {
            let e = (self.model.true_state_current(sink, state) * self.model.supply()) * dur;
            if e != Energy::ZERO {
                self.per_sink[sink.as_usize()] += e;
            }
        }
        self.total += self.model.energy_over(&self.state, dur);
        self.now = to;
    }

    fn set_state(&mut self, at: SimTime, sink: SinkId, state: StateIndex) -> StateIndex {
        self.advance(at);
        self.state.set_state(sink, state)
    }
}
