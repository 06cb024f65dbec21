//! Ground-truth power and energy for the simulated platform.
//!
//! The [`PowerModel`] answers "what is the platform *really* drawing right
//! now?", which plays the role of the physical electrical reality underneath
//! the iCount meter and the oscilloscope in the paper's experiments.  The
//! [`EnergyAccumulator`] integrates that draw over a sequence of power-state
//! transitions, maintaining both the aggregate energy (what iCount can see)
//! and the per-sink split (which only the simulator knows, and which the
//! regression in the `analysis` crate tries to recover).

use crate::catalog::{Catalog, SinkId};
use crate::noise::NoiseModel;
use crate::sink::StateIndex;
use crate::state_vector::StateVector;
use crate::units::{Current, Energy, Power, SimDuration, SimTime, Voltage};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Ground-truth electrical model: per-state true currents and supply voltage.
#[derive(Debug, Clone)]
pub struct PowerModel {
    catalog: Arc<Catalog>,
    supply: Voltage,
    noise: NoiseModel,
    /// true_currents[sink][state] — nominal current times the per-state bias.
    true_currents: Vec<Vec<Current>>,
}

impl PowerModel {
    /// Builds a model over `catalog` at the given supply voltage.
    pub fn new(catalog: Arc<Catalog>, supply: Voltage, noise: NoiseModel) -> Self {
        let total_states = catalog.total_state_count();
        let biases = noise.draw_bias_factors(total_states);
        let mut true_currents = Vec::with_capacity(catalog.sink_count());
        let mut k = 0;
        for (_, sink) in catalog.sinks() {
            let mut per_state = Vec::with_capacity(sink.state_count());
            for state in &sink.states {
                per_state.push(state.current * biases[k]);
                k += 1;
            }
            true_currents.push(per_state);
        }
        PowerModel {
            catalog,
            supply,
            noise,
            true_currents,
        }
    }

    /// Builds an ideal (noise-free) model at 3.0 V, the paper's supply.
    pub fn ideal(catalog: Arc<Catalog>) -> Self {
        PowerModel::new(catalog, Voltage::from_volts(3.0), NoiseModel::IDEAL)
    }

    /// The catalog this model is defined over.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The supply voltage.
    pub fn supply(&self) -> Voltage {
        self.supply
    }

    /// The noise model in effect.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The *true* mean current of one sink in one state (nominal × bias).
    ///
    /// # Panics
    ///
    /// Panics if the sink or state index is out of range.
    pub fn true_state_current(&self, sink: SinkId, state: StateIndex) -> Current {
        self.true_currents[sink.as_usize()][state.as_u8() as usize]
    }

    /// The true aggregate current for a state vector.
    pub fn true_current(&self, sv: &StateVector) -> Current {
        sv.iter()
            .map(|(sink, state)| self.true_state_current(sink, state))
            .sum()
    }

    /// The true aggregate power for a state vector.
    pub fn true_power(&self, sv: &StateVector) -> Power {
        self.true_current(sv) * self.supply
    }

    /// The true contribution of a single sink (in its state from `sv`).
    pub fn true_sink_power(&self, sv: &StateVector, sink: SinkId) -> Power {
        self.true_state_current(sink, sv.state(sink)) * self.supply
    }

    /// Energy consumed if the platform stays in `sv` for `dur`.
    pub fn energy_over(&self, sv: &StateVector, dur: SimDuration) -> Energy {
        self.true_power(sv) * dur
    }

    /// An instantaneous current sample, as an ideal oscilloscope probe would
    /// read it: the true current plus sample noise.
    pub fn sample_current(&self, sv: &StateVector, rng: &mut StdRng) -> Current {
        let true_i = self.true_current(sv).as_micro_amps();
        Current::from_micro_amps(self.noise.perturb_sample(rng, true_i))
    }
}

/// Accumulated ground-truth energy per sink (and total), produced by an
/// [`EnergyAccumulator`].
#[derive(Debug, Clone, Default)]
pub struct EnergyBreakdown {
    /// Total energy across all sinks.
    pub total: Energy,
    /// Energy per sink.
    pub per_sink: HashMap<SinkId, Energy>,
}

impl EnergyBreakdown {
    /// Energy attributed to one sink (zero if it never drew anything).
    pub fn sink(&self, sink: SinkId) -> Energy {
        self.per_sink.get(&sink).copied().unwrap_or(Energy::ZERO)
    }
}

/// Integrates ground-truth energy over a timeline of power-state changes.
///
/// The accumulator is the simulator's "physics": drivers report state changes
/// to it and it charges the battery model accordingly.  The simulated iCount
/// meter is fed from [`EnergyAccumulator::total_energy`].
#[derive(Debug, Clone)]
pub struct EnergyAccumulator {
    model: Arc<PowerModel>,
    state: StateVector,
    now: SimTime,
    total: Energy,
    /// `model.true_power(&state)`, refolded whenever a sink's state actually
    /// changes so `advance` and `current_power` never re-sum the vector.
    power: Power,
    /// Per-sink draw and attribution, dense-indexed by `SinkId` — `advance`
    /// runs on every instrumentation stamp, so this must not hash.
    sinks: Vec<SinkLedger>,
}

/// One sink's cached draw in its current state and its energy so far.
#[derive(Debug, Clone, Copy)]
struct SinkLedger {
    /// `true_state_current` for the sink's current state.
    current: Current,
    /// `current × supply`.
    power: Power,
    energy: Energy,
}

impl SinkLedger {
    fn new(model: &PowerModel, sink: SinkId, state: StateIndex, energy: Energy) -> Self {
        let current = model.true_state_current(sink, state);
        SinkLedger {
            current,
            power: current * model.supply(),
            energy,
        }
    }
}

impl EnergyAccumulator {
    /// Creates an accumulator starting at time zero in the boot state.
    pub fn new(model: Arc<PowerModel>) -> Self {
        let state = StateVector::boot(model.catalog());
        let sinks = state
            .iter()
            .map(|(sink, s)| SinkLedger::new(&model, sink, s, Energy::ZERO))
            .collect();
        let power = model.true_power(&state);
        EnergyAccumulator {
            model,
            state,
            now: SimTime::ZERO,
            total: Energy::ZERO,
            power,
            sinks,
        }
    }

    /// The model driving this accumulator.
    pub fn model(&self) -> &Arc<PowerModel> {
        &self.model
    }

    /// The current (ground-truth) state vector.
    pub fn state(&self) -> &StateVector {
        &self.state
    }

    /// The time up to which energy has been integrated.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total integrated energy so far.
    pub fn total_energy(&self) -> Energy {
        self.total
    }

    /// The current true aggregate power draw.
    pub fn current_power(&self) -> Power {
        self.power
    }

    /// Advances the integration clock to `to`, charging energy for the
    /// elapsed interval at the current state vector.
    ///
    /// Advancing to a time at or before `now` is a no-op, which lets callers
    /// be sloppy about zero-length intervals.
    pub fn advance(&mut self, to: SimTime) {
        if to <= self.now {
            return;
        }
        let dur = to.duration_since(self.now);
        // No zero skip: a sink's energy starts at +0.0 and only ever gains
        // `power × dur`, so adding a zero leaves its bits unchanged.
        for s in &mut self.sinks {
            s.energy += s.power * dur;
        }
        self.total += self.power * dur;
        self.now = to;
    }

    /// Records a power-state change of one sink at time `at`.
    ///
    /// Energy for the interval since the previous event is integrated with
    /// the *old* state vector before the new state takes effect, matching how
    /// the real platform draws power up to the instant of the transition.
    ///
    /// Returns the previous state of the sink.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the accumulator's current time; the simulator
    /// must deliver events in order.
    pub fn set_state(&mut self, at: SimTime, sink: SinkId, state: StateIndex) -> StateIndex {
        assert!(
            at >= self.now,
            "state change at {at} is before accumulator time {}",
            self.now
        );
        self.advance(at);
        let prev = self.state.set_state(sink, state);
        if prev != state {
            let ledger = &mut self.sinks[sink.as_usize()];
            *ledger = SinkLedger::new(&self.model, sink, state, ledger.energy);
            // A full refold in sink order, not "minus old plus new": the
            // cached draw must carry the bits `model.true_power` computes.
            let current: Current = self.sinks.iter().map(|s| s.current).sum();
            self.power = current * self.model.supply();
        }
        prev
    }

    /// Returns the ground-truth energy breakdown accumulated so far.
    pub fn breakdown(&self) -> EnergyBreakdown {
        let per_sink = self
            .sinks
            .iter()
            .enumerate()
            .filter(|(_, s)| s.energy != Energy::ZERO)
            .map(|(i, s)| (SinkId(i as u16), s.energy))
            .collect();
        EnergyBreakdown {
            total: self.total,
            per_sink,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{blink_catalog, led_state};

    fn blink_model() -> (Arc<PowerModel>, SinkId, [SinkId; 3]) {
        let (cat, cpu, leds) = blink_catalog();
        (Arc::new(PowerModel::ideal(Arc::new(cat))), cpu, leds)
    }

    #[test]
    fn ideal_model_uses_nominal_currents() {
        let (model, cpu, leds) = blink_model();
        assert_eq!(
            model.true_state_current(cpu, StateIndex(1)).as_micro_amps(),
            500.0
        );
        assert_eq!(
            model
                .true_state_current(leds[0], led_state::ON)
                .as_milli_amps(),
            2.5
        );
        let mut sv = StateVector::baseline(model.catalog());
        sv.set_state(leds[0], led_state::ON);
        // 2.5 mA at 3 V = 7.5 mW, plus the 2.6 uA idle CPU.
        let p = model.true_power(&sv).as_milli_watts();
        assert!((p - (7.5 + 0.0078)).abs() < 1e-3, "power was {p}");
    }

    #[test]
    fn biased_model_deviates_but_stays_bounded() {
        let (cat, _cpu, leds) = blink_catalog();
        let cat = Arc::new(cat);
        let model = PowerModel::new(
            cat.clone(),
            Voltage::from_volts(3.0),
            NoiseModel::realistic(11),
        );
        let nominal = cat.nominal_current(leds[0], led_state::ON).as_micro_amps();
        let actual = model
            .true_state_current(leds[0], led_state::ON)
            .as_micro_amps();
        assert!(actual > 0.0);
        assert!((actual - nominal).abs() / nominal <= 0.05 + 1e-12);
    }

    #[test]
    fn accumulator_integrates_energy() {
        let (model, _cpu, leds) = blink_model();
        let mut acc = EnergyAccumulator::new(model.clone());
        // 1 second with everything at baseline: only the idle CPU draws.
        acc.advance(SimTime::from_secs(1));
        let idle_e = acc.total_energy().as_micro_joules();
        // 2.6 uA * 3 V * 1 s = 7.8 uJ.
        assert!((idle_e - 7.8).abs() < 1e-9, "idle energy {idle_e}");

        // Turn the red LED on for exactly 2 s.
        acc.set_state(SimTime::from_secs(1), leds[0], led_state::ON);
        acc.set_state(SimTime::from_secs(3), leds[0], led_state::OFF);
        acc.advance(SimTime::from_secs(4));

        // LED energy: 2.5 mA * 3 V * 2 s = 15 mJ.
        let led_e = acc.breakdown().sink(leds[0]).as_milli_joules();
        assert!((led_e - 15.0).abs() < 1e-6, "led energy {led_e}");
        // Total = LED + 4 s of idle CPU.
        let total = acc.total_energy().as_milli_joules();
        assert!(
            (total - (15.0 + 4.0 * 0.0078)).abs() < 1e-6,
            "total {total}"
        );
    }

    #[test]
    fn set_state_charges_old_state_up_to_transition() {
        let (model, _cpu, leds) = blink_model();
        let mut acc = EnergyAccumulator::new(model);
        acc.set_state(SimTime::from_millis(0), leds[2], led_state::ON);
        // At 500 ms the LED goes off; the first 500 ms must be charged at the
        // ON current even though the change event is what triggers advancing.
        acc.set_state(SimTime::from_millis(500), leds[2], led_state::OFF);
        acc.advance(SimTime::from_secs(1));
        let led_e = acc.breakdown().sink(leds[2]).as_micro_joules();
        // 0.83 mA * 3 V * 0.5 s = 1245 uJ.
        assert!((led_e - 1245.0).abs() < 1e-6, "led energy {led_e}");
    }

    #[test]
    #[should_panic(expected = "before accumulator time")]
    fn out_of_order_events_rejected() {
        let (model, _cpu, leds) = blink_model();
        let mut acc = EnergyAccumulator::new(model);
        acc.set_state(SimTime::from_secs(2), leds[0], led_state::ON);
        acc.set_state(SimTime::from_secs(1), leds[0], led_state::OFF);
    }

    #[test]
    fn advance_backwards_is_noop() {
        let (model, _cpu, _leds) = blink_model();
        let mut acc = EnergyAccumulator::new(model);
        acc.advance(SimTime::from_secs(1));
        let e = acc.total_energy();
        acc.advance(SimTime::from_millis(500));
        assert_eq!(acc.total_energy(), e);
        assert_eq!(acc.now(), SimTime::from_secs(1));
    }

    #[test]
    fn breakdown_total_matches_sum_of_sinks() {
        let (model, cpu, leds) = blink_model();
        let mut acc = EnergyAccumulator::new(model);
        acc.set_state(SimTime::from_millis(10), leds[0], led_state::ON);
        acc.set_state(SimTime::from_millis(20), cpu, StateIndex(1));
        acc.set_state(SimTime::from_millis(30), leds[1], led_state::ON);
        acc.set_state(SimTime::from_millis(40), cpu, StateIndex(0));
        acc.advance(SimTime::from_millis(100));
        let bd = acc.breakdown();
        let sum: f64 = bd.per_sink.values().map(|e| e.as_micro_joules()).sum();
        assert!((sum - bd.total.as_micro_joules()).abs() < 1e-9);
    }
}
