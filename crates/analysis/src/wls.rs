//! The paper's weighted multivariate least-squares regression (Section 2.5).
//!
//! The input is the set of power intervals extracted from a log.  Intervals
//! with the same combination of power states are pooled (their times and
//! energies are summed); for each pooled state `j` the average aggregate
//! power `y_j = E_j / t_j` is an observation, weighted by `w_j = √(E_j·t_j)`.
//! The unknown per-state power draws Π then solve
//!
//! ```text
//! Π = (XᵀWX)⁻¹ XᵀWY,     ε = Y − XΠ
//! ```
//!
//! where `X` is the 0/1 design matrix of active power states (plus a constant
//! column absorbing quiescent draw), and `W = diag(w_j)`.

use crate::intervals::{PackedCombination, PowerInterval, StateCombination};
use crate::matrix::{weighted_least_squares, Matrix, MatrixError};
use hw_model::{Catalog, Current, Energy, Power, SimDuration, SinkId, StateIndex, Voltage};

/// One pooled observation: a unique combination of power states with the
/// total time and energy spent in it.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Per-sink state indices for this pooled state.
    pub states: StateCombination,
    /// Total time spent in this state combination.
    pub time: SimDuration,
    /// Total (nominal) energy metered in this state combination.
    pub energy: Energy,
}

impl Observation {
    /// Average aggregate power for this observation (`y_j`).
    pub fn average_power(&self) -> Power {
        if self.time.is_zero() {
            Power::ZERO
        } else {
            self.energy / self.time
        }
    }

    /// The regression weight `w_j = √(E_j · t_j)` (in µJ·s units).
    pub fn weight(&self) -> f64 {
        (self.energy.as_micro_joules().max(0.0) * self.time.as_secs_f64()).sqrt()
    }
}

/// Incrementally pools power intervals by their state combination (the
/// grouping step of Section 2.5).  Because pooling sums integer times and
/// pulse counts per *distinct state combination*, its memory is bounded by
/// the number of combinations the platform can express — not by the number
/// of intervals — which is what lets a streaming consumer regress a
/// week-long log without holding it.
///
/// The groups sit in vectors sorted by combination, and each group's key is
/// its combination packed into four words (see `StateCombination::packed`),
/// computed once when the group is inserted.  A lookup packs the interval's
/// combination once and, while the pool is small (a platform run typically
/// visits 6–16 combinations), scans every key with a select instead of a
/// branch, so the common case has no data-dependent branch; past 32 groups
/// it binary-searches the keys.  A group is inserted only the first time
/// its combination appears, so folding an interval whose combination was
/// seen before never allocates, and [`ObservationPool::clear`] keeps the
/// capacity for the next run.  The sort order is lexicographic on the state
/// indices, which fixes the order of [`ObservationPool::observations`].
#[derive(Debug, Clone, Default)]
pub struct ObservationPool {
    /// Each group's packed combination, in sorted order — the only thing a
    /// lookup reads, kept contiguous.
    keys: Vec<PackedCombination>,
    /// Per group, parallel to `keys`: the combination and its summed time
    /// and pulse counts.
    groups: Vec<(StateCombination, SimDuration, u64)>,
}

impl ObservationPool {
    /// Pools up to this many groups are searched by a branch-free scan;
    /// larger ones by binary search.
    const SCAN_LIMIT: usize = 32;

    /// An empty pool.
    pub fn new() -> Self {
        ObservationPool::default()
    }

    /// The index of the group keyed `key`, if the pool has one.
    fn find(&self, key: &PackedCombination) -> Option<usize> {
        if self.keys.len() <= Self::SCAN_LIMIT {
            let mut hit = usize::MAX;
            for (i, k) in self.keys.iter().enumerate() {
                // Word-wise XOR-OR keeps `key` in registers; a select, not
                // a branch, records the match.
                let diff = k.iter().zip(key).fold(0, |d, (a, b)| d | (a ^ b));
                hit = if diff == 0 { i } else { hit };
            }
            (hit != usize::MAX).then_some(hit)
        } else {
            self.keys.binary_search(key).ok()
        }
    }

    /// Inserts an empty group for a combination the pool has not seen,
    /// keeping the sort order; returns its index.  Runs once per distinct
    /// combination, so it stays out of line.
    #[cold]
    #[inline(never)]
    fn insert(&mut self, key: PackedCombination, states: StateCombination) -> usize {
        let i = self.keys.partition_point(|k| *k < key);
        self.keys.insert(i, key);
        self.groups.insert(i, (states, SimDuration::ZERO, 0));
        i
    }

    /// Folds one interval into the pool.
    pub fn add(&mut self, interval: &PowerInterval) {
        let key = interval.states.packed();
        let i = match self.find(&key) {
            Some(i) => i,
            None => self.insert(key, interval.states),
        };
        let (_, time, counts) = &mut self.groups[i];
        *time += interval.duration();
        *counts += interval.counts as u64;
    }

    /// Empties the pool for reuse across runs, keeping its capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.groups.clear();
    }

    /// Number of distinct state combinations seen.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether any interval has been pooled.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Converts the pooled sums into regression observations, pricing pulse
    /// counts at `energy_per_count`.
    pub fn observations(&self, energy_per_count: Energy) -> Vec<Observation> {
        self.groups
            .iter()
            .map(|&(states, time, counts)| Observation {
                states,
                time,
                energy: energy_per_count * counts as f64,
            })
            .collect()
    }
}

/// Pools power intervals by their state combination (the grouping step of
/// Section 2.5) and converts pulse counts into nominal energy.  Batch
/// wrapper over [`ObservationPool`].
pub fn pool_intervals(intervals: &[PowerInterval], energy_per_count: Energy) -> Vec<Observation> {
    let mut pool = ObservationPool::new();
    for iv in intervals {
        pool.add(iv);
    }
    pool.observations(energy_per_count)
}

/// Options controlling the regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegressionOptions {
    /// Use the paper's `√(E·t)` weights (`true`) or ordinary least squares
    /// (`false`, the ablation).
    pub weighted: bool,
    /// Include a constant column absorbing quiescent / baseline draw.
    pub include_constant: bool,
}

impl Default for RegressionOptions {
    fn default() -> Self {
        RegressionOptions {
            weighted: true,
            include_constant: true,
        }
    }
}

/// Why a regression could not be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum RegressionError {
    /// Fewer observations than unknowns: the workload has not exercised
    /// enough distinct power states yet.
    Underdetermined {
        /// Number of pooled observations available.
        observations: usize,
        /// Number of unknown coefficients requested.
        unknowns: usize,
    },
    /// The design matrix is singular: some power states always occur
    /// together, so their draws cannot be disambiguated (Section 5.2,
    /// "Linear independence").
    Collinear,
    /// No observations at all.
    Empty,
}

impl std::fmt::Display for RegressionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegressionError::Underdetermined {
                observations,
                unknowns,
            } => write!(
                f,
                "underdetermined regression: {observations} observations for {unknowns} unknowns"
            ),
            RegressionError::Collinear => {
                write!(
                    f,
                    "collinear power states: regression cannot disambiguate them"
                )
            }
            RegressionError::Empty => write!(f, "no observations"),
        }
    }
}

impl std::error::Error for RegressionError {}

/// The estimated per-state power draws.
#[derive(Debug, Clone)]
pub struct RegressionResult {
    /// Catalog column indices that were actually estimated (columns that
    /// never varied across observations are excluded).
    pub columns: Vec<usize>,
    /// Estimated power draw (µW) for each entry of `columns`.
    pub power_uw: Vec<f64>,
    /// Estimated constant (quiescent) power draw in µW, zero when no
    /// constant column was requested.
    pub constant_uw: f64,
    /// Observed average power (µW) per pooled observation.
    pub observed_uw: Vec<f64>,
    /// Fitted average power (µW) per pooled observation (`XΠ`).
    pub fitted_uw: Vec<f64>,
    /// Relative error `‖Y − XΠ‖ / ‖Y‖` (unweighted norms, as reported under
    /// Table 2).
    pub relative_error: f64,
    /// The pooled observations the fit was computed from.
    pub observations: Vec<Observation>,
}

impl RegressionResult {
    /// Estimated power for a (sink, state) pair, if that pair was estimable.
    pub fn state_power(&self, catalog: &Catalog, sink: SinkId, state: StateIndex) -> Option<Power> {
        let col = catalog.column(sink, state)?;
        let idx = self.columns.iter().position(|c| *c == col)?;
        Some(Power::from_micro_watts(self.power_uw[idx]))
    }

    /// Estimated current for a (sink, state) pair at a supply voltage.
    pub fn state_current(
        &self,
        catalog: &Catalog,
        sink: SinkId,
        state: StateIndex,
        supply: Voltage,
    ) -> Option<Current> {
        self.state_power(catalog, sink, state).map(|p| p / supply)
    }

    /// The constant (quiescent) power.
    pub fn constant_power(&self) -> Power {
        Power::from_micro_watts(self.constant_uw)
    }

    /// The constant (quiescent) current at a supply voltage.
    pub fn constant_current(&self, supply: Voltage) -> Current {
        self.constant_power() / supply
    }

    /// Human-readable labels for the estimated columns plus `"Const."`.
    pub fn labels(&self, catalog: &Catalog) -> Vec<String> {
        let mut out: Vec<String> = self
            .columns
            .iter()
            .map(|c| catalog.column_label(*c))
            .collect();
        out.push("Const.".to_string());
        out
    }
}

/// Runs the weighted least-squares estimation over pooled observations.
pub fn regress(
    observations: &[Observation],
    catalog: &Catalog,
    options: RegressionOptions,
) -> Result<RegressionResult, RegressionError> {
    if observations.is_empty() {
        return Err(RegressionError::Empty);
    }

    // Determine which catalog columns actually vary across observations:
    // a column that is always inactive carries no information, and one that
    // is always active is indistinguishable from the constant.
    let ncols = catalog.column_count();
    let mut seen_active = vec![false; ncols];
    let mut seen_inactive = vec![false; ncols];
    let design_rows: Vec<Vec<f64>> = observations
        .iter()
        .map(|o| {
            let mut row = vec![0.0; ncols];
            for (i, state) in o.states.iter().enumerate() {
                if let Some(col) = catalog.column(SinkId(i as u16), *state) {
                    row[col] = 1.0;
                }
            }
            for (c, v) in row.iter().enumerate() {
                if *v == 1.0 {
                    seen_active[c] = true;
                } else {
                    seen_inactive[c] = true;
                }
            }
            row
        })
        .collect();

    let columns: Vec<usize> = (0..ncols)
        .filter(|c| seen_active[*c] && (seen_inactive[*c] || !options.include_constant))
        .collect();
    let unknowns = columns.len() + usize::from(options.include_constant);
    if observations.len() < unknowns {
        return Err(RegressionError::Underdetermined {
            observations: observations.len(),
            unknowns,
        });
    }

    // Build the reduced design matrix (selected columns + optional constant).
    let x_rows: Vec<Vec<f64>> = design_rows
        .iter()
        .map(|full| {
            let mut row: Vec<f64> = columns.iter().map(|c| full[*c]).collect();
            if options.include_constant {
                row.push(1.0);
            }
            row
        })
        .collect();
    let x = Matrix::from_rows(&x_rows);

    let y: Vec<f64> = observations
        .iter()
        .map(|o| o.average_power().as_micro_watts())
        .collect();
    let weights: Vec<f64> = if options.weighted {
        observations
            .iter()
            .map(|o| {
                let w = o.weight();
                // Guard against zero weights nuking an observation entirely;
                // quantization can make a short idle interval meter 0 pulses.
                if w > 0.0 {
                    w
                } else {
                    f64::MIN_POSITIVE.sqrt()
                }
            })
            .collect()
    } else {
        vec![1.0; observations.len()]
    };

    let pi = weighted_least_squares(&x, &y, &weights).map_err(|e| match e {
        MatrixError::Singular { .. } => RegressionError::Collinear,
        MatrixError::ShapeMismatch { .. } => RegressionError::Collinear,
    })?;

    let (coeffs, constant_uw) = if options.include_constant {
        (pi[..columns.len()].to_vec(), pi[columns.len()])
    } else {
        (pi.clone(), 0.0)
    };

    // Fitted values and relative error.
    let fitted: Vec<f64> = x_rows
        .iter()
        .map(|row| row.iter().zip(pi.iter()).map(|(a, b)| a * b).sum())
        .collect();
    let resid_norm: f64 = y
        .iter()
        .zip(fitted.iter())
        .map(|(o, f)| (o - f).powi(2))
        .sum::<f64>()
        .sqrt();
    let y_norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
    let relative_error = if y_norm > 0.0 {
        resid_norm / y_norm
    } else {
        0.0
    };

    Ok(RegressionResult {
        columns,
        power_uw: coeffs,
        constant_uw,
        observed_uw: y,
        fitted_uw: fitted,
        relative_error,
        observations: observations.to_vec(),
    })
}

/// Convenience: pool intervals and regress in one step.
pub fn regress_intervals(
    intervals: &[PowerInterval],
    catalog: &Catalog,
    energy_per_count: Energy,
    options: RegressionOptions,
) -> Result<RegressionResult, RegressionError> {
    let obs = pool_intervals(intervals, energy_per_count);
    regress(&obs, catalog, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw_model::catalog::{blink_catalog, led_state};
    use hw_model::{PowerModel, SimTime, StateVector};
    use std::sync::Arc;

    /// Builds synthetic power intervals for all eight LED combinations of
    /// Blink, metering energy with an ideal 1 uJ/count meter.
    fn blink_intervals() -> (Vec<PowerInterval>, Arc<Catalog>, [SinkId; 3], SinkId) {
        let (cat, cpu, leds) = blink_catalog();
        let cat = Arc::new(cat);
        let model = PowerModel::ideal(cat.clone());
        let mut intervals = Vec::new();
        let mut t = SimTime::ZERO;
        let mut cumulative_uj = 0.0f64;
        let mut prev_counts = 0u64;
        let dur = SimDuration::from_secs(1);
        for mask in 0..8u8 {
            let mut sv = StateVector::baseline(&cat);
            for (i, led) in leds.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    sv.set_state(*led, led_state::ON);
                }
            }
            let e = model.energy_over(&sv, dur).as_micro_joules();
            cumulative_uj += e;
            let counts_now = cumulative_uj.floor() as u64;
            intervals.push(PowerInterval {
                start: t,
                end: t + dur,
                counts: (counts_now - prev_counts) as u32,
                states: (0..cat.sink_count())
                    .map(|i| sv.state(SinkId(i as u16)))
                    .collect(),
            });
            prev_counts = counts_now;
            t += dur;
        }
        (intervals, cat, leds, cpu)
    }

    #[test]
    fn pooling_merges_equal_states() {
        let (mut intervals, _cat, _leds, _cpu) = blink_intervals();
        // Duplicate the first interval; pooling should merge it.
        let dup = intervals[0];
        intervals.push(PowerInterval {
            start: SimTime::from_secs(100),
            end: SimTime::from_secs(101),
            ..dup
        });
        let obs = pool_intervals(&intervals, Energy::from_micro_joules(1.0));
        assert_eq!(obs.len(), 8);
        let merged = obs
            .iter()
            .find(|o| o.time.as_secs_f64() > 1.5)
            .expect("merged observation");
        assert_eq!(merged.time.as_micros(), 2_000_000);
    }

    #[test]
    fn regression_recovers_led_currents() {
        let (intervals, cat, leds, _cpu) = blink_intervals();
        let result = regress_intervals(
            &intervals,
            &cat,
            Energy::from_micro_joules(1.0),
            RegressionOptions::default(),
        )
        .unwrap();

        let supply = Voltage::from_volts(3.0);
        let i0 = result
            .state_current(&cat, leds[0], led_state::ON, supply)
            .unwrap()
            .as_milli_amps();
        let i1 = result
            .state_current(&cat, leds[1], led_state::ON, supply)
            .unwrap()
            .as_milli_amps();
        let i2 = result
            .state_current(&cat, leds[2], led_state::ON, supply)
            .unwrap()
            .as_milli_amps();
        // Nominal Blink-catalog LED currents are 2.5, 2.23 and 0.83 mA; the
        // 1 uJ quantization allows a small error.
        assert!((i0 - 2.5).abs() < 0.05, "led0 {i0}");
        assert!((i1 - 2.23).abs() < 0.05, "led1 {i1}");
        assert!((i2 - 0.83).abs() < 0.05, "led2 {i2}");
        // The ordering red > green > blue (Table 2) must hold.
        assert!(i0 > i1 && i1 > i2);
        // With near-ideal metering the relative error is small (paper: 0.83%).
        assert!(
            result.relative_error < 0.02,
            "err {}",
            result.relative_error
        );
        // The constant absorbs the idle CPU (a few uW); it must be small and
        // non-negative within noise.
        assert!(result.constant_power().as_milli_watts() < 0.1);
        assert_eq!(result.labels(&cat).last().unwrap(), "Const.");
    }

    #[test]
    fn unweighted_regression_also_works_on_clean_data() {
        let (intervals, cat, leds, _cpu) = blink_intervals();
        let result = regress_intervals(
            &intervals,
            &cat,
            Energy::from_micro_joules(1.0),
            RegressionOptions {
                weighted: false,
                include_constant: true,
            },
        )
        .unwrap();
        let i0 = result
            .state_current(&cat, leds[0], led_state::ON, Voltage::from_volts(3.0))
            .unwrap()
            .as_milli_amps();
        assert!((i0 - 2.5).abs() < 0.05);
    }

    #[test]
    fn underdetermined_and_empty_inputs_error() {
        let (intervals, cat, _leds, _cpu) = blink_intervals();
        assert!(matches!(
            regress(&[], &cat, RegressionOptions::default()),
            Err(RegressionError::Empty)
        ));
        // Two observations (LED0+LED1 on, LED0+LED2 on) leave LED1, LED2 and
        // the constant as three unknowns: underdetermined.
        let two = [intervals[3], intervals[5]];
        let few = pool_intervals(&two, Energy::from_micro_joules(1.0));
        assert!(matches!(
            regress(&few, &cat, RegressionOptions::default()),
            Err(RegressionError::Underdetermined { .. })
        ));
    }

    #[test]
    fn collinear_states_are_reported() {
        let (cat, _cpu, leds) = blink_catalog();
        let cat = Arc::new(cat);
        // LED0 and LED1 always switch together while LED2 varies freely:
        // four distinct observations, but two identical design columns.
        let combos: [(bool, bool); 4] =
            [(false, false), (false, true), (true, false), (true, true)];
        let mut intervals = Vec::new();
        for (i, (pair_on, led2_on)) in combos.iter().enumerate() {
            let mut sv = StateVector::baseline(&cat);
            if *pair_on {
                sv.set_state(leds[0], led_state::ON);
                sv.set_state(leds[1], led_state::ON);
            }
            if *led2_on {
                sv.set_state(leds[2], led_state::ON);
            }
            let counts = 8 + u32::from(*pair_on) * 14_190 + u32::from(*led2_on) * 2_490;
            intervals.push(PowerInterval {
                start: SimTime::from_secs(i as u64),
                end: SimTime::from_secs(i as u64 + 1),
                counts,
                states: (0..cat.sink_count())
                    .map(|k| sv.state(SinkId(k as u16)))
                    .collect(),
            });
        }
        let err = regress_intervals(
            &intervals,
            &cat,
            Energy::from_micro_joules(1.0),
            RegressionOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, RegressionError::Collinear);
    }

    #[test]
    fn always_on_columns_are_absorbed_by_the_constant() {
        let (cat, cpu, leds) = blink_catalog();
        let cat = Arc::new(cat);
        // The CPU is ACTIVE in every observation; its draw must fold into the
        // constant rather than producing a singular system.
        let mut intervals = Vec::new();
        for mask in 0..4u8 {
            let mut sv = StateVector::baseline(&cat);
            sv.set_state(cpu, StateIndex(1));
            for (i, led) in leds.iter().enumerate().take(2) {
                if mask & (1 << i) != 0 {
                    sv.set_state(*led, led_state::ON);
                }
            }
            let model = PowerModel::ideal(cat.clone());
            let e = model
                .energy_over(&sv, SimDuration::from_secs(1))
                .as_micro_joules();
            intervals.push(PowerInterval {
                start: SimTime::from_secs(mask as u64),
                end: SimTime::from_secs(mask as u64 + 1),
                counts: e as u32,
                states: (0..cat.sink_count())
                    .map(|k| sv.state(SinkId(k as u16)))
                    .collect(),
            });
        }
        let result = regress_intervals(
            &intervals,
            &cat,
            Energy::from_micro_joules(1.0),
            RegressionOptions::default(),
        )
        .unwrap();
        // CPU ACTIVE is not an estimated column.
        assert!(result.state_power(&cat, cpu, StateIndex(1)).is_none());
        // Its 1.5 mW (500 uA at 3 V) shows up in the constant.
        let const_mw = result.constant_power().as_milli_watts();
        assert!((const_mw - 1.5).abs() < 0.1, "constant {const_mw}");
    }

    #[test]
    fn observation_weight_grows_with_energy_and_time() {
        let a = Observation {
            states: StateCombination::default(),
            time: SimDuration::from_secs(1),
            energy: Energy::from_micro_joules(100.0),
        };
        let b = Observation {
            states: StateCombination::default(),
            time: SimDuration::from_secs(4),
            energy: Energy::from_micro_joules(400.0),
        };
        assert!(b.weight() > a.weight());
        assert!((b.weight() / a.weight() - 4.0).abs() < 1e-9);
        assert!((a.average_power().as_micro_watts() - 100.0).abs() < 1e-9);
    }
}
