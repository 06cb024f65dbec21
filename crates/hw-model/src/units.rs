//! Physical and simulation units.
//!
//! All quantities are newtypes over primitive numbers so that the rest of the
//! workspace cannot accidentally mix, say, microjoules with microseconds.
//! The base units are chosen to match the granularity of the paper's
//! measurements: time in microseconds, current in microamps, energy in
//! microjoules, power in microwatts, and voltage in volts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Absolute simulation time, in microseconds since node boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (node boot).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from a count of microseconds since boot.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from a count of milliseconds since boot.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from a count of seconds since boot.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Returns the time as microseconds since boot.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time as (fractional) milliseconds since boot.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the time as (fractional) seconds since boot.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; callers are expected to only
    /// ask for forward-looking durations.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier ({}) is after self ({})",
            earlier.0,
            self.0
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference; returns zero if `earlier` is after `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Returns the duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns true if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Converts a CPU cycle count at a given clock frequency (Hz) into a
    /// duration, rounding up to the next whole microsecond.
    pub fn from_cycles(cycles: u64, clock_hz: u64) -> Self {
        assert!(clock_hz > 0, "clock frequency must be positive");
        let us = (cycles * 1_000_000).div_ceil(clock_hz);
        SimDuration(us)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ms", self.as_millis_f64())
    }
}

macro_rules! float_unit {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero value.
            pub const ZERO: $name = $name(0.0);

            /// Returns the raw value in the base unit.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// Returns the larger of two values.
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Returns the smaller of two values.
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// Returns true if the value is finite (not NaN or infinite).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> Self {
                iter.fold($name::ZERO, |a, b| a + b)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.4} {}", self.0, $unit)
            }
        }
    };
}

float_unit!(
    /// Electrical current, stored in microamps.
    Current,
    "uA"
);
float_unit!(
    /// Electrical power, stored in microwatts.
    Power,
    "uW"
);
float_unit!(
    /// Energy, stored in microjoules.
    Energy,
    "uJ"
);
float_unit!(
    /// Voltage, stored in volts.
    Voltage,
    "V"
);

impl Current {
    /// Creates a current from microamps.
    pub const fn from_micro_amps(ua: f64) -> Self {
        Current(ua)
    }

    /// Creates a current from milliamps.
    pub const fn from_milli_amps(ma: f64) -> Self {
        Current(ma * 1_000.0)
    }

    /// Returns the current in microamps.
    pub const fn as_micro_amps(self) -> f64 {
        self.0
    }

    /// Returns the current in milliamps.
    pub fn as_milli_amps(self) -> f64 {
        self.0 / 1_000.0
    }
}

impl Power {
    /// Creates a power from microwatts.
    pub const fn from_micro_watts(uw: f64) -> Self {
        Power(uw)
    }

    /// Creates a power from milliwatts.
    pub const fn from_milli_watts(mw: f64) -> Self {
        Power(mw * 1_000.0)
    }

    /// Returns the power in microwatts.
    pub const fn as_micro_watts(self) -> f64 {
        self.0
    }

    /// Returns the power in milliwatts.
    pub fn as_milli_watts(self) -> f64 {
        self.0 / 1_000.0
    }
}

impl Energy {
    /// Creates an energy from microjoules.
    pub const fn from_micro_joules(uj: f64) -> Self {
        Energy(uj)
    }

    /// Creates an energy from millijoules.
    pub const fn from_milli_joules(mj: f64) -> Self {
        Energy(mj * 1_000.0)
    }

    /// Returns the energy in microjoules.
    pub const fn as_micro_joules(self) -> f64 {
        self.0
    }

    /// Returns the energy in millijoules.
    pub fn as_milli_joules(self) -> f64 {
        self.0 / 1_000.0
    }
}

impl Voltage {
    /// Creates a voltage from volts.
    pub const fn from_volts(v: f64) -> Self {
        Voltage(v)
    }

    /// Returns the voltage in volts.
    pub const fn as_volts(self) -> f64 {
        self.0
    }
}

impl Mul<Voltage> for Current {
    type Output = Power;
    /// Power (µW) = current (µA) × voltage (V).
    fn mul(self, rhs: Voltage) -> Power {
        Power(self.0 * rhs.0)
    }
}

impl Mul<Current> for Voltage {
    type Output = Power;
    fn mul(self, rhs: Current) -> Power {
        rhs * self
    }
}

impl Mul<SimDuration> for Power {
    type Output = Energy;
    /// Energy (µJ) = power (µW) × time (s).
    fn mul(self, rhs: SimDuration) -> Energy {
        Energy(self.0 * rhs.as_secs_f64())
    }
}

impl Mul<Power> for SimDuration {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl Div<SimDuration> for Energy {
    type Output = Power;
    /// Average power (µW) over an interval = energy (µJ) / time (s).
    fn div(self, rhs: SimDuration) -> Power {
        Power(self.0 / rhs.as_secs_f64())
    }
}

impl Div<Voltage> for Power {
    type Output = Current;
    /// Current (µA) = power (µW) / voltage (V).
    fn div(self, rhs: Voltage) -> Current {
        Current(self.0 / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(8);
        assert_eq!(t.as_micros(), 8_000);
        let t2 = t + SimDuration::from_micros(500);
        assert_eq!(t2.as_micros(), 8_500);
        assert_eq!(t2.duration_since(t).as_micros(), 500);
        assert_eq!(t2.saturating_duration_since(t2).as_micros(), 0);
        assert_eq!(t.saturating_duration_since(t2), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_when_reversed() {
        let t = SimTime::from_millis(1);
        let _ = t.duration_since(SimTime::from_millis(2));
    }

    #[test]
    fn cycles_round_up() {
        // 102 cycles at 1 MHz is 102 us exactly.
        assert_eq!(SimDuration::from_cycles(102, 1_000_000).as_micros(), 102);
        // 3 cycles at 2 MHz is 1.5 us, rounded up to 2.
        assert_eq!(SimDuration::from_cycles(3, 2_000_000).as_micros(), 2);
        // Zero cycles take zero time.
        assert_eq!(SimDuration::from_cycles(0, 8_000_000).as_micros(), 0);
    }

    #[test]
    fn power_energy_relations() {
        let i = Current::from_milli_amps(10.0);
        let v = Voltage::from_volts(3.0);
        let p = i * v;
        assert!((p.as_milli_watts() - 30.0).abs() < 1e-9);

        let e = p * SimDuration::from_secs(2);
        assert!((e.as_milli_joules() - 60.0).abs() < 1e-9);

        let p_back = e / SimDuration::from_secs(2);
        assert!((p_back.as_milli_watts() - 30.0).abs() < 1e-9);

        let i_back = p / v;
        assert!((i_back.as_milli_amps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn unit_display_is_stable() {
        assert_eq!(
            format!("{}", Current::from_micro_amps(500.0)),
            "500.0000 uA"
        );
        assert_eq!(format!("{}", SimTime::from_millis(3)), "3.000 ms");
    }

    #[test]
    fn float_unit_ordering_and_sum() {
        let a = Energy::from_micro_joules(1.0);
        let b = Energy::from_micro_joules(2.0);
        assert!(a < b);
        let total: Energy = [a, b].into_iter().sum();
        assert!((total.as_micro_joules() - 3.0).abs() < 1e-12);
        assert_eq!((b - a).as_micro_joules(), 1.0);
        assert_eq!((-a).as_micro_joules(), -1.0);
        assert_eq!(b.max(a), b);
        assert_eq!(b.min(a), a);
    }
}
