//! Fixed-point simulation time.
//!
//! The paper's workloads are specified in abstract "time units" (a Poisson
//! interarrival mean of 10 time units, a VM lifetime staircase starting at
//! 6300 time units, …). For the energy model (Eq. 1 of the paper) the
//! simulation maps 1 time unit ≡ 1 second. Internally we store time as an
//! integer count of **micro-units** so that the event queue has a total
//! order with no floating-point tie ambiguity: determinism of the whole
//! simulation rests on this type.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of integer ticks per paper "time unit" (1 tick = 1 µ-unit).
pub const TICKS_PER_UNIT: u64 = 1_000_000;

/// A point in simulated time, in integer ticks since simulation start.
///
/// `SimTime` is totally ordered and hashable; arithmetic with
/// [`SimDuration`] saturates rather than wrapping so that a malformed
/// workload cannot silently warp the clock backwards.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in integer ticks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw ticks.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Construct from fractional paper time units (rounded to nearest tick).
    #[inline]
    pub fn from_units(units: f64) -> Self {
        debug_assert!(units >= 0.0, "SimTime cannot be negative: {units}");
        SimTime((units.max(0.0) * TICKS_PER_UNIT as f64).round() as u64)
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Time expressed in paper time units.
    #[inline]
    pub fn as_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// Duration elapsed since `earlier`; zero if `earlier` is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw ticks.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Construct from fractional paper time units (rounded to nearest tick).
    #[inline]
    pub fn from_units(units: f64) -> Self {
        debug_assert!(units >= 0.0, "SimDuration cannot be negative: {units}");
        SimDuration((units.max(0.0) * TICKS_PER_UNIT as f64).round() as u64)
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Duration expressed in paper time units.
    #[inline]
    pub fn as_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// Duration in seconds under the paper mapping 1 time unit ≡ 1 s.
    #[inline]
    pub fn as_seconds(self) -> f64 {
        self.as_units()
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}u", self.as_units())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_units())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ{:.6}u", self.as_units())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_units())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_roundtrip_is_exact_for_integers() {
        for u in [0.0, 1.0, 10.0, 6300.0, 15300.0] {
            assert_eq!(SimTime::from_units(u).as_units(), u);
            assert_eq!(SimDuration::from_units(u).as_units(), u);
        }
    }

    #[test]
    fn fractional_units_round_to_nearest_tick() {
        let t = SimTime::from_units(1.000_000_4);
        assert_eq!(t.ticks(), TICKS_PER_UNIT); // rounds down
        let t = SimTime::from_units(1.000_000_6);
        assert_eq!(t.ticks(), TICKS_PER_UNIT + 1); // rounds up
    }

    #[test]
    fn ordering_matches_tick_values() {
        let a = SimTime::from_units(3.0);
        let b = SimTime::from_units(3.5);
        assert!(a < b);
        assert_eq!(b.since(a), SimDuration::from_units(0.5));
        // `since` saturates: asking "how long since a future instant" is 0.
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn add_assign_advances_clock() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_units(10.0);
        t += SimDuration::from_units(2.5);
        assert_eq!(t, SimTime::from_units(12.5));
        assert_eq!(t - SimTime::ZERO, SimDuration::from_units(12.5));
    }

    #[test]
    fn saturating_add_never_wraps() {
        let t = SimTime::MAX + SimDuration::from_ticks(100);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn seconds_mapping_is_one_to_one() {
        assert_eq!(SimDuration::from_units(360.0).as_seconds(), 360.0);
    }

    #[test]
    fn display_formats_units() {
        assert_eq!(format!("{}", SimTime::from_units(6300.0)), "6300.000");
        assert_eq!(format!("{:?}", SimDuration::from_units(1.5)), "Δ1.500000u");
    }
}
