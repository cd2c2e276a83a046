//! Integer virtual time.
//!
//! Virtual time is represented in **picoseconds** as a `u64`. The range is
//! about 213 days of simulated time, far beyond any run in the study (the
//! longest simulated interval is a few thousand seconds of POP execution).
//! Integer time makes event ordering exact and platform-independent, which
//! keeps every experiment in the reproduction bit-reproducible.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// Picoseconds per second.
const PS_PER_SEC: f64 = 1e12;

/// A point in (or duration of) virtual time, in picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic provided covers both uses. Construction from floating-point
/// seconds rounds to the nearest picosecond.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero (also the zero duration).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; used as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// One picosecond.
    pub const PICO: SimTime = SimTime(1);
    /// One nanosecond.
    pub const NANO: SimTime = SimTime(1_000);
    /// One microsecond.
    pub const MICRO: SimTime = SimTime(1_000_000);
    /// One millisecond.
    pub const MILLI: SimTime = SimTime(1_000_000_000);
    /// One second.
    pub const SEC: SimTime = SimTime(1_000_000_000_000);

    /// Construct from whole picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest picosecond.
    /// Negative and NaN inputs saturate to zero; +inf saturates to `MAX`.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must land here too
        if !(secs > 0.0) {
            return SimTime::ZERO;
        }
        let ps = secs * PS_PER_SEC;
        if ps >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ps.round() as u64)
        }
    }

    /// Construct from fractional microseconds.
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// The raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Convert to fractional seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_SEC
    }

    /// Convert to fractional microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Convert to fractional milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition — `MAX` acts as an absorbing "never" value.
    #[inline]
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction, clamping at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Scale a duration by a dimensionless factor (e.g. contention slowdown),
    /// rounding to the nearest picosecond and saturating at `MAX`.
    #[inline]
    pub fn scale(self, factor: f64) -> SimTime {
        SimTime::from_secs(self.as_secs() * factor)
    }

    /// True if this is the `MAX` sentinel.
    #[inline]
    pub const fn is_never(self) -> bool {
        self.0 == u64::MAX
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("SimTime overflow"))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    /// Human-scaled rendering: picks ps/ns/µs/ms/s by magnitude.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == u64::MAX {
            write!(f, "never")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.6}s", ps as f64 / 1e12)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants_are_consistent() {
        assert_eq!(SimTime::NANO, SimTime::PICO * 1_000);
        assert_eq!(SimTime::MICRO, SimTime::NANO * 1_000);
        assert_eq!(SimTime::MILLI, SimTime::MICRO * 1_000);
        assert_eq!(SimTime::SEC, SimTime::MILLI * 1_000);
    }

    #[test]
    fn from_secs_round_trips() {
        let t = SimTime::from_secs(1.5);
        assert_eq!(t.as_ps(), 1_500_000_000_000);
        assert!((t.as_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_secs_handles_pathological_inputs() {
        assert_eq!(SimTime::from_secs(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(f64::INFINITY), SimTime::MAX);
        assert_eq!(SimTime::from_secs(0.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(3);
        assert_eq!((a + b).as_ps(), 13_000);
        assert_eq!((a - b).as_ps(), 7_000);
        assert_eq!((a * 4).as_ps(), 40_000);
        assert_eq!((a / 2).as_ps(), 5_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(SimTime::MAX.saturating_add(a), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn checked_sub_panics_on_underflow() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }

    #[test]
    fn scale_rounds_and_saturates() {
        let t = SimTime::from_ns(100);
        assert_eq!(t.scale(2.5).as_ps(), 250_000);
        assert_eq!(t.scale(0.0), SimTime::ZERO);
        assert_eq!(SimTime::SEC.scale(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_ps(7).to_string(), "7ps");
        assert_eq!(SimTime::from_ns(1).to_string(), "1.000ns");
        assert_eq!(SimTime::from_us(42).to_string(), "42.000us");
        assert_eq!(SimTime::SEC.to_string(), "1.000000s");
        assert_eq!(SimTime::MAX.to_string(), "never");
    }

    #[test]
    fn one_bgp_cycle_is_representable() {
        // 850 MHz -> 1176.47 ps; rounding must preserve ~0.05% accuracy.
        let cycle = SimTime::from_secs(1.0 / 850e6);
        assert_eq!(cycle.as_ps(), 1176);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4u64).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }
}
