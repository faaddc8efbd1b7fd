//! Logical time: [`SimTime`], [`SimDuration`], and the paper's Δ ([`Delta`]).
//!
//! All protocol-level timing in this workspace is expressed in discrete
//! *ticks*. A tick has no physical meaning; what matters is the ratio between
//! elapsed ticks and Δ, because every bound in the paper (contract timelocks,
//! the 2·diam(D)·Δ completion bound, pebble-game convergence) is stated as a
//! multiple of Δ.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in simulated time, measured in ticks since the simulation epoch.
///
/// `SimTime` is a newtype over `u64` so it cannot be confused with a
/// [`SimDuration`] (an *interval*). Points and intervals obey the usual
/// affine arithmetic: `SimTime + SimDuration = SimTime`,
/// `SimTime - SimTime = SimDuration`.
///
/// # Example
///
/// ```
/// use swap_sim::{SimDuration, SimTime};
/// let start = SimTime::ZERO;
/// let later = start + SimDuration::from_ticks(10);
/// assert_eq!(later - start, SimDuration::from_ticks(10));
/// assert!(later > start);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (tick zero).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "never" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time at the given absolute tick.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// The absolute tick count of this instant.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating addition of a duration: clamps at [`SimTime::MAX`].
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

/// A span of simulated time, measured in ticks.
///
/// # Example
///
/// ```
/// use swap_sim::SimDuration;
/// let d = SimDuration::from_ticks(4) * 3;
/// assert_eq!(d.ticks(), 12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of the given number of ticks.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// The number of ticks in this duration.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ticks", self.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

/// The paper's synchrony parameter Δ (§2.2): a duration long enough for one
/// party to publish a contract (or change a contract's state) on any
/// blockchain, *and* for every other party to confirm that change.
///
/// All timelocks in the swap protocol are integer multiples of Δ, so `Delta`
/// exposes [`Delta::times`] as the primary operation.
///
/// # Example
///
/// ```
/// use swap_sim::{Delta, SimTime};
/// let delta = Delta::from_ticks(10);
/// let start = SimTime::ZERO;
/// // Timelock "6Δ after start", as in the paper's three-way swap.
/// let timeout = start + delta.times(6);
/// assert_eq!(timeout.ticks(), 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Delta(SimDuration);

impl Delta {
    /// Creates a Δ of the given tick count.
    ///
    /// # Panics
    ///
    /// Panics if `ticks` is zero: a zero Δ would make publish-then-confirm
    /// instantaneous and every timelock degenerate.
    pub fn from_ticks(ticks: u64) -> Self {
        assert!(ticks > 0, "Delta must be positive");
        Delta(SimDuration(ticks))
    }

    /// The underlying duration of one Δ.
    pub const fn duration(self) -> SimDuration {
        self.0
    }

    /// The number of ticks in one Δ.
    pub const fn ticks(self) -> u64 {
        self.0 .0
    }

    /// `n`·Δ as a duration — the way the paper writes every timelock.
    pub fn times(self, n: u64) -> SimDuration {
        self.0 * n
    }
}

impl Default for Delta {
    /// A conventional default of 10 ticks per Δ, convenient for tests.
    fn default() -> Self {
        Delta::from_ticks(10)
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ={}", self.0 .0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_ticks(5) + SimDuration::from_ticks(7);
        assert_eq!(t.ticks(), 12);
    }

    #[test]
    fn time_minus_time_is_duration() {
        let a = SimTime::from_ticks(20);
        let b = SimTime::from_ticks(5);
        assert_eq!(a - b, SimDuration::from_ticks(15));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_underflow_panics() {
        let _ = SimTime::from_ticks(1) - SimDuration::from_ticks(2);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::from_ticks(5)), SimTime::MAX);
        assert_eq!(
            SimDuration::from_ticks(3).saturating_sub(SimDuration::from_ticks(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_ticks(6);
        assert_eq!((d * 4).ticks(), 24);
        assert_eq!((d / 2).ticks(), 3);
        assert_eq!((d + d).ticks(), 12);
        assert_eq!((d - SimDuration::from_ticks(1)).ticks(), 5);
        assert!(!d.is_zero());
        assert!(SimDuration::ZERO.is_zero());
    }

    #[test]
    fn delta_times() {
        let delta = Delta::from_ticks(10);
        assert_eq!(delta.times(6).ticks(), 60);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_delta_rejected() {
        let _ = Delta::from_ticks(0);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_ticks(1) < SimTime::from_ticks(2));
        assert_eq!(SimTime::from_ticks(3).to_string(), "t=3");
        assert_eq!(SimDuration::from_ticks(3).to_string(), "3 ticks");
        assert_eq!(Delta::from_ticks(3).to_string(), "Δ=3");
    }

    #[test]
    fn default_delta_is_positive() {
        assert!(Delta::default().ticks() > 0);
    }
}
