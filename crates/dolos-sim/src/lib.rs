//! Simulation kernel for the Dolos secure persistent-memory model.
//!
//! This crate provides the timing substrate used by every other crate in the
//! workspace:
//!
//! * [`Cycle`] — a strongly-typed simulated clock value (4 GHz core clock, the
//!   configuration in Table 1 of the paper);
//! * [`resource::Server`] — a "next-free-time" serial resource used to model
//!   contended units (the NVM write port, the Ma-SU crypto engine, …) without
//!   a global event queue;
//! * [`rng`] — a small deterministic RNG plus the Zipfian sampler used by the
//!   YCSB-style workload;
//! * [`stats`] — counters and running stats shared by the experiment harness;
//! * [`pool`] — a deterministic work-stealing job pool for sweeps whose
//!   output must not depend on thread count;
//! * [`queue`] — the atomic index queue the pool steals schedule positions
//!   from;
//! * [`json`] — the string escaper and well-formedness check shared by
//!   every hand-rolled JSON report;
//! * [`paged`] — the paged table behind every `u64`-keyed store: the NVM
//!   device's lines, the Ma-SU's per-page metadata, the integrity trees'
//!   nodes and the WHISPER environment's line image;
//! * [`table`] — plain-text table rendering shared by every report surface;
//! * [`trace`] — cycle-stamped event/span vocabulary the timing-bearing
//!   crates emit into and the `dolos-trace` analysis crate consumes.
//!
//! The simulation style throughout the workspace is *lazy catch-up*: every
//! model keeps the cycle at which it next becomes free and advances itself
//! when poked, so the whole memory system stays deterministic and allocation
//! free on the hot path.
//!
//! # Examples
//!
//! ```
//! use dolos_sim::{Cycle, resource::Server};
//!
//! let mut port = Server::new();
//! // Two back-to-back 2000-cycle NVM writes serialize on the port.
//! let first = port.acquire(Cycle::ZERO, 2000);
//! let second = port.acquire(Cycle::ZERO, 2000);
//! assert_eq!(first, Cycle::new(2000));
//! assert_eq!(second, Cycle::new(4000));
//! ```

#![forbid(unsafe_code)]
// Panic budget 0 (tests/lint_policy.rs). The work-stealing claim queue
// (`queue`) and the JSON checker (`json`) matter most: a panic in the queue
// corrupts a whole sweep, and `json` validates reports read from outside the
// program.
#![warn(missing_docs)]

pub mod json;
pub mod paged;
pub mod pool;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod table;
pub mod trace;

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// Simulated core clock frequency, cycles per nanosecond (4 GHz).
pub const CYCLES_PER_NS: u64 = 4;

/// A point in simulated time, measured in core clock cycles at 4 GHz.
///
/// `Cycle` is an absolute timestamp; durations are plain `u64` cycle counts.
/// The type is deliberately small and `Copy` so it can flow through every
/// model by value.
///
/// # Examples
///
/// ```
/// use dolos_sim::Cycle;
///
/// let t = Cycle::new(100) + 60;
/// assert_eq!(t, Cycle::new(160));
/// assert_eq!(t - Cycle::new(100), 60);
/// assert_eq!(Cycle::from_ns(150).as_u64(), 600); // 150 ns PCM read at 4 GHz
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The beginning of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// A timestamp later than any reachable simulation time.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Creates a timestamp from a raw cycle count.
    #[inline]
    pub const fn new(cycles: u64) -> Self {
        Cycle(cycles)
    }

    /// Converts a wall-clock duration in nanoseconds to cycles at 4 GHz.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Cycle(ns * CYCLES_PER_NS)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns this timestamp expressed in nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / CYCLES_PER_NS
    }

    /// Returns the later of two timestamps.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two timestamps.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Cycles from `self` until `later`, or zero if `later` is in the past.
    ///
    /// # Examples
    ///
    /// ```
    /// use dolos_sim::Cycle;
    /// assert_eq!(Cycle::new(10).until(Cycle::new(25)), 15);
    /// assert_eq!(Cycle::new(30).until(Cycle::new(25)), 0);
    /// ```
    #[inline]
    pub fn until(self, later: Cycle) -> u64 {
        later.0.saturating_sub(self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    /// Elapsed cycles between two timestamps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction underflow");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(cycles: u64) -> Self {
        Cycle(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic_round_trips() {
        let t = Cycle::new(5);
        assert_eq!((t + 7) - t, 7);
        assert_eq!(t.as_u64(), 5);
        assert_eq!(Cycle::from(9u64), Cycle::new(9));
    }

    #[test]
    fn ns_conversion_matches_4ghz() {
        assert_eq!(Cycle::from_ns(500).as_u64(), 2000); // PCM write latency
        assert_eq!(Cycle::from_ns(150).as_u64(), 600); // PCM read latency
        assert_eq!(Cycle::new(2000).as_ns(), 500);
    }

    #[test]
    fn min_max_until() {
        let a = Cycle::new(10);
        let b = Cycle::new(20);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.until(b), 10);
        assert_eq!(b.until(a), 0);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycle::new(3).to_string(), "3cyc");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    #[cfg(debug_assertions)]
    fn subtraction_underflow_panics_in_debug() {
        let _ = Cycle::new(1) - Cycle::new(2);
    }
}
