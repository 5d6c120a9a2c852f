//! Next-free-time resource models.
//!
//! The memory system is simulated without a global event queue: each
//! contended unit remembers when it next becomes free and requests "catch up"
//! lazily. [`Pipeline`] models a unit with an initiation interval that may be
//! shorter than its latency (e.g. a pipelined MAC engine); an interval equal
//! to the latency makes it a serial unit.

use crate::Cycle;

/// A pipelined resource: new operations may issue every `initiation` cycles,
/// each completing `latency` cycles after issue.
///
/// # Examples
///
/// ```
/// use dolos_sim::{Cycle, resource::Pipeline};
///
/// // A MAC engine with 160-cycle latency that accepts one block per 40 cycles.
/// let mut mac = Pipeline::new(40, 160);
/// assert_eq!(mac.acquire(Cycle::new(0)), Cycle::new(160));
/// assert_eq!(mac.acquire(Cycle::new(0)), Cycle::new(200)); // issued at 40
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    initiation: u64,
    latency: u64,
    next_issue: Cycle,
    operations: u64,
}

impl Pipeline {
    /// Creates a pipeline with the given initiation interval and latency.
    ///
    /// # Panics
    ///
    /// Panics if `initiation` is zero.
    pub fn new(initiation: u64, latency: u64) -> Self {
        assert!(initiation > 0, "initiation interval must be non-zero");
        Self {
            initiation,
            latency,
            next_issue: Cycle::ZERO,
            operations: 0,
        }
    }

    /// Issues one operation at `max(now, next_issue)`; returns its completion.
    pub fn acquire(&mut self, now: Cycle) -> Cycle {
        let issue = now.max(self.next_issue);
        self.next_issue = issue + self.initiation;
        self.operations += 1;
        issue + self.latency
    }

    /// Operation latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Number of operations issued.
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// Resets the pipeline to idle, clearing statistics.
    pub fn reset(&mut self) {
        self.next_issue = Cycle::ZERO;
        self.operations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A pipeline whose interval equals its latency is a serial server, the
    // shape of the Ma-SU's per-bank update engines.

    #[test]
    fn server_serializes_overlapping_requests() {
        let mut s = Pipeline::new(100, 100);
        let a = s.acquire(Cycle::new(0));
        let b = s.acquire(Cycle::new(50));
        assert_eq!(a, Cycle::new(100));
        assert_eq!(b, Cycle::new(200));
        assert_eq!(s.operations(), 2);
    }

    #[test]
    fn server_idles_between_requests() {
        let mut s = Pipeline::new(10, 10);
        s.acquire(Cycle::new(0));
        assert_eq!(s.acquire(Cycle::new(500)), Cycle::new(510));
        // Arriving while busy waits for the previous operation.
        assert_eq!(s.acquire(Cycle::new(505)), Cycle::new(520));
    }

    #[test]
    fn server_reset_clears_state() {
        let mut s = Pipeline::new(10, 10);
        s.acquire(Cycle::new(0));
        s.acquire(Cycle::new(0));
        s.reset();
        assert_eq!(s.operations(), 0);
        assert_eq!(s.acquire(Cycle::ZERO), Cycle::new(10));
    }

    #[test]
    fn pipeline_overlaps_latency() {
        let mut p = Pipeline::new(40, 160);
        assert_eq!(p.acquire(Cycle::new(0)), Cycle::new(160));
        assert_eq!(p.acquire(Cycle::new(0)), Cycle::new(200));
        assert_eq!(p.acquire(Cycle::new(0)), Cycle::new(240));
        assert_eq!(p.operations(), 3);
    }

    #[test]
    fn pipeline_idle_restart() {
        let mut p = Pipeline::new(40, 160);
        p.acquire(Cycle::new(0));
        assert_eq!(p.acquire(Cycle::new(1000)), Cycle::new(1160));
    }

    #[test]
    #[should_panic(expected = "initiation")]
    fn pipeline_rejects_zero_initiation() {
        let _ = Pipeline::new(0, 10);
    }
}
