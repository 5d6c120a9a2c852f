//! Simulation statistics: counters, running means, and named stat sets.
//!
//! Every controller and workload exposes a [`StatSet`] snapshot at the end of
//! a run; the experiment harness in `dolos-bench` aggregates these into the
//! paper's tables and figures.

use core::fmt;
use std::collections::BTreeMap;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use dolos_sim::stats::Counter;
///
/// let mut retries = Counter::new();
/// retries.add(3);
/// retries.incr();
/// assert_eq!(retries.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one event.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Online mean/min/max accumulator for cycle-valued samples.
///
/// # Examples
///
/// ```
/// use dolos_sim::stats::Running;
///
/// let mut lat = Running::new();
/// lat.record(100);
/// lat.record(300);
/// assert_eq!(lat.mean(), 200.0);
/// assert_eq!(lat.min(), Some(100));
/// assert_eq!(lat.max(), Some(300));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Running {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.count += 1;
        self.sum += u128::from(sample);
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of the samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, if any was recorded.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any was recorded.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }
}

/// A named bag of scalar statistics snapshotted at the end of a run.
///
/// Values are stored as `f64` so counts, means, and ratios can coexist;
/// iteration order is stable (sorted by name) for reproducible reports.
///
/// # Examples
///
/// ```
/// use dolos_sim::stats::StatSet;
///
/// let mut s = StatSet::new();
/// s.set("wpq.retries", 42.0);
/// s.add("wpq.retries", 1.0);
/// assert_eq!(s.get("wpq.retries"), Some(43.0));
/// assert_eq!(s.get("missing"), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatSet {
    values: BTreeMap<String, f64>,
}

impl StatSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `value`, replacing any prior value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Adds `delta` to `name` (starting from zero if absent).
    pub fn add(&mut self, name: &str, delta: f64) {
        *self.values.entry(name.to_owned()).or_insert(0.0) += delta;
    }

    /// Reads a value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Reads a value, defaulting to zero when absent.
    pub fn get_or_zero(&self, name: &str) -> f64 {
        self.get(name).unwrap_or(0.0)
    }

    /// Iterates `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another set into this one, summing overlapping names.
    ///
    /// Storage and display order are always name-sorted, but the summed
    /// *values* are `f64` additions, which are not associative: merging
    /// the same sets in a different order can differ in the last ulp.
    /// Reproducible reports must therefore hold the merge order fixed
    /// (the controller merges component sets in one hard-coded sequence,
    /// and the parallel pools merge partition results in item order).
    /// Integer-valued counters are exact under any order; only derived
    /// ratios and means carry rounding. For histogram data with an
    /// order-independent merge, use `dolos-trace`'s `TraceHistogram`,
    /// whose merge is associative by construction.
    pub fn merge(&mut self, other: &StatSet) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Number of named statistics.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Exports one `name = value` line per statistic, in sorted name order —
/// the export order is a pure function of the set's contents, independent
/// of insertion or merge sequence.
impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn running_tracks_extremes() {
        let mut r = Running::new();
        assert_eq!(r.min(), None);
        r.record(7);
        r.record(3);
        r.record(11);
        assert_eq!(r.min(), Some(3));
        assert_eq!(r.max(), Some(11));
        assert_eq!(r.count(), 3);
        assert!((r.mean() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn statset_merge_sums_overlaps() {
        let mut a = StatSet::new();
        a.set("x", 1.0);
        a.set("y", 2.0);
        let mut b = StatSet::new();
        b.set("y", 3.0);
        a.merge(&b);
        assert_eq!(a.get("y"), Some(5.0));
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    #[test]
    fn statset_display_lists_all() {
        let mut s = StatSet::new();
        s.set("b", 2.0);
        s.set("a", 1.0);
        let text = s.to_string();
        assert!(text.contains("a = 1"));
        assert!(text.contains("b = 2"));
    }
}
