//! The Anubis shadow table (AGIT scheme).
//!
//! Anubis keeps, in NVM, the *addresses* of the security-metadata blocks
//! the metadata caches hold. After a crash, only the blocks it names can be
//! stale, so recovery touches a bounded set instead of rebuilding the whole
//! tree (Osiris' whole-memory scan). Each cache fill/eviction costs one
//! extra NVM write to keep the table current — the run-time price Anubis
//! pays for its bounded recovery time, charged by the Ma-SU timing model.
//!
//! The model keeps the tracked keys as a set. Which NVM slot holds a key
//! is never observable (recovery reads the keys in ascending order), so no
//! slot array is kept: recording, removing, listing and clearing cost what
//! the table holds, not its capacity.

use dolos_sim::paged::PagedTable;
use dolos_sim::stats::StatSet;

/// The shadow table: the set of metadata-block keys resident in the
/// caches, bounded by a capacity of one entry per cache frame.
///
/// # Examples
///
/// ```
/// use dolos_secmem::shadow::ShadowTable;
///
/// let mut st = ShadowTable::new(4);
/// st.record(0xBB);
/// st.record(0xAA);
/// st.record(1 << 63);
/// st.remove(0xAA);
/// assert_eq!(st.tracked().collect::<Vec<_>>(), vec![0xBB, 1 << 63]);
/// ```
#[derive(Debug, Clone)]
pub struct ShadowTable {
    capacity: usize,
    /// The tracked keys. Keys are counter-block page numbers, and MT-node
    /// keys with bit 63 set: two dense runs, one page per 64 keys. Nothing
    /// about it may depend on hasher state — recovery derives its working
    /// set from this structure.
    keys: PagedTable<()>,
    writes: u64,
}

impl ShadowTable {
    /// Creates a table that can track `capacity` keys (one per cache
    /// frame).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shadow table capacity must be non-zero");
        Self {
            capacity,
            keys: PagedTable::new(),
            writes: 0,
        }
    }

    /// Number of keys the table can track.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// NVM writes issued to keep the table current.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Records that metadata block `key` is now cached.
    ///
    /// Idempotent for already-tracked keys (no extra NVM write).
    ///
    /// # Panics
    ///
    /// Panics if the table is full — the caller must `remove` the evicted
    /// frame's entry first, mirroring the cache's fixed geometry.
    pub fn record(&mut self, key: u64) {
        if self.keys.contains_key(key) {
            return;
        }
        assert!(
            self.keys.len() < self.capacity,
            "shadow table full: remove evicted entries first"
        );
        self.keys.entry(key);
        self.writes += 1;
    }

    /// Removes the entry for `key` (its block was evicted and written back).
    ///
    /// Returns whether an entry was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let present = self.keys.remove(key).is_some();
        if present {
            self.writes += 1;
        }
        present
    }

    /// The tracked keys — the recovery working set — in ascending order.
    pub fn tracked(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.iter().map(|(key, ())| key)
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: u64) -> bool {
        self.keys.contains_key(key)
    }

    /// Clears the table (after recovery completes).
    pub fn clear(&mut self) {
        self.keys.clear();
    }

    /// Snapshots statistics.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("shadow.tracked", self.len() as f64);
        s.set("shadow.writes", self.writes as f64);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_remove_round_trip() {
        let mut st = ShadowTable::new(2);
        st.record(1);
        st.record(2);
        assert!(st.contains(1));
        assert!(st.remove(1));
        assert!(!st.contains(1));
        assert!(!st.remove(1));
        assert!(st.tracked().eq([2]));
    }

    #[test]
    fn record_is_idempotent() {
        let mut st = ShadowTable::new(1);
        st.record(7);
        st.record(7);
        assert_eq!(st.len(), 1);
        assert_eq!(st.writes(), 1);
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut st = ShadowTable::new(1);
        st.record(1);
        st.remove(1);
        st.record(2); // must not panic: the removal freed capacity
        assert!(st.tracked().eq([2]));
    }

    #[test]
    #[should_panic(expected = "full")]
    fn overflow_panics() {
        let mut st = ShadowTable::new(1);
        st.record(1);
        st.record(2);
    }

    #[test]
    fn writes_count_updates() {
        let mut st = ShadowTable::new(4);
        st.record(1);
        st.record(2);
        st.remove(1);
        assert_eq!(st.writes(), 3);
    }

    #[test]
    fn matches_a_key_set_model() {
        use std::collections::BTreeSet;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Counter pages and MT-node keys (bit 63 and a level tag), drawn
        // from small pools so records, removes and refills collide.
        let mut rng = dolos_sim::rng::XorShift::new(0xA9B1);
        for capacity in [1, 3, 16, 40] {
            let mut st = ShadowTable::new(capacity);
            let mut model = BTreeSet::new();
            let mut writes = 0;
            let mut overflows = 0;
            for step in 0..4000 {
                let key = match rng.next_below(3) {
                    0 => (1 << 63) | (rng.next_below(4) + 1) << 56 | rng.next_below(24),
                    _ => rng.next_below(60),
                };
                match rng.next_below(100) {
                    0..=54 if !model.contains(&key) && model.len() == capacity => {
                        // The first distinct key past capacity panics and
                        // leaves the table as it was.
                        let full = catch_unwind(AssertUnwindSafe(|| st.record(key)));
                        assert!(full.is_err(), "step {step}: record past capacity");
                        overflows += 1;
                    }
                    0..=54 => {
                        st.record(key);
                        writes += u64::from(model.insert(key));
                    }
                    55..=97 => {
                        let present = model.remove(&key);
                        assert_eq!(st.remove(key), present, "step {step}");
                        writes += u64::from(present);
                    }
                    _ => {
                        st.clear();
                        model.clear();
                    }
                }
                let expected: Vec<u64> = model.iter().copied().collect();
                assert_eq!(st.tracked().collect::<Vec<_>>(), expected, "step {step}");
                assert_eq!((st.len(), st.writes()), (model.len(), writes));
                assert!(model.iter().all(|&k| st.contains(k)));
            }
            assert!(overflows > 0, "capacity {capacity} never filled");
        }
    }

    #[test]
    fn clear_empties_table() {
        let mut st = ShadowTable::new(4);
        st.record(1);
        st.clear();
        assert!(st.is_empty());
    }
}
