//! The Anubis shadow table (AGIT scheme).
//!
//! Anubis keeps, in NVM, one entry per metadata-cache frame recording the
//! *address* of the security-metadata block cached in that frame. After a
//! crash, only the blocks named by the shadow table can be stale, so
//! recovery touches a bounded set instead of rebuilding the whole tree
//! (Osiris' whole-memory scan). Each cache fill/eviction costs one extra NVM
//! write to keep the table current — the run-time price Anubis pays for its
//! bounded recovery time, charged by the Ma-SU timing model.

use dolos_sim::paged::PagedTable;
use dolos_sim::stats::StatSet;

/// The shadow table: a fixed array of slots, each optionally naming the
/// metadata block (by key) resident in the corresponding cache frame.
///
/// # Examples
///
/// ```
/// use dolos_secmem::shadow::ShadowTable;
///
/// let mut st = ShadowTable::new(4);
/// st.record(0xAA);
/// st.record(0xBB);
/// st.remove(0xAA);
/// assert_eq!(st.tracked(), vec![0xBB]);
/// ```
#[derive(Debug, Clone)]
pub struct ShadowTable {
    slots: Vec<Option<u64>>,
    /// Key → slot reverse index. Keys are counter-block page numbers, and
    /// MT-node keys with bit 63 set: two dense runs, one page per 64 keys.
    /// Nothing about it may depend on hasher state — recovery derives its
    /// working set from this structure.
    index: PagedTable<usize>,
    writes: u64,
}

impl ShadowTable {
    /// Creates a table with `capacity` slots (one per cache frame).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shadow table must have slots");
        Self {
            slots: vec![None; capacity],
            index: PagedTable::new(),
            writes: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
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
        if self.index.contains_key(key) {
            return;
        }
        #[expect(clippy::expect_used, reason = "documented panic: the table is full")]
        let slot = self
            .slots
            .iter()
            .position(Option::is_none)
            .expect("shadow table full: remove evicted entries first");
        self.slots[slot] = Some(key);
        *self.index.entry(key) = slot;
        self.writes += 1;
    }

    /// Removes the entry for `key` (its block was evicted and written back).
    ///
    /// Returns whether an entry was present.
    pub fn remove(&mut self, key: u64) -> bool {
        if let Some(slot) = self.index.remove(key) {
            self.slots[slot] = None;
            self.writes += 1;
            true
        } else {
            false
        }
    }

    /// The tracked keys — the recovery working set. Order is slot order.
    pub fn tracked(&self) -> Vec<u64> {
        self.slots.iter().filter_map(|s| *s).collect()
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(key)
    }

    /// Clears the table (after recovery completes).
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.index.clear();
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
        assert_eq!(st.tracked(), vec![2]);
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
        st.record(2); // must not panic: slot was freed
        assert_eq!(st.tracked(), vec![2]);
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
    fn clear_empties_table() {
        let mut st = ShadowTable::new(4);
        st.record(1);
        st.clear();
        assert!(st.is_empty());
    }
}
