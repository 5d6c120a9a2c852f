//! A flat, sorted map keyed by `u64`.
//!
//! Small per-line metadata tables (the WPQ's tag index, the Anubis shadow
//! table's index, the Ma-SU's pending counter-update tallies, the integrity
//! trees' node MACs and the WHISPER workloads' mirrors) were
//! `HashMap<u64, _>`s. They have two problems there: hashing dominates the
//! lookup cost for small integer keys, and iteration order depends on the
//! process-random hasher state, which is one silent hole in the "every
//! result is a pure function of the inputs" guarantee. [`FlatMap`] is a
//! sorted `Vec<(u64, V)>` with binary-search lookups: cache-friendly probes
//! and iteration in ascending key order, always.
//!
//! Inserting a *new* key is `O(n)` (a memmove), so `FlatMap` fits tables
//! that stay small (bounded by a queue or cache capacity) or whose key set
//! stops growing early, so that lookups and in-place updates dominate. It is
//! the wrong choice for a large table that keeps taking new keys, such as
//! the per-line stores: the NVM device's lines, the Ma-SU's ECC sidecar
//! (on the paper-eager benchmark about 27% of its inserts add a key) and
//! the WHISPER environment's line image with its dirty flags. Those are
//! [`crate::paged::PagedTable`]s, which insert in place and iterate in the
//! same ascending key order.
//!
//! # Examples
//!
//! ```
//! use dolos_sim::flat::FlatMap;
//!
//! let mut m: FlatMap<u64> = FlatMap::new();
//! m.insert(7, 70);
//! m.insert(3, 30);
//! assert_eq!(m.get(7), Some(&70));
//! let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
//! assert_eq!(keys, vec![3, 7]); // always sorted
//! ```

/// A map from `u64` keys to `V`, stored as a sorted vector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlatMap<V> {
    entries: Vec<(u64, V)>,
}

impl<V> FlatMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, key: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Returns a reference to the value stored under `key`, if any.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Returns a mutable reference to the value stored under `key`, if any.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        match self.position(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.position(key).is_ok()
    }

    /// Inserts `value` under `key`, returning the previous value if the key
    /// was already present.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Returns a mutable reference to the value under `key`, inserting
    /// `default` first if the key is absent (the `entry().or_insert()`
    /// pattern).
    pub fn get_mut_or_insert(&mut self, key: u64, default: V) -> &mut V {
        let i = match self.position(key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Iterates entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Iterates entries whose keys fall in `start..end`, in ascending key
    /// order: one binary search for the lower bound, then a sequential
    /// walk. Callers reading a run of consecutive keys (e.g. the BMT's
    /// 8-child node groups) use this instead of probing per key.
    pub fn range(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, &V)> {
        let lo = self.entries.partition_point(|&(k, _)| k < start);
        self.entries[lo..]
            .iter()
            .take_while(move |&&(k, _)| k < end)
            .map(|(k, v)| (*k, v))
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m: FlatMap<u64> = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(10, 1), None);
        assert_eq!(m.insert(5, 2), None);
        assert_eq!(m.insert(20, 3), None);
        assert_eq!(m.insert(10, 9), Some(1)); // overwrite returns old value
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(5), Some(&2));
        assert_eq!(m.get(10), Some(&9));
        assert_eq!(m.get(11), None);
        assert!(m.contains_key(20));
        assert_eq!(m.remove(5), Some(2));
        assert_eq!(m.remove(5), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_is_sorted_regardless_of_insert_order() {
        let mut m: FlatMap<u32> = FlatMap::new();
        for k in [9u64, 1, 7, 3, 8, 2] {
            m.insert(k, k as u32);
        }
        let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 3, 7, 8, 9]);
    }

    #[test]
    fn range_walks_exactly_the_requested_keys() {
        let mut m: FlatMap<u32> = FlatMap::new();
        for k in [0u64, 3, 7, 8, 9, 15, 16, 40] {
            m.insert(k, k as u32);
        }
        let collect = |lo: u64, hi: u64| m.range(lo, hi).map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(collect(8, 16), vec![8, 9, 15]); // half-open
        assert_eq!(collect(0, 4), vec![0, 3]);
        assert_eq!(collect(10, 15), vec![]); // gap
        assert_eq!(collect(41, u64::MAX), vec![]); // past the end

        // Agreement with per-key probes over every 8-aligned group.
        for first in (0..48).step_by(8) {
            let via_range: Vec<_> = m.range(first, first + 8).map(|(k, v)| (k, *v)).collect();
            let via_get: Vec<_> = (first..first + 8)
                .filter_map(|k| m.get(k).map(|v| (k, *v)))
                .collect();
            assert_eq!(via_range, via_get, "group at {first}");
        }
    }

    #[test]
    fn get_mut_or_insert_matches_entry_or_insert() {
        let mut m: FlatMap<u64> = FlatMap::new();
        *m.get_mut_or_insert(4, 0) += 1;
        *m.get_mut_or_insert(4, 0) += 1;
        *m.get_mut_or_insert(2, 10) += 1;
        assert_eq!(m.get(4), Some(&2));
        assert_eq!(m.get(2), Some(&11));
    }

    #[test]
    fn get_mut_and_clear() {
        let mut m: FlatMap<u64> = FlatMap::new();
        m.insert(1, 1);
        *m.get_mut(1).unwrap() = 42;
        assert_eq!(m.get(1), Some(&42));
        assert!(m.get_mut(2).is_none());
        m.clear();
        assert!(m.is_empty());
    }
}
