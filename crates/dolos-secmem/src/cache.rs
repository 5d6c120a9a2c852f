//! A set-associative write-back cache with LRU replacement.
//!
//! Generic over the payload each way carries. The counter cache (128 KiB,
//! 4-way) and the Merkle-tree metadata cache (256 KiB, 8-way) from Table 1
//! use the default, a 64-byte [`Line`]: dirty blocks exist *only* here until
//! written back, which is precisely the volatility that makes secure-NVM
//! crash consistency hard. The WHISPER front end's CPU caches are tags only
//! (`SetAssocCache<()>`): their bytes live in the environment's line image,
//! so a way there is a key, a dirty bit and an LRU stamp.

use std::collections::BTreeMap;

use dolos_sim::stats::StatSet;

use dolos_nvm::Line;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The block was present.
    Hit,
    /// The block was absent; the caller must fetch and [`SetAssocCache::fill`] it.
    Miss,
}

/// A block evicted to make room during a fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction<P = Line> {
    /// The evicted block's key.
    pub key: u64,
    /// The evicted payload.
    pub data: P,
    /// Whether the block was dirty (must be written back).
    pub dirty: bool,
}

#[derive(Debug, Clone)]
struct Way<P> {
    key: u64,
    data: P,
    dirty: bool,
    last_use: u64,
}

/// A set-associative, write-back, LRU cache keyed by block index, holding
/// a `P` per block.
///
/// # Examples
///
/// ```
/// use dolos_secmem::cache::{Access, SetAssocCache};
///
/// // 2 sets x 2 ways.
/// let mut cache = SetAssocCache::new(2, 2);
/// assert_eq!(cache.probe(5), Access::Miss);
/// cache.fill(5, [1; 64], false);
/// assert_eq!(cache.probe(5), Access::Hit);
/// assert_eq!(cache.get(5).unwrap()[0], 1);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<P = Line> {
    sets: Vec<Vec<Way<P>>>,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl<P: Copy> SetAssocCache<P> {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Self {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Creates a cache from a capacity in bytes (64-byte blocks).
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn with_capacity_bytes(bytes: usize, ways: usize) -> Self {
        let blocks = bytes / 64;
        assert!(
            blocks.is_multiple_of(ways),
            "capacity must divide into ways"
        );
        Self::new(blocks / ways, ways)
    }

    fn set_of(&self, key: u64) -> usize {
        // Multiplicative hash spreads metadata regions across sets.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.sets.len()
    }

    /// Probes for `key`, updating hit/miss statistics and LRU on hit.
    pub fn probe(&mut self, key: u64) -> Access {
        self.tick += 1;
        let set = self.set_of(key);
        let tick = self.tick;
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.key == key) {
            way.last_use = tick;
            self.hits += 1;
            Access::Hit
        } else {
            self.misses += 1;
            Access::Miss
        }
    }

    /// [`Self::probe`] and [`Self::get`] fused: one way scan instead of
    /// two, with exactly `probe`'s statistics/LRU accounting (one tick,
    /// one hit or miss). Returns the cached payload on a hit.
    pub fn probe_get(&mut self, key: u64) -> Option<&P> {
        self.tick += 1;
        let set = self.set_of(key);
        let tick = self.tick;
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.key == key) {
            way.last_use = tick;
            self.hits += 1;
            Some(&way.data)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Whether `key` is present, without touching statistics or LRU.
    pub fn contains(&self, key: u64) -> bool {
        self.sets[self.set_of(key)].iter().any(|w| w.key == key)
    }

    /// Reads a cached payload without changing replacement state.
    pub fn get(&self, key: u64) -> Option<&P> {
        self.sets[self.set_of(key)]
            .iter()
            .find(|w| w.key == key)
            .map(|w| &w.data)
    }

    /// Updates a cached payload in place, marking it dirty.
    ///
    /// Returns `false` if the block is not cached.
    pub fn update(&mut self, key: u64, data: P) -> bool {
        self.tick += 1;
        let set = self.set_of(key);
        let tick = self.tick;
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.key == key) {
            way.data = data;
            way.dirty = true;
            way.last_use = tick;
            true
        } else {
            false
        }
    }

    /// Inserts a block fetched from memory, evicting the LRU way if the set
    /// is full. Returns the eviction (if any); dirty evictions must be
    /// written back by the caller.
    ///
    /// If `key` is already present its payload is replaced instead.
    pub fn fill(&mut self, key: u64, data: P, dirty: bool) -> Option<Eviction<P>> {
        self.tick += 1;
        let set_idx = self.set_of(key);
        let tick = self.tick;
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.key == key) {
            way.data = data;
            way.dirty = way.dirty || dirty;
            way.last_use = tick;
            return None;
        }
        let evicted = if set.len() == self.ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_use)
                .map(|(i, _)| i)
                .expect("set is full, so non-empty");
            let way = set.swap_remove(lru);
            if way.dirty {
                self.writebacks += 1;
            }
            Some(Eviction {
                key: way.key,
                data: way.data,
                dirty: way.dirty,
            })
        } else {
            None
        };
        set.push(Way {
            key,
            data,
            dirty,
            last_use: tick,
        });
        evicted
    }

    /// Removes a block, returning its payload and dirtiness.
    pub fn invalidate(&mut self, key: u64) -> Option<Eviction<P>> {
        let set_idx = self.set_of(key);
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|w| w.key == key)?;
        let way = set.swap_remove(pos);
        Some(Eviction {
            key: way.key,
            data: way.data,
            dirty: way.dirty,
        })
    }

    /// Drops every block (models volatile loss at a crash).
    pub fn lose_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Iterates over all resident blocks as `(key, data, dirty)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &P, bool)> {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|w| (w.key, &w.data, w.dirty)))
    }

    /// All dirty resident blocks as `(key, data)`.
    pub fn dirty_blocks(&self) -> Vec<(u64, P)> {
        self.iter()
            .filter(|(_, _, dirty)| *dirty)
            .map(|(k, d, _)| (k, *d))
            .collect()
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Snapshots statistics under the given prefix (e.g. `"ctr_cache"`).
    pub fn stats(&self, prefix: &str) -> StatSet {
        let mut s = StatSet::new();
        s.set(&format!("{prefix}.hits"), self.hits as f64);
        s.set(&format!("{prefix}.misses"), self.misses as f64);
        s.set(&format!("{prefix}.writebacks"), self.writebacks as f64);
        s.set(&format!("{prefix}.resident"), self.len() as f64);
        s
    }

    /// Exports resident blocks into an ordered map (used by recovery
    /// assertions). Returned as a `BTreeMap` so callers comparing or
    /// iterating the export see one canonical order — a public API must not
    /// leak hasher-dependent iteration order.
    pub fn export(&self) -> BTreeMap<u64, (P, bool)> {
        self.iter().map(|(k, d, dirty)| (k, (*d, dirty))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_probe_hits() {
        let mut c = SetAssocCache::new(4, 2);
        assert_eq!(c.probe(1), Access::Miss);
        c.fill(1, [1; 64], false);
        assert_eq!(c.probe(1), Access::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn probe_get_accounts_exactly_like_probe() {
        // Two caches driven identically — one via probe+get, one via
        // probe_get — must agree on payloads, statistics, and LRU-driven
        // eviction order.
        let mut a = SetAssocCache::new(1, 2);
        let mut b = SetAssocCache::new(1, 2);
        for c in [&mut a, &mut b] {
            c.fill(1, [1; 64], false);
            c.fill(2, [2; 64], false);
        }
        assert_eq!(a.probe(1), Access::Hit);
        let got = a.get(1).copied();
        assert_eq!(b.probe_get(1).copied(), got);
        assert_eq!(b.probe_get(9), None); // miss accounting
        a.probe(9);
        assert_eq!((a.hits(), a.misses()), (b.hits(), b.misses()));
        // Key 2 is now LRU in both; the next fill evicts it from both.
        let (ea, eb) = (a.fill(3, [3; 64], false), b.fill(3, [3; 64], false));
        assert_eq!(ea.map(|e| e.key), Some(2));
        assert_eq!(eb.map(|e| e.key), Some(2));
    }

    #[test]
    fn lru_evicts_oldest_in_set() {
        // Single set of 2 ways so everything collides.
        let mut c = SetAssocCache::new(1, 2);
        c.fill(1, [1; 64], false);
        c.fill(2, [2; 64], false);
        c.probe(1); // make key 2 the LRU
        let ev = c.fill(3, [3; 64], false).expect("eviction");
        assert_eq!(ev.key, 2);
        assert!(c.contains(1));
        assert!(c.contains(3));
    }

    #[test]
    fn dirty_evictions_are_flagged() {
        let mut c = SetAssocCache::new(1, 1);
        c.fill(1, [1; 64], true);
        let ev = c.fill(2, [2; 64], false).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.data, [1; 64]);
    }

    #[test]
    fn update_marks_dirty() {
        let mut c = SetAssocCache::new(2, 2);
        c.fill(7, [0; 64], false);
        assert!(c.update(7, [9; 64]));
        assert_eq!(c.dirty_blocks(), vec![(7, [9; 64])]);
        assert!(!c.update(8, [1; 64]));
    }

    #[test]
    fn refill_existing_key_does_not_evict() {
        let mut c = SetAssocCache::new(1, 1);
        c.fill(1, [1; 64], true);
        assert!(c.fill(1, [2; 64], false).is_none());
        // Dirtiness is sticky across refills.
        assert_eq!(c.dirty_blocks().len(), 1);
    }

    #[test]
    fn lose_all_models_crash() {
        let mut c = SetAssocCache::new(2, 2);
        c.fill(1, [1; 64], true);
        c.lose_all();
        assert!(c.is_empty());
        assert_eq!(c.probe(1), Access::Miss);
    }

    #[test]
    fn invalidate_returns_payload() {
        let mut c = SetAssocCache::new(2, 2);
        c.fill(3, [3; 64], true);
        let ev = c.invalidate(3).unwrap();
        assert!(ev.dirty);
        assert!(!c.contains(3));
        assert!(c.invalidate(3).is_none());
    }

    #[test]
    fn tag_only_ways_carry_no_payload() {
        // A 16-way set scan over tags reads 24-byte ways, not 88-byte ones.
        assert_eq!(std::mem::size_of::<Way<()>>(), 24);
        assert_eq!(std::mem::size_of::<Way<Line>>(), 24 + 64);
    }

    #[test]
    fn capacity_constructor_matches_table_1() {
        // 128 KiB 4-way counter cache = 512 sets.
        let c: SetAssocCache = SetAssocCache::with_capacity_bytes(128 * 1024, 4);
        assert_eq!(c.sets.len(), 512);
        // 256 KiB 8-way MT cache = 512 sets.
        let m: SetAssocCache = SetAssocCache::with_capacity_bytes(256 * 1024, 8);
        assert_eq!(m.sets.len(), 512);
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn zero_ways_panics() {
        let _: SetAssocCache = SetAssocCache::new(1, 0);
    }
}
