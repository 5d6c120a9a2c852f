//! A set-associative write-back cache with LRU replacement.
//!
//! Generic over the payload each way carries. The counter cache (128 KiB,
//! 4-way) and the Merkle-tree metadata cache (256 KiB, 8-way) from Table 1
//! use the default, a 64-byte [`Line`]: dirty blocks exist *only* here until
//! written back, which is precisely the volatility that makes secure-NVM
//! crash consistency hard. The WHISPER front end's CPU caches carry no
//! bytes (their data lives in the environment's line image): L2 and the LLC
//! are tags only (`SetAssocCache<()>`), and each L1 way carries two
//! [`Pos`] hints, where its line last sat in L2 and the LLC.
//!
//! Key-based calls ([`SetAssocCache::probe`], [`SetAssocCache::fill`], ...)
//! scan the key's set. [`SetAssocCache::find`] and
//! [`SetAssocCache::fill_at`] return the key's [`Pos`] and take one back as
//! a hint, and [`SetAssocCache::clean`] cleans a known way in place, so a
//! caller that kept a position skips the scan. A set is one `Vec` that
//! grows on first touch, so storage follows the sets actually used.
//!
//! A bitmap marks the sets that hold a block. A set gains its mark on its
//! first fill and keeps it until [`SetAssocCache::lose_all`], since no
//! other call empties a set. So a crash, [`SetAssocCache::iter`] and
//! [`SetAssocCache::len`] cost one word per 64 sets plus the occupied sets,
//! not a visit to every set: a short run that touches a few hundred of the
//! LLC's 8,192 sets loses them in a few hundred steps.

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

/// Where a block sits: its set and its way in that set.
///
/// A fill that evicts moves its set's last way into the victim's slot, and
/// [`SetAssocCache::lose_all`] empties every set, so a kept position is a
/// hint: the cache checks the key at it before use and scans the set when
/// it no longer holds that key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    set: u32,
    way: u32,
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
///
/// // A kept position skips the set scan; a stale one falls back to it.
/// let pos = cache.find(5, None).unwrap();
/// assert_eq!(cache.find(5, Some(pos)), Some(pos));
/// assert!(!cache.clean(pos), "filled clean");
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<P = Line> {
    sets: Vec<Vec<Way<P>>>,
    /// Bit `s % 64` of word `s / 64` is set when set `s` holds a block.
    occupied: Vec<u64>,
    ways: usize,
    /// `2^64 / sets` rounded up (wrapping to 0 for one set): the
    /// reciprocal [`Self::set_of`] multiplies by in place of a divide.
    set_magic: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

/// `hash % sets` for a 32-bit `hash` without a divide, given
/// `magic = u64::MAX / sets + 1` (Lemire, Kaser and Kurz, "Faster
/// remainder by direct computation", 2019): the low 64 bits of
/// `magic * hash` are the fraction `hash / sets`, and scaling that
/// fraction by `sets` gives the remainder as the high 64 bits. Exact for
/// every `hash` and `sets` below 2^32.
fn fastmod(hash: u64, magic: u64, sets: u64) -> u64 {
    let fraction = magic.wrapping_mul(hash);
    ((u128::from(fraction) * u128::from(sets)) >> 64) as u64
}

/// The sets that word `word` of an occupancy bitmap marks, ascending.
fn marked_sets(word: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let bit = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(word * 64 + bit)
    })
}

impl<P: Copy> SetAssocCache<P> {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or either is 2^32 or more.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        assert!(
            u32::try_from(sets).is_ok() && u32::try_from(ways).is_ok(),
            "cache geometry must fit a 32-bit position"
        );
        Self {
            sets: vec![Vec::with_capacity(ways); sets],
            occupied: vec![0; sets.div_ceil(64)],
            ways,
            set_magic: (u64::MAX / sets as u64).wrapping_add(1),
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
        // Multiplicative hash spreads metadata regions across sets. The
        // hash is below 2^32, so `fastmod` maps it exactly as `%` would.
        let hash = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        fastmod(hash, self.set_magic, self.sets.len() as u64) as usize
    }

    /// `key`'s set, and its way there if resident: `hint` when the way at
    /// it holds `key`, else the result of scanning the set.
    fn locate(&self, key: u64, hint: Option<Pos>) -> (usize, Option<usize>) {
        if let Some(Pos { set, way }) = hint {
            let (set, way) = (set as usize, way as usize);
            let held = self.sets.get(set).and_then(|s| s.get(way));
            if held.is_some_and(|w| w.key == key) {
                return (set, Some(way));
            }
        }
        let set = self.set_of(key);
        (set, self.sets[set].iter().position(|w| w.key == key))
    }

    /// Probes for `key`, updating hit/miss statistics and LRU on hit.
    pub fn probe(&mut self, key: u64) -> Access {
        if self.probe_get(key).is_some() {
            Access::Hit
        } else {
            Access::Miss
        }
    }

    /// [`Self::probe`] and [`Self::get`] fused: one way scan instead of
    /// two, with exactly `probe`'s statistics/LRU accounting (one tick,
    /// one hit or miss). Returns the cached payload on a hit.
    pub fn probe_get(&mut self, key: u64) -> Option<&P> {
        self.tick += 1;
        let (set, way) = self.locate(key, None);
        let Some(way) = way else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let way = &mut self.sets[set][way];
        way.last_use = self.tick;
        Some(&way.data)
    }

    /// Whether `key` is present, without touching statistics or LRU.
    pub fn contains(&self, key: u64) -> bool {
        self.locate(key, None).1.is_some()
    }

    /// Reads a cached payload without changing replacement state.
    pub fn get(&self, key: u64) -> Option<&P> {
        self.find(key, None).map(|pos| self.payload(pos))
    }

    /// Where `key` sits, without touching statistics or LRU. A `hint` that
    /// still holds `key` is returned without scanning the set.
    pub fn find(&self, key: u64, hint: Option<Pos>) -> Option<Pos> {
        let (set, way) = self.locate(key, hint);
        way.map(|way| Pos {
            set: set as u32,
            way: way as u32,
        })
    }

    /// The payload at `pos`, which must come from [`Self::find`] or
    /// [`Self::fill_at`] with no fill or loss since.
    pub fn payload(&self, pos: Pos) -> &P {
        &self.sets[pos.set as usize][pos.way as usize].data
    }

    /// Updates a cached payload in place, marking it dirty.
    ///
    /// Returns `false` if the block is not cached.
    pub fn update(&mut self, key: u64, data: P) -> bool {
        self.tick += 1;
        let (set, way) = self.locate(key, None);
        let Some(way) = way else {
            return false;
        };
        let way = &mut self.sets[set][way];
        way.data = data;
        way.dirty = true;
        way.last_use = self.tick;
        true
    }

    /// Inserts a block fetched from memory, evicting the LRU way if the set
    /// is full. Returns the eviction (if any); dirty evictions must be
    /// written back by the caller.
    ///
    /// If `key` is already present its payload is replaced instead.
    pub fn fill(&mut self, key: u64, data: P, dirty: bool) -> Option<Eviction<P>> {
        self.fill_at(key, data, dirty, None).1
    }

    /// [`Self::fill`] that tries `hint` before scanning for `key`, and also
    /// returns where `key` now sits.
    pub fn fill_at(
        &mut self,
        key: u64,
        data: P,
        dirty: bool,
        hint: Option<Pos>,
    ) -> (Pos, Option<Eviction<P>>) {
        self.tick += 1;
        let tick = self.tick;
        let (set_idx, found) = self.locate(key, hint);
        let set = &mut self.sets[set_idx];
        if let Some(way_idx) = found {
            let way = &mut set[way_idx];
            way.data = data;
            way.dirty |= dirty;
            way.last_use = tick;
            let pos = Pos {
                set: set_idx as u32,
                way: way_idx as u32,
            };
            return (pos, None);
        }
        // Marked before any eviction: a full 1-way set is empty for a
        // moment after its victim leaves, though it was occupied before.
        if set.is_empty() {
            self.occupied[set_idx / 64] |= 1 << (set_idx % 64);
        }
        let evicted = if set.len() == self.ways {
            // A full set is non-empty, and its stamps are unique: the
            // least recent way is always found, and unambiguous.
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_use)
                .map_or(0, |(i, _)| i);
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
        let pos = Pos {
            set: set_idx as u32,
            way: set.len() as u32,
        };
        set.push(Way {
            key,
            data,
            dirty,
            last_use: tick,
        });
        (pos, evicted)
    }

    /// Cleans the block at `pos` in place, as an invalidate and a clean
    /// refill of it would: it becomes the set's most recent way, and
    /// whether it was dirty is returned. `pos` must come from
    /// [`Self::find`] or [`Self::fill_at`] with no fill or loss since.
    pub fn clean(&mut self, pos: Pos) -> bool {
        self.tick += 1;
        let way = &mut self.sets[pos.set as usize][pos.way as usize];
        way.last_use = self.tick;
        std::mem::replace(&mut way.dirty, false)
    }

    /// The indices of the sets holding a block, ascending.
    fn occupied_sets(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.occupied.iter().enumerate();
        words.flat_map(|(word, &bits)| marked_sets(word, bits))
    }

    /// Drops every block (models volatile loss at a crash). Visits only
    /// the occupied sets; each keeps its storage for the next fill.
    pub fn lose_all(&mut self) {
        for (word, bits) in self.occupied.iter_mut().enumerate() {
            for set in marked_sets(word, std::mem::take(bits)) {
                self.sets[set].clear();
            }
        }
    }

    /// Iterates over all resident blocks as `(key, data, dirty)`, in
    /// ascending set order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &P, bool)> {
        self.occupied_sets()
            .flat_map(|s| self.sets[s].iter().map(|w| (w.key, &w.data, w.dirty)))
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
        self.occupied_sets().map(|s| self.sets[s].len()).sum()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.occupied.iter().all(|&bits| bits == 0)
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
    fn the_occupancy_bitmap_tracks_every_fill_and_loss() {
        // An LLC-sized geometry, and 1-way ones where every fill into a
        // held set evicts (and the set is empty for a moment). Keys come
        // from one pool, so later cycles refill keys an earlier one lost.
        let mut rng = dolos_sim::rng::XorShift::new(0x5E75);
        for (sets, ways, fills, pool) in [
            (8192, 16, 3000, 20_000),
            (8192, 16, 200, 20_000),
            (64, 1, 300, 200),
            (3, 1, 20, 8),
        ] {
            let mut c: SetAssocCache<u64> = SetAssocCache::new(sets, ways);
            for cycle in 0..24 {
                let mut filled = std::collections::BTreeSet::new();
                for _ in 0..rng.next_below(fills) + 1 {
                    let key = rng.next_below(pool);
                    c.fill(key, key ^ cycle, rng.next_below(2) == 0);
                    filled.insert(key);
                }
                // Marked exactly when held: no set lost, none left stale.
                for (set, ways) in c.sets.iter().enumerate() {
                    let marked = c.occupied[set / 64] >> (set % 64) & 1 == 1;
                    assert_eq!(marked, !ways.is_empty(), "set {set}, cycle {cycle}");
                }
                let held: Vec<(u64, u64)> = c.iter().map(|(k, &d, _)| (k, d)).collect();
                assert_eq!(held.len(), c.len());
                assert!(held.len() <= filled.len().min(sets * ways));
                for (key, data) in held {
                    assert!(filled.contains(&key), "key {key} outlived a loss");
                    assert_eq!(data, key ^ cycle, "a stale way of key {key}");
                }
                let dirty = c.dirty_blocks().len();
                assert_eq!(dirty, c.iter().filter(|(_, _, d)| *d).count());
                c.lose_all();
                assert_eq!((c.is_empty(), c.len(), c.iter().next()), (true, 0, None));
                assert!(c.occupied.iter().all(|&bits| bits == 0));
                for key in &filled {
                    assert_eq!(c.probe(*key), Access::Miss, "key {key} survived");
                }
            }
        }
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
    fn fastmod_is_the_remainder() {
        let mut rng = dolos_sim::rng::XorShift::new(7);
        let max = u64::from(u32::MAX);
        for sets in [1, 2, 3, 7, 256, 1000, 8192, 65_537, max - 1, max] {
            let magic = (u64::MAX / sets).wrapping_add(1);
            let edges = [0, 1, sets - 1, sets, max - 1, max];
            let random = (0..1000).map(|_| rng.next_below(max + 1));
            for hash in edges.into_iter().chain(random) {
                assert_eq!(fastmod(hash, magic, sets), hash % sets, "{hash} % {sets}");
            }
        }
    }

    #[test]
    fn a_position_is_a_checked_hint() {
        // One set of two ways: keys 1 and 2 fill it, key 3 evicts key 1
        // and moves key 2 into way 0.
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 2);
        let (one, _) = c.fill_at(1, 10, true, None);
        let (two, _) = c.fill_at(2, 20, false, None);
        assert_eq!(c.find(2, Some(two)), Some(two));
        assert_eq!(c.fill(3, 30, false).map(|ev| ev.key), Some(1));
        assert_eq!(c.find(2, None), Some(one), "swap-moved into way 0");
        assert_eq!(c.find(2, Some(two)), Some(one), "stale hint: scanned");
        assert_eq!(c.find(1, Some(one)), None);
        assert_eq!(c.payload(one), &20);
        // An in-place clean refreshes LRU: key 3 is now the victim.
        assert!(!c.clean(one));
        assert_eq!(c.fill(4, 40, false).map(|ev| ev.key), Some(3));
        c.lose_all();
        assert_eq!(c.find(2, Some(one)), None, "hint past the emptied set");
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn zero_ways_panics() {
        let _: SetAssocCache = SetAssocCache::new(1, 0);
    }
}
