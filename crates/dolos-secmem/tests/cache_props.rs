//! Differential property tests for [`SetAssocCache`].
//!
//! A naive reference model — plain vectors, no statistics, the same
//! multiplicative set hash and tick-based LRU — is driven in lockstep
//! with the real cache under seeded operation sequences. Every return
//! value and every periodic full-state export must agree, so any
//! divergence in hit/miss behaviour, eviction choice, dirtiness
//! propagation, or crash loss is caught with the exact operation index.
//! The positional calls run against it too: an in-place `clean` must act as
//! the model's invalidate and clean refill, and a `fill_at` given a kept,
//! often stale position as a plain `fill`.
//!
//! A tags-only `SetAssocCache<()>` (the L2 and LLC payload type) runs the
//! same sequences alongside and must agree with the `Line` cache on every
//! key, dirty flag, eviction and hit/miss count: the payload type never
//! steers replacement.

use std::collections::BTreeMap;

use dolos_nvm::Line;
use dolos_secmem::cache::{Access, Eviction, SetAssocCache};
use dolos_sim::rng::XorShift;

/// The reference: one `Vec` per set, LRU = smallest last-use tick.
/// Deliberately dumb — correctness over speed, no shared code with the
/// real cache beyond the published set-index hash.
struct RefCache {
    sets: Vec<Vec<(u64, Line, bool, u64)>>,
    ways: usize,
    tick: u64,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets: vec![Vec::new(); sets],
            ways,
            tick: 0,
        }
    }

    fn set_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.sets.len()
    }

    fn probe(&mut self, key: u64) -> Access {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(key);
        match self.sets[set].iter_mut().find(|w| w.0 == key) {
            Some(way) => {
                way.3 = tick;
                Access::Hit
            }
            None => Access::Miss,
        }
    }

    fn update(&mut self, key: u64, data: Line) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(key);
        match self.sets[set].iter_mut().find(|w| w.0 == key) {
            Some(way) => {
                way.1 = data;
                way.2 = true;
                way.3 = tick;
                true
            }
            None => false,
        }
    }

    fn fill(&mut self, key: u64, data: Line, dirty: bool) -> Option<Eviction> {
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_of(key);
        let ways = self.ways;
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.0 == key) {
            way.1 = data;
            way.2 = way.2 || dirty;
            way.3 = tick;
            return None;
        }
        let evicted = if set.len() == ways {
            // Ticks are unique, so the minimum is unambiguous.
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.3)
                .map(|(i, _)| i)?;
            let way = set.remove(lru);
            Some(Eviction {
                key: way.0,
                data: way.1,
                dirty: way.2,
            })
        } else {
            None
        };
        set.push((key, data, dirty, tick));
        evicted
    }

    /// Removes `key`: with a clean refill, what the real cache's
    /// in-place `clean` must match.
    fn invalidate(&mut self, key: u64) -> Option<Eviction> {
        let set_idx = self.set_of(key);
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|w| w.0 == key)?;
        let way = set.remove(pos);
        Some(Eviction {
            key: way.0,
            data: way.1,
            dirty: way.2,
        })
    }

    fn lose_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    fn export(&self) -> BTreeMap<u64, (Line, bool)> {
        self.sets
            .iter()
            .flatten()
            .map(|&(k, d, dirty, _)| (k, (d, dirty)))
            .collect()
    }
}

fn line(tag: u64) -> Line {
    let mut l = [0u8; 64];
    l[0..8].copy_from_slice(&tag.to_le_bytes());
    l
}

/// An eviction's key and dirtiness: everything but the payload.
fn tag_of<P>(ev: Option<Eviction<P>>) -> Option<(u64, bool)> {
    ev.map(|ev| (ev.key, ev.dirty))
}

/// `(key, dirty)` of every resident block, in key order.
fn tags<P: Copy>(cache: &SetAssocCache<P>) -> Vec<(u64, bool)> {
    cache
        .export()
        .into_iter()
        .map(|(k, (_, d))| (k, d))
        .collect()
}

/// Drives all three caches through `ops` seeded operations and checks every
/// return value plus a periodic full-state comparison.
fn lockstep(seed: u64, sets: usize, ways: usize, keyspace: u64, ops: usize) {
    let mut rng = XorShift::new(seed);
    let mut cache: SetAssocCache = SetAssocCache::new(sets, ways);
    let mut tag_cache: SetAssocCache<()> = SetAssocCache::new(sets, ways);
    let mut model = RefCache::new(sets, ways);
    // Positions `fill_at` returned, every one kept as a later hint.
    let mut hints = vec![None];
    for op in 0..ops {
        let key = rng.next_below(keyspace);
        match rng.next_below(100) {
            // Probe dominates: it is the hot path and the LRU driver.
            0..=39 => {
                let access = cache.probe(key);
                assert_eq!(access, model.probe(key), "op {op}: probe {key}");
                assert_eq!(tag_cache.probe(key), access, "op {op}: tag probe {key}");
            }
            40..=69 => {
                let data = line(rng.next_u64());
                let dirty = rng.chance(0.4);
                let evicted = cache.fill(key, data, dirty);
                assert_eq!(
                    tag_of(tag_cache.fill(key, (), dirty)),
                    tag_of(evicted.clone()),
                    "op {op}: tag fill {key}"
                );
                assert_eq!(evicted, model.fill(key, data, dirty), "op {op}: fill {key}");
            }
            70..=84 => {
                let data = line(rng.next_u64());
                let updated = cache.update(key, data);
                assert_eq!(updated, model.update(key, data), "op {op}: update {key}");
                assert_eq!(
                    tag_cache.update(key, ()),
                    updated,
                    "op {op}: tag update {key}"
                );
            }
            // `clean` at a found position: the model's invalidate and
            // clean refill. A miss leaves every side untouched.
            85..=89 => {
                let found = cache.find(key, None);
                let tag_found = tag_cache.find(key, None);
                assert_eq!(found.is_some(), tag_found.is_some(), "op {op}: find {key}");
                let was_dirty = found.map(|pos| cache.clean(pos));
                assert_eq!(
                    tag_found.map(|pos| tag_cache.clean(pos)),
                    was_dirty,
                    "op {op}: tag clean {key}"
                );
                let expect = model.invalidate(key).map(|ev| {
                    model.fill(key, ev.data, false);
                    ev.dirty
                });
                assert_eq!(was_dirty, expect, "op {op}: clean {key}");
            }
            // `fill_at` with a kept position, often stale: it must act as
            // a plain fill, and return where `key` now sits.
            90..=94 => {
                let data = line(rng.next_u64());
                let dirty = rng.chance(0.4);
                let hint = hints[rng.next_below(hints.len() as u64) as usize];
                let (pos, evicted) = cache.fill_at(key, data, dirty, hint);
                hints.push(Some(pos));
                assert_eq!(cache.find(key, None), Some(pos), "op {op}: pos {key}");
                assert_eq!(cache.payload(pos), &data, "op {op}: payload {key}");
                assert_eq!(
                    tag_of(tag_cache.fill_at(key, (), dirty, hint).1),
                    tag_of(evicted.clone()),
                    "op {op}: tag fill_at {key}"
                );
                assert_eq!(
                    evicted,
                    model.fill(key, data, dirty),
                    "op {op}: fill_at {key}"
                );
            }
            // Rare crash: every side loses everything.
            _ => {
                cache.lose_all();
                tag_cache.lose_all();
                model.lose_all();
            }
        }
        assert_eq!(cache.contains(key), model.export().contains_key(&key));
        assert_eq!(tag_cache.contains(key), cache.contains(key));
        if op % 64 == 0 {
            assert_eq!(cache.export(), model.export(), "op {op}: export diverged");
            assert_eq!(cache.len(), model.export().len(), "op {op}: len diverged");
            assert_eq!(tags(&tag_cache), tags(&cache), "op {op}: tags diverged");
        }
    }
    assert_eq!(cache.export(), model.export());
    assert_eq!(tags(&tag_cache), tags(&cache));
    // Hits, misses, write-backs and resident count.
    assert_eq!(tag_cache.stats("c"), cache.stats("c"));
    let mut dirty = cache.dirty_blocks();
    dirty.sort_by_key(|&(k, _)| k);
    let expect: Vec<(u64, Line)> = model
        .export()
        .into_iter()
        .filter(|(_, (_, d))| *d)
        .map(|(k, (d, _))| (k, d))
        .collect();
    assert_eq!(dirty, expect);
}

#[test]
fn small_geometry_heavy_collisions() {
    // 4 sets x 2 ways with a 64-key space: every set sees constant
    // eviction pressure, exercising the LRU victim choice continuously.
    for seed in 1..=8 {
        lockstep(seed, 4, 2, 64, 2_000);
    }
}

#[test]
fn single_set_is_pure_lru() {
    lockstep(0xC0FFEE, 1, 4, 24, 2_000);
}

#[test]
fn direct_mapped_degenerate_case() {
    lockstep(0xD1CE, 8, 1, 48, 2_000);
}

#[test]
fn table_1_counter_cache_geometry() {
    // 128 KiB 4-way (512 sets): sparse pressure, evictions still occur
    // because the keyspace is bigger than the capacity.
    lockstep(42, 512, 4, 4096, 10_000);
}
