//! [`CpuCacheHierarchy`] in lockstep with the algorithm it replaced: probe
//! each level in turn until one hits, then fill every level outermost
//! first, and `clwb` as an invalidate and a clean refill of each level.
//! The reference shares no code with the real hierarchy or with
//! `SetAssocCache` beyond the published set-index hash: one plain `Vec` per
//! set, LRU by smallest stamp.
//!
//! Small geometries (1-way and 2-way levels among them) keep every level
//! under eviction pressure, so dirty LLC evictions, stale position hints
//! and inner victims spilling outward all happen within a few hundred
//! operations. No workload in the benchmark or the goldens evicts a dirty
//! LLC line, so this test is the guard on that path.

use super::*;
use dolos_sim::rng::XorShift;

/// One level: `(key, dirty, stamp)` ways per set.
struct RefLevel {
    sets: Vec<Vec<(u64, bool, u64)>>,
    ways: usize,
    tick: u64,
}

impl RefLevel {
    fn new((sets, ways): (usize, usize)) -> Self {
        Self {
            sets: vec![Vec::new(); sets],
            ways,
            tick: 0,
        }
    }

    fn set_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.sets.len()
    }

    fn probe(&mut self, key: u64) -> bool {
        self.tick += 1;
        let (set, tick) = (self.set_of(key), self.tick);
        match self.sets[set].iter_mut().find(|w| w.0 == key) {
            Some(way) => {
                way.2 = tick;
                true
            }
            None => false,
        }
    }

    /// Installs or refreshes `key`; returns the evicted `(key, dirty)`.
    fn fill(&mut self, key: u64, dirty: bool) -> Option<(u64, bool)> {
        self.tick += 1;
        let (set, tick, ways) = (self.set_of(key), self.tick, self.ways);
        let set = &mut self.sets[set];
        if let Some(way) = set.iter_mut().find(|w| w.0 == key) {
            way.1 |= dirty;
            way.2 = tick;
            return None;
        }
        let evicted = if set.len() == ways {
            let lru = (0..set.len()).min_by_key(|&i| set[i].2)?;
            let (key, dirty, _) = set.remove(lru);
            Some((key, dirty))
        } else {
            None
        };
        set.push((key, dirty, tick));
        evicted
    }

    /// Removes `key`, returning whether it was dirty.
    fn invalidate(&mut self, key: u64) -> Option<bool> {
        let set = self.set_of(key);
        let i = self.sets[set].iter().position(|w| w.0 == key)?;
        Some(self.sets[set].remove(i).1)
    }

    fn contents(&self) -> Vec<(u64, bool)> {
        let mut all: Vec<_> = self.sets.iter().flatten().map(|w| (w.0, w.1)).collect();
        all.sort_unstable();
        all
    }
}

struct RefHierarchy {
    levels: [RefLevel; 3],
    hits: [u64; 3],
    memory_misses: u64,
    writebacks: u64,
}

impl RefHierarchy {
    fn new(geometry: [(usize, usize); 3]) -> Self {
        Self {
            levels: geometry.map(RefLevel::new),
            hits: [0; 3],
            memory_misses: 0,
            writebacks: 0,
        }
    }

    /// Fills `line` into `levels[level..]`, each dirty victim spilling one
    /// level out; returns the dirty LLC victims.
    fn fill_from(&mut self, mut level: usize, mut line: u64, mut dirty: bool) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some((victim, victim_dirty)) = self.levels[level].fill(line, dirty) {
            if !victim_dirty {
                break;
            }
            if level == 2 {
                out.push(victim);
                break;
            }
            (line, dirty, level) = (victim, true, level + 1);
        }
        out
    }

    fn access(&mut self, line: u64, write: bool) -> CacheAccess {
        let latencies = [L1_LATENCY, L2_LATENCY, LLC_LATENCY];
        let hit = (0..3).find(|&level| self.levels[level].probe(line));
        match hit {
            Some(level) => self.hits[level] += 1,
            None => self.memory_misses += 1,
        }
        let levels_paid = hit.map_or(3, |level| level + 1);
        let mut writebacks = self.fill_from(2, line, false);
        if let Some((victim, true)) = self.levels[1].fill(line, false) {
            writebacks.extend(self.fill_from(2, victim, true));
        }
        if let Some((victim, true)) = self.levels[0].fill(line, write) {
            writebacks.extend(self.fill_from(1, victim, true));
        }
        self.writebacks += writebacks.len() as u64;
        CacheAccess {
            latency: latencies[..levels_paid].iter().sum(),
            memory_miss: hit.is_none(),
            writebacks,
        }
    }

    fn clean(&mut self, line: u64) -> bool {
        let mut was_dirty = false;
        for level in &mut self.levels {
            if let Some(dirty) = level.invalidate(line) {
                was_dirty |= dirty;
                level.fill(line, false);
            }
        }
        was_dirty
    }

    fn lose_all(&mut self) {
        for level in &mut self.levels {
            level.sets.iter_mut().for_each(Vec::clear);
        }
    }
}

/// `(key, dirty)` of every way of each level, in key order.
fn contents(real: &CpuCacheHierarchy) -> [Vec<(u64, bool)>; 3] {
    fn tags<P: Copy>(cache: &SetAssocCache<P>) -> Vec<(u64, bool)> {
        let export = cache.export().into_iter();
        export.map(|(key, (_, dirty))| (key, dirty)).collect()
    }
    [tags(&real.l1), tags(&real.l2), tags(&real.llc)]
}

/// Drives both hierarchies through `ops` seeded operations over `lines`
/// distinct lines, comparing every result and every level's contents.
fn lockstep(seed: u64, geometry: [(usize, usize); 3], lines: u64, ops: usize) {
    let mut rng = XorShift::new(seed);
    let mut real = CpuCacheHierarchy::with_geometry(geometry);
    let mut model = RefHierarchy::new(geometry);
    for op in 0..ops {
        let line = rng.next_below(lines) * 64;
        match rng.next_below(100) {
            0..=79 => {
                let write = rng.chance(0.5);
                let got = real.access(line, write);
                assert_eq!(got, model.access(line, write), "op {op}: access {line:#x}");
            }
            80..=98 => {
                assert_eq!(
                    real.clean(line),
                    model.clean(line),
                    "op {op}: clean {line:#x}"
                );
            }
            _ => {
                real.lose_all();
                model.lose_all();
            }
        }
        let want = model.levels.each_ref().map(RefLevel::contents);
        assert_eq!(contents(&real), want, "op {op}: contents");
    }
    assert_eq!(
        (real.hits, real.memory_misses, real.writebacks),
        (model.hits, model.memory_misses, model.writebacks)
    );
    // The run reached every path: hits at each level, dirty LLC evictions.
    assert!(real.hits.iter().all(|&h| h > 0), "hits {:?}", real.hits);
    assert!(real.writebacks > 0, "no dirty LLC eviction");
}

#[test]
fn table_1_shape_scaled_down() {
    // 2-way L1 inside an 8-way L2 inside a 16-way LLC, as in Table 1.
    for seed in 1..=4 {
        lockstep(seed, [(4, 2), (4, 8), (4, 16)], 160, 4_000);
    }
}

#[test]
fn direct_mapped_and_two_way_levels() {
    for seed in 1..=4 {
        lockstep(seed, [(2, 1), (2, 2), (4, 2)], 40, 4_000);
        lockstep(seed, [(1, 2), (3, 1), (2, 4)], 40, 4_000);
    }
}

#[test]
fn llc_smaller_than_the_inner_levels() {
    // Lines the LLC evicted stay in L1 and L2, so the hints to the LLC go
    // stale often and every L1 hit re-installs its line out there.
    for seed in 1..=4 {
        lockstep(seed, [(4, 2), (4, 4), (1, 2)], 48, 4_000);
    }
}
