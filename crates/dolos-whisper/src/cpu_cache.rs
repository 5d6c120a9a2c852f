//! The processor cache hierarchy of Table 1.
//!
//! Three levels — L1 32 KiB 2-way (2 cycles), L2 512 KiB 8-way (20 cycles),
//! LLC 8 MiB 16-way (32 cycles) — tracked at cacheline granularity for
//! *timing and eviction behaviour*. The levels hold no data bytes: a way is
//! a key, a dirty bit and an LRU stamp, and the bytes themselves live in
//! the environment's line image ([`crate::env::PmEnv`]). Two event kinds
//! leave the hierarchy toward the memory controller:
//!
//! * explicit `clwb` flushes (the workload's persists), and
//! * **dirty LLC evictions** — Figure 7's "flushed cachelines and evictions
//!   from LLC", the background writeback traffic that also competes for WPQ
//!   slots. §5.2.1 attributes part of the Post design's retry count to
//!   exactly these writebacks arriving when the WPQ is full.
//!
//! Each L1 way carries two hints, the [`Pos`] where its line last sat in L2
//! and in the LLC. On the WHISPER workloads about four in five accesses
//! hit L1, and such a hit scans one 2-way set: it refreshes the line in
//! the LLC and L2 through the hints, checking the key at each, and scans a
//! level only when its hint went stale. A miss scans each level at most once before its fill, and a
//! `clwb` cleans each level in place. Every refresh happens in the same
//! per-level order as a probe of every level followed by a fill of every
//! level would make it; LRU compares stamps only within one level, so the
//! victims, write-backs and latencies are that algorithm's.

use dolos_secmem::cache::{Pos, SetAssocCache};
use dolos_sim::stats::StatSet;

/// L1: 32 KiB, 2-way, 2 cycles (Table 1).
pub const L1_BYTES: usize = 32 * 1024;
/// L1 associativity.
pub const L1_WAYS: usize = 2;
/// L1 hit latency in cycles.
pub const L1_LATENCY: u64 = 2;

/// L2: 512 KiB, 8-way, 20 cycles (Table 1).
pub const L2_BYTES: usize = 512 * 1024;
/// L2 associativity.
pub const L2_WAYS: usize = 8;
/// L2 hit latency in cycles.
pub const L2_LATENCY: u64 = 20;

/// LLC: 8 MiB, 16-way, 32 cycles (Table 1).
pub const LLC_BYTES: usize = 8 * 1024 * 1024;
/// LLC associativity.
pub const LLC_WAYS: usize = 16;
/// LLC hit latency in cycles.
pub const LLC_LATENCY: u64 = 32;

/// Result of one cache access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheAccess {
    /// Cycles to reach the first level that hit (memory misses add the
    /// controller's latency on top, charged by the caller).
    pub latency: u64,
    /// Whether the access missed all three levels.
    pub memory_miss: bool,
    /// Dirty lines evicted from the LLC by this access; the caller must
    /// write them back through the memory controller.
    pub writebacks: Vec<u64>,
}

/// The three-level write-back hierarchy.
///
/// # Examples
///
/// ```
/// use dolos_whisper::cpu_cache::CpuCacheHierarchy;
///
/// let mut caches = CpuCacheHierarchy::new();
/// let first = caches.access(0x1000, false);
/// assert!(first.memory_miss);
/// let second = caches.access(0x1000, false);
/// assert_eq!(second.latency, 2); // L1 hit
/// ```
#[derive(Debug)]
pub struct CpuCacheHierarchy {
    /// Each way's payload is `[L2 hint, LLC hint]` for its line.
    l1: SetAssocCache<[Pos; 2]>,
    l2: SetAssocCache<()>,
    llc: SetAssocCache<()>,
    hits: [u64; 3],
    memory_misses: u64,
    writebacks: u64,
}

impl Default for CpuCacheHierarchy {
    fn default() -> Self {
        Self::new()
    }
}

impl CpuCacheHierarchy {
    /// Creates the Table 1 hierarchy.
    pub fn new() -> Self {
        Self::with_geometry([
            (L1_BYTES / 64 / L1_WAYS, L1_WAYS),
            (L2_BYTES / 64 / L2_WAYS, L2_WAYS),
            (LLC_BYTES / 64 / LLC_WAYS, LLC_WAYS),
        ])
    }

    /// A hierarchy with `(sets, ways)` for L1, L2 and the LLC.
    fn with_geometry([l1, l2, llc]: [(usize, usize); 3]) -> Self {
        Self {
            l1: SetAssocCache::new(l1.0, l1.1),
            l2: SetAssocCache::new(l2.0, l2.1),
            llc: SetAssocCache::new(llc.0, llc.1),
            hits: [0; 3],
            memory_misses: 0,
            writebacks: 0,
        }
    }

    /// Accesses `line` (a 64-byte-aligned address), returning the hit
    /// latency and any dirty LLC evictions. `write` marks the L1 copy dirty.
    ///
    /// The hierarchy is inclusive: a fill installs the line in all levels;
    /// an eviction from an inner level writes through to the next level
    /// (dirtiness propagates down, leaving the LLC as the last holder).
    pub fn access(&mut self, line: u64, write: bool) -> CacheAccess {
        let in_l1 = self.l1.find(line, None);
        // Where the line sits in L2 and the LLC, as far as the lookup saw:
        // an L1 hit brings both hints, a probe past L1 the level it hit.
        let (latency, memory_miss, [in_l2, in_llc]) = if let Some(pos) = in_l1 {
            self.hits[0] += 1;
            (L1_LATENCY, false, self.l1.payload(pos).map(Some))
        } else if let Some(pos) = self.l2.find(line, None) {
            self.hits[1] += 1;
            (L1_LATENCY + L2_LATENCY, false, [Some(pos), None])
        } else if let Some(pos) = self.llc.find(line, None) {
            self.hits[2] += 1;
            (
                L1_LATENCY + L2_LATENCY + LLC_LATENCY,
                false,
                [None, Some(pos)],
            )
        } else {
            self.memory_misses += 1;
            (L1_LATENCY + L2_LATENCY + LLC_LATENCY, true, [None, None])
        };
        // Fill/refresh the line in every level (inclusive hierarchy),
        // outermost first so inner victims can land one level out. A dirty
        // victim leaving a level is installed dirty in the next level; a
        // dirty LLC victim becomes a memory write-back.
        let mut writebacks = Vec::new();
        let (llc_pos, victim) = self.llc.fill_at(line, (), false, in_llc);
        writebacks.extend(victim.filter(|v| v.dirty).map(|v| v.key));
        let (l2_pos, victim) = self.l2.fill_at(line, (), false, in_l2);
        if let Some(victim) = victim.filter(|v| v.dirty) {
            self.spill_to_llc(victim.key, &mut writebacks);
        }
        let (_, victim) = self.l1.fill_at(line, [l2_pos, llc_pos], write, in_l1);
        if let Some(victim) = victim.filter(|v| v.dirty) {
            let [l2_hint, _] = victim.data;
            let (_, spilled) = self.l2.fill_at(victim.key, (), true, Some(l2_hint));
            if let Some(spilled) = spilled.filter(|v| v.dirty) {
                self.spill_to_llc(spilled.key, &mut writebacks);
            }
        }
        self.writebacks += writebacks.len() as u64;
        CacheAccess {
            latency,
            memory_miss,
            writebacks,
        }
    }

    /// Installs a dirty L2 victim in the LLC; a dirty LLC victim of that
    /// fill becomes a memory write-back.
    fn spill_to_llc(&mut self, line: u64, writebacks: &mut Vec<u64>) {
        if let Some(victim) = self.llc.fill(line, (), true).filter(|v| v.dirty) {
            writebacks.push(victim.key);
        }
    }

    /// `clwb`: cleans the line in every level (it stays cached). Returns
    /// whether any level held it dirty — i.e., whether a write-back is due.
    pub fn clean(&mut self, line: u64) -> bool {
        let mut was_dirty = false;
        let mut hints = [None, None];
        if let Some(pos) = self.l1.find(line, None) {
            hints = self.l1.payload(pos).map(Some);
            was_dirty |= self.l1.clean(pos);
        }
        let [in_l2, in_llc] = hints;
        if let Some(pos) = self.l2.find(line, in_l2) {
            was_dirty |= self.l2.clean(pos);
        }
        if let Some(pos) = self.llc.find(line, in_llc) {
            was_dirty |= self.llc.clean(pos);
        }
        was_dirty
    }

    /// Crash: all levels lose their contents.
    pub fn lose_all(&mut self) {
        self.l1.lose_all();
        self.l2.lose_all();
        self.llc.lose_all();
    }

    /// Snapshot of hierarchy statistics.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("cpu_cache.l1_hits", self.hits[0] as f64);
        s.set("cpu_cache.l2_hits", self.hits[1] as f64);
        s.set("cpu_cache.llc_hits", self.hits[2] as f64);
        s.set("cpu_cache.memory_misses", self.memory_misses as f64);
        s.set("cpu_cache.writebacks", self.writebacks as f64);
        s
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_latencies_follow_table_1() {
        let mut c = CpuCacheHierarchy::new();
        let miss = c.access(0, false);
        assert!(miss.memory_miss);
        assert_eq!(miss.latency, 54); // 2 + 20 + 32
        let hit = c.access(0, false);
        assert_eq!(hit.latency, 2);
        assert!(!hit.memory_miss);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut c = CpuCacheHierarchy::new();
        c.access(0, false);
        // Evict line 0 from L1 by filling its set (L1: 32KiB/2-way = 256
        // sets; lines mapping to the same set need matching hash — easier:
        // touch many lines and verify line 0 still hits somewhere cheaper
        // than memory).
        for i in 1..2000u64 {
            c.access(i * 64, false);
        }
        let again = c.access(0, false);
        assert!(!again.memory_miss, "LLC still holds the line");
        assert!(again.latency >= 2);
    }

    #[test]
    fn dirty_llc_evictions_surface_as_writebacks() {
        let mut c = CpuCacheHierarchy::new();
        // Write far more distinct lines than the LLC holds (8 MiB = 131072
        // lines): writebacks must appear.
        let lines = (LLC_BYTES / 64) as u64 + 5000;
        let mut writebacks = 0usize;
        for i in 0..lines {
            writebacks += c.access(i * 64, true).writebacks.len();
        }
        assert!(
            writebacks > 0,
            "no dirty evictions after overflowing the LLC"
        );
    }

    #[test]
    fn clean_reports_dirtiness_once() {
        let mut c = CpuCacheHierarchy::new();
        c.access(0x40, true);
        assert!(c.clean(0x40), "written line must be dirty");
        assert!(!c.clean(0x40), "second clwb finds it clean");
        // Still cached after cleaning.
        assert_eq!(c.access(0x40, false).latency, 2);
    }

    #[test]
    fn crash_loses_everything() {
        let mut c = CpuCacheHierarchy::new();
        c.access(0, true);
        c.lose_all();
        assert!(c.access(0, false).memory_miss);
    }

    #[test]
    fn stats_track_levels() {
        let mut c = CpuCacheHierarchy::new();
        c.access(0, false);
        c.access(0, false);
        let s = c.stats();
        assert_eq!(s.get("cpu_cache.memory_misses"), Some(1.0));
        assert_eq!(s.get("cpu_cache.l1_hits"), Some(1.0));
    }
}
