//! Direct-mapped counter-block pad cache for the Ma-SU hot path.
//!
//! A counter-mode pad is a pure function of `(line address, packed
//! counter)`, so recomputing it costs four AES block encryptions (one
//! `Aes128::ctr4` call in `pad_line`) of *host* time on
//! every touch of a line — yet the dominant access pattern
//! (write a line, read it back; decrypt-then-reencrypt during a counter
//! overflow) asks for the same `(address, counter)` pair again almost
//! immediately. The simulated AES latency is charged by the Ma-SU's latency
//! model regardless, so memoizing the pad on the host is timing-invisible:
//! a hit and a miss return bit-identical pads and move no simulated cycles.
//!
//! The cache is a fixed-size direct-mapped array indexed by line address —
//! deliberately not a `HashMap` (hasher seeding is nondeterministic) and
//! deliberately allocation-free after construction (the pad path is a
//! hot-alloc lint root). A write bumps the line's counter, maps to the same
//! slot, and overwrites it: stale pads self-invalidate because the counter
//! is part of the match key. Osiris recovery probes a line's candidate
//! counters upward; an older candidate's miss never evicts the line's
//! newest pad, so the probe ends on a hit while that pad is still held.
//!
//! # Examples
//!
//! ```
//! use dolos_crypto::aes::Aes128;
//! use dolos_crypto::padcache::PadCache;
//!
//! let key = Aes128::new(&[7; 16]);
//! let mut cache = PadCache::new(64);
//! let miss = cache.pad(&key, 0x40, 3);
//! let hit = cache.pad(&key, 0x40, 3);
//! assert_eq!(miss, hit);
//! assert_eq!(cache.misses(), 1);
//! assert_eq!(cache.hits(), 1);
//! // A counter bump (rewrite) self-invalidates the slot.
//! assert_ne!(cache.pad(&key, 0x40, 4), hit);
//! ```

use crate::aes::Aes128;
use crate::ctr::{pad_line, IvBuilder};

/// Line size covered by one pad, in bytes.
const LINE_SIZE: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: u64,
    counter: u64,
    pad: [u8; LINE_SIZE],
    valid: bool,
}

/// A direct-mapped memo cache from `(line address, packed counter)` to the
/// 64-byte counter-mode pad.
#[derive(Debug, Clone)]
pub struct PadCache {
    slots: Vec<Slot>,
    hits: u64,
    misses: u64,
}

impl PadCache {
    /// Creates a cache with `slots` direct-mapped entries (rounded up to a
    /// power of two, minimum 1).
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1).next_power_of_two();
        PadCache {
            slots: vec![
                Slot {
                    addr: 0,
                    counter: 0,
                    pad: [0; LINE_SIZE],
                    valid: false,
                };
                slots
            ],
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the pad for `(addr, counter)`, computing and caching it on a
    /// miss. Hit or miss, the returned bytes are identical — the cache can
    /// only change host time, never a value.
    ///
    /// A miss never replaces the same line's pad at a newer counter. A
    /// line's counter only grows, so only an Osiris probe asks for an older
    /// one, on its way up to the newest, whose pad is best kept.
    pub fn pad(&mut self, key: &Aes128, addr: u64, counter: u64) -> [u8; LINE_SIZE] {
        // Line addresses are 64-byte aligned; drop the dead low bits before
        // indexing so consecutive lines land in consecutive slots.
        let slot = ((addr >> 6) as usize) & (self.slots.len() - 1);
        let entry = &mut self.slots[slot];
        let same_line = entry.valid && entry.addr == addr;
        if same_line && entry.counter == counter {
            self.hits += 1;
            return entry.pad;
        }
        self.misses += 1;
        let iv = IvBuilder::new().address(addr).counter(counter).build();
        let pad = pad_line(key, &iv);
        if !(same_line && entry.counter > counter) {
            *entry = Slot {
                addr,
                counter,
                pad,
                valid: true,
            };
        }
        pad
    }

    /// Pad requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Pad requests that recomputed the AES chain.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctr::generate_pad;

    fn key() -> Aes128 {
        Aes128::new(&[9; 16])
    }

    #[test]
    fn hit_returns_the_uncached_pad() {
        let k = key();
        let mut c = PadCache::new(16);
        for (addr, counter) in [(0x40u64, 1u64), (0x80, 2), (0x40, 1), (0x1_0000, 9)] {
            let got = c.pad(&k, addr, counter);
            let iv = IvBuilder::new().address(addr).counter(counter).build();
            assert_eq!(
                got.to_vec(),
                generate_pad(&k, &iv, 64),
                "({addr:#x},{counter})"
            );
        }
        assert_eq!(c.hits(), 1); // only the repeated (0x40, 1) pair
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn counter_bump_invalidates_the_slot() {
        let k = key();
        let mut c = PadCache::new(4);
        let p1 = c.pad(&k, 0x40, 1);
        let p2 = c.pad(&k, 0x40, 2);
        assert_ne!(p1, p2);
        assert_eq!(c.hits(), 0);
        // The old counter now misses (and recomputes correctly).
        assert_eq!(c.pad(&k, 0x40, 1), p1);
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn conflicting_lines_evict_without_corruption() {
        let k = key();
        let mut c = PadCache::new(1); // every line maps to slot 0
        let a = c.pad(&k, 0x40, 1);
        let b = c.pad(&k, 0x80, 1);
        assert_ne!(a, b);
        assert_eq!(c.pad(&k, 0x40, 1), a); // evicted, recomputed, identical
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn an_older_counter_never_evicts_the_newer_pad_of_its_line() {
        let k = key();
        let mut c = PadCache::new(4);
        let newest = c.pad(&k, 0x40, 7);
        // Older candidates miss and leave the newest pad in place.
        for counter in 4..7 {
            let fresh = IvBuilder::new().address(0x40).counter(counter).build();
            assert_eq!(c.pad(&k, 0x40, counter), pad_line(&k, &fresh));
        }
        assert_eq!(c.pad(&k, 0x40, 7), newest);
        assert_eq!((c.hits(), c.misses()), (1, 4));
        // A newer counter, or another line in the slot, is memoized.
        let newer = c.pad(&k, 0x40, 8);
        assert_eq!(c.pad(&k, 0x40, 8), newer);
        let alias = c.pad(&k, 0x140, 1); // slot 1, like 0x40
        assert_eq!(c.pad(&k, 0x140, 1), alias);
        assert_eq!((c.hits(), c.misses()), (3, 6));
    }

    #[test]
    fn size_rounds_to_power_of_two() {
        assert_eq!(PadCache::new(0).slots.len(), 1);
        assert_eq!(PadCache::new(3).slots.len(), 4);
        assert_eq!(PadCache::new(256).slots.len(), 256);
    }
}
