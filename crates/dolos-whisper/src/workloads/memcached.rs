//! Memcached-like persistent object cache (extension beyond the paper's
//! six benchmarks; WHISPER's full suite includes memcached).
//!
//! A hash index plus an LRU list over slab-allocated items, persisted with
//! flush-on-write (memcached's PM ports use versioned items rather than
//! transactions). GETs are not read-only: the LRU move-to-front writes list
//! pointers, giving this workload a distinctive read-triggers-write persist
//! pattern.
//!
//! Layout:
//!
//! ```text
//! buckets: [head u64] x BUCKETS
//! item:    [key u64 | hnext u64 | prev u64 | next u64 |
//!           version u64 | len u64 | pad | bytes...]
//! lru:     [head u64 | tail u64]
//! ```

use dolos_sim::flat::FlatMap;
use dolos_sim::rng::XorShift;

use crate::env::PmEnv;
use crate::workloads::{value_pattern, Workload};

const BUCKETS: u64 = 64;
const HDR: u64 = 64; // item header occupies one line

const OFF_KEY: u64 = 0;
const OFF_HNEXT: u64 = 8;
const OFF_PREV: u64 = 16;
const OFF_NEXT: u64 = 24;
const OFF_VERSION: u64 = 32;
const OFF_LEN: u64 = 40;

/// Fraction of operations that are GETs.
const GET_RATIO: f64 = 0.5;

/// The memcached-like benchmark.
#[derive(Debug)]
pub struct MemcachedWorkload {
    keyspace: u64,
    buckets: u64,
    lru: u64,
    item_capacity: u64,
    mirror: FlatMap<(u64, usize)>,
    versions: FlatMap<u64>,
    gets: u64,
    sets: u64,
}

impl MemcachedWorkload {
    /// Creates the workload over `keyspace` distinct keys.
    pub fn new(keyspace: u64) -> Self {
        Self {
            keyspace,
            buckets: 0,
            lru: 0,
            item_capacity: 0,
            mirror: FlatMap::new(),
            versions: FlatMap::new(),
            gets: 0,
            sets: 0,
        }
    }

    /// GET operations issued.
    pub fn gets(&self) -> u64 {
        self.gets
    }

    /// SET operations issued.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    fn bucket(&self, env: &mut PmEnv, key: u64) -> u64 {
        env.work(3);
        self.buckets + (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % BUCKETS) * 8
    }

    fn find(&self, env: &mut PmEnv, key: u64) -> Option<u64> {
        let bucket = self.bucket(env, key);
        let mut item = env.read_u64(bucket);
        while item != 0 {
            env.work(2);
            if env.read_u64(item + OFF_KEY) == key {
                return Some(item);
            }
            item = env.read_u64(item + OFF_HNEXT);
        }
        None
    }

    /// Unlinks `item` from the LRU list (persisting the touched pointers).
    fn lru_unlink(&self, env: &mut PmEnv, item: u64) {
        let prev = env.read_u64(item + OFF_PREV);
        let next = env.read_u64(item + OFF_NEXT);
        if prev == 0 {
            env.write_u64(self.lru, next);
            env.clwb(self.lru, 8);
        } else {
            env.write_u64(prev + OFF_NEXT, next);
            env.clwb(prev + OFF_NEXT, 8);
        }
        if next == 0 {
            env.write_u64(self.lru + 8, prev);
            env.clwb(self.lru + 8, 8);
        } else {
            env.write_u64(next + OFF_PREV, prev);
            env.clwb(next + OFF_PREV, 8);
        }
        env.sfence();
    }

    /// Pushes `item` at the LRU head.
    fn lru_push_front(&self, env: &mut PmEnv, item: u64) {
        let head = env.read_u64(self.lru);
        env.write_u64(item + OFF_PREV, 0);
        env.write_u64(item + OFF_NEXT, head);
        env.clwb(item + OFF_PREV, 16);
        if head != 0 {
            env.write_u64(head + OFF_PREV, item);
            env.clwb(head + OFF_PREV, 8);
        } else {
            env.write_u64(self.lru + 8, item);
            env.clwb(self.lru + 8, 8);
        }
        env.write_u64(self.lru, item);
        env.clwb(self.lru, 8);
        env.sfence();
    }

    fn set(&mut self, env: &mut PmEnv, key: u64, version: u64, value: &[u8]) {
        self.sets += 1;
        match self.find(env, key) {
            Some(item) => {
                // Versioned in-place update: bump version (odd = torn),
                // write bytes, bump version (even = valid). The version
                // dance is memcached-pm's lock-free persistence recipe.
                env.write_u64(item + OFF_VERSION, 2 * version - 1);
                env.persist(item + OFF_VERSION, 8);
                env.write_bytes(item + HDR, value);
                env.write_u64(item + OFF_LEN, value.len() as u64);
                env.clwb(item + OFF_LEN, 8);
                env.clwb(item + HDR, value.len() as u64);
                env.sfence();
                env.write_u64(item + OFF_VERSION, 2 * version);
                env.persist(item + OFF_VERSION, 8);
                self.lru_unlink(env, item);
                self.lru_push_front(env, item);
            }
            None => {
                let item = env.alloc(HDR + self.item_capacity);
                env.write_u64(item + OFF_KEY, key);
                env.write_u64(item + OFF_VERSION, 2 * version);
                env.write_u64(item + OFF_LEN, value.len() as u64);
                env.write_bytes(item + HDR, value);
                let bucket = self.bucket(env, key);
                let head = env.read_u64(bucket);
                env.write_u64(item + OFF_HNEXT, head);
                env.clwb(item, HDR);
                env.clwb(item + HDR, value.len() as u64);
                env.sfence();
                env.write_u64(bucket, item);
                env.persist(bucket, 8);
                self.lru_push_front(env, item);
            }
        }
    }

    fn get(&mut self, env: &mut PmEnv, key: u64) -> Option<Vec<u8>> {
        self.gets += 1;
        let item = self.find(env, key)?;
        let len = env.read_u64(item + OFF_LEN) as usize;
        let value = env.read_bytes(item + HDR, len);
        // LRU maintenance: the read writes.
        self.lru_unlink(env, item);
        self.lru_push_front(env, item);
        Some(value)
    }
}

impl Workload for MemcachedWorkload {
    fn name(&self) -> &'static str {
        "Memcached"
    }

    fn setup(&mut self, env: &mut PmEnv) {
        self.buckets = env.alloc(BUCKETS * 8);
        for b in 0..BUCKETS {
            env.write_u64(self.buckets + b * 8, 0);
        }
        env.persist(self.buckets, BUCKETS * 8);
        self.lru = env.alloc(64);
        env.write_u64(self.lru, 0);
        env.write_u64(self.lru + 8, 0);
        env.persist(self.lru, 16);
        self.item_capacity = 2048; // max value bytes per item
    }

    fn transaction(&mut self, env: &mut PmEnv, txn_bytes: usize, rng: &mut XorShift) {
        let txn_bytes = (txn_bytes / 2).max(64).min(self.item_capacity as usize);
        let key = rng.next_below(self.keyspace);
        env.work(25); // protocol parsing
        if rng.chance(GET_RATIO) && self.mirror.contains_key(key) {
            let _ = self.get(env, key);
        } else {
            let version = self.versions.get_mut_or_insert(key, 0);
            *version += 1;
            let version = *version;
            let value = value_pattern(key, version, txn_bytes);
            self.set(env, key, version, &value);
            self.mirror.insert(key, (version, txn_bytes));
        }
    }

    fn verify(&mut self, env: &mut PmEnv) {
        let expected: Vec<(u64, (u64, usize))> = self.mirror.iter().map(|(k, v)| (k, *v)).collect();
        for (key, (version, len)) in expected {
            #[expect(clippy::panic, reason = "verify reports a lost key by panicking")]
            let item = self
                .find(env, key)
                .unwrap_or_else(|| panic!("key {key} missing"));
            assert_eq!(
                env.read_u64(item + OFF_VERSION),
                2 * version,
                "torn version on key {key}"
            );
            let stored = env.read_bytes(item + HDR, len);
            assert_eq!(
                stored,
                value_pattern(key, version, len),
                "value mismatch for {key}"
            );
        }
        // LRU list must be a consistent doubly-linked chain over all items.
        let mut count = 0;
        let mut prev = 0u64;
        let mut cur = env.read_u64(self.lru);
        while cur != 0 {
            assert_eq!(env.read_u64(cur + OFF_PREV), prev, "broken LRU back-link");
            prev = cur;
            cur = env.read_u64(cur + OFF_NEXT);
            count += 1;
            assert!(count <= self.mirror.len(), "LRU cycle detected");
        }
        assert_eq!(env.read_u64(self.lru + 8), prev, "LRU tail mismatch");
        assert_eq!(count, self.mirror.len(), "LRU length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolos_core::{ControllerConfig, MiSuKind};

    #[test]
    fn sets_and_gets_maintain_lru_invariants() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = MemcachedWorkload::new(24);
        w.setup(&mut env);
        let mut rng = XorShift::new(12);
        for _ in 0..80 {
            w.transaction(&mut env, 256, &mut rng);
        }
        assert!(w.gets() > 5);
        assert!(w.sets() > 5);
        w.verify(&mut env);
    }

    #[test]
    fn most_recent_set_is_lru_head_after_set() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = MemcachedWorkload::new(8);
        w.setup(&mut env);
        for key in 0..4u64 {
            let value = value_pattern(key, 1, 64);
            w.set(&mut env, key, 1, &value);
            w.mirror.insert(key, (1, 64));
            w.versions.insert(key, 1);
        }
        let head = env.read_u64(w.lru);
        assert_eq!(env.read_u64(head + OFF_KEY), 3);
        w.verify(&mut env);
    }

    #[test]
    fn get_of_missing_key_is_none_and_harmless() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = MemcachedWorkload::new(8);
        w.setup(&mut env);
        assert!(w.get(&mut env, 5).is_none());
        let v = value_pattern(1, 1, 64);
        w.set(&mut env, 1, 1, &v);
        w.mirror.insert(1, (1, 64));
        w.versions.insert(1, 1);
        assert!(w.get(&mut env, 99).is_none());
        w.verify(&mut env);
    }

    #[test]
    fn get_moves_item_to_lru_front() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = MemcachedWorkload::new(8);
        w.setup(&mut env);
        for key in 0..3u64 {
            let v = value_pattern(key, 1, 64);
            w.set(&mut env, key, 1, &v);
            w.mirror.insert(key, (1, 64));
            w.versions.insert(key, 1);
        }
        // Head is key 2; GET key 0 must move it to the front.
        let _ = w.get(&mut env, 0);
        let head = env.read_u64(w.lru);
        assert_eq!(env.read_u64(head + OFF_KEY), 0);
        w.verify(&mut env);
    }
}
