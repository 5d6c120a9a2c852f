//! N-Store running a YCSB-style workload.
//!
//! N-Store is a write-ahead-log storage engine: every update first appends a
//! redo record to the WAL and persists it, then updates the record in place.
//! The driver issues a 50/50 read/update mix over a Zipfian key distribution
//! (YCSB workload A with `theta = 0.99`), which is why this benchmark shows
//! the *fewest* WPQ retries in Table 2 — reads space the writes out.
//!
//! Layout:
//!
//! ```text
//! index:   [record_ptr u64] x keyspace          (direct-mapped by key)
//! record:  [key u64 | version u64 | len u64 | bytes...]
//! wal:     [head u64] then records [key u64 | version u64 | len u64 | bytes...]
//! ```

use dolos_sim::flat::FlatMap;
use dolos_sim::rng::{XorShift, Zipfian};

use crate::env::PmEnv;
use crate::workloads::{value_pattern, Workload};

/// Fraction of operations that are updates (YCSB-A: 50%).
const UPDATE_RATIO: f64 = 0.5;

/// The N-Store / YCSB benchmark.
#[derive(Debug)]
pub struct NstoreYcsbWorkload {
    keyspace: u64,
    index: u64,
    wal_base: u64,
    wal_capacity: u64,
    wal_head: u64,
    zipf: Option<Zipfian>,
    mirror: FlatMap<(u64, usize)>,
    versions: FlatMap<u64>,
    reads: u64,
    updates: u64,
}

impl NstoreYcsbWorkload {
    /// Creates the workload over `keyspace` distinct keys.
    pub fn new(keyspace: u64) -> Self {
        Self {
            keyspace,
            index: 0,
            wal_base: 0,
            wal_capacity: 512 * 1024,
            wal_head: 64,
            zipf: None,
            mirror: FlatMap::new(),
            versions: FlatMap::new(),
            reads: 0,
            updates: 0,
        }
    }

    /// Read operations issued.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Update operations issued.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    fn wal_append(&mut self, env: &mut PmEnv, key: u64, version: u64, value: &[u8]) {
        let rec_len = 24 + value.len() as u64;
        if self.wal_head + rec_len > self.wal_capacity {
            // Checkpoint: all records are already applied in place, so the
            // WAL simply truncates (head reset, persisted).
            self.wal_head = 64;
            env.write_u64(self.wal_base, self.wal_head);
            env.persist(self.wal_base, 8);
        }
        let rec = self.wal_base + self.wal_head;
        env.write_u64(rec, key);
        env.write_u64(rec + 8, version);
        env.write_u64(rec + 16, value.len() as u64);
        env.write_bytes(rec + 24, value);
        // Redo record must be durable before the in-place update.
        env.persist(rec, rec_len);
        self.wal_head += rec_len.div_ceil(64) * 64;
        env.write_u64(self.wal_base, self.wal_head);
        env.persist(self.wal_base, 8);
    }

    fn update(&mut self, env: &mut PmEnv, key: u64, value: &[u8]) {
        let version = self.versions.get_mut_or_insert(key, 0);
        *version += 1;
        let version = *version;
        self.wal_append(env, key, version, value);
        let slot = self.index + key * 8;
        let mut rec = env.read_u64(slot);
        if rec == 0 {
            rec = env.alloc(24 + value.len() as u64);
            env.write_u64(rec, key);
            env.write_u64(rec + 8, version);
            env.write_u64(rec + 16, value.len() as u64);
            env.write_bytes(rec + 24, value);
            env.clwb(rec, 24 + value.len() as u64);
            env.sfence();
            env.write_u64(slot, rec);
            env.persist(slot, 8);
        } else {
            env.write_u64(rec + 8, version);
            env.write_u64(rec + 16, value.len() as u64);
            env.write_bytes(rec + 24, value);
            env.clwb(rec, 24 + value.len() as u64);
            env.sfence();
        }
        self.mirror.insert(key, (version, value.len()));
    }

    fn read(&mut self, env: &mut PmEnv, key: u64) -> Option<Vec<u8>> {
        let slot = self.index + key * 8;
        let rec = env.read_u64(slot);
        if rec == 0 {
            return None;
        }
        let len = env.read_u64(rec + 16) as usize;
        env.work(8); // tuple deserialization
        Some(env.read_bytes(rec + 24, len))
    }
}

impl Workload for NstoreYcsbWorkload {
    fn name(&self) -> &'static str {
        "NStore:YCSB"
    }

    fn setup(&mut self, env: &mut PmEnv) {
        self.index = env.alloc(self.keyspace * 8);
        for k in 0..self.keyspace {
            env.write_u64(self.index + k * 8, 0);
        }
        env.persist(self.index, self.keyspace * 8);
        self.wal_base = env.alloc(self.wal_capacity);
        env.write_u64(self.wal_base, 64);
        env.persist(self.wal_base, 8);
        self.zipf = Some(Zipfian::new(self.keyspace, 0.99));
    }

    fn transaction(&mut self, env: &mut PmEnv, txn_bytes: usize, rng: &mut XorShift) {
        // The transaction size counts *all* persistent traffic; with
        // undo/redo logging doubling the payload, the value is half of it.
        let txn_bytes = (txn_bytes / 2).max(64);
        #[expect(clippy::expect_used, reason = "setup runs before any transaction")]
        let zipf = self.zipf.as_ref().expect("setup ran").clone();
        let key = zipf.sample(rng);
        if rng.chance(UPDATE_RATIO) {
            self.updates += 1;
            let version = self.versions.get(key).copied().unwrap_or(0) + 1;
            let value = value_pattern(key, version, txn_bytes);
            self.update(env, key, &value);
        } else {
            self.reads += 1;
            let _ = self.read(env, key);
            env.work(20); // request parsing / response marshalling
        }
    }

    fn verify(&mut self, env: &mut PmEnv) {
        let expected: Vec<(u64, (u64, usize))> = self.mirror.iter().map(|(k, v)| (k, *v)).collect();
        for (key, (version, len)) in expected {
            let slot = self.index + key * 8;
            let rec = env.read_u64(slot);
            assert_ne!(rec, 0, "key {key} missing");
            assert_eq!(env.read_u64(rec + 8), version, "version mismatch for {key}");
            let stored = env.read_bytes(rec + 24, len);
            assert_eq!(
                stored,
                value_pattern(key, version, len),
                "value mismatch for {key}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolos_core::{ControllerConfig, MiSuKind};

    #[test]
    fn mixed_ops_verify() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = NstoreYcsbWorkload::new(64);
        w.setup(&mut env);
        let mut rng = XorShift::new(7);
        for _ in 0..100 {
            w.transaction(&mut env, 128, &mut rng);
        }
        assert!(w.reads() > 10);
        assert!(w.updates() > 10);
        w.verify(&mut env);
    }

    #[test]
    fn wal_wraps_without_corruption() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = NstoreYcsbWorkload::new(8);
        w.wal_capacity = 8 * 1024; // force frequent checkpoints
        w.setup(&mut env);
        let mut rng = XorShift::new(8);
        for _ in 0..60 {
            w.transaction(&mut env, 512, &mut rng);
        }
        w.verify(&mut env);
    }

    #[test]
    fn zipfian_skew_concentrates_versions() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = NstoreYcsbWorkload::new(256);
        w.setup(&mut env);
        let mut rng = XorShift::new(77);
        for _ in 0..200 {
            w.transaction(&mut env, 128, &mut rng);
        }
        // Key 0 is the hottest under theta=0.99 and must dominate versions.
        let hot = w.versions.get(0).copied().unwrap_or(0);
        let max = w.versions.iter().map(|(_, v)| *v).max().unwrap_or(0);
        assert!(hot >= max / 2, "hot key {hot} vs max {max}");
        w.verify(&mut env);
    }
}
