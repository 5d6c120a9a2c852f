//! Redis-like dict with an always-fsync append-only file (AOF).
//!
//! WHISPER's Redis runs with `appendfsync always`: every SET appends the
//! serialized command to the AOF and persists it before acknowledging, then
//! updates the in-memory (here: in-PM) dict. The AOF append is a strictly
//! ordered persist stream; the dict update adds scattered small writes.
//!
//! Layout:
//!
//! ```text
//! aof:   [head u64] then records [len u64 | op u64 | key u64 | bytes...]
//! dict:  open-addressing table [key+1 u64 | vptr u64] x capacity
//! value: [version u64 | len u64 | bytes...]
//! ```

use dolos_sim::paged::PagedTable;
use dolos_sim::rng::XorShift;

use crate::env::PmEnv;
use crate::workloads::{value_pattern, Workload};

const OP_SET: u64 = 1;

/// The Redis-like benchmark.
#[derive(Debug)]
pub struct RedisWorkload {
    keyspace: u64,
    dict: u64,
    dict_capacity: u64,
    aof_base: u64,
    aof_capacity: u64,
    aof_head: u64,
    rewrites: u64,
    mirror: PagedTable<(u64, usize)>,
    versions: PagedTable<u64>,
}

impl RedisWorkload {
    /// Creates the workload over `keyspace` distinct keys.
    pub fn new(keyspace: u64) -> Self {
        Self {
            keyspace,
            dict: 0,
            dict_capacity: keyspace * 2,
            aof_base: 0,
            aof_capacity: 512 * 1024,
            aof_head: 64,
            rewrites: 0,
            mirror: PagedTable::new(),
            versions: PagedTable::new(),
        }
    }

    /// AOF rewrites (compactions) performed.
    pub fn rewrites(&self) -> u64 {
        self.rewrites
    }

    fn dict_slot(&self, env: &mut PmEnv, key: u64) -> u64 {
        // Linear probing; the table is half-empty by construction.
        let mut idx = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.dict_capacity;
        loop {
            env.work(3);
            let slot = self.dict + idx * 16;
            let stored = env.read_u64(slot);
            if stored == 0 || stored == key + 1 {
                return slot;
            }
            idx = (idx + 1) % self.dict_capacity;
        }
    }

    fn aof_append(&mut self, env: &mut PmEnv, key: u64, value: &[u8]) {
        let rec_len = 24 + value.len() as u64;
        if self.aof_head + rec_len > self.aof_capacity {
            // AOF rewrite: the dict is authoritative, so the log truncates.
            self.rewrites += 1;
            self.aof_head = 64;
            env.write_u64(self.aof_base, self.aof_head);
            env.persist(self.aof_base, 8);
        }
        let rec = self.aof_base + self.aof_head;
        env.write_u64(rec, rec_len);
        env.write_u64(rec + 8, OP_SET);
        env.write_u64(rec + 16, key);
        env.write_bytes(rec + 24, value);
        // appendfsync always: the command record persists before the ack.
        env.persist(rec, rec_len);
        self.aof_head += rec_len.div_ceil(64) * 64;
        env.write_u64(self.aof_base, self.aof_head);
        env.persist(self.aof_base, 8);
    }

    fn set(&mut self, env: &mut PmEnv, key: u64, version: u64, value: &[u8]) {
        self.aof_append(env, key, value);
        let slot = self.dict_slot(env, key);
        let existing = env.read_u64(slot);
        // Values are versioned out of place (Redis strings are immutable
        // objects): allocate, fill, persist, then swing the pointer.
        let vptr = env.alloc(16 + value.len() as u64);
        env.write_u64(vptr, version);
        env.write_u64(vptr + 8, value.len() as u64);
        env.write_bytes(vptr + 16, value);
        env.clwb(vptr, 16 + value.len() as u64);
        env.sfence();
        if existing == 0 {
            env.write_u64(slot, key + 1);
        }
        env.write_u64(slot + 8, vptr);
        env.persist(slot, 16);
    }
}

impl Workload for RedisWorkload {
    fn name(&self) -> &'static str {
        "Redis"
    }

    fn setup(&mut self, env: &mut PmEnv) {
        self.dict = env.alloc(self.dict_capacity * 16);
        for i in 0..self.dict_capacity {
            env.write_u64(self.dict + i * 16, 0);
        }
        env.persist(self.dict, self.dict_capacity * 16);
        self.aof_base = env.alloc(self.aof_capacity);
        env.write_u64(self.aof_base, 64);
        env.persist(self.aof_base, 8);
    }

    fn transaction(&mut self, env: &mut PmEnv, txn_bytes: usize, rng: &mut XorShift) {
        // The transaction size counts *all* persistent traffic; with
        // undo/redo logging doubling the payload, the value is half of it.
        let txn_bytes = (txn_bytes / 2).max(64);
        let key = rng.next_below(self.keyspace);
        env.work(30); // command parsing (RESP protocol)
        let version = self.versions.entry(key);
        *version += 1;
        let version = *version;
        let value = value_pattern(key, version, txn_bytes);
        self.set(env, key, version, &value);
        *self.mirror.entry(key) = (version, txn_bytes);
    }

    fn verify(&mut self, env: &mut PmEnv) {
        let expected: Vec<(u64, (u64, usize))> = self.mirror.iter().map(|(k, v)| (k, *v)).collect();
        for (key, (version, len)) in expected {
            let slot = self.dict_slot(env, key);
            assert_eq!(env.read_u64(slot), key + 1, "key {key} missing");
            let vptr = env.read_u64(slot + 8);
            assert_eq!(env.read_u64(vptr), version, "version mismatch for {key}");
            let stored = env.read_bytes(vptr + 16, len);
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
    fn sets_and_verifies() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = RedisWorkload::new(32);
        w.setup(&mut env);
        let mut rng = XorShift::new(9);
        for _ in 0..60 {
            w.transaction(&mut env, 128, &mut rng);
        }
        w.verify(&mut env);
    }

    #[test]
    fn aof_rewrite_preserves_dict() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = RedisWorkload::new(8);
        w.aof_capacity = 4 * 1024;
        w.setup(&mut env);
        let mut rng = XorShift::new(10);
        for _ in 0..40 {
            w.transaction(&mut env, 512, &mut rng);
        }
        assert!(w.rewrites() > 0);
        w.verify(&mut env);
    }

    #[test]
    fn dict_probing_handles_collisions() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        // Tiny dict (capacity 2*keyspace) with every key present forces
        // probe chains.
        let mut w = RedisWorkload::new(16);
        w.setup(&mut env);
        for key in 0..16u64 {
            let v = value_pattern(key, 1, 64);
            w.set(&mut env, key, 1, &v);
            *w.mirror.entry(key) = (1, 64);
            *w.versions.entry(key) = 1;
        }
        w.verify(&mut env);
    }
}
