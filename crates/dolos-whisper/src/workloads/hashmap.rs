//! WHISPER `hashmap`: an open-chaining persistent hash table.
//!
//! Layout:
//!
//! ```text
//! buckets: [head_ptr u64] x BUCKETS           (one allocation)
//! node:    [key u64 | next u64 | vptr u64 | vlen u64]   (64 B)
//! value:   [bytes...]                          (txn_bytes, 64 B aligned)
//! ```
//!
//! Every transaction upserts one key with a fresh value through the undo
//! log: chain walk, node/value writes, commit.

use dolos_sim::flat::FlatMap;
use dolos_sim::rng::XorShift;

use crate::env::PmEnv;
use crate::txn::UndoLog;
use crate::workloads::{value_pattern, Workload};

const BUCKETS: u64 = 64;

/// The persistent hashmap benchmark.
#[derive(Debug)]
pub struct HashmapWorkload {
    keyspace: u64,
    buckets: u64,
    log: Option<UndoLog>,
    /// Volatile mirror of committed state: key -> (version, len).
    mirror: FlatMap<(u64, usize)>,
    versions: FlatMap<u64>,
}

impl HashmapWorkload {
    /// Creates the workload over `keyspace` distinct keys.
    pub fn new(keyspace: u64) -> Self {
        Self {
            keyspace,
            buckets: 0,
            log: None,
            mirror: FlatMap::new(),
            versions: FlatMap::new(),
        }
    }

    fn bucket_addr(&self, key: u64, env: &mut PmEnv) -> u64 {
        env.work(3); // hash computation
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % BUCKETS;
        self.buckets + h * 8
    }

    /// Finds the node for `key`, returning its address (chain walk).
    fn find(&self, key: u64, env: &mut PmEnv) -> Option<u64> {
        let head = self.bucket_addr(key, env);
        let mut node = env.read_u64(head);
        while node != 0 {
            env.work(2);
            if env.read_u64(node) == key {
                return Some(node);
            }
            node = env.read_u64(node + 8);
        }
        None
    }

    fn upsert(&mut self, env: &mut PmEnv, key: u64, value: &[u8]) {
        #[expect(clippy::expect_used, reason = "setup runs before any transaction")]
        let mut log = self.log.take().expect("setup ran");
        log.begin(env);
        match self.find(key, env) {
            Some(node) => {
                let vptr = env.read_u64(node + 16);
                log.set_bytes(env, vptr, value);
                log.set_u64(env, node + 24, value.len() as u64);
            }
            None => {
                let head = self.bucket_addr(key, env);
                let vptr = env.alloc(value.len() as u64);
                let node = env.alloc(64);
                // Fresh allocations need no undo records (they are
                // unreachable until the head pointer flips), but must be
                // persisted before the link.
                env.write_bytes(vptr, value);
                env.write_u64(node, key);
                let old_head = env.read_u64(head);
                env.write_u64(node + 8, old_head);
                env.write_u64(node + 16, vptr);
                env.write_u64(node + 24, value.len() as u64);
                env.clwb(vptr, value.len() as u64);
                env.clwb(node, 32);
                env.sfence();
                // Linking the node is the undoable step.
                log.set_u64(env, head, node);
            }
        }
        log.commit(env);
        self.log = Some(log);
    }
}

impl Workload for HashmapWorkload {
    fn name(&self) -> &'static str {
        "Hashmap"
    }

    fn setup(&mut self, env: &mut PmEnv) {
        self.buckets = env.alloc(BUCKETS * 8);
        for b in 0..BUCKETS {
            env.write_u64(self.buckets + b * 8, 0);
        }
        env.persist(self.buckets, BUCKETS * 8);
        self.log = Some(UndoLog::new(env, 64 * 1024));
    }

    fn transaction(&mut self, env: &mut PmEnv, txn_bytes: usize, rng: &mut XorShift) {
        // The transaction size counts *all* persistent traffic; with
        // undo/redo logging doubling the payload, the value is half of it.
        let txn_bytes = (txn_bytes / 2).max(64);
        let key = rng.next_below(self.keyspace);
        let version = self.versions.get_mut_or_insert(key, 0);
        *version += 1;
        let version = *version;
        let value = value_pattern(key, version, txn_bytes);
        self.upsert(env, key, &value);
        self.mirror.insert(key, (version, txn_bytes));
    }

    fn verify(&mut self, env: &mut PmEnv) {
        let expected: Vec<(u64, (u64, usize))> = self.mirror.iter().map(|(k, v)| (k, *v)).collect();
        for (key, (version, len)) in expected {
            #[expect(clippy::panic, reason = "verify reports a lost key by panicking")]
            let node = self
                .find(key, env)
                .unwrap_or_else(|| panic!("key {key} missing"));
            let vptr = env.read_u64(node + 16);
            let vlen = env.read_u64(node + 24) as usize;
            assert_eq!(vlen, len, "length mismatch for key {key}");
            let stored = env.read_bytes(vptr, len);
            assert_eq!(
                stored,
                value_pattern(key, version, len),
                "value mismatch for key {key}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolos_core::{ControllerConfig, MiSuKind};

    #[test]
    fn upserts_and_verifies() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = HashmapWorkload::new(16);
        w.setup(&mut env);
        let mut rng = XorShift::new(1);
        for _ in 0..40 {
            w.transaction(&mut env, 128, &mut rng);
        }
        w.verify(&mut env);
    }

    #[test]
    fn survives_crash_after_commits() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = HashmapWorkload::new(8);
        w.setup(&mut env);
        let mut rng = XorShift::new(2);
        for _ in 0..20 {
            w.transaction(&mut env, 256, &mut rng);
        }
        env.crash();
        env.recover().expect("clean recovery");
        let mut log = w.log.take().expect("log exists");
        log.recover(&mut env);
        w.log = Some(log);
        w.verify(&mut env);
    }

    #[test]
    fn colliding_keys_chain_correctly() {
        // Keyspace far larger than the bucket count forces chains.
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = HashmapWorkload::new(1 << 32);
        w.setup(&mut env);
        let mut rng = XorShift::new(99);
        for _ in 0..200 {
            w.transaction(&mut env, 64, &mut rng);
        }
        w.verify(&mut env);
    }

    #[test]
    fn updating_mid_chain_key_preserves_neighbours() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = HashmapWorkload::new(4);
        w.setup(&mut env);
        // Insert all four keys, then update key 1 repeatedly.
        for key in 0..4u64 {
            let v = value_pattern(key, 1, 64);
            w.upsert(&mut env, key, &v);
            w.mirror.insert(key, (1, 64));
            w.versions.insert(key, 1);
        }
        for version in 2..6u64 {
            let v = value_pattern(1, version, 64);
            w.upsert(&mut env, 1, &v);
            w.mirror.insert(1, (version, 64));
            w.versions.insert(1, version);
        }
        w.verify(&mut env);
    }
}
