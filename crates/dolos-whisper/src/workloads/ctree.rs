//! WHISPER `ctree`: a crit-bit tree over u64 keys.
//!
//! Layout:
//!
//! ```text
//! header:   [root u64]
//! internal: [tag=1 u64 | bit u64 | left u64 | right u64]    (64 B)
//! leaf:     [tag=0 u64 | key u64 | vptr u64 | vlen u64]     (64 B)
//! value:    [bytes...]
//! ```
//!
//! `bit` is the index (63 = MSB) of the highest bit where the two subtrees
//! differ; lookups walk by testing that bit of the key.

use dolos_sim::flat::FlatMap;
use dolos_sim::rng::XorShift;

use crate::env::PmEnv;
use crate::txn::UndoLog;
use crate::workloads::{value_pattern, Workload};

const TAG_LEAF: u64 = 0;
const TAG_INTERNAL: u64 = 1;

/// The crit-bit tree benchmark.
#[derive(Debug)]
pub struct CtreeWorkload {
    keyspace: u64,
    root_ptr: u64,
    log: Option<UndoLog>,
    mirror: FlatMap<(u64, usize)>,
    versions: FlatMap<u64>,
}

impl CtreeWorkload {
    /// Creates the workload over `keyspace` distinct keys.
    pub fn new(keyspace: u64) -> Self {
        Self {
            keyspace,
            root_ptr: 0,
            log: None,
            mirror: FlatMap::new(),
            versions: FlatMap::new(),
        }
    }

    fn find_leaf(&self, key: u64, env: &mut PmEnv) -> Option<u64> {
        let mut node = env.read_u64(self.root_ptr);
        if node == 0 {
            return None;
        }
        while env.read_u64(node) == TAG_INTERNAL {
            env.work(3);
            let bit = env.read_u64(node + 8);
            let side = (key >> bit) & 1;
            node = env.read_u64(node + 16 + side * 8);
        }
        Some(node)
    }

    fn make_leaf(&self, env: &mut PmEnv, key: u64, value: &[u8]) -> u64 {
        let vptr = env.alloc(value.len() as u64);
        env.write_bytes(vptr, value);
        let leaf = env.alloc(64);
        env.write_u64(leaf, TAG_LEAF);
        env.write_u64(leaf + 8, key);
        env.write_u64(leaf + 16, vptr);
        env.write_u64(leaf + 24, value.len() as u64);
        env.clwb(vptr, value.len() as u64);
        env.clwb(leaf, 32);
        env.sfence();
        leaf
    }

    fn upsert(&mut self, env: &mut PmEnv, key: u64, value: &[u8]) {
        #[expect(clippy::expect_used, reason = "setup runs before any transaction")]
        let mut log = self.log.take().expect("setup ran");
        log.begin(env);
        match self.find_leaf(key, env) {
            Some(leaf) if env.read_u64(leaf + 8) == key => {
                let vptr = env.read_u64(leaf + 16);
                log.set_bytes(env, vptr, value);
                log.set_u64(env, leaf + 24, value.len() as u64);
            }
            Some(best) => {
                // Split: find the highest differing bit between key and the
                // best leaf's key, then descend to the insertion point.
                let best_key = env.read_u64(best + 8);
                let diff = key ^ best_key;
                let crit = 63 - diff.leading_zeros() as u64;
                env.work(4);
                let new_leaf = self.make_leaf(env, key, value);
                // Walk from the root to the edge where the new internal node
                // must splice in: the first node whose bit < crit (or a leaf).
                let mut parent_edge = self.root_ptr; // address holding the child ptr
                let mut node = env.read_u64(parent_edge);
                while env.read_u64(node) == TAG_INTERNAL {
                    let bit = env.read_u64(node + 8);
                    if bit < crit {
                        break;
                    }
                    env.work(3);
                    let side = (key >> bit) & 1;
                    parent_edge = node + 16 + side * 8;
                    node = env.read_u64(parent_edge);
                }
                let internal = env.alloc(64);
                env.write_u64(internal, TAG_INTERNAL);
                env.write_u64(internal + 8, crit);
                let side = (key >> crit) & 1;
                env.write_u64(internal + 16 + side * 8, new_leaf);
                env.write_u64(internal + 16 + (1 - side) * 8, node);
                env.clwb(internal, 32);
                env.sfence();
                // The splice is the undoable step.
                log.set_u64(env, parent_edge, internal);
            }
            None => {
                let leaf = self.make_leaf(env, key, value);
                log.set_u64(env, self.root_ptr, leaf);
            }
        }
        log.commit(env);
        self.log = Some(log);
    }
}

impl Workload for CtreeWorkload {
    fn name(&self) -> &'static str {
        "Ctree"
    }

    fn setup(&mut self, env: &mut PmEnv) {
        self.root_ptr = env.alloc(64);
        env.write_u64(self.root_ptr, 0);
        env.persist(self.root_ptr, 8);
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
            let leaf = self
                .find_leaf(key, env)
                .unwrap_or_else(|| panic!("key {key} missing"));
            assert_eq!(env.read_u64(leaf + 8), key, "wrong leaf for key {key}");
            let vptr = env.read_u64(leaf + 16);
            let stored = env.read_bytes(vptr, len);
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
    fn inserts_and_updates_verify() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = CtreeWorkload::new(32);
        w.setup(&mut env);
        let mut rng = XorShift::new(3);
        for _ in 0..60 {
            w.transaction(&mut env, 128, &mut rng);
        }
        w.verify(&mut env);
    }

    #[test]
    fn distinct_keys_coexist() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = CtreeWorkload::new(1 << 40); // force wide keys
        w.setup(&mut env);
        let mut rng = XorShift::new(4);
        for _ in 0..30 {
            w.transaction(&mut env, 64, &mut rng);
        }
        w.verify(&mut env);
    }

    #[test]
    fn adjacent_keys_split_on_bit_zero() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = CtreeWorkload::new(u64::MAX);
        w.setup(&mut env);
        for key in [8u64, 9] {
            let v = value_pattern(key, 1, 64);
            w.upsert(&mut env, key, &v);
            w.mirror.insert(key, (1, 64));
            w.versions.insert(key, 1);
        }
        w.verify(&mut env);
        // The discriminating internal node must test bit 0.
        let root = env.read_u64(w.root_ptr);
        assert_eq!(env.read_u64(root), TAG_INTERNAL);
        assert_eq!(env.read_u64(root + 8), 0, "crit bit should be 0");
    }

    #[test]
    fn repeated_updates_stay_in_place() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = CtreeWorkload::new(8);
        w.setup(&mut env);
        // Insert every key once so later transactions are pure updates.
        for key in 0..8u64 {
            w.upsert(&mut env, key, &value_pattern(key, 1, 64));
            w.mirror.insert(key, (1, 64));
            w.versions.insert(key, 1);
        }
        let mut rng = XorShift::new(5);
        let heap_after_inserts = env.heap_used();
        // Further updates to existing keys must not allocate new leaves.
        for _ in 0..10 {
            w.transaction(&mut env, 128, &mut rng);
        }
        assert_eq!(env.heap_used(), heap_after_inserts);
        w.verify(&mut env);
    }
}
