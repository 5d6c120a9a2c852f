//! WHISPER `btree`: a B+-tree (6 keys / 7 children per node) over u64 keys.
//!
//! Layout (two 64-byte lines per node):
//!
//! ```text
//! header: [root u64]
//! node:   [is_leaf u64 | nkeys u64 | key[6] u64]       line 0
//!         [child_or_val[7] u64]                        line 1
//! value:  [bytes...]
//! ```
//!
//! Leaves store value pointers in `child_or_val[i]` aligned with `key[i]`;
//! internals store child pointers with the usual k keys / k+1 children.

use dolos_sim::flat::FlatMap;
use dolos_sim::rng::XorShift;

use crate::env::PmEnv;
use crate::txn::UndoLog;
use crate::workloads::{value_pattern, Workload};

const ORDER: usize = 6; // max keys per node (fills line 0 exactly)
const NODE_SIZE: u64 = 128;

/// The B+-tree benchmark.
#[derive(Debug)]
pub struct BTreeWorkload {
    keyspace: u64,
    header: u64,
    log: Option<UndoLog>,
    mirror: FlatMap<(u64, usize)>,
    versions: FlatMap<u64>,
}

struct Node {
    addr: u64,
    is_leaf: bool,
    keys: Vec<u64>,
    ptrs: Vec<u64>,
}

impl BTreeWorkload {
    /// Creates the workload over `keyspace` distinct keys.
    pub fn new(keyspace: u64) -> Self {
        Self {
            keyspace,
            header: 0,
            log: None,
            mirror: FlatMap::new(),
            versions: FlatMap::new(),
        }
    }

    fn load(&self, env: &mut PmEnv, addr: u64) -> Node {
        env.work(4);
        let is_leaf = env.read_u64(addr) == 1;
        let nkeys = env.read_u64(addr + 8) as usize;
        let mut keys = Vec::with_capacity(nkeys);
        for i in 0..nkeys {
            keys.push(env.read_u64(addr + 16 + i as u64 * 8));
        }
        let nptrs = if is_leaf { nkeys } else { nkeys + 1 };
        let mut ptrs = Vec::with_capacity(nptrs);
        for i in 0..nptrs {
            ptrs.push(env.read_u64(addr + 64 + i as u64 * 8));
        }
        Node {
            addr,
            is_leaf,
            keys,
            ptrs,
        }
    }

    /// Writes a node image transactionally (it is reachable).
    fn store_logged(&self, env: &mut PmEnv, log: &mut UndoLog, node: &Node) {
        let mut line0 = [0u8; 64];
        line0[0..8].copy_from_slice(&u64::from(node.is_leaf).to_le_bytes());
        line0[8..16].copy_from_slice(&(node.keys.len() as u64).to_le_bytes());
        for (i, k) in node.keys.iter().enumerate() {
            line0[16 + i * 8..24 + i * 8].copy_from_slice(&k.to_le_bytes());
        }
        let mut line1 = [0u8; 64];
        for (i, p) in node.ptrs.iter().enumerate() {
            line1[i * 8..i * 8 + 8].copy_from_slice(&p.to_le_bytes());
        }
        log.set_bytes(env, node.addr, &line0);
        log.set_bytes(env, node.addr + 64, &line1);
    }

    /// Writes a node image directly (a fresh, unreachable allocation).
    fn store_fresh(&self, env: &mut PmEnv, node: &Node) {
        env.write_u64(node.addr, u64::from(node.is_leaf));
        env.write_u64(node.addr + 8, node.keys.len() as u64);
        for (i, k) in node.keys.iter().enumerate() {
            env.write_u64(node.addr + 16 + i as u64 * 8, *k);
        }
        for (i, p) in node.ptrs.iter().enumerate() {
            env.write_u64(node.addr + 64 + i as u64 * 8, *p);
        }
        env.clwb(node.addr, NODE_SIZE);
    }

    fn find_leaf(&self, env: &mut PmEnv, key: u64) -> Option<(u64, Vec<u64>)> {
        let root = env.read_u64(self.header);
        if root == 0 {
            return None;
        }
        let mut path = Vec::new();
        let mut addr = root;
        loop {
            let node = self.load(env, addr);
            path.push(addr);
            if node.is_leaf {
                return Some((addr, path));
            }
            let mut idx = 0;
            while idx < node.keys.len() && key >= node.keys[idx] {
                idx += 1;
            }
            env.work(node.keys.len() as u64);
            addr = node.ptrs[idx];
        }
    }

    fn upsert(&mut self, env: &mut PmEnv, key: u64, value: &[u8]) {
        #[expect(clippy::expect_used, reason = "setup runs before any transaction")]
        let mut log = self.log.take().expect("setup ran");
        log.begin(env);
        self.upsert_inner(env, &mut log, key, value);
        log.commit(env);
        self.log = Some(log);
    }

    fn upsert_inner(&mut self, env: &mut PmEnv, log: &mut UndoLog, key: u64, value: &[u8]) {
        let root = env.read_u64(self.header);
        if root == 0 {
            let vptr = env.alloc(value.len() as u64);
            env.write_bytes(vptr, value);
            env.clwb(vptr, value.len() as u64);
            let leaf = Node {
                addr: env.alloc(NODE_SIZE),
                is_leaf: true,
                keys: vec![key],
                ptrs: vec![vptr],
            };
            self.store_fresh(env, &leaf);
            env.sfence();
            log.set_u64(env, self.header, leaf.addr);
            return;
        }
        #[expect(clippy::expect_used, reason = "the branch above built the root")]
        let (leaf_addr, path) = self.find_leaf(env, key).expect("root exists");
        let mut leaf = self.load(env, leaf_addr);
        if let Ok(pos) = leaf.keys.binary_search(&key) {
            // Update in place.
            let vptr = leaf.ptrs[pos];
            log.set_bytes(env, vptr, value);
            return;
        }
        let vptr = env.alloc(value.len() as u64);
        env.write_bytes(vptr, value);
        env.clwb(vptr, value.len() as u64);
        env.sfence();
        let pos = leaf.keys.partition_point(|&k| k < key);
        leaf.keys.insert(pos, key);
        leaf.ptrs.insert(pos, vptr);
        if leaf.keys.len() <= ORDER {
            self.store_logged(env, log, &leaf);
            return;
        }
        // Split the leaf, then propagate up the recorded path.
        let mid = leaf.keys.len() / 2;
        let right = Node {
            addr: env.alloc(NODE_SIZE),
            is_leaf: true,
            keys: leaf.keys.split_off(mid),
            ptrs: leaf.ptrs.split_off(mid),
        };
        let mut sep = right.keys[0];
        self.store_fresh(env, &right);
        env.sfence();
        self.store_logged(env, log, &leaf);
        let mut new_child = right.addr;

        // Insert separators upward.
        for &parent_addr in path.iter().rev().skip(1) {
            let mut parent = self.load(env, parent_addr);
            let pos = parent.keys.partition_point(|&k| k < sep);
            parent.keys.insert(pos, sep);
            parent.ptrs.insert(pos + 1, new_child);
            if parent.keys.len() <= ORDER {
                self.store_logged(env, log, &parent);
                return;
            }
            let mid = parent.keys.len() / 2;
            let up_key = parent.keys[mid];
            let right_keys = parent.keys.split_off(mid + 1);
            parent.keys.pop(); // up_key moves up
            let right_ptrs = parent.ptrs.split_off(mid + 1);
            let right = Node {
                addr: env.alloc(NODE_SIZE),
                is_leaf: false,
                keys: right_keys,
                ptrs: right_ptrs,
            };
            self.store_fresh(env, &right);
            env.sfence();
            self.store_logged(env, log, &parent);
            sep = up_key;
            new_child = right.addr;
        }
        // Root split.
        let old_root = env.read_u64(self.header);
        let root = Node {
            addr: env.alloc(NODE_SIZE),
            is_leaf: false,
            keys: vec![sep],
            ptrs: vec![old_root, new_child],
        };
        self.store_fresh(env, &root);
        env.sfence();
        log.set_u64(env, self.header, root.addr);
    }
}

impl Workload for BTreeWorkload {
    fn name(&self) -> &'static str {
        "Btree"
    }

    fn setup(&mut self, env: &mut PmEnv) {
        self.header = env.alloc(64);
        env.write_u64(self.header, 0);
        env.persist(self.header, 8);
        self.log = Some(UndoLog::new(env, 64 * 1024));
    }

    fn transaction(&mut self, env: &mut PmEnv, txn_bytes: usize, rng: &mut XorShift) {
        // The transaction size counts *all* persistent traffic; with
        // undo/redo logging doubling the payload, the value is half of it.
        let txn_bytes = (txn_bytes / 2).max(64);
        let key = rng.next_below(self.keyspace) + 1; // avoid the 0 sentinel
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
            let (leaf_addr, _) = self
                .find_leaf(env, key)
                .unwrap_or_else(|| panic!("tree empty, key {key} missing"));
            let leaf = self.load(env, leaf_addr);
            #[expect(clippy::panic, reason = "verify reports a lost key by panicking")]
            let pos = leaf
                .keys
                .binary_search(&key)
                .unwrap_or_else(|_| panic!("key {key} missing from leaf"));
            let stored = env.read_bytes(leaf.ptrs[pos], len);
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
    fn inserts_cause_splits_and_verify() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = BTreeWorkload::new(128);
        w.setup(&mut env);
        let mut rng = XorShift::new(5);
        for _ in 0..150 {
            w.transaction(&mut env, 64, &mut rng);
        }
        w.verify(&mut env);
        // Depth > 1: the root must be an internal node by now.
        let root = env.read_u64(w.header);
        assert_eq!(env.read_u64(root), 0, "root should be internal");
    }

    #[test]
    fn sequential_keys_stay_sorted() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = BTreeWorkload::new(u64::MAX - 1);
        w.setup(&mut env);
        let mut log = w.log.take().unwrap();
        for key in 1..=40u64 {
            log.begin(&mut env);
            w.upsert_inner(&mut env, &mut log, key, &value_pattern(key, 1, 64));
            log.commit(&mut env);
            w.mirror.insert(key, (1, 64));
            w.versions.insert(key, 1);
        }
        w.log = Some(log);
        w.verify(&mut env);
    }
}
