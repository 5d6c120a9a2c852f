//! WHISPER `rbtree`: a red-black tree over u64 keys.
//!
//! The red-black tree is WHISPER's most write-scattered structure: insert
//! fix-ups recolor and rotate nodes across the tree, producing many small
//! undo-logged writes per transaction — the access pattern that stresses the
//! per-persist latency most directly.
//!
//! Layout (one 64-byte line per node):
//!
//! ```text
//! header: [root u64]
//! node:   [key u64 | vptr u64 | color u64 | left u64 | right u64 | parent u64]
//! ```

use dolos_sim::flat::FlatMap;
use dolos_sim::rng::XorShift;

use crate::env::PmEnv;
use crate::txn::UndoLog;
use crate::workloads::{value_pattern, Workload};

const RED: u64 = 0;
const BLACK: u64 = 1;

const OFF_KEY: u64 = 0;
const OFF_VPTR: u64 = 8;
const OFF_COLOR: u64 = 16;
const OFF_LEFT: u64 = 24;
const OFF_RIGHT: u64 = 32;
const OFF_PARENT: u64 = 40;

/// The red-black tree benchmark.
#[derive(Debug)]
pub struct RbtreeWorkload {
    keyspace: u64,
    header: u64,
    log: Option<UndoLog>,
    mirror: FlatMap<(u64, usize)>,
    versions: FlatMap<u64>,
}

impl RbtreeWorkload {
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

    fn get(&self, env: &mut PmEnv, node: u64, off: u64) -> u64 {
        env.read_u64(node + off)
    }

    fn set(&self, env: &mut PmEnv, log: &mut UndoLog, node: u64, off: u64, v: u64) {
        log.set_u64(env, node + off, v);
    }

    fn root(&self, env: &mut PmEnv) -> u64 {
        env.read_u64(self.header)
    }

    fn find(&self, env: &mut PmEnv, key: u64) -> Option<u64> {
        let mut node = self.root(env);
        while node != 0 {
            env.work(3);
            let k = self.get(env, node, OFF_KEY);
            node = match key.cmp(&k) {
                core::cmp::Ordering::Equal => return Some(node),
                core::cmp::Ordering::Less => self.get(env, node, OFF_LEFT),
                core::cmp::Ordering::Greater => self.get(env, node, OFF_RIGHT),
            };
        }
        None
    }

    fn rotate(&self, env: &mut PmEnv, log: &mut UndoLog, x: u64, left: bool) {
        // rotate_left(x): y = x.right; x.right = y.left; y.left = x.
        let (down, up) = if left {
            (OFF_RIGHT, OFF_LEFT)
        } else {
            (OFF_LEFT, OFF_RIGHT)
        };
        let y = self.get(env, x, down);
        let moved = self.get(env, y, up);
        self.set(env, log, x, down, moved);
        if moved != 0 {
            self.set(env, log, moved, OFF_PARENT, x);
        }
        let xp = self.get(env, x, OFF_PARENT);
        self.set(env, log, y, OFF_PARENT, xp);
        if xp == 0 {
            log.set_u64(env, self.header, y);
        } else if self.get(env, xp, OFF_LEFT) == x {
            self.set(env, log, xp, OFF_LEFT, y);
        } else {
            self.set(env, log, xp, OFF_RIGHT, y);
        }
        self.set(env, log, y, up, x);
        self.set(env, log, x, OFF_PARENT, y);
    }

    fn insert_fixup(&self, env: &mut PmEnv, log: &mut UndoLog, mut z: u64) {
        loop {
            let zp = self.get(env, z, OFF_PARENT);
            if zp == 0 || self.get(env, zp, OFF_COLOR) == BLACK {
                break;
            }
            let zpp = self.get(env, zp, OFF_PARENT);
            let parent_is_left = self.get(env, zpp, OFF_LEFT) == zp;
            let uncle = if parent_is_left {
                self.get(env, zpp, OFF_RIGHT)
            } else {
                self.get(env, zpp, OFF_LEFT)
            };
            if uncle != 0 && self.get(env, uncle, OFF_COLOR) == RED {
                self.set(env, log, zp, OFF_COLOR, BLACK);
                self.set(env, log, uncle, OFF_COLOR, BLACK);
                self.set(env, log, zpp, OFF_COLOR, RED);
                z = zpp;
            } else {
                if parent_is_left {
                    if self.get(env, zp, OFF_RIGHT) == z {
                        z = zp;
                        self.rotate(env, log, z, true);
                    }
                    let zp = self.get(env, z, OFF_PARENT);
                    let zpp = self.get(env, zp, OFF_PARENT);
                    self.set(env, log, zp, OFF_COLOR, BLACK);
                    self.set(env, log, zpp, OFF_COLOR, RED);
                    self.rotate(env, log, zpp, false);
                } else {
                    if self.get(env, zp, OFF_LEFT) == z {
                        z = zp;
                        self.rotate(env, log, z, false);
                    }
                    let zp = self.get(env, z, OFF_PARENT);
                    let zpp = self.get(env, zp, OFF_PARENT);
                    self.set(env, log, zp, OFF_COLOR, BLACK);
                    self.set(env, log, zpp, OFF_COLOR, RED);
                    self.rotate(env, log, zpp, true);
                }
            }
        }
        let root = self.root(env);
        if self.get(env, root, OFF_COLOR) != BLACK {
            self.set(env, log, root, OFF_COLOR, BLACK);
        }
    }

    fn upsert(&mut self, env: &mut PmEnv, key: u64, value: &[u8]) {
        #[expect(clippy::expect_used, reason = "setup runs before any transaction")]
        let mut log = self.log.take().expect("setup ran");
        log.begin(env);
        if let Some(node) = self.find(env, key) {
            let vptr = self.get(env, node, OFF_VPTR);
            log.set_bytes(env, vptr, value);
            log.commit(env);
            self.log = Some(log);
            return;
        }
        // Fresh node + value (unreachable until linked).
        let vptr = env.alloc(value.len() as u64);
        env.write_bytes(vptr, value);
        let node = env.alloc(64);
        env.write_u64(node + OFF_KEY, key);
        env.write_u64(node + OFF_VPTR, vptr);
        env.write_u64(node + OFF_COLOR, RED);
        env.write_u64(node + OFF_LEFT, 0);
        env.write_u64(node + OFF_RIGHT, 0);
        env.clwb(vptr, value.len() as u64);
        env.clwb(node, 48);
        env.sfence();

        // Standard BST insert.
        let mut parent = 0u64;
        let mut cur = self.root(env);
        while cur != 0 {
            env.work(3);
            parent = cur;
            cur = if key < self.get(env, cur, OFF_KEY) {
                self.get(env, cur, OFF_LEFT)
            } else {
                self.get(env, cur, OFF_RIGHT)
            };
        }
        env.write_u64(node + OFF_PARENT, parent);
        env.clwb(node + OFF_PARENT, 8);
        env.sfence();
        if parent == 0 {
            log.set_u64(env, self.header, node);
        } else if key < self.get(env, parent, OFF_KEY) {
            self.set(env, &mut log, parent, OFF_LEFT, node);
        } else {
            self.set(env, &mut log, parent, OFF_RIGHT, node);
        }
        self.insert_fixup(env, &mut log, node);
        log.commit(env);
        self.log = Some(log);
    }

    /// Checks red-black invariants (no red-red edge, equal black heights).
    /// Returns the black height.
    fn check_invariants(&self, env: &mut PmEnv, node: u64) -> u64 {
        if node == 0 {
            return 1;
        }
        let color = self.get(env, node, OFF_COLOR);
        let left = self.get(env, node, OFF_LEFT);
        let right = self.get(env, node, OFF_RIGHT);
        if color == RED {
            for child in [left, right] {
                if child != 0 {
                    assert_eq!(self.get(env, child, OFF_COLOR), BLACK, "red-red violation");
                }
            }
        }
        let lh = self.check_invariants(env, left);
        let rh = self.check_invariants(env, right);
        assert_eq!(lh, rh, "black-height violation");
        lh + u64::from(color == BLACK)
    }
}

impl Workload for RbtreeWorkload {
    fn name(&self) -> &'static str {
        "RBtree"
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
        let key = rng.next_below(self.keyspace) + 1;
        let version = self.versions.get_mut_or_insert(key, 0);
        *version += 1;
        let version = *version;
        let value = value_pattern(key, version, txn_bytes);
        self.upsert(env, key, &value);
        self.mirror.insert(key, (version, txn_bytes));
    }

    fn verify(&mut self, env: &mut PmEnv) {
        let root = self.root(env);
        if root != 0 {
            assert_eq!(self.get(env, root, OFF_COLOR), BLACK, "root must be black");
            self.check_invariants(env, root);
        }
        let expected: Vec<(u64, (u64, usize))> = self.mirror.iter().map(|(k, v)| (k, *v)).collect();
        for (key, (version, len)) in expected {
            #[expect(clippy::panic, reason = "verify reports a lost key by panicking")]
            let node = self
                .find(env, key)
                .unwrap_or_else(|| panic!("key {key} missing"));
            let vptr = self.get(env, node, OFF_VPTR);
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
    fn inserts_maintain_invariants() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = RbtreeWorkload::new(64);
        w.setup(&mut env);
        let mut rng = XorShift::new(6);
        for _ in 0..120 {
            w.transaction(&mut env, 64, &mut rng);
        }
        w.verify(&mut env);
    }

    #[test]
    fn sequential_inserts_balance() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = RbtreeWorkload::new(u64::MAX - 1);
        w.setup(&mut env);
        for key in 1..=32u64 {
            let value = value_pattern(key, 1, 64);
            w.upsert(&mut env, key, &value);
            w.mirror.insert(key, (1, 64));
        }
        w.verify(&mut env);
        // A degenerate chain of 32 would have depth 32; red-black depth is
        // bounded by 2 log2(33) ~ 10.
        let mut max_depth = 0u32;
        let mut stack = vec![(w.root(&mut env), 1u32)];
        while let Some((node, d)) = stack.pop() {
            if node == 0 {
                continue;
            }
            max_depth = max_depth.max(d);
            stack.push((w.get(&mut env, node, OFF_LEFT), d + 1));
            stack.push((w.get(&mut env, node, OFF_RIGHT), d + 1));
        }
        assert!(max_depth <= 12, "unbalanced: depth {max_depth}");
    }

    #[test]
    fn descending_inserts_stay_balanced() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = RbtreeWorkload::new(u64::MAX - 1);
        w.setup(&mut env);
        for key in (1..=24u64).rev() {
            w.upsert(&mut env, key, &value_pattern(key, 1, 64));
            w.mirror.insert(key, (1, 64));
        }
        w.verify(&mut env);
    }

    #[test]
    fn updates_do_not_allocate() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = RbtreeWorkload::new(4);
        w.setup(&mut env);
        // Insert every key once so later transactions are pure updates.
        for key in 1..=4u64 {
            w.upsert(&mut env, key, &value_pattern(key, 1, 64));
            w.mirror.insert(key, (1, 64));
            w.versions.insert(key, 1);
        }
        let mut rng = XorShift::new(8);
        let heap = env.heap_used();
        for _ in 0..8 {
            w.transaction(&mut env, 64, &mut rng);
        }
        assert_eq!(env.heap_used(), heap, "updates must reuse nodes/values");
        w.verify(&mut env);
    }
}
