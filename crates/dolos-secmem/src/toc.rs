//! Tree of Counters (ToC) with lazy updates, protected à la Phoenix (§4.4).
//!
//! SGX-style integrity trees store *version counters* in every node: node
//! `N` holds one counter per child plus a MAC computed over its counters and
//! its own counter in the parent. Eagerly persisting every level on every
//! write would defeat the scheme's parallelism, so persistent-memory ToCs
//! (Phoenix) update nodes **lazily** in the metadata cache and protect the
//! cached-but-not-propagated state with a small, eagerly-updated shadow
//! Merkle tree over a write-through shadow region in NVM.
//!
//! This module is a functional model of exactly that arrangement:
//!
//! * the main tree (NVM) is only updated on eviction;
//! * updated nodes live in a volatile cache, mirrored write-through into a
//!   shadow region (NVM) whose MAC root sits in a persistent register;
//! * a crash loses the cache; recovery reloads the shadow region, verifies
//!   it against the shadow root, and merges it over the stale main tree.
//!
//! # Deferred MAC materialization (the shadow-root cache)
//!
//! The modeled hardware recomputes path MACs and the shadow root on every
//! write, and the Ma-SU charges that latency through its latency model. The
//! *host*, however, only needs MAC values at observation points — a verify,
//! an eviction, a crash, a recovery — and every MAC here is a pure function
//! of the version counters at that moment. So [`TreeOfCounters::update_leaf`]
//! bumps counters eagerly (cheap integer work that later MACs depend on) but
//! defers node MACs, leaf MACs, the shadow write-through, and the
//! shadow-root recompute to the next observation point, where each dirty
//! node is recomputed exactly once. That turns the former
//! O(shadow-region) MAC stream *per write* into one stream *per observation*
//! — the difference between fig16's lazy-design throughput and everyone
//! else's. A test-only eager path (`TreeOfCounters::eager_update_leaf`,
//! compiled under `cfg(test)` so it cannot leak into the product) pins the
//! deferred state lockstep-equal to the uncached original.

use dolos_crypto::mac::{Mac64, MacEngine};
use dolos_nvm::Line;
use dolos_sim::paged::PagedTable;

use crate::bmt::{level_starts, tree_height, PendingLine, ARITY};

/// One ToC node: per-child version counters plus the node MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TocNode {
    /// Version counter per child.
    pub counters: [u64; ARITY as usize],
    /// MAC over this node's counters and its counter in the parent.
    pub mac: Mac64,
}

impl Default for TocNode {
    fn default() -> Self {
        Self {
            counters: [0; ARITY as usize],
            mac: [0; 8],
        }
    }
}

/// Upper bound on tree height: `ARITY^22 = 8^22 > 2^64`, so any `u64` leaf
/// count fits. Lets the eager reference path keep the update path in a
/// fixed-size stack array instead of allocating per write. (The deferred
/// production path batches per observation, so only the test-only eager
/// reference still needs it.)
#[cfg(test)]
const MAX_HEIGHT: usize = 22;

/// One copy of the tree: its nodes, from level 1 (the leaves' parents) up
/// to the root, at the keys [`level_starts`] gives each level, and its leaf
/// MACs keyed by leaf. Pages are allocated only where entries are written,
/// so a copy costs nothing per leaf at construction, and clearing it costs
/// in proportion to the pages it holds. Iteration runs in ascending
/// (level, index) order, a pure function of the contents: the shadow
/// root's MAC input depends on that order.
#[derive(Debug, Clone, Default, PartialEq)]
struct TocStore {
    nodes: PagedTable<TocNode>,
    leaf_macs: PagedTable<Mac64>,
}

impl TocStore {
    /// Writes every entry of `other` over this copy's.
    fn overlay(&mut self, other: &TocStore) {
        for (key, node) in other.nodes.iter() {
            *self.nodes.entry(key) = *node;
        }
        for (index, mac) in other.leaf_macs.iter() {
            *self.leaf_macs.entry(index) = *mac;
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.leaf_macs.clear();
    }
}

/// A lazily-updated Tree of Counters with Phoenix-style shadow protection.
///
/// # Examples
///
/// ```
/// use dolos_crypto::mac::MacEngine;
/// use dolos_secmem::toc::TreeOfCounters;
///
/// let engine = MacEngine::new([2; 16]);
/// let mut toc = TreeOfCounters::new(64, &engine);
/// toc.update_leaf(&engine, 3, &[1; 64]);
/// assert!(toc.verify_leaf(&engine, 3, &[1; 64]));
///
/// // Crash before eviction: cached state is lost but recoverable.
/// toc.crash(&engine);
/// assert!(toc.recover(&engine).is_ok());
/// assert!(toc.verify_leaf(&engine, 3, &[1; 64]));
/// ```
#[derive(Debug, Clone)]
pub struct TreeOfCounters {
    leaves: u64,
    height: usize,
    /// Level `l`'s nodes start at key `starts[l - 1]` (see [`level_starts`]).
    starts: Vec<u64>,
    /// Persistent (NVM) tree; stale for lazily-updated paths.
    main: TocStore,
    /// Volatile cache of updated nodes and leaf MACs (lost on crash). A
    /// node here shadows its `main` copy.
    cache: TocStore,
    /// Write-through shadow region (NVM) mirroring the volatile cache.
    shadow: TocStore,
    /// Persistent register: eagerly-updated MAC over the shadow region.
    shadow_root: Mac64,
    /// Persistent register: the root node's counter epoch.
    root_counter: u64,
    /// Leaf lines written since the last materialization: the deferred-MAC
    /// invalidation set. A key here means the leaf's MAC, its ancestors'
    /// MACs, their shadow copies, and the shadow root are all stale; only
    /// the latest line per leaf is kept because intermediate values never
    /// reach an observation point.
    pending_leaf_lines: PagedTable<PendingLine>,
    updates: u64,
}

/// Error returned when ToC recovery detects tampering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TocRecoveryError;

impl core::fmt::Display for TocRecoveryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "shadow region failed integrity verification")
    }
}

impl std::error::Error for TocRecoveryError {}

impl TreeOfCounters {
    /// Creates a ToC over `leaves` counter blocks.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero.
    pub fn new(leaves: u64, engine: &MacEngine) -> Self {
        assert!(leaves > 0, "tree must cover at least one leaf");
        let height = tree_height(leaves);
        let mut toc = Self {
            leaves,
            height,
            starts: level_starts(leaves, 1, height),
            main: TocStore::default(),
            cache: TocStore::default(),
            shadow: TocStore::default(),
            shadow_root: [0; 8],
            root_counter: 0,
            pending_leaf_lines: PagedTable::new(),
            updates: 0,
        };
        toc.shadow_root = toc.compute_shadow_root(engine);
        toc
    }

    /// Number of covered leaves.
    pub fn leaves(&self) -> u64 {
        self.leaves
    }

    /// Tree height (levels of interior nodes).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Leaf updates performed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Number of dirty (cached, unevicted) nodes.
    pub fn dirty_nodes(&self) -> usize {
        self.cache.nodes.len()
    }

    fn key(&self, level: usize, index: u64) -> u64 {
        self.starts[level - 1] + index
    }

    fn node(&self, level: usize, index: u64) -> TocNode {
        let key = self.key(level, index);
        self.cache
            .nodes
            .get(key)
            .or_else(|| self.main.nodes.get(key))
            .copied()
            .unwrap_or_default()
    }

    fn leaf_mac(&self, index: u64) -> Mac64 {
        self.cache
            .leaf_macs
            .get(index)
            .or_else(|| self.main.leaf_macs.get(index))
            .copied()
            .unwrap_or([0; 8])
    }

    fn node_mac(&self, engine: &MacEngine, level: usize, index: u64, node: &TocNode) -> Mac64 {
        let parent_counter = if level == self.height {
            self.root_counter
        } else {
            self.node(level + 1, index / ARITY).counters[(index % ARITY) as usize]
        };
        // Streamed MAC (byte-identical to `tag` over the former
        // concatenation buffer): ARITY counters + parent counter + level +
        // index, 8 little-endian bytes each. Runs once per dirty node at
        // each materialization and once per level in `verify_leaf`, so no
        // allocation.
        let mut s = engine.stream_tag(8 * (ARITY + 3));
        for c in &node.counters {
            s.update(&c.to_le_bytes());
        }
        s.update(&parent_counter.to_le_bytes());
        s.update(&(level as u64).to_le_bytes());
        s.update(&index.to_le_bytes());
        s.end_part();
        s.finish()
    }

    fn leaf_mac_value(&self, engine: &MacEngine, index: u64, leaf_line: &Line) -> Mac64 {
        let version = self.node(1, index / ARITY).counters[(index % ARITY) as usize];
        engine.tag_parts(&[&index.to_le_bytes(), &version.to_le_bytes(), leaf_line])
    }

    fn compute_shadow_root(&self, engine: &MacEngine) -> Mac64 {
        // Streamed MAC (byte-identical to `tag` over the former
        // concatenation buffer). Per shadow node, in (level, index) order:
        // level + index + ARITY counters (8 LE bytes each) + the 8-byte
        // node MAC; per shadow leaf MAC: index + MAC; then the root counter.
        // Recomputed once per materialization and at each eviction.
        let len = self.shadow.nodes.len() as u64 * (8 * (ARITY + 3))
            + self.shadow.leaf_macs.len() as u64 * 16
            + 8;
        let mut s = engine.stream_tag(len);
        let mut level = 1;
        for (key, node) in self.shadow.nodes.iter() {
            while key >= self.starts[level] {
                level += 1;
            }
            s.update(&(level as u64).to_le_bytes());
            s.update(&(key - self.starts[level - 1]).to_le_bytes());
            for c in &node.counters {
                s.update(&c.to_le_bytes());
            }
            s.update(&node.mac);
        }
        for (index, mac) in self.shadow.leaf_macs.iter() {
            s.update(&index.to_le_bytes());
            s.update(mac);
        }
        s.update(&self.root_counter.to_le_bytes());
        s.end_part();
        s.finish()
    }

    /// Bumps leaf `index`'s version counter in each node up the path, in
    /// the cached copies. A node's first touch since the last eviction or
    /// crash seeds its cached copy from `main`; after that each bump is an
    /// in-place increment.
    fn bump_path(&mut self, index: u64) {
        assert!(index < self.leaves, "leaf index out of range");
        self.updates += 1;
        let mut idx = index;
        for level in 1..=self.height {
            let parent = idx / ARITY;
            let key = self.key(level, parent);
            let main = &self.main.nodes;
            let node = self
                .cache
                .nodes
                .get_or_insert_with(key, || main.get(key).copied().unwrap_or_default());
            node.counters[(idx % ARITY) as usize] += 1;
            idx = parent;
        }
        self.root_counter += 1;
    }

    /// Updates leaf `index` to `leaf_line`: increments the version counters
    /// up the path (in the cache only) and records the line. Node MACs,
    /// the leaf MAC, the shadow write-through and the shadow root stay
    /// stale until the next observation point (a verify, an eviction, a
    /// crash, a recovery or a tamper), which recomputes each dirty node
    /// once. Later MACs are pure functions of the counters, so the counters
    /// stay eager.
    ///
    /// With parallel MAC engines all levels update concurrently, which is
    /// why the Ma-SU charges only [`dolos_crypto::latency::LAZY_UPDATE_MACS`]
    /// serial MACs in this mode.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn update_leaf(&mut self, engine: &MacEngine, index: u64, leaf_line: &Line) {
        let _ = engine; // the engine is spent at materialization time
        self.bump_path(index);
        *self.pending_leaf_lines.entry(index) = PendingLine(*leaf_line);
    }

    /// The uncached reference path: recomputes every MAC, the shadow
    /// write-through, and the shadow root on the spot, exactly as the
    /// pre-memoization implementation did. The lockstep property test
    /// drives this against [`TreeOfCounters::update_leaf`] +
    /// [`TreeOfCounters::materialize`] and demands identical state.
    #[cfg(test)]
    pub(crate) fn eager_update_leaf(&mut self, engine: &MacEngine, index: u64, leaf_line: &Line) {
        self.bump_path(index);
        // Recompute MACs top-down so each node MACs against its parent's new
        // counter.
        let mut path = [(0usize, 0u64); MAX_HEIGHT];
        let mut idx = index;
        for level in 1..=self.height {
            idx /= ARITY;
            path[level - 1] = (level, idx);
        }
        let path = &path[..self.height];
        for &(level, node_idx) in path.iter().rev() {
            let mut node = self.node(level, node_idx);
            node.mac = self.node_mac(engine, level, node_idx, &node);
            *self.cache.nodes.entry(self.key(level, node_idx)) = node;
        }
        let mac = self.leaf_mac_value(engine, index, leaf_line);
        *self.cache.leaf_macs.entry(index) = mac;
        // Write-through to the shadow region; eagerly update its root.
        for &(level, node_idx) in path {
            *self.shadow.nodes.entry(self.key(level, node_idx)) = self.node(level, node_idx);
        }
        *self.shadow.leaf_macs.entry(index) = mac;
        self.shadow_root = self.compute_shadow_root(engine);
    }

    /// Materializes every deferred MAC: leaf MACs for pending leaves, node
    /// MACs for their ancestor frontier (each dirty node exactly once, no
    /// matter how many pending leaves share it), the shadow write-through,
    /// and one shadow-root recompute. All inputs are the *current* version
    /// counters, which is precisely what the eager per-write walk would
    /// have left behind after its last touch of each node.
    fn materialize(&mut self, engine: &MacEngine) {
        if self.pending_leaf_lines.is_empty() {
            return;
        }
        // Taken out for the walk and put back cleared: its pages are reused.
        let mut pending = std::mem::take(&mut self.pending_leaf_lines);
        // Pending iterates in ascending leaf order, so each level's frontier
        // arrives ascending and adjacent dedup suffices.
        let mut frontier: Vec<u64> = Vec::with_capacity(pending.len());
        for (index, PendingLine(line)) in pending.iter() {
            let mac = self.leaf_mac_value(engine, index, line);
            *self.cache.leaf_macs.entry(index) = mac;
            *self.shadow.leaf_macs.entry(index) = mac;
            let parent = index / ARITY;
            if frontier.last() != Some(&parent) {
                frontier.push(parent);
            }
        }
        for level in 1..=self.height {
            let mut next: Vec<u64> = Vec::with_capacity(frontier.len());
            for &idx in &frontier {
                let mut node = self.node(level, idx);
                node.mac = self.node_mac(engine, level, idx, &node);
                let key = self.key(level, idx);
                *self.cache.nodes.entry(key) = node;
                *self.shadow.nodes.entry(key) = node;
                let parent = idx / ARITY;
                if next.last() != Some(&parent) {
                    next.push(parent);
                }
            }
            frontier = next;
        }
        pending.clear();
        self.pending_leaf_lines = pending;
        self.shadow_root = self.compute_shadow_root(engine);
    }

    /// Verifies leaf content against the (cached or persisted) tree.
    pub fn verify_leaf(&mut self, engine: &MacEngine, index: u64, leaf_line: &Line) -> bool {
        self.materialize(engine);
        if index >= self.leaves {
            return false;
        }
        if self.leaf_mac_value(engine, index, leaf_line) != self.leaf_mac(index) {
            return false;
        }
        let mut idx = index;
        for level in 1..=self.height {
            idx /= ARITY;
            let node = self.node(level, idx);
            if self.node_mac(engine, level, idx, &node) != node.mac {
                return false;
            }
        }
        true
    }

    /// Evicts every cached node into the main (NVM) tree, emptying the
    /// shadow region — what a metadata-cache flush does.
    pub fn evict_all(&mut self, engine: &MacEngine) {
        self.materialize(engine);
        self.main.overlay(&self.cache);
        self.cache.clear();
        self.shadow.clear();
        self.shadow_root = self.compute_shadow_root(engine);
    }

    /// Models a crash: the volatile cache is lost; main tree, shadow region,
    /// and persistent registers survive. Deferred MACs materialize first —
    /// in hardware the shadow region and root register were persistent the
    /// whole time, so the surviving state must be what eager updates would
    /// have persisted (and a post-crash attacker must tamper with *that*
    /// state, not a stale snapshot).
    pub fn crash(&mut self, engine: &MacEngine) {
        self.materialize(engine);
        self.cache.clear();
    }

    /// Recovers the cached state from the shadow region.
    ///
    /// # Errors
    ///
    /// Returns [`TocRecoveryError`] if the shadow region does not match the
    /// persistent shadow-root register (tampering).
    pub fn recover(&mut self, engine: &MacEngine) -> Result<(), TocRecoveryError> {
        self.materialize(engine);
        if self.compute_shadow_root(engine) != self.shadow_root {
            return Err(TocRecoveryError);
        }
        self.cache.overlay(&self.shadow);
        Ok(())
    }

    /// Tampers with a shadow-region node (attack-injection tests). Deferred
    /// MACs materialize first so the attacker strikes the shadow state the
    /// hardware would hold, and a later materialization cannot heal it.
    /// A node outside the tree or the shadow region is ignored.
    pub fn tamper_shadow(&mut self, engine: &MacEngine, level: usize, index: u64) {
        self.materialize(engine);
        if !(1..=self.height).contains(&level)
            || index >= self.starts[level] - self.starts[level - 1]
        {
            return;
        }
        let key = self.key(level, index);
        if let Some(node) = self.shadow.nodes.get_mut(key) {
            node.counters[0] ^= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn engine() -> MacEngine {
        MacEngine::new([4; 16])
    }

    fn toc(leaves: u64) -> TreeOfCounters {
        TreeOfCounters::new(leaves, &engine())
    }

    #[test]
    fn update_then_verify() {
        let mut t = toc(64);
        let e = engine();
        t.update_leaf(&e, 5, &[1; 64]);
        assert!(t.verify_leaf(&e, 5, &[1; 64]));
        assert!(!t.verify_leaf(&e, 5, &[2; 64]));
    }

    #[test]
    fn replayed_leaf_fails() {
        let mut t = toc(64);
        let e = engine();
        t.update_leaf(&e, 5, &[1; 64]);
        t.update_leaf(&e, 5, &[2; 64]);
        assert!(!t.verify_leaf(&e, 5, &[1; 64]));
    }

    #[test]
    fn updates_stay_in_cache_until_eviction() {
        let mut t = toc(64);
        let e = engine();
        t.update_leaf(&e, 5, &[1; 64]);
        assert!(t.dirty_nodes() > 0);
        t.evict_all(&e);
        assert_eq!(t.dirty_nodes(), 0);
        assert!(t.verify_leaf(&e, 5, &[1; 64]));
    }

    #[test]
    fn crash_without_recovery_loses_lazy_updates() {
        let mut t = toc(64);
        let e = engine();
        t.update_leaf(&e, 5, &[1; 64]);
        t.crash(&e);
        // Stale main tree: the new leaf content no longer verifies.
        assert!(!t.verify_leaf(&e, 5, &[1; 64]));
    }

    #[test]
    fn recovery_restores_cached_state() {
        let mut t = toc(64);
        let e = engine();
        t.update_leaf(&e, 5, &[1; 64]);
        t.update_leaf(&e, 9, &[2; 64]);
        t.crash(&e);
        t.recover(&e).expect("clean recovery");
        assert!(t.verify_leaf(&e, 5, &[1; 64]));
        assert!(t.verify_leaf(&e, 9, &[2; 64]));
    }

    #[test]
    fn tampered_shadow_is_detected() {
        let mut t = toc(64);
        let e = engine();
        t.update_leaf(&e, 5, &[1; 64]);
        t.crash(&e);
        // Nodes outside the tree are ignored: level 1 holds 8 nodes, so its
        // node 8 would share level 2 node 0's key.
        t.tamper_shadow(&e, 1, 8);
        t.tamper_shadow(&e, 0, 0);
        t.tamper_shadow(&e, 3, 0);
        let mut clean = t.clone();
        assert_eq!(clean.recover(&e), Ok(()));
        t.tamper_shadow(&e, 1, 0);
        assert_eq!(t.recover(&e), Err(TocRecoveryError));
    }

    #[test]
    fn eviction_then_crash_needs_no_shadow() {
        let mut t = toc(64);
        let e = engine();
        t.update_leaf(&e, 5, &[1; 64]);
        t.evict_all(&e);
        t.crash(&e);
        t.recover(&e).expect("empty shadow verifies");
        assert!(t.verify_leaf(&e, 5, &[1; 64]));
    }

    #[test]
    fn independent_leaves_do_not_interfere() {
        let mut t = toc(512);
        let e = engine();
        t.update_leaf(&e, 0, &[1; 64]);
        t.update_leaf(&e, 511, &[2; 64]);
        assert!(t.verify_leaf(&e, 0, &[1; 64]));
        assert!(t.verify_leaf(&e, 511, &[2; 64]));
        assert!(t.verify_leaf(&e, 100, &[0; 64]) || !t.verify_leaf(&e, 100, &[1; 64]));
    }

    #[test]
    fn height_is_log8() {
        assert_eq!(toc(8).height(), 1);
        assert_eq!(toc(9).height(), 2);
        assert_eq!(toc(64).height(), 2);
    }

    /// Every observable field of the two ToCs must agree.
    fn assert_state_eq(deferred: &TreeOfCounters, eager: &TreeOfCounters, ctx: &str) {
        assert_eq!(deferred.main, eager.main, "{ctx}: main tree diverged");
        assert_eq!(deferred.cache, eager.cache, "{ctx}: cache diverged");
        assert_eq!(
            deferred.shadow, eager.shadow,
            "{ctx}: shadow region diverged"
        );
        assert_eq!(
            deferred.shadow_root, eager.shadow_root,
            "{ctx}: shadow-root register diverged"
        );
        assert_eq!(
            deferred.root_counter, eager.root_counter,
            "{ctx}: root counter diverged"
        );
        assert_eq!(
            deferred.updates, eager.updates,
            "{ctx}: update count diverged"
        );
    }

    #[test]
    fn deferred_state_lockstep_equals_uncached_reference() {
        use dolos_sim::rng::XorShift;
        let e = engine();
        for (seed, leaves) in [(0xACEu64, 8u64), (0x5EED, 64), (0xF00D, 300)] {
            let mut rng = XorShift::new(seed);
            let mut deferred = TreeOfCounters::new(leaves, &e);
            let mut eager = TreeOfCounters::new(leaves, &e);
            let mut contents: BTreeMap<u64, Line> = BTreeMap::new();
            for step in 0..150u64 {
                let idx = rng.next_below(leaves);
                let line = [rng.next_u64() as u8; 64];
                deferred.update_leaf(&e, idx, &line);
                eager.eager_update_leaf(&e, idx, &line);
                contents.insert(idx, line);
                match step % 11 {
                    // Verify observation: must agree op-for-op and force a
                    // materialization boundary mid-burst.
                    0 | 5 => {
                        // Probe an updated leaf: untouched leaves hold the
                        // default (absent) leaf MAC and never verify.
                        let pick = rng.next_below(contents.len() as u64) as usize;
                        let (&probe, expect) = contents.iter().nth(pick).expect("non-empty");
                        let expect = *expect;
                        assert!(deferred.verify_leaf(&e, probe, &expect), "step {step}");
                        let mut wrong = expect;
                        wrong[0] ^= 0x40;
                        assert!(!deferred.verify_leaf(&e, probe, &wrong), "step {step}");
                        assert_state_eq(&deferred, &eager, "after verify");
                    }
                    // Eviction observation.
                    3 => {
                        deferred.evict_all(&e);
                        eager.evict_all(&e);
                        assert_state_eq(&deferred, &eager, "after evict_all");
                    }
                    // Crash + recover observation: the persisted shadow and
                    // the recovery outcome must match the eager reference.
                    7 => {
                        deferred.crash(&e);
                        eager.crash(&e);
                        assert_state_eq(&deferred, &eager, "after crash");
                        assert_eq!(deferred.recover(&e), Ok(()));
                        assert_eq!(eager.recover(&e), Ok(()));
                        assert_state_eq(&deferred, &eager, "after recover");
                    }
                    // Leave MACs pending across iterations.
                    _ => {}
                }
            }
            deferred.crash(&e);
            eager.crash(&e);
            assert_state_eq(&deferred, &eager, "final crash");
        }
    }

    #[test]
    fn tamper_before_materialization_is_not_healed() {
        let mut t = toc(64);
        let e = engine();
        t.update_leaf(&e, 5, &[1; 64]);
        // Crash materializes the deferred shadow state; tampering after the
        // crash must still be caught even though more deferred work (none
        // here) could in principle follow.
        t.crash(&e);
        t.tamper_shadow(&e, 1, 0);
        assert_eq!(t.recover(&e), Err(TocRecoveryError));
    }

    /// The lockstep test compares two update paths over one storage
    /// layout, so a layout change that reorders MAC inputs passes it. These
    /// byte values do not depend on the layout: after one seeded sequence
    /// of updates, evictions and crash/recover rounds, the shadow-root
    /// register, the last-written leaf's MAC and the shadow region's root
    /// once a node is tampered with (as little-endian `u64`s).
    #[test]
    fn fingerprint_is_independent_of_storage_layout() {
        use crate::bmt::tests::random_line;
        use dolos_sim::rng::XorShift;
        let e = engine();
        let cases: [(u64, u64, [u64; 3]); 3] = [
            (
                0x7E57,
                8,
                [0xdb2e5ffa4b06e640, 0x17f284d6cef9b8c9, 0x097c5b58c87b237f],
            ),
            (
                0xCAFE,
                64,
                [0x8717f98618862765, 0xd1cebc9c05f1b541, 0x160b2432202a5817],
            ),
            (
                0xF1A7,
                300,
                [0x60e0f873cc20b9fa, 0x58b4ce64c1a88c15, 0xcc857a22282676e2],
            ),
        ];
        for (seed, leaves, expect) in cases {
            let mut rng = XorShift::new(seed);
            let mut t = TreeOfCounters::new(leaves, &e);
            let mut last = 0;
            for step in 0..200u64 {
                last = rng.next_below(leaves);
                t.update_leaf(&e, last, &random_line(&mut rng));
                match step % 23 {
                    5 => t.evict_all(&e),
                    13 => {
                        t.crash(&e);
                        assert_eq!(t.recover(&e), Ok(()), "{leaves} leaves, step {step}");
                    }
                    _ => {}
                }
            }
            t.crash(&e);
            let shadow_root = t.shadow_root;
            assert_eq!(t.recover(&e), Ok(()));
            let leaf_mac = t.leaf_mac(last);
            t.crash(&e);
            t.tamper_shadow(&e, 1, last / ARITY);
            let tampered = t.compute_shadow_root(&e);
            assert_eq!(t.recover(&e), Err(TocRecoveryError));
            let got = [shadow_root, leaf_mac, tampered].map(u64::from_le_bytes);
            assert_eq!(got, expect, "{leaves} leaves");
        }
    }
}
