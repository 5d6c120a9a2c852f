//! The 8-ary Bonsai Merkle Tree over split-counter blocks (§2.2).
//!
//! In a Bonsai organization the integrity tree covers only the encryption
//! counters; data lines are covered by per-line MACs computed over
//! (ciphertext, address, counter). The tree here is the *logical* tree
//! state: leaf MACs at level 0, parents at higher levels, root on top. In
//! hardware the interior nodes live in the MT cache and NVM; with the AGIT
//! scheme the root register is updated eagerly and persistently, which is
//! sufficient for recovery because interior nodes can be recomputed from
//! (recovered) leaves — exactly what [`BonsaiMerkleTree::recompute_root`]
//! does at recovery time.
//!
//! Untouched subtrees use per-level *default* MACs (the MAC of eight default
//! children), so a tree over millions of pages initializes in O(height).
//!
//! # Deferred parent materialization (the parent-MAC cache)
//!
//! Interior MACs are pure functions of the *final* leaf contents, so the
//! host need not recompute a parent chain on every [`update_leaf`] the way
//! the modeled hardware does — the simulated latency for those AES chains is
//! charged by the Ma-SU's latency model, never by this structure. The tree
//! therefore keeps a pending-leaf map (the cache's invalidation set: a leaf
//! entry is exactly a "my path's cached parents are stale" marker) and
//! materializes dirty paths *levelwise, once per dirty node*, at the next
//! observation point ([`root`], [`verify_leaf`], [`tamper_node`],
//! [`recompute_root`]). A burst of W writes to P distinct pages costs
//! O(P) parent MACs instead of O(W·height) — every materialized node value
//! is bit-identical to what the eager walk would have stored, which the
//! test-only uncached reference pins lockstep.
//!
//! [`update_leaf`]: BonsaiMerkleTree::update_leaf
//! [`root`]: BonsaiMerkleTree::root
//! [`verify_leaf`]: BonsaiMerkleTree::verify_leaf
//! [`tamper_node`]: BonsaiMerkleTree::tamper_node
//! [`recompute_root`]: BonsaiMerkleTree::recompute_root
//!
//! The tree does not own a [`MacEngine`]: the engine models a hardware AES
//! unit shared by every metadata structure in the Ma-SU, so tree operations
//! borrow it from the caller. This keeps tree construction (including the
//! from-scratch rebuild at recovery) free of key-schedule copies.

use dolos_crypto::mac::{Mac64, MacEngine};
use dolos_nvm::Line;
use dolos_sim::paged::PagedTable;
use std::collections::BTreeMap;

/// Tree arity (8-ary, Table 1).
pub const ARITY: u64 = 8;

/// Levels above the leaves of an [`ARITY`]-ary tree over `leaves` leaves:
/// at least one, so even a single-leaf tree has a root distinct from the
/// leaf itself.
pub(crate) fn tree_height(leaves: u64) -> usize {
    let mut height = 0usize;
    let mut width = leaves;
    while width > 1 {
        width = width.div_ceil(ARITY);
        height += 1;
    }
    height.max(1)
}

/// Where levels `first..=last` of a tree over `leaves` leaves start in one
/// key space, then where the last one ends. Level `l` (0 is the leaves)
/// holds `leaves.div_ceil(ARITY^l)` nodes, and its node `i` has key
/// `starts[l - first] + i`. Each level's range is padded to a multiple of
/// [`ARITY`], so every parent's children are one aligned run of keys inside
/// their own level. The levels follow one another, so ascending keys are
/// ascending (level, index) pairs, and the few nodes of the upper levels
/// share the pages of one [`PagedTable`].
pub(crate) fn level_starts(leaves: u64, first: usize, last: usize) -> Vec<u64> {
    let mut starts = vec![0];
    let (mut width, mut end) = (leaves, 0);
    for level in 0..=last {
        if level >= first {
            end += width.next_multiple_of(ARITY);
            starts.push(end);
        }
        width = width.div_ceil(ARITY);
    }
    starts
}

/// A leaf line awaiting materialization. A newtype only because a
/// [`PagedTable`] slot needs `Default`, which `[u8; 64]` lacks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingLine(pub(crate) Line);

impl Default for PendingLine {
    fn default() -> Self {
        Self([0; 64])
    }
}

/// The 8-ary Bonsai Merkle Tree.
///
/// # Examples
///
/// ```
/// use dolos_crypto::mac::MacEngine;
/// use dolos_secmem::bmt::BonsaiMerkleTree;
///
/// let engine = MacEngine::new([1; 16]);
/// let mut tree = BonsaiMerkleTree::new(64, &engine);
/// let root0 = tree.root(&engine);
/// tree.update_leaf(&engine, 5, &[0xAB; 64]);
/// assert_ne!(tree.root(&engine), root0);
/// assert!(tree.verify_leaf(&engine, 5, &[0xAB; 64]));
/// assert!(!tree.verify_leaf(&engine, 5, &[0xAC; 64]));
/// ```
#[derive(Debug, Clone)]
pub struct BonsaiMerkleTree {
    leaves: u64,
    height: usize,
    /// Node MACs, level 0 (the leaf MACs) up to the root, each level's
    /// nodes at the keys [`level_starts`] gives it. Absent nodes hold their
    /// level's default. A lookup indexes a page, an update writes its slot
    /// in place, and nothing is allocated for nodes never written.
    nodes: PagedTable<Mac64>,
    starts: Vec<u64>,
    defaults: Vec<Mac64>,
    root: Mac64,
    /// Leaf lines written since the last materialization. A key here means
    /// the leaf's whole path (leaf MAC included) is stale; only the latest
    /// line per leaf is kept because intermediate values never reach an
    /// observation point.
    pending: PagedTable<PendingLine>,
    updates: u64,
}

impl BonsaiMerkleTree {
    /// Creates a tree over `leaves` counter blocks, all initially zero.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero.
    pub fn new(leaves: u64, engine: &MacEngine) -> Self {
        assert!(leaves > 0, "tree must cover at least one leaf");
        let height = tree_height(leaves);
        // defaults[0] = MAC of an all-zero leaf line; defaults[l] = MAC of
        // eight default children.
        let mut defaults = Vec::with_capacity(height + 1);
        defaults.push(engine.tag(&[0u8; 64]));
        for l in 1..=height {
            let child = defaults[l - 1];
            let parts: [&[u8]; ARITY as usize] = [&child[..]; ARITY as usize];
            defaults.push(engine.tag_parts(&parts));
        }
        let root = defaults[height];
        Self {
            leaves,
            height,
            nodes: PagedTable::new(),
            starts: level_starts(leaves, 0, height),
            defaults,
            root,
            pending: PagedTable::new(),
            updates: 0,
        }
    }

    /// Number of covered leaves (counter blocks).
    pub fn leaves(&self) -> u64 {
        self.leaves
    }

    /// Number of MAC levels above the leaves.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The current root MAC. In hardware this value sits in a persistent
    /// in-processor register and is updated eagerly (AGIT); here the host
    /// materializes any deferred paths first, so the returned value is
    /// always what the eager walk would hold.
    pub fn root(&mut self, engine: &MacEngine) -> Mac64 {
        self.materialize(engine);
        self.root
    }

    /// Total leaf updates performed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    fn key(&self, level: usize, index: u64) -> u64 {
        self.starts[level] + index
    }

    fn node(&self, level: usize, index: u64) -> Mac64 {
        self.nodes
            .get(self.key(level, index))
            .copied()
            .unwrap_or(self.defaults[level])
    }

    fn parent_mac(&self, engine: &MacEngine, level: usize, parent_index: u64) -> Mac64 {
        let first = parent_index * ARITY;
        let children: [Mac64; ARITY as usize] =
            core::array::from_fn(|c| self.node(level - 1, first + c as u64));
        let parts: [&[u8]; ARITY as usize] = core::array::from_fn(|c| &children[c][..]);
        engine.tag_parts(&parts)
    }

    /// Materializes every deferred path: tags pending leaves, then walks
    /// the dirty ancestor frontier level by level so each stale node is
    /// recomputed exactly once no matter how many pending leaves share it.
    fn materialize(&mut self, engine: &MacEngine) {
        if self.pending.is_empty() {
            return;
        }
        // Taken out for the walk and put back cleared: its pages are reused.
        let mut pending = std::mem::take(&mut self.pending);
        // Pending iterates in ascending leaf order, so parents arrive in
        // ascending order too and adjacent dedup suffices.
        let mut dirty: Vec<u64> = Vec::with_capacity(pending.len());
        for (index, PendingLine(line)) in pending.iter() {
            *self.nodes.entry(self.key(0, index)) = engine.tag(line);
            let parent = index / ARITY;
            if dirty.last() != Some(&parent) {
                dirty.push(parent);
            }
        }
        for level in 1..=self.height {
            let mut next: Vec<u64> = Vec::with_capacity(dirty.len());
            for &idx in &dirty {
                let mac = self.parent_mac(engine, level, idx);
                *self.nodes.entry(self.key(level, idx)) = mac;
                let parent = idx / ARITY;
                if next.last() != Some(&parent) {
                    next.push(parent);
                }
            }
            dirty = next;
        }
        pending.clear();
        self.pending = pending;
        self.root = self.node(self.height, 0);
    }

    /// Records the new content of leaf `index`. The path above it is marked
    /// stale and recomputed at the next observation point; the modeled
    /// hardware still performs the eager AGIT walk, whose latency the Ma-SU
    /// charges through the latency model independently of this structure.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn update_leaf(&mut self, engine: &MacEngine, index: u64, leaf_line: &Line) {
        let _ = engine; // the engine is spent at materialization time
        assert!(index < self.leaves, "leaf index out of range");
        self.updates += 1;
        *self.pending.entry(index) = PendingLine(*leaf_line);
    }

    /// Verifies leaf `index` content against the tree path and root.
    pub fn verify_leaf(&mut self, engine: &MacEngine, index: u64, leaf_line: &Line) -> bool {
        self.materialize(engine);
        if index >= self.leaves {
            return false;
        }
        if engine.tag(leaf_line) != self.node(0, index) {
            return false;
        }
        // Walk up re-deriving each parent from stored children; the stored
        // path must be self-consistent up to the root register.
        let mut idx = index;
        for level in 1..=self.height {
            idx /= ARITY;
            if self.parent_mac(engine, level, idx) != self.node(level, idx) {
                return false;
            }
        }
        self.node(self.height, 0) == self.root
    }

    /// Whether `lines`, given as `(leaf index, line)` with each index at
    /// most once, are exactly the leaves this tree holds:
    ///
    /// * each line equals the leaf held for its index: a pending leaf by
    ///   its bytes, a materialized leaf by its stored MAC, an absent leaf
    ///   by the level-0 default;
    /// * every leaf the tree holds, pending or materialized, is among
    ///   `lines`.
    ///
    /// Interior nodes are functions of the leaves below them, so when this
    /// holds, a tree built afresh from `lines` (as recovery does) equals
    /// this one at every node and this one may be kept. The only writer
    /// that breaks "functions of the leaves" is [`Self::tamper_node`],
    /// which only this module's tests call. Nothing is materialized or
    /// allocated; a line outside the tree answers `false`.
    pub fn holds_exactly<'a>(
        &self,
        engine: &MacEngine,
        lines: impl IntoIterator<Item = (u64, &'a Line)>,
    ) -> bool {
        let mut held_lines = 0;
        for (index, line) in lines {
            if index >= self.leaves {
                return false;
            }
            let held = if let Some(PendingLine(pending)) = self.pending.get(index) {
                if pending != line {
                    return false;
                }
                true
            } else {
                let stored = self.nodes.get(self.key(0, index));
                if engine.tag(line) != *stored.unwrap_or(&self.defaults[0]) {
                    return false;
                }
                stored.is_some()
            };
            held_lines += usize::from(held);
        }
        held_lines == self.held_leaves()
    }

    /// Leaves held pending or materialized (or both): the two key sets are
    /// ascending, so one merge counts their union.
    fn held_leaves(&self) -> usize {
        let mut stored = self
            .nodes
            .range(self.starts[0], self.starts[1])
            .map(|(key, _)| key - self.starts[0])
            .peekable();
        let mut union = 0;
        for (index, _) in self.pending.iter() {
            while stored.next_if(|&s| s < index).is_some() {
                union += 1;
            }
            stored.next_if_eq(&index);
            union += 1;
        }
        union + stored.count()
    }

    /// Recomputes the root from scratch given every non-default leaf, as
    /// recovery does after rebuilding counters (AGIT/Anubis recovery).
    ///
    /// The contents are keyed in a [`BTreeMap`] so the rebuild replays
    /// leaves in ascending index order — recovery work must not depend on
    /// hash-map iteration order. The deferred-materialization path makes
    /// this a levelwise O(N) build rather than O(N·height).
    ///
    /// Returns the recomputed root; callers compare it with the persistent
    /// root register to detect tampering.
    pub fn recompute_root(
        engine: &MacEngine,
        leaves: u64,
        contents: &BTreeMap<u64, Line>,
    ) -> Mac64 {
        let mut rebuilt = BonsaiMerkleTree::new(leaves, engine);
        for (&idx, line) in contents {
            rebuilt.update_leaf(engine, idx, line);
        }
        rebuilt.root(engine)
    }

    /// Overwrites a stored interior/leaf node (models an attacker tampering
    /// with NVM-resident tree nodes in tests). Deferred paths materialize
    /// first — the attacker strikes the tree the hardware would hold, and a
    /// later materialization must not silently heal the damage. A node
    /// outside the tree is ignored.
    pub fn tamper_node(&mut self, engine: &MacEngine, level: usize, index: u64, mac: Mac64) {
        self.materialize(engine);
        if level <= self.height && index < self.starts[level + 1] - self.starts[level] {
            *self.nodes.entry(self.key(level, index)) = mac;
        }
    }
}

/// Computes the Bonsai data MAC covering one protected line:
/// MAC(address ‖ packed counter ‖ ciphertext).
///
/// This is the per-line MAC that, together with the counter tree, protects
/// data integrity (spoofing, relocation via the address, replay via the
/// counter).
///
/// # Examples
///
/// ```
/// use dolos_crypto::mac::MacEngine;
/// use dolos_secmem::bmt::data_mac;
///
/// let engine = MacEngine::new([3; 16]);
/// let a = data_mac(&engine, 0x40, 7, &[1; 64]);
/// assert_ne!(a, data_mac(&engine, 0x80, 7, &[1; 64])); // relocation
/// assert_ne!(a, data_mac(&engine, 0x40, 8, &[1; 64])); // replay
/// assert_ne!(a, data_mac(&engine, 0x40, 7, &[2; 64])); // spoofing
/// ```
pub fn data_mac(engine: &MacEngine, addr: u64, counter: u64, ciphertext: &Line) -> Mac64 {
    engine.tag_parts(&[&addr.to_le_bytes(), &counter.to_le_bytes(), ciphertext])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dolos_sim::rng::XorShift;

    fn engine() -> MacEngine {
        MacEngine::new([7; 16])
    }

    fn tree(leaves: u64) -> BonsaiMerkleTree {
        BonsaiMerkleTree::new(leaves, &engine())
    }

    /// The uncached reference: recomputes the root from first principles
    /// (full levelwise build over explicit arrays, no incremental state at
    /// all), so any caching bug in the deferred path breaks lockstep.
    fn reference_root(engine: &MacEngine, leaves: u64, contents: &BTreeMap<u64, Line>) -> Mac64 {
        let height = tree_height(leaves);
        let default_leaf = [0u8; 64];
        let mut level: Vec<Mac64> = (0..leaves)
            .map(|i| engine.tag(contents.get(&i).unwrap_or(&default_leaf)))
            .collect();
        let mut default = engine.tag(&default_leaf);
        for _ in 1..=height {
            let groups = level.len().max(1).div_ceil(ARITY as usize);
            level.resize(groups * ARITY as usize, default);
            level = level
                .chunks(ARITY as usize)
                .map(|c| {
                    let parts: [&[u8]; ARITY as usize] = core::array::from_fn(|k| &c[k][..]);
                    engine.tag_parts(&parts)
                })
                .collect();
            let parts: [&[u8]; ARITY as usize] = [&default[..]; ARITY as usize];
            default = engine.tag_parts(&parts);
        }
        level[0]
    }

    #[test]
    fn fresh_tree_verifies_default_leaves() {
        let mut t = tree(100);
        let e = engine();
        assert!(t.verify_leaf(&e, 0, &[0; 64]));
        assert!(t.verify_leaf(&e, 99, &[0; 64]));
        assert!(!t.verify_leaf(&e, 0, &[1; 64]));
    }

    #[test]
    fn height_is_log8() {
        assert_eq!(tree(1).height(), 1);
        assert_eq!(tree(8).height(), 1);
        assert_eq!(tree(9).height(), 2);
        assert_eq!(tree(64).height(), 2);
        assert_eq!(tree(65).height(), 3);
    }

    #[test]
    fn update_changes_root_and_verifies() {
        let mut t = tree(64);
        let e = engine();
        let r0 = t.root(&e);
        t.update_leaf(&e, 3, &[9; 64]);
        let r1 = t.root(&e);
        assert_ne!(r0, r1);
        assert!(t.verify_leaf(&e, 3, &[9; 64]));
        // Sibling leaves still verify with default content.
        assert!(t.verify_leaf(&e, 4, &[0; 64]));
    }

    #[test]
    fn stale_leaf_fails_verification() {
        let mut t = tree(64);
        let e = engine();
        t.update_leaf(&e, 3, &[1; 64]);
        t.update_leaf(&e, 3, &[2; 64]);
        assert!(!t.verify_leaf(&e, 3, &[1; 64])); // replay of old content
        assert!(t.verify_leaf(&e, 3, &[2; 64]));
    }

    #[test]
    fn tampered_interior_node_is_detected() {
        let mut t = tree(64);
        let e = engine();
        t.update_leaf(&e, 3, &[1; 64]);
        // Nodes outside the tree are ignored: leaf 64 shares its key space
        // with level 1, level 3 does not exist.
        t.tamper_node(&e, 0, 64, [0xFF; 8]);
        t.tamper_node(&e, 3, 0, [0xFF; 8]);
        assert!(t.verify_leaf(&e, 3, &[1; 64]));
        t.tamper_node(&e, 1, 0, [0xFF; 8]);
        assert!(!t.verify_leaf(&e, 3, &[1; 64]));
    }

    #[test]
    fn tamper_before_materialization_is_not_healed() {
        let mut t = tree(64);
        let e = engine();
        // The path for leaf 3 is still pending when the attacker strikes its
        // parent; materialization must not overwrite the tampered node with
        // a freshly computed (honest) MAC and hide the attack.
        t.update_leaf(&e, 3, &[1; 64]);
        t.tamper_node(&e, 1, 0, [0xFF; 8]);
        assert!(!t.verify_leaf(&e, 3, &[1; 64]));
    }

    #[test]
    fn swapped_leaves_are_detected() {
        let mut t = tree(64);
        let e = engine();
        t.update_leaf(&e, 1, &[1; 64]);
        t.update_leaf(&e, 2, &[2; 64]);
        // Attacker swaps stored contents: leaf 1 presents leaf 2's data.
        assert!(!t.verify_leaf(&e, 1, &[2; 64]));
    }

    #[test]
    fn recompute_root_matches_incremental() {
        let mut t = tree(200);
        let e = engine();
        let mut contents = BTreeMap::new();
        for i in [0u64, 7, 63, 64, 199] {
            let line = [i as u8 + 1; 64];
            t.update_leaf(&e, i, &line);
            contents.insert(i, line);
        }
        let recomputed = BonsaiMerkleTree::recompute_root(&e, 200, &contents);
        assert_eq!(recomputed, t.root(&e));
    }

    #[test]
    fn recompute_root_detects_corruption() {
        let mut t = tree(200);
        let e = engine();
        let mut contents = BTreeMap::new();
        for i in 0u64..5 {
            let line = [i as u8 + 1; 64];
            t.update_leaf(&e, i, &line);
            contents.insert(i, line);
        }
        contents.insert(2, [0xEE; 64]); // corrupted recovered leaf
        let recomputed = BonsaiMerkleTree::recompute_root(&e, 200, &contents);
        assert_ne!(recomputed, t.root(&e));
    }

    #[test]
    fn data_mac_binds_all_inputs() {
        let e = MacEngine::new([9; 16]);
        let base = data_mac(&e, 64, 1, &[5; 64]);
        assert_eq!(base, data_mac(&e, 64, 1, &[5; 64]));
        assert_ne!(base, data_mac(&e, 128, 1, &[5; 64]));
        assert_ne!(base, data_mac(&e, 64, 2, &[5; 64]));
        assert_ne!(base, data_mac(&e, 64, 1, &[6; 64]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_out_of_range_panics() {
        let mut t = tree(8);
        t.update_leaf(&engine(), 8, &[0; 64]);
    }

    #[test]
    fn out_of_range_verify_is_false() {
        let mut t = tree(8);
        assert!(!t.verify_leaf(&engine(), 8, &[0; 64]));
    }

    #[test]
    fn memoized_root_lockstep_equals_uncached_reference() {
        let e = engine();
        for (seed, leaves) in [(0x1A2Bu64, 1u64), (0x5EED, 8), (0xBEEF, 100), (0xD01, 200)] {
            let mut rng = XorShift::new(seed);
            let mut t = BonsaiMerkleTree::new(leaves, &e);
            let mut contents: BTreeMap<u64, Line> = BTreeMap::new();
            assert_eq!(t.root(&e), reference_root(&e, leaves, &contents));
            for step in 0..120u64 {
                let idx = rng.next_below(leaves);
                let line = [rng.next_u64() as u8; 64];
                t.update_leaf(&e, idx, &line);
                contents.insert(idx, line);
                match step % 7 {
                    // Observe the root mid-burst: forces a materialization
                    // boundary at an arbitrary point in the update stream.
                    0 | 3 => {
                        assert_eq!(t.root(&e), reference_root(&e, leaves, &contents));
                    }
                    // Verify a random leaf (fresh content passes, a wrong
                    // line fails) — the other observation point.
                    1 => {
                        let probe = rng.next_below(leaves);
                        let expect = contents.get(&probe).copied().unwrap_or([0; 64]);
                        assert!(t.verify_leaf(&e, probe, &expect));
                        let mut wrong = expect;
                        wrong[0] ^= 0x80;
                        assert!(!t.verify_leaf(&e, probe, &wrong));
                    }
                    // Recovery-style from-scratch rebuild agrees too.
                    2 => {
                        let rebuilt = BonsaiMerkleTree::recompute_root(&e, leaves, &contents);
                        assert_eq!(rebuilt, t.root(&e));
                    }
                    // Leave paths pending across iterations.
                    _ => {}
                }
            }
            assert_eq!(t.root(&e), reference_root(&e, leaves, &contents));
            assert_eq!(t.updates(), 120);
        }
    }

    /// `holds_exactly` over each way a tree can hold a leaf: pending (by
    /// bytes), materialized (by MAC), both at once (counted once), absent
    /// (by the default), and a held leaf with no line.
    #[test]
    fn holds_exactly_decides_each_leaf_by_how_it_is_held() {
        let e = engine();
        let mut t = tree(64);
        let (a, b, zero) = ([1u8; 64], [2u8; 64], [0u8; 64]);
        let holds = |t: &BonsaiMerkleTree, lines: &[(u64, Line)]| {
            t.holds_exactly(&e, lines.iter().map(|(i, l)| (*i, l)))
        };
        assert!(holds(&t, &[]));
        // Pending leaf 3.
        t.update_leaf(&e, 3, &a);
        assert!(holds(&t, &[(3, a)]));
        assert!(!holds(&t, &[(3, b)]));
        assert!(!holds(&t, &[]), "a pending leaf with no line");
        // Materialized leaf 3.
        t.root(&e);
        assert!(holds(&t, &[(3, a)]));
        assert!(!holds(&t, &[(3, b)]));
        assert!(!holds(&t, &[]), "a materialized leaf with no line");
        // Absent leaf 5: only a line tagging as the default matches.
        assert!(holds(&t, &[(3, a), (5, zero)]));
        assert!(!holds(&t, &[(3, a), (5, b)]));
        // Leaf 3 pending over its materialized MAC: the pending line wins,
        // and the leaf is one held leaf, not two.
        t.update_leaf(&e, 3, &b);
        assert!(holds(&t, &[(3, b)]));
        assert!(!holds(&t, &[(3, a)]));
        // Leaves on both sides of a pending-only and a stored-only leaf.
        t.update_leaf(&e, 9, &a);
        t.root(&e);
        t.update_leaf(&e, 1, &a);
        t.update_leaf(&e, 20, &b);
        assert!(holds(&t, &[(1, a), (3, b), (9, a), (20, b)]));
        assert!(
            !holds(&t, &[(1, a), (3, b), (20, b)]),
            "stored leaf 9 missing"
        );
        assert!(
            !holds(&t, &[(1, a), (3, b), (9, a)]),
            "pending leaf 20 missing"
        );
        assert!(!holds(&t, &[(1, a), (3, b), (9, a), (20, b), (64, zero)]));
    }

    /// Over seeded update streams with materializations at arbitrary
    /// points, a tree holds exactly its current leaves, and a tree rebuilt
    /// from them has its root and verifies every one of them; a changed,
    /// missing or extra line is refused.
    #[test]
    fn a_tree_holding_exactly_its_lines_equals_their_rebuild() {
        let e = engine();
        for (seed, leaves) in [(0x40Du64, 8u64), (0x1DEA, 100), (0x5A17, 300)] {
            let mut rng = XorShift::new(seed);
            let mut t = BonsaiMerkleTree::new(leaves, &e);
            let mut contents: BTreeMap<u64, Line> = BTreeMap::new();
            for step in 0..150u64 {
                let idx = rng.next_below(leaves);
                let line = random_line(&mut rng);
                t.update_leaf(&e, idx, &line);
                contents.insert(idx, line);
                if rng.next_below(5) == 0 {
                    t.root(&e);
                }
                if step % 10 != 9 {
                    continue;
                }
                assert!(t.holds_exactly(&e, contents.iter().map(|(i, l)| (*i, l))));
                let mut rebuilt = BonsaiMerkleTree::new(leaves, &e);
                for (&i, line) in &contents {
                    rebuilt.update_leaf(&e, i, line);
                }
                assert_eq!(rebuilt.root(&e), t.root(&e), "{leaves} leaves, step {step}");
                for (&i, line) in &contents {
                    assert!(rebuilt.verify_leaf(&e, i, line));
                }
                let pick = *contents
                    .keys()
                    .nth(rng.next_below(contents.len() as u64) as usize)
                    .unwrap();
                let mut changed = contents.clone();
                changed.entry(pick).and_modify(|l| l[7] ^= 0x10);
                assert!(!t.holds_exactly(&e, changed.iter().map(|(i, l)| (*i, l))));
                let mut missing = contents.clone();
                missing.remove(&pick);
                assert!(!t.holds_exactly(&e, missing.iter().map(|(i, l)| (*i, l))));
                if let Some(free) = (0..leaves).find(|i| !contents.contains_key(i)) {
                    let mut extra = contents.clone();
                    extra.insert(free, random_line(&mut rng));
                    assert!(!t.holds_exactly(&e, extra.iter().map(|(i, l)| (*i, l))));
                }
            }
        }
    }

    /// A line of eight random words.
    pub(crate) fn random_line(rng: &mut XorShift) -> Line {
        let mut line = [0u8; 64];
        for word in line.chunks_exact_mut(8) {
            word.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        line
    }

    /// The lockstep test checks roots against a levelwise rebuild, but
    /// never after a tamper, and `recompute_root` shares the tree's
    /// storage. These byte values pin the outputs themselves: after one
    /// seeded sequence of updates and root observations, the root, a
    /// `recompute_root` over the contents with one line corrupted, and the
    /// root once a tampered leaf MAC has fed later parent updates (as
    /// little-endian `u64`s).
    #[test]
    fn fingerprint_is_independent_of_storage_layout() {
        let e = engine();
        let cases: [(u64, u64, [u64; 3]); 3] = [
            (
                0x7E57,
                8,
                [0xfe38953d0325339e, 0x48c559c83b4c34bd, 0xb36b5ba1f60a6b87],
            ),
            (
                0xCAFE,
                64,
                [0x3f2bb9ef5e5d54d0, 0xa9a964af41f1dfa6, 0xee6b9910592fd646],
            ),
            (
                0xF1A7,
                300,
                [0x860fb33783b342e2, 0xa6ad606ea37535b0, 0x16a611942e9dd019],
            ),
        ];
        for (seed, leaves, expect) in cases {
            let mut rng = XorShift::new(seed);
            let mut t = BonsaiMerkleTree::new(leaves, &e);
            let mut contents: BTreeMap<u64, Line> = BTreeMap::new();
            for step in 0..200u64 {
                let idx = rng.next_below(leaves);
                let line = random_line(&mut rng);
                t.update_leaf(&e, idx, &line);
                contents.insert(idx, line);
                if step % 19 == 7 {
                    t.root(&e);
                }
            }
            let root = t.root(&e);
            let rebuilt = BonsaiMerkleTree::recompute_root(&e, leaves, &contents);
            assert_eq!(root, rebuilt);
            if let Some(line) = contents.values_mut().next() {
                line[0] ^= 1;
            }
            let corrupted = BonsaiMerkleTree::recompute_root(&e, leaves, &contents);
            t.tamper_node(&e, 0, leaves - 1, [0xA5; 8]);
            for _ in 0..20 {
                let idx = rng.next_below(leaves);
                t.update_leaf(&e, idx, &random_line(&mut rng));
            }
            let tampered = t.root(&e);
            let got = [root, corrupted, tampered].map(u64::from_le_bytes);
            assert_eq!(got, expect, "{leaves} leaves");
        }
    }
}
