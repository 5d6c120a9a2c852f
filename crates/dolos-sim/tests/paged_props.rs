//! Property tests pinning `paged::PagedTable` against the standard ordered
//! map.
//!
//! `PagedTable` holds every `u64`-keyed table of the simulator, from the
//! NVM device's lines to the integrity trees' node levels, so its semantics
//! are pinned here operation for operation against `BTreeMap` under seeded op sequences
//! from the in-repo deterministic RNG. Keys cluster on page (64 keys) and
//! chunk boundaries, and include key 0, the line of address 2^63 − 64 (the
//! top of the data space a trace may name) and metadata lines above it.

use std::collections::BTreeMap;

use dolos_sim::paged::{PagedTable, CHUNK_PAGES, PAGE_SLOTS};
use dolos_sim::rng::XorShift;

const OPS: usize = 6000;

/// Keys per chunk of the directory.
const CHUNK_KEYS: u64 = (PAGE_SLOTS * CHUNK_PAGES) as u64;

/// Anchors the keys cluster around: page and chunk boundaries, and the
/// edges of the device's address space in line indexes.
fn anchors() -> Vec<u64> {
    let top_data_line = ((1u64 << 63) - 64) / 64;
    vec![
        0,
        PAGE_SLOTS as u64,
        CHUNK_KEYS,
        3 * CHUNK_KEYS,
        top_data_line,
        top_data_line + 1,
        top_data_line + CHUNK_KEYS,
        u64::MAX / 64,
        u64::MAX - 70,
    ]
}

/// A key within a few slots of a random anchor, either side.
fn key(rng: &mut XorShift, anchors: &[u64]) -> u64 {
    let base = anchors[rng.next_below(anchors.len() as u64) as usize];
    let offset = rng.next_below(140);
    if rng.next_below(2) == 0 {
        base.saturating_add(offset)
    } else {
        base.saturating_sub(offset)
    }
}

fn entries<'a>(it: impl Iterator<Item = (u64, &'a u64)>) -> Vec<(u64, u64)> {
    it.map(|(k, v)| (k, *v)).collect()
}

#[test]
fn paged_table_matches_btree_map_under_random_ops() {
    let anchors = anchors();
    for seed in [1u64, 7, 42, 0xDEAD_BEEF, u64::MAX - 3] {
        let mut rng = XorShift::new(seed);
        let mut paged: PagedTable<u64> = PagedTable::new();
        let mut btree: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..OPS {
            let k = key(&mut rng, &anchors);
            match rng.next_below(10) {
                // entry-style mutate-or-insert
                0..=2 => {
                    let bump = rng.next_below(100);
                    *paged.entry(k) += bump;
                    *btree.entry(k).or_default() += bump;
                }
                // insert-if-absent with a value
                3 => {
                    let v = rng.next_u64();
                    assert_eq!(
                        *paged.get_or_insert_with(k, || v),
                        *btree.entry(k).or_insert(v),
                        "seed {seed} step {step}: get_or_insert_with({k})"
                    );
                }
                // get / contains / update in place
                4 | 5 => {
                    assert_eq!(paged.get(k), btree.get(&k), "seed {seed} step {step}");
                    assert_eq!(paged.contains_key(k), btree.contains_key(&k));
                    match (paged.get_mut(k), btree.get_mut(&k)) {
                        (Some(p), Some(b)) => {
                            *p ^= step as u64;
                            *b ^= step as u64;
                        }
                        (None, None) => {}
                        _ => panic!("seed {seed} step {step}: get_mut({k}) diverged"),
                    }
                }
                6 => {
                    assert_eq!(paged.remove(k), btree.remove(&k), "seed {seed} step {step}");
                }
                // range with unaligned ends, either order
                7 | 8 => {
                    let end = key(&mut rng, &anchors);
                    let want: Vec<(u64, u64)> = if k < end {
                        btree.range(k..end).map(|(&k, &v)| (k, v)).collect()
                    } else {
                        Vec::new()
                    };
                    assert_eq!(
                        entries(paged.range(k, end)),
                        want,
                        "seed {seed} step {step}: range({k}, {end})"
                    );
                }
                // rarely, start over
                _ if rng.next_below(40) == 0 => {
                    paged.clear();
                    btree.clear();
                }
                _ => {}
            }
            assert_eq!(paged.len(), btree.len(), "seed {seed} step {step}");
            assert_eq!(paged.is_empty(), btree.is_empty());
        }
        assert_eq!(
            entries(paged.iter()),
            entries(btree.iter().map(|(&k, v)| (k, v))),
            "seed {seed}: final state diverged"
        );
        // Equality sees contents only: the same entries inserted in the
        // opposite order, without the pages `remove` emptied, compare equal.
        let mut rebuilt: PagedTable<u64> = PagedTable::new();
        for (&k, &v) in btree.iter().rev() {
            *rebuilt.entry(k) = v;
        }
        assert_eq!(rebuilt, paged, "seed {seed}");
        if let Some((&k, _)) = btree.iter().next() {
            rebuilt.remove(k);
            assert_ne!(rebuilt, paged, "seed {seed}");
        }
    }
}

#[test]
fn range_bounds_at_page_and_chunk_edges() {
    let mut paged: PagedTable<u64> = PagedTable::new();
    let mut btree: BTreeMap<u64, u64> = BTreeMap::new();
    let mut edges = Vec::new();
    for a in anchors() {
        for d in [0u64, 1, 63, 64, 65] {
            edges.extend([a.saturating_sub(d), a.saturating_add(d)]);
        }
    }
    edges.extend([u64::MAX - 1, u64::MAX]);
    for (i, &k) in edges.iter().enumerate() {
        if i % 3 != 1 || k == u64::MAX {
            *paged.entry(k) = k;
            btree.insert(k, k);
        }
    }
    for &start in &edges {
        for &end in &edges {
            let want: Vec<(u64, u64)> = if start < end {
                btree.range(start..end).map(|(&k, &v)| (k, v)).collect()
            } else {
                Vec::new()
            };
            assert_eq!(
                entries(paged.range(start, end)),
                want,
                "range({start}, {end})"
            );
        }
    }
    assert_eq!(paged.range(7, 7).count(), 0);
    assert_eq!(paged.range(u64::MAX, 0).count(), 0);
    assert_eq!(paged.iter().last(), Some((u64::MAX, &u64::MAX)));
}
