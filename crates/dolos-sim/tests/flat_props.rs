//! Property tests pinning `flat::FlatMap` against the standard ordered
//! map.
//!
//! `FlatMap` is load-bearing across `dolos-secmem`, `dolos-nvm`, and
//! `dolos-whisper` (it replaced every hasher-seeded `HashMap` in the
//! deterministic crates), so its semantics are pinned here
//! operation-for-operation against `BTreeMap` under seeded op sequences
//! from the in-repo deterministic RNG.

use std::collections::BTreeMap;

use dolos_sim::flat::FlatMap;
use dolos_sim::rng::XorShift;

/// Narrow key space so the op mix hits overwrite/remove-present/get-present
/// paths often, not just the empty-map fast paths.
const KEY_SPACE: u64 = 64;
const OPS: usize = 4000;

#[test]
fn flat_map_matches_btree_map_under_random_ops() {
    for seed in [1u64, 7, 42, 0xDEAD_BEEF, u64::MAX - 3] {
        let mut rng = XorShift::new(seed);
        let mut flat: FlatMap<u64> = FlatMap::new();
        let mut btree: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..OPS {
            let key = rng.next_below(KEY_SPACE);
            match rng.next_below(6) {
                // insert
                0 | 1 => {
                    let value = rng.next_u64();
                    assert_eq!(
                        flat.insert(key, value),
                        btree.insert(key, value),
                        "seed {seed} step {step}: insert({key}) return value diverged"
                    );
                }
                // remove
                2 => {
                    assert_eq!(
                        flat.remove(key),
                        btree.remove(&key),
                        "seed {seed} step {step}: remove({key}) diverged"
                    );
                }
                // get / contains
                3 => {
                    assert_eq!(flat.get(key), btree.get(&key));
                    assert_eq!(flat.contains_key(key), btree.contains_key(&key));
                }
                // entry-style mutate-or-insert
                4 => {
                    let bump = rng.next_below(100);
                    *flat.get_mut_or_insert(key, 0) += bump;
                    *btree.entry(key).or_insert(0) += bump;
                }
                // get_mut on a possibly-absent key
                _ => {
                    let next = rng.next_u64();
                    match (flat.get_mut(key), btree.get_mut(&key)) {
                        (Some(f), Some(b)) => {
                            *f = next;
                            *b = next;
                        }
                        (None, None) => {}
                        (f, b) => panic!(
                            "seed {seed} step {step}: get_mut({key}) presence diverged \
                             (flat {:?} vs btree {:?})",
                            f.map(|v| *v),
                            b.map(|v| *v)
                        ),
                    }
                }
            }
            assert_eq!(flat.len(), btree.len());
            assert_eq!(flat.is_empty(), btree.is_empty());
        }
        // Full-state comparison: same entries, same (ascending) order.
        let flat_entries: Vec<(u64, u64)> = flat.iter().map(|(k, v)| (k, *v)).collect();
        let btree_entries: Vec<(u64, u64)> = btree.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(
            flat_entries, btree_entries,
            "seed {seed}: final state diverged"
        );
        // And iteration really is sorted.
        let keys: Vec<u64> = flat.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}

/// The determinism property the whole migration exists for: two maps built
/// from the same operations in *different orders* end up identical, entry
/// for entry, so anything iterating them (recovery replay, stats export,
/// campaign JSON) is a pure function of the final contents.
#[test]
fn iteration_is_a_pure_function_of_contents() {
    let mut forward: FlatMap<u64> = FlatMap::new();
    let mut shuffled: FlatMap<u64> = FlatMap::new();
    let keys: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    for &k in &keys {
        forward.insert(k, k ^ 1);
    }
    let mut rng = XorShift::new(99);
    let mut order = keys.clone();
    // Fisher-Yates with the deterministic RNG.
    for i in (1..order.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    for &k in &order {
        shuffled.insert(k, k ^ 1);
    }
    assert_eq!(forward, shuffled);
    assert_eq!(
        forward.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>(),
        shuffled.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>()
    );
}
