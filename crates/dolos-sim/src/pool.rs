//! Deterministic work-stealing pool for embarrassingly parallel sweeps.
//!
//! Every paper figure and conformance campaign is a sweep of independent
//! (design × workload × schedule) simulation cells. This module runs such a
//! sweep across scoped threads while keeping the one property the harness
//! guarantees everywhere else: **the result is a pure function of the
//! inputs**, independent of thread count and scheduling.
//!
//! Earlier revisions partitioned work statically into contiguous chunks,
//! which idles workers when cell costs are skewed (a whole worker can get
//! stuck behind one straggler figure). The pool now steals:
//!
//! * a shared [`IndexQueue`] cursor hands out small blocks of *schedule
//!   positions* — workers that finish early claim more, so skew costs at
//!   most one block, not one chunk;
//! * which worker runs a cell is a race, but the cell's *result* depends
//!   only on its index: results land in an index-addressed output slab and
//!   are read out in item order, so the output — every byte of downstream
//!   JSON — is exactly what the serial loop produces at any `--jobs`;
//! * [`run_indexed_weighted`] additionally sorts the schedule by a
//!   caller-supplied cost hint (longest first, ties by index) so stragglers
//!   start first and overlap the short tail instead of serializing at the
//!   end;
//! * worker panics are re-raised on the calling thread via
//!   [`std::panic::resume_unwind`], so a failing cell fails the sweep the
//!   same way it would serially.
//!
//! The schedule order and the claim interleaving affect *when* a cell runs,
//! never *what* it returns or where it lands in the output.
//!
//! # Examples
//!
//! ```
//! use dolos_sim::pool;
//!
//! let items: Vec<u64> = (0..100).collect();
//! let serial = pool::run_indexed(1, &items, |i, &x| x * x + i as u64);
//! let parallel = pool::run_indexed(4, &items, |i, &x| x * x + i as u64);
//! assert_eq!(serial, parallel);
//!
//! // Same guarantee with a cost hint: only the schedule changes.
//! let weighted = pool::run_indexed_weighted(4, &items, |_, &x| x, |i, &x| x * x + i as u64);
//! assert_eq!(weighted, serial);
//! ```

use crate::queue::IndexQueue;

/// Resolves a `--jobs` request to a concrete worker count: `0` means "use
/// [`std::thread::available_parallelism`]", and the result is clamped to
/// `[1, items]` so no worker is ever created without work.
pub fn effective_jobs(jobs: usize, items: usize) -> usize {
    let requested = if jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    };
    requested.clamp(1, items.max(1))
}

/// Block of schedule positions claimed per steal. Small enough that a
/// skewed tail costs at most a few cells of imbalance, large enough that
/// the atomic cursor is not contended per cell.
fn steal_block(items: usize, jobs: usize) -> usize {
    (items / (jobs * 8)).clamp(1, 32)
}

/// Maps `f` over `items` with `jobs` workers, returning results in item
/// order regardless of thread count or steal interleaving.
///
/// `f` receives each item's index alongside the item, so stages can derive
/// per-cell labels or seeds without threading them through the item type.
/// With `jobs <= 1` (after [`effective_jobs`] resolution) the map runs
/// inline on the calling thread — the zero-overhead serial path.
///
/// # Panics
///
/// Re-raises the first worker panic (in worker spawn order) on the calling
/// thread.
pub fn run_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs, items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let order: Vec<usize> = (0..items.len()).collect();
    run_stolen(jobs, items, &order, steal_block(items.len(), jobs), &f)
}

/// Like [`run_indexed`], scheduling costly items first.
///
/// `weight` is a deterministic per-item cost hint (higher = start earlier);
/// ties run in index order. The hint shapes only the steal schedule — the
/// returned `Vec` is byte-for-byte what [`run_indexed`] and the serial loop
/// produce. Positions are stolen one at a time so a single long cell never
/// drags its block-mates behind it.
///
/// # Panics
///
/// Re-raises the first worker panic (in worker spawn order) on the calling
/// thread.
pub fn run_indexed_weighted<T, R, W, F>(jobs: usize, items: &[T], weight: W, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    W: Fn(usize, &T) -> u64,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs, items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weight(i, &items[i])), i));
    run_stolen(jobs, items, &order, 1, &f)
}

/// The shared steal loop: workers claim blocks of `order` positions from an
/// atomic cursor, compute into local `(index, result)` pairs, and the caller
/// scatters those into an index-addressed slab after joining in spawn order.
fn run_stolen<T, R, F>(jobs: usize, items: &[T], order: &[usize], block: usize, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let queue = IndexQueue::new(order.len());
    let mut slab: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let queue = &queue;
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(move || {
                    let mut mine: Vec<(usize, R)> = Vec::new();
                    while let Some(positions) = queue.claim(block) {
                        for &idx in &order[positions] {
                            mine.push((idx, f(idx, &items[idx])));
                        }
                    }
                    mine
                })
            })
            .collect();
        // Join in spawn order; the slab, not the join order, fixes the
        // output order.
        for handle in handles {
            match handle.join() {
                Ok(pairs) => {
                    for (idx, result) in pairs {
                        slab[idx] = Some(result);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    // Every position was claimed exactly once, so every slot is filled.
    let out: Vec<R> = slab.into_iter().flatten().collect();
    assert_eq!(out.len(), items.len(), "steal schedule missed a cell");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_order_is_independent_of_thread_count() {
        let items: Vec<u64> = (0..97).collect(); // not a multiple of any job count
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for jobs in [0usize, 1, 2, 3, 7, 16, 200] {
            let got = run_indexed(jobs, &items, |_, &x| x * 3 + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn indices_match_item_positions() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = run_indexed(2, &items, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        let got: Vec<u32> = run_indexed(4, &items, |_, &x| x);
        assert!(got.is_empty());
        let weighted: Vec<u32> = run_indexed_weighted(4, &items, |_, &x| x as u64, |_, &x| x);
        assert!(weighted.is_empty());
    }

    #[test]
    fn effective_jobs_resolves_auto_and_clamps() {
        assert!(effective_jobs(0, 100) >= 1);
        assert_eq!(effective_jobs(8, 3), 3); // never more workers than items
        assert_eq!(effective_jobs(8, 0), 1);
        assert_eq!(effective_jobs(2, 100), 2);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..10).collect();
        let result = std::panic::catch_unwind(|| {
            run_indexed(3, &items, |_, &x| {
                assert!(x != 7, "boom at {x}");
                x
            })
        });
        assert!(result.is_err());
    }

    /// Deterministic per-(seed, index) pseudo-random sleep, so the steal
    /// interleaving differs run to run without touching ambient entropy.
    fn skewed_sleep(seed: u64, i: usize) {
        let mut x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        std::thread::sleep(std::time::Duration::from_micros(x % 200));
    }

    #[test]
    fn stolen_output_is_byte_identical_to_serial_under_sleep_skew() {
        let items: Vec<u64> = (0..61).collect();
        for seed in [1u64, 2, 3] {
            let serial: Vec<String> = items
                .iter()
                .enumerate()
                .map(|(i, &x)| format!("{i}/{x}/{seed}"))
                .collect();
            for jobs in [1usize, 2, 7, 16] {
                let got = run_indexed(jobs, &items, |i, &x| {
                    skewed_sleep(seed, i);
                    format!("{i}/{x}/{seed}")
                });
                assert_eq!(got, serial, "jobs={jobs} seed={seed}");
            }
        }
    }

    #[test]
    fn weighted_output_is_byte_identical_to_serial_under_sleep_skew() {
        let items: Vec<u64> = (0..61).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 7 + 3).collect();
        for jobs in [1usize, 2, 7, 16] {
            // Adversarial hint: schedule in reverse item order.
            let got = run_indexed_weighted(
                jobs,
                &items,
                |i, _| i as u64,
                |i, &x| {
                    skewed_sleep(jobs as u64, i);
                    x * 7 + 3
                },
            );
            assert_eq!(got, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn weighted_ties_and_constant_hints_still_reproduce_serial() {
        let items: Vec<u64> = (0..33).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        let got = run_indexed_weighted(5, &items, |_, _| 42, |_, &x| x + 1);
        assert_eq!(got, serial);
    }

    #[test]
    fn panic_in_stolen_cell_resumes_on_caller() {
        let items: Vec<u32> = (0..40).collect();
        for jobs in [2usize, 7] {
            let result = std::panic::catch_unwind(|| {
                run_indexed_weighted(
                    jobs,
                    &items,
                    |i, _| i as u64 % 5,
                    |_, &x| {
                        if x == 31 {
                            panic!("stolen cell failure at {x}");
                        }
                        x
                    },
                )
            });
            let err = result.expect_err("panic must reach the caller");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("stolen cell failure"), "jobs={jobs}: {msg}");
        }
    }
}
