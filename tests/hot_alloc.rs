//! The steady-state persist path allocates nothing.
//!
//! A thread-local counting `#[global_allocator]` watches one window of a
//! persist/drain/read stream on every design × {eager BMT, lazy ToC}, at
//! four banks. Two warm-ups over the same addresses first touch every NVM
//! page, cache set and queue the window will use. The window must then
//! make zero allocations, and it must do real work: persists, WPQ read
//! hits and (on the designs with a Ma-SU) counter-cache misses are each
//! positive, and every design that can coalesce does so in at least one
//! of its two windows.
//!
//! The stream reaches these persist-path roots: the drain fixpoint
//! `SecureMemorySystem::advance`, `MajorSecurityUnit::pad_for` and
//! `secure_write`, `MinorSecurityUnit::protect`, `decrypt` and
//! `entry_mac`, and `MacEngine::tag_parts` (plus `MacEngine::stream_tag`
//! under the lazy ToC). `MinorSecurityUnit::regenerate_pads` runs only at
//! boot and at the end of recovery, and `MacEngine::tag` only behind
//! `MacEngine::verify`, which no persist path calls; neither is on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dolos::core::{ControllerConfig, ControllerKind, SecureMemorySystem, UpdateScheme};
use dolos::sim::stats::StatSet;
use dolos::sim::Cycle;

thread_local! {
    /// `Some(n)` while this thread counts its allocations.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    // `try_with`: the allocator also serves thread teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    let out = f();
    let n = ALLOCATIONS.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

/// 14 MiB of lines: past the 128 KiB counter cache's 8 MiB reach.
const LINES: u64 = 229_376;
/// Persists per phase (two warm-ups, then the window).
const PHASE: u64 = 4096;
/// Odd and coprime to 7, so the stride visits distinct lines of `LINES`.
const STRIDE: u64 = 40_503;

/// One phase: `PHASE` persists over a fixed stride of lines. Every 8th
/// line is persisted again at once (a coalesce while it is still live in
/// the WPQ) and read back (a WPQ read hit while it is queued).
fn phase(sys: &mut SecureMemorySystem, now: Cycle, version: u8) -> Cycle {
    let mut t = now;
    for i in 0..PHASE {
        let addr = (i * STRIDE % LINES) * 64;
        t = sys.persist_write(t, addr, &[version ^ i as u8; 64]);
        if i % 8 == 7 {
            t = sys.persist_write(t, addr, &[!version; 64]);
            let (done, data) = sys.read(t, addr);
            assert_eq!(data, [!version; 64], "read-back of line {addr:#x}");
            t = done;
        }
    }
    t
}

fn delta(before: &StatSet, after: &StatSet, key: &str) -> f64 {
    after.get(key).unwrap_or(0.0) - before.get(key).unwrap_or(0.0)
}

#[test]
fn steady_state_persist_window_allocates_nothing() {
    let mut failures = Vec::new();
    for kind in ControllerKind::ALL {
        let mut coalesces = 0.0;
        for scheme in [UpdateScheme::EagerMerkle, UpdateScheme::LazyToc] {
            let name = format!("{}/{}", kind.name(), scheme.name());
            let config = ControllerConfig::from(kind)
                .with_scheme(scheme)
                .with_banks(4);
            let mut sys = SecureMemorySystem::new(config);
            let t = phase(&mut sys, Cycle::ZERO, 1);
            let t = phase(&mut sys, t, 2);
            let before = sys.stats();
            let (_, allocations) = count_allocations(|| phase(&mut sys, t, 3));
            let after = sys.stats();

            for key in ["ctrl.persists", "ctrl.read_wpq_hits"] {
                assert!(delta(&before, &after, key) > 0.0, "{name}: no {key}");
            }
            if kind != ControllerKind::IdealNonSecure {
                let misses = delta(&before, &after, "ctr_cache.misses");
                assert!(misses > 0.0, "{name}: the window missed no counter block");
            }
            coalesces += delta(&before, &after, "wpq.coalesces");
            if allocations != 0 {
                failures.push(format!("{name}: {allocations} allocations"));
            }
        }
        // Ideal and the pre-WPQ baseline keep up to 20 writes in flight
        // per bank, more than a bank holds, so every entry starts its drain
        // at insertion and none stays live to coalesce with.
        let drains_at_insert = matches!(
            kind,
            ControllerKind::IdealNonSecure | ControllerKind::PreWpqSecure
        );
        assert!(
            drains_at_insert || coalesces > 0.0,
            "{}: no window coalesced",
            kind.name()
        );
    }
    assert!(
        failures.is_empty(),
        "hot-path allocations:\n{}",
        failures.join("\n")
    );
}

/// The control: the counter is installed, live and thread-local.
#[test]
fn the_counter_sees_an_allocation() {
    let (v, n) = count_allocations(|| std::hint::black_box(vec![0u8; 64]));
    assert_eq!((v.len(), n), (64, 1));
    let (_, n) = count_allocations(|| std::hint::black_box(1u64 + 1));
    assert_eq!(n, 0);
}
