//! The ADR-protected Write Pending Queue (WPQ).
//!
//! The WPQ is a strict circular buffer, exactly as the paper manages it
//! (§4.3): insertion happens at `next_insert`, the Ma-SU fetches at
//! `next_fetch`, and each entry carries a *cleared* bit that is set once the
//! Ma-SU has fully processed it. Insertion fails — and the core retries —
//! when the slot at `next_insert` has not been cleared yet.
//!
//! Slot identity matters for security: the Mi-SU pre-generates one encryption
//! pad *per slot*, so an entry is always encrypted with the pad of the slot
//! it occupies.
//!
//! A **volatile tag array** (paper §4.5) holds each slot's plaintext
//! address, enabling write coalescing and read hits without decrypting
//! entries. A lookup scans the occupied slots' tags newest first: the queue
//! holds at most a few dozen entries, so the scan is a handful of compares
//! over one compact array, and there is no index to keep in step.

use dolos_crypto::mac::Mac64;
use dolos_sim::stats::StatSet;
use dolos_sim::trace::{EventKind, TraceEvent, TraceMode, TraceSink};
use dolos_sim::Cycle;

use crate::{addr::LineAddr, Line};

/// One occupied WPQ slot: the (Mi-SU-encrypted) payload and its metadata.
/// All fields are plain value types; `Copy` keeps the drain path's
/// fetch-oldest handoff allocation- and clone-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WpqEntry {
    /// The cacheline address this write targets.
    pub addr: LineAddr,
    /// The 64-byte payload, encrypted with this slot's Mi-SU pad.
    pub payload: Line,
    /// The per-entry MAC (Partial/Post designs); `None` in Full-WPQ.
    pub mac: Option<Mac64>,
    /// The slot this entry occupies (determines its encryption pad).
    pub slot: usize,
}

/// Result of attempting to insert a write into the WPQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new slot was allocated.
    Inserted {
        /// The allocated slot index.
        slot: usize,
    },
    /// The write was merged into an existing live entry for the same address.
    Coalesced {
        /// The slot that absorbed the write.
        slot: usize,
    },
    /// The queue is full; the requester must retry later.
    Full,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Free,
    /// Inserted, not yet picked up by the Ma-SU; eligible for coalescing.
    Live(WpqEntry),
    /// Fetched by the Ma-SU, processing in flight; not eligible for
    /// coalescing, still occupies ADR budget until cleared.
    Busy(WpqEntry),
}

impl Slot {
    fn entry(&self) -> Option<&WpqEntry> {
        match self {
            Slot::Free => None,
            Slot::Live(e) | Slot::Busy(e) => Some(e),
        }
    }
}

/// The Write Pending Queue.
///
/// # Examples
///
/// ```
/// use dolos_nvm::{addr::LineAddr, wpq::{InsertOutcome, WriteQueue}};
///
/// let mut wpq = WriteQueue::new(2);
/// let a = LineAddr::new(0).unwrap();
/// assert!(matches!(wpq.try_insert(a, [1; 64], None), InsertOutcome::Inserted { .. }));
/// // Same address coalesces instead of consuming a slot.
/// assert!(matches!(wpq.try_insert(a, [2; 64], None), InsertOutcome::Coalesced { .. }));
/// assert_eq!(wpq.len(), 1);
/// assert_eq!(wpq.lookup(a).unwrap().payload, [2; 64]);
/// ```
#[derive(Debug, Clone)]
pub struct WriteQueue {
    slots: Vec<Slot>,
    next_insert: usize,
    next_fetch: usize,
    next_scan: usize,
    live: usize,
    /// Whether the volatile tag array exists (write coalescing + read hits,
    /// §4.5). Disabled only by ablation configurations.
    coalescing: bool,
    /// The tag array: the raw line address each slot was last filled for.
    /// Only occupied slots' tags are read, so freeing a slot leaves its
    /// tag as it is.
    tags: Vec<u64>,
    inserts: u64,
    coalesces: u64,
    full_events: u64,
    read_hits: u64,
    /// Event sink for the cycle-stamped insert/retire/occupancy trace.
    trace: TraceSink,
}

impl WriteQueue {
    /// Creates a queue with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "WPQ capacity must be non-zero");
        Self {
            slots: vec![Slot::Free; capacity],
            next_insert: 0,
            next_fetch: 0,
            next_scan: 0,
            live: 0,
            coalescing: true,
            tags: vec![0; capacity],
            inserts: 0,
            coalesces: 0,
            full_events: 0,
            read_hits: 0,
            trace: TraceSink::Null,
        }
    }

    /// Installs the event-tracing mode (discarding any buffered events).
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace = TraceSink::from_mode(mode);
    }

    /// Drains buffered trace events (empty when tracing is off).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied (live + busy) slots.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether insertion at `next_insert` would fail right now.
    pub fn is_full(&self) -> bool {
        !matches!(self.slots[self.next_insert], Slot::Free)
    }

    /// The slot the next (non-coalescing) insertion will occupy, or `None`
    /// if the queue is full. The Mi-SU needs this to pick the encryption pad
    /// before the entry is written into the queue.
    pub fn next_insert_slot(&self) -> Option<usize> {
        (!self.is_full()).then_some(self.next_insert)
    }

    /// The tag-array lookup: the slot of the newest occupied entry for
    /// `addr`. The occupied slots are the `live` slots before
    /// `next_insert`, so the scan walks back from there. Entries clear
    /// oldest first, so while any copy of `addr` is queued the newest one
    /// is too.
    fn tag(&self, addr: LineAddr) -> Option<usize> {
        let addr = addr.as_u64();
        let newest = self.next_insert;
        let below = self.live.min(newest);
        if let Some(i) = self.tags[newest - below..newest]
            .iter()
            .rposition(|&t| t == addr)
        {
            return Some(newest - below + i);
        }
        let wrapped = self.tags.len() - (self.live - below);
        self.tags[wrapped..]
            .iter()
            .rposition(|&t| t == addr)
            .map(|i| wrapped + i)
    }

    /// The slot a write to `addr` would coalesce into, if any.
    pub fn coalesce_slot(&self, addr: LineAddr) -> Option<usize> {
        if !self.coalescing {
            return None;
        }
        let slot = self.tag(addr)?;
        matches!(self.slots[slot], Slot::Live(_)).then_some(slot)
    }

    /// Disables (or re-enables) the volatile tag array — coalescing and
    /// read hits stop working, as in the ablation study.
    pub fn set_coalescing(&mut self, enabled: bool) {
        self.coalescing = enabled;
    }

    /// Attempts to insert a write.
    ///
    /// If a live (not yet fetched) entry for the same address exists, the
    /// write coalesces into it in place — reusing the slot and therefore the
    /// slot's encryption pad. Otherwise a new slot is allocated at
    /// `next_insert`; if that slot has not been cleared yet the queue is full
    /// and [`InsertOutcome::Full`] is returned.
    pub fn try_insert(
        &mut self,
        addr: LineAddr,
        payload: Line,
        mac: Option<Mac64>,
    ) -> InsertOutcome {
        if let Some(slot) = self.coalesce_slot(addr) {
            if let Slot::Live(entry) = &mut self.slots[slot] {
                entry.payload = payload;
                entry.mac = mac;
                self.coalesces += 1;
                return InsertOutcome::Coalesced { slot };
            }
        }
        if self.is_full() {
            self.full_events += 1;
            return InsertOutcome::Full;
        }
        let slot = self.next_insert;
        self.slots[slot] = Slot::Live(WpqEntry {
            addr,
            payload,
            mac,
            slot,
        });
        self.tags[slot] = addr.as_u64();
        self.next_insert = (self.next_insert + 1) % self.slots.len();
        self.live += 1;
        self.inserts += 1;
        InsertOutcome::Inserted { slot }
    }

    /// [`WriteQueue::try_insert`] with a cycle stamp: when tracing is on,
    /// successful inserts emit [`EventKind::WpqInsert`]/
    /// [`EventKind::WpqCoalesce`] plus an [`EventKind::WpqOccupancy`] sample
    /// carrying the live occupancy after the operation. Timing-neutral: the
    /// outcome is exactly `try_insert`'s.
    pub fn try_insert_at(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        payload: Line,
        mac: Option<Mac64>,
    ) -> InsertOutcome {
        let outcome = self.try_insert(addr, payload, mac);
        if self.trace.is_enabled() {
            let occupancy = self.live as u64;
            match outcome {
                InsertOutcome::Inserted { .. } => {
                    self.trace
                        .instant(EventKind::WpqInsert, now, addr.as_u64(), occupancy);
                    self.trace
                        .instant(EventKind::WpqOccupancy, now, 0, occupancy);
                }
                InsertOutcome::Coalesced { .. } => {
                    self.trace
                        .instant(EventKind::WpqCoalesce, now, addr.as_u64(), occupancy);
                    self.trace
                        .instant(EventKind::WpqOccupancy, now, 0, occupancy);
                }
                // The requester's stall is the controller's event
                // (EventKind::FenceStall); a full queue changes nothing here.
                InsertOutcome::Full => {}
            }
        }
        outcome
    }

    /// [`WriteQueue::clear`] with a cycle stamp: when tracing is on, emits
    /// [`EventKind::WpqRetire`] plus an [`EventKind::WpqOccupancy`] sample
    /// carrying the live occupancy after the retire.
    ///
    /// # Panics
    ///
    /// As [`WriteQueue::clear`].
    pub fn clear_at(&mut self, now: Cycle, slot: usize) {
        let addr = if self.trace.is_enabled() {
            self.slots[slot].entry().map(|e| e.addr.as_u64())
        } else {
            None
        };
        self.clear(slot);
        if let Some(addr) = addr {
            let occupancy = self.live as u64;
            self.trace
                .instant(EventKind::WpqRetire, now, addr, occupancy);
            self.trace
                .instant(EventKind::WpqOccupancy, now, 0, occupancy);
        }
    }

    /// Sets the MAC of an occupied slot (Post-WPQ computes MACs after
    /// insertion).
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn set_mac(&mut self, slot: usize, mac: Mac64) {
        match &mut self.slots[slot] {
            Slot::Live(e) | Slot::Busy(e) => e.mac = Some(mac),
            #[expect(clippy::panic, reason = "documented panic: the slot is free")]
            Slot::Free => panic!("set_mac on a free WPQ slot"),
        }
    }

    /// Looks up the freshest entry for `addr` via the volatile tag array.
    ///
    /// Counts as a read hit when it succeeds. Always misses when the tag
    /// array is disabled.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<&WpqEntry> {
        if !self.coalescing {
            return None;
        }
        let slot = self.tag(addr)?;
        let entry = self.slots[slot].entry()?;
        self.read_hits += 1;
        Some(entry)
    }

    /// Returns the oldest unfetched entry and marks it busy, or `None` if
    /// every entry has already been fetched.
    ///
    /// The Ma-SU fetches entries strictly in insertion order; multiple
    /// fetched entries may be in flight in its pipelined engine at once, but
    /// they *clear* in order (see [`WriteQueue::clear`]).
    pub fn fetch_oldest(&mut self) -> Option<WpqEntry> {
        let idx = self.next_scan;
        match &self.slots[idx] {
            Slot::Live(_) => {}
            _ => return None,
        }
        #[expect(clippy::unreachable, reason = "the match above checked Live")]
        let Slot::Live(entry) = std::mem::replace(&mut self.slots[idx], Slot::Free) else {
            unreachable!("checked above");
        };
        let copy = entry;
        self.slots[idx] = Slot::Busy(entry);
        self.next_scan = (self.next_scan + 1) % self.slots.len();
        Some(copy)
    }

    /// Marks the entry at the fetch head cleared (fully processed) and
    /// advances `next_fetch`. This is step ④ of the Ma-SU pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not the current fetch head or the slot is not
    /// busy — the Ma-SU clears entries strictly in order.
    pub fn clear(&mut self, slot: usize) {
        assert_eq!(slot, self.next_fetch, "WPQ entries clear in order");
        #[expect(clippy::panic, reason = "documented panic: clears run in order")]
        let Slot::Busy(_) = std::mem::replace(&mut self.slots[slot], Slot::Free) else {
            panic!("clearing a WPQ slot that is not busy");
        };
        self.live -= 1;
        self.next_fetch = (self.next_fetch + 1) % self.slots.len();
    }

    /// All occupied entries in drain (fetch) order — the ADR dump set.
    pub fn occupied_in_order(&self) -> Vec<WpqEntry> {
        let cap = self.slots.len();
        let mut out = Vec::new();
        for i in 0..cap {
            let idx = (self.next_fetch + i) % cap;
            if let Some(e) = self.slots[idx].entry() {
                out.push(*e);
            }
        }
        out
    }

    /// Empties the queue (after an ADR drain or recovery replay).
    pub fn clear_all(&mut self) {
        for slot in &mut self.slots {
            *slot = Slot::Free;
        }
        self.live = 0;
        self.next_insert = 0;
        self.next_fetch = 0;
        self.next_scan = 0;
    }

    /// Snapshots queue statistics.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("wpq.inserts", self.inserts as f64);
        s.set("wpq.coalesces", self.coalesces as f64);
        s.set("wpq.full_events", self.full_events as f64);
        s.set("wpq.read_hits", self.read_hits as f64);
        s.set("wpq.capacity", self.capacity() as f64);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> LineAddr {
        LineAddr::from_index(n)
    }

    #[test]
    fn inserts_fill_slots_in_order() {
        let mut q = WriteQueue::new(3);
        for i in 0..3 {
            match q.try_insert(addr(i), [i as u8; 64], None) {
                InsertOutcome::Inserted { slot } => assert_eq!(slot, i as usize),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(q.is_full());
        assert_eq!(q.try_insert(addr(9), [0; 64], None), InsertOutcome::Full);
    }

    #[test]
    fn coalescing_reuses_slot_and_pad_identity() {
        let mut q = WriteQueue::new(2);
        q.try_insert(addr(5), [1; 64], None);
        let out = q.try_insert(addr(5), [2; 64], None);
        assert_eq!(out, InsertOutcome::Coalesced { slot: 0 });
        assert_eq!(q.len(), 1);
        assert_eq!(q.lookup(addr(5)).unwrap().payload, [2; 64]);
    }

    #[test]
    fn busy_entries_do_not_coalesce() {
        let mut q = WriteQueue::new(4);
        q.try_insert(addr(5), [1; 64], None);
        let fetched = q.fetch_oldest().unwrap();
        assert_eq!(fetched.slot, 0);
        // Same address now allocates a fresh slot.
        let out = q.try_insert(addr(5), [2; 64], None);
        assert_eq!(out, InsertOutcome::Inserted { slot: 1 });
        // Tag array points at the freshest copy.
        assert_eq!(q.lookup(addr(5)).unwrap().payload, [2; 64]);
        // Clearing the stale Busy copy leaves the fresh copy readable.
        q.clear(fetched.slot);
        assert_eq!(q.lookup(addr(5)).unwrap().payload, [2; 64]);
        // Once fetched, the fresh copy is Busy but still the one read, not
        // the cleared slot.
        let fresh = q.fetch_oldest().unwrap();
        assert_eq!(fresh.slot, 1);
        let hit = q.lookup(addr(5)).unwrap();
        assert_eq!((hit.slot, hit.payload), (1, [2; 64]));
        assert_eq!(q.coalesce_slot(addr(5)), None);
    }

    #[test]
    fn fetch_and_clear_cycle_the_ring() {
        let mut q = WriteQueue::new(2);
        q.try_insert(addr(0), [0; 64], None);
        q.try_insert(addr(1), [1; 64], None);
        assert!(q.is_full());
        let e = q.fetch_oldest().unwrap();
        // Fetched-but-not-cleared still occupies the slot.
        assert!(q.is_full());
        q.clear(e.slot);
        assert!(!q.is_full());
        // Ring wraps: new insert lands in slot 0.
        assert_eq!(
            q.try_insert(addr(2), [2; 64], None),
            InsertOutcome::Inserted { slot: 0 }
        );
    }

    #[test]
    fn fetch_on_empty_returns_none() {
        let mut q = WriteQueue::new(2);
        assert!(q.fetch_oldest().is_none());
        q.try_insert(addr(0), [0; 64], None);
        let e = q.fetch_oldest().unwrap();
        // Only one entry: nothing further to fetch while it is in flight.
        assert!(q.fetch_oldest().is_none());
        q.clear(e.slot);
        assert!(q.fetch_oldest().is_none());
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_clear_panics() {
        let mut q = WriteQueue::new(3);
        q.try_insert(addr(0), [0; 64], None);
        q.try_insert(addr(1), [1; 64], None);
        let _ = q.fetch_oldest().unwrap();
        q.clear(1);
    }

    #[test]
    fn occupied_in_order_is_fetch_order() {
        let mut q = WriteQueue::new(3);
        q.try_insert(addr(10), [0; 64], None);
        q.try_insert(addr(11), [1; 64], None);
        let e = q.fetch_oldest().unwrap();
        q.clear(e.slot);
        q.try_insert(addr(12), [2; 64], None);
        let order: Vec<u64> = q
            .occupied_in_order()
            .iter()
            .map(|e| e.addr.line_index())
            .collect();
        assert_eq!(order, vec![11, 12]);
    }

    #[test]
    fn set_mac_updates_entry() {
        let mut q = WriteQueue::new(2);
        q.try_insert(addr(0), [0; 64], None);
        q.set_mac(0, [9; 8]);
        assert_eq!(q.lookup(addr(0)).unwrap().mac, Some([9; 8]));
    }

    #[test]
    fn clear_all_resets_ring() {
        let mut q = WriteQueue::new(2);
        q.try_insert(addr(0), [0; 64], None);
        q.clear_all();
        assert!(q.is_empty());
        assert!(!q.is_full());
        assert!(q.lookup(addr(0)).is_none());
    }

    #[test]
    fn traced_ops_emit_occupancy_samples_without_changing_outcomes() {
        let mut plain = WriteQueue::new(2);
        let mut traced = WriteQueue::new(2);
        traced.set_trace_mode(TraceMode::Record);
        let t = Cycle::new(7);
        for (i, a) in [0u64, 0, 1].iter().enumerate() {
            let expect = plain.try_insert(addr(*a), [i as u8; 64], None);
            let got = traced.try_insert_at(t, addr(*a), [i as u8; 64], None);
            assert_eq!(expect, got);
        }
        let e = traced.fetch_oldest().unwrap();
        traced.clear_at(Cycle::new(9), e.slot);
        let events = traced.take_trace_events();
        let occupancy: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::WpqOccupancy)
            .map(|e| e.value)
            .collect();
        // insert(1), coalesce(1), insert(2), retire(1).
        assert_eq!(occupancy, vec![1, 1, 2, 1]);
        assert!(events.iter().any(|e| e.kind == EventKind::WpqCoalesce));
        assert!(events.iter().any(|e| e.kind == EventKind::WpqRetire));
        // An untraced queue emits nothing.
        assert!(plain.take_trace_events().is_empty());
    }

    #[test]
    fn stats_track_events() {
        let mut q = WriteQueue::new(1);
        q.try_insert(addr(0), [0; 64], None);
        q.try_insert(addr(1), [1; 64], None); // full
        q.try_insert(addr(0), [2; 64], None); // coalesce
        let s = q.stats();
        assert_eq!(s.get("wpq.inserts"), Some(1.0));
        assert_eq!(s.get("wpq.full_events"), Some(1.0));
        assert_eq!(s.get("wpq.coalesces"), Some(1.0));
    }
}
