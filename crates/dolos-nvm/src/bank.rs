//! Bank-sharded Write Pending Queues.
//!
//! Real DDR-T/NVM parts expose bank-level parallelism: independent banks
//! service writes concurrently, and only same-bank operations serialize.
//! [`BankSet`] models that by sharding the ADR-protected WPQ into one
//! [`WriteQueue`] per bank plus one *busy-until* timestamp per bank (the
//! per-bank analogue of the controller's old global drain-completion clamp).
//!
//! The shard an address belongs to is a pure function of the line address
//! ([`LineAddr::bank_index`]), so an address always lands in — and
//! coalesces/replays within — the same shard. Slot identity stays global:
//! shard `b`'s local slot `s` is exposed as global slot
//! `b * per_bank_capacity + s`, which is what the Mi-SU pad array is keyed
//! by.
//!
//! With `banks == 1` a `BankSet` is a thin wrapper around a single
//! [`WriteQueue`]: every operation forwards to shard 0 with an identity slot
//! mapping, so timing, statistics, and trace output are byte-identical to
//! the unbanked model (pinned by the lockstep tests in
//! `tests/bankset_props.rs`).

// Strict inside a budgeted crate: the banked WPQ is the ADR domain that a
// crash dumps and recovery replays, so it must never abort.
// tests/lint_policy.rs holds this file at zero panic-lint expects.

use dolos_crypto::mac::Mac64;
use dolos_sim::stats::StatSet;
use dolos_sim::trace::{EventKind, TraceEvent, TraceMode};
use dolos_sim::Cycle;

use crate::{
    addr::LineAddr,
    wpq::{InsertOutcome, WpqEntry, WriteQueue},
    Line,
};

/// A set of per-bank WPQ shards with per-bank drain-busy timestamps.
///
/// # Examples
///
/// ```
/// use dolos_nvm::{addr::LineAddr, bank::BankSet, wpq::InsertOutcome};
/// use dolos_sim::Cycle;
///
/// let mut set = BankSet::new(2, 2);
/// let a = LineAddr::from_index(0); // bank 0
/// let b = LineAddr::from_index(1); // bank 1
/// assert_eq!(set.bank_of(a), 0);
/// assert_eq!(set.bank_of(b), 1);
/// let out = set.try_insert_at(Cycle::ZERO, b, [1; 64], None);
/// // Bank 1's local slot 0 is global slot 2 (1 * per_bank_capacity + 0).
/// assert!(matches!(out, InsertOutcome::Inserted { slot: 2 }));
/// ```
#[derive(Debug, Clone)]
pub struct BankSet {
    shards: Vec<WriteQueue>,
    /// Per-bank drain serialization point: a bank's next drain cannot
    /// complete before its previous drain did.
    busy_until: Vec<Cycle>,
    per_bank_capacity: usize,
}

impl BankSet {
    /// Creates `banks` shards of `per_bank_capacity` slots each.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two or `per_bank_capacity` is
    /// zero.
    pub fn new(banks: usize, per_bank_capacity: usize) -> Self {
        assert!(
            banks.is_power_of_two(),
            "bank count must be a power of two, got {banks}"
        );
        Self {
            shards: (0..banks)
                .map(|_| WriteQueue::new(per_bank_capacity))
                .collect(),
            busy_until: vec![Cycle::ZERO; banks],
            per_bank_capacity,
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.shards.len()
    }

    /// Slots per bank.
    pub fn per_bank_capacity(&self) -> usize {
        self.per_bank_capacity
    }

    /// Total slot count across all banks.
    pub fn capacity(&self) -> usize {
        self.banks() * self.per_bank_capacity
    }

    /// The bank `addr` maps to.
    pub fn bank_of(&self, addr: LineAddr) -> usize {
        addr.bank_index(self.banks())
    }

    /// The bank a global slot belongs to.
    pub fn bank_of_slot(&self, slot: usize) -> usize {
        slot / self.per_bank_capacity
    }

    fn global(&self, bank: usize, local: usize) -> usize {
        bank * self.per_bank_capacity + local
    }

    fn globalize(&self, bank: usize, mut entry: WpqEntry) -> WpqEntry {
        entry.slot = self.global(bank, entry.slot);
        entry
    }

    /// Occupied (live + busy) slots across all banks.
    pub fn len(&self) -> usize {
        self.shards.iter().map(WriteQueue::len).sum()
    }

    /// Occupied slots in one bank.
    pub fn bank_len(&self, bank: usize) -> usize {
        self.shards[bank].len()
    }

    /// Whether every bank is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(WriteQueue::is_empty)
    }

    /// Whether `bank`'s shard is full at its insertion point.
    pub fn is_full(&self, bank: usize) -> bool {
        self.shards[bank].is_full()
    }

    /// The global slot the next insertion into `bank` will occupy, or
    /// `None` if that shard is full.
    pub fn next_insert_slot(&self, bank: usize) -> Option<usize> {
        self.shards[bank]
            .next_insert_slot()
            .map(|local| self.global(bank, local))
    }

    /// The global slot a write to `addr` would coalesce into, if any.
    pub fn coalesce_slot(&self, addr: LineAddr) -> Option<usize> {
        let bank = self.bank_of(addr);
        self.shards[bank]
            .coalesce_slot(addr)
            .map(|local| self.global(bank, local))
    }

    /// Attempts to insert a write into its address's bank, with a cycle
    /// stamp for tracing. Returned slots are global.
    pub fn try_insert_at(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        payload: Line,
        mac: Option<Mac64>,
    ) -> InsertOutcome {
        let bank = self.bank_of(addr);
        match self.shards[bank].try_insert_at(now, addr, payload, mac) {
            InsertOutcome::Inserted { slot } => InsertOutcome::Inserted {
                slot: self.global(bank, slot),
            },
            InsertOutcome::Coalesced { slot } => InsertOutcome::Coalesced {
                slot: self.global(bank, slot),
            },
            InsertOutcome::Full => InsertOutcome::Full,
        }
    }

    /// Sets the MAC of an occupied global slot (Post-WPQ computes MACs
    /// after insertion).
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn set_mac(&mut self, slot: usize, mac: Mac64) {
        let bank = self.bank_of_slot(slot);
        self.shards[bank].set_mac(slot % self.per_bank_capacity, mac);
    }

    /// Looks up the freshest entry for `addr` via its bank's volatile tag
    /// array, returning a copy with a globalized slot.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<WpqEntry> {
        let bank = self.bank_of(addr);
        let entry = *self.shards[bank].lookup(addr)?;
        Some(self.globalize(bank, entry))
    }

    /// Returns the oldest unfetched entry of `bank` and marks it busy, or
    /// `None` if every entry in that bank has been fetched.
    pub fn fetch_oldest(&mut self, bank: usize) -> Option<WpqEntry> {
        let entry = self.shards[bank].fetch_oldest()?;
        Some(self.globalize(bank, entry))
    }

    /// Marks the entry at `slot` (global) cleared, with a cycle stamp.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not its bank's current fetch head or is not busy.
    pub fn clear_at(&mut self, now: Cycle, slot: usize) {
        let bank = self.bank_of_slot(slot);
        self.shards[bank].clear_at(now, slot % self.per_bank_capacity);
    }

    /// Clamps a drain completion time against `bank`'s previous drain:
    /// returns — and records as the new busy-until — the later of the two.
    /// Same-bank drains serialize; different banks proceed independently.
    pub fn note_drain_done(&mut self, bank: usize, done: Cycle) -> Cycle {
        let clamped = self.busy_until[bank].max(done);
        self.busy_until[bank] = clamped;
        clamped
    }

    /// The cycle `bank`'s most recent drain completes.
    pub fn busy_until(&self, bank: usize) -> Cycle {
        self.busy_until[bank]
    }

    /// All occupied entries in drain order, bank-major: bank 0's fetch
    /// order, then bank 1's, and so on — the ADR dump set. Per-address
    /// ordering is preserved because an address always maps to one bank.
    pub fn occupied_in_order(&self) -> Vec<WpqEntry> {
        let mut out = Vec::new();
        for (bank, shard) in self.shards.iter().enumerate() {
            out.extend(
                shard
                    .occupied_in_order()
                    .into_iter()
                    .map(|e| self.globalize(bank, e)),
            );
        }
        out
    }

    /// Empties every shard and rewinds every busy-until clock (after an
    /// ADR drain or recovery replay).
    pub fn clear_all(&mut self) {
        for shard in &mut self.shards {
            shard.clear_all();
        }
        for busy in &mut self.busy_until {
            *busy = Cycle::ZERO;
        }
    }

    /// Disables (or re-enables) every shard's volatile tag array.
    pub fn set_coalescing(&mut self, enabled: bool) {
        for shard in &mut self.shards {
            shard.set_coalescing(enabled);
        }
    }

    /// Installs the event-tracing mode on every shard.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        for shard in &mut self.shards {
            shard.set_trace_mode(mode);
        }
    }

    /// Drains buffered trace events from every shard, bank-major. Each
    /// bank's [`EventKind::WpqOccupancy`] samples are tagged with the bank
    /// index in their `addr` field, so per-bank occupancy is recoverable;
    /// bank 0 keeps `addr == 0`, preserving single-bank byte identity.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for (bank, shard) in self.shards.iter_mut().enumerate() {
            let mut events = shard.take_trace_events();
            for event in &mut events {
                if event.kind == EventKind::WpqOccupancy {
                    event.addr = bank as u64;
                }
            }
            out.extend(events);
        }
        out
    }

    /// Merged statistics: shard counters (inserts, coalesces, full events,
    /// read hits, capacity) sum across banks, so the single-bank snapshot
    /// equals the plain [`WriteQueue`] one.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        for shard in &self.shards {
            s.merge(&shard.stats());
        }
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
    fn slots_are_globalized_per_bank() {
        let mut set = BankSet::new(4, 3);
        // Line indices 0..4 hit banks 0..4 in order (below the fold window).
        for i in 0..4u64 {
            let out = set.try_insert_at(Cycle::ZERO, addr(i), [i as u8; 64], None);
            assert_eq!(
                out,
                InsertOutcome::Inserted {
                    slot: i as usize * 3
                }
            );
        }
        assert_eq!(set.len(), 4);
        for bank in 0..4 {
            assert_eq!(set.bank_len(bank), 1);
        }
    }

    #[test]
    fn full_is_per_bank() {
        let mut set = BankSet::new(2, 1);
        assert!(matches!(
            set.try_insert_at(Cycle::ZERO, addr(0), [0; 64], None),
            InsertOutcome::Inserted { slot: 0 }
        ));
        // Bank 0 is full; a second distinct bank-0 address bounces...
        assert_eq!(
            set.try_insert_at(Cycle::ZERO, addr(2), [1; 64], None),
            InsertOutcome::Full
        );
        // ...but bank 1 still accepts.
        assert!(matches!(
            set.try_insert_at(Cycle::ZERO, addr(1), [2; 64], None),
            InsertOutcome::Inserted { slot: 1 }
        ));
        assert!(set.is_full(0));
        assert!(set.next_insert_slot(0).is_none());
    }

    #[test]
    fn coalescing_stays_within_the_bank() {
        let mut set = BankSet::new(2, 2);
        set.try_insert_at(Cycle::ZERO, addr(1), [1; 64], None);
        assert_eq!(set.coalesce_slot(addr(1)), Some(2));
        let out = set.try_insert_at(Cycle::ZERO, addr(1), [9; 64], None);
        assert_eq!(out, InsertOutcome::Coalesced { slot: 2 });
        assert_eq!(set.lookup(addr(1)).unwrap().payload, [9; 64]);
        assert_eq!(set.lookup(addr(1)).unwrap().slot, 2);
    }

    #[test]
    fn fetch_and_clear_round_trip_globally() {
        let mut set = BankSet::new(2, 2);
        set.try_insert_at(Cycle::ZERO, addr(1), [7; 64], None);
        assert!(set.fetch_oldest(0).is_none());
        let e = set.fetch_oldest(1).unwrap();
        assert_eq!(e.slot, 2);
        assert_eq!(e.payload, [7; 64]);
        set.clear_at(Cycle::new(10), e.slot);
        assert!(set.is_empty());
    }

    #[test]
    fn drain_clamp_serializes_within_a_bank_only() {
        let mut set = BankSet::new(2, 2);
        assert_eq!(set.note_drain_done(0, Cycle::new(100)), Cycle::new(100));
        // An earlier completion in the same bank clamps up.
        assert_eq!(set.note_drain_done(0, Cycle::new(40)), Cycle::new(100));
        // The other bank is unaffected.
        assert_eq!(set.note_drain_done(1, Cycle::new(40)), Cycle::new(40));
        assert_eq!(set.busy_until(0), Cycle::new(100));
        assert_eq!(set.busy_until(1), Cycle::new(40));
        set.clear_all();
        assert_eq!(set.busy_until(0), Cycle::ZERO);
    }

    #[test]
    fn occupied_in_order_is_bank_major() {
        let mut set = BankSet::new(2, 2);
        set.try_insert_at(Cycle::ZERO, addr(1), [1; 64], None); // bank 1
        set.try_insert_at(Cycle::ZERO, addr(0), [0; 64], None); // bank 0
        let order: Vec<u64> = set
            .occupied_in_order()
            .iter()
            .map(|e| e.addr.line_index())
            .collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn occupancy_trace_events_carry_the_bank_index() {
        let mut set = BankSet::new(2, 2);
        set.set_trace_mode(TraceMode::Record);
        set.try_insert_at(Cycle::new(5), addr(0), [0; 64], None); // bank 0
        set.try_insert_at(Cycle::new(6), addr(1), [1; 64], None); // bank 1
        let events = set.take_trace_events();
        let occ: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.kind == EventKind::WpqOccupancy)
            .map(|e| (e.addr, e.value))
            .collect();
        assert_eq!(occ, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn stats_sum_across_banks() {
        let mut set = BankSet::new(2, 2);
        set.try_insert_at(Cycle::ZERO, addr(0), [0; 64], None);
        set.try_insert_at(Cycle::ZERO, addr(1), [1; 64], None);
        set.try_insert_at(Cycle::ZERO, addr(1), [2; 64], None); // coalesce
        let s = set.stats();
        assert_eq!(s.get("wpq.inserts"), Some(2.0));
        assert_eq!(s.get("wpq.coalesces"), Some(1.0));
        assert_eq!(s.get("wpq.capacity"), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_bank_count_panics() {
        let _ = BankSet::new(6, 2);
    }
}
