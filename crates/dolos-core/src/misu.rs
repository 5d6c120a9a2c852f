//! The Minor Security Unit (Mi-SU), §4.3.
//!
//! The Mi-SU protects only the WPQ, and only for the one moment that
//! matters: the ADR drain after a power failure. Its design exploits two
//! properties of the WPQ: it is tiny, and its encryption pads can be
//! pre-generated, because each slot's pad depends only on (slot, persistent
//! counter register) — values known at boot.
//!
//! Pads are generated with AES-CTR where the counter for slot `s` is
//! `persistent_counter + s`. The persistent counter register advances by the
//! physical WPQ size on every recovery, so a (slot, counter) pair is exposed
//! to the attacker at most once: the single drain in which it reached NVM.
//! Re-using a pad for successive entries *within* a run is safe because only
//! the final occupant of a slot is ever drained.
//!
//! Addresses are kept in the parallel volatile tag array rather than being
//! encrypted, one of the two equivalent options of §4.5 (the attacker
//! observes addresses on the bus during normal operation anyway).
//!
//! The three design options trade critical-path MACs against usable WPQ
//! entries; see [`MiSuKind`].

use dolos_crypto::aes::Aes128;
use dolos_crypto::ctr::{pad_into, xor_in_place, IvBuilder};
use dolos_crypto::mac::{Mac64, MacEngine};
use dolos_nvm::addr::LineAddr;
use dolos_nvm::wpq::WpqEntry;
use dolos_nvm::{Line, NvmDevice};
use dolos_secmem::layout::MetadataLayout;
use dolos_sim::trace::{EventKind, TraceEvent, TraceMode, TraceSink};
use dolos_sim::Cycle;

use crate::config::MiSuKind;
use crate::error::SecurityError;

/// Sentinel for an empty slot in the dumped address table.
const EMPTY_SLOT: u64 = u64::MAX;

/// Storage overhead of one Mi-SU instance (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiSuStorage {
    /// Persistent counter register bytes.
    pub persistent_counter_bytes: usize,
    /// Persistent MAC register bytes.
    pub mac_bytes: usize,
    /// Pre-generated pad storage bytes.
    pub pad_bytes: usize,
    /// Volatile tag-array bytes enabling coalescing (§5.5: 8 B per slot).
    pub tag_array_bytes: usize,
}

/// The Minor Security Unit.
///
/// # Examples
///
/// ```
/// use dolos_core::misu::MinorSecurityUnit;
/// use dolos_core::MiSuKind;
/// use dolos_sim::Cycle;
///
/// let mut misu = MinorSecurityUnit::new(MiSuKind::Partial, 16, 0xD0105);
/// assert_eq!(misu.usable_entries(), 13);
///
/// let plaintext = [7u8; 64];
/// let addr = dolos_nvm::LineAddr::new(0x40).unwrap();
/// assert!(!misu.is_busy(Cycle::ZERO));
/// let (done, ciphertext, mac) = misu.protect(Cycle::ZERO, 0, addr, &plaintext);
/// assert_eq!(done.as_u64(), 160); // one MAC in the critical path
/// assert!(mac.is_some());
/// assert_eq!(misu.decrypt(0, &ciphertext), plaintext);
/// ```
#[derive(Debug, Clone)]
pub struct MinorSecurityUnit {
    kind: MiSuKind,
    physical_entries: usize,
    usable_entries: usize,
    aes: Aes128,
    mac: MacEngine,
    mac_latency: u64,
    /// Persistent in-processor register: base counter of the current epoch.
    persistent_counter: u64,
    /// Pre-generated per-slot pads (regenerated at boot / after drain).
    pads: Vec<Line>,
    /// Full design: persistent per-slot leaf-MAC registers.
    leaf_macs: Vec<Mac64>,
    /// Full design: persistent WPQ root register.
    root: Mac64,
    /// Full design: `root` lags the leaf MACs (host-time memoization).
    ///
    /// The root is a pure function of `leaf_macs`, and nothing observes it
    /// between writes — only an ADR drain (and the recovery that replays
    /// it) compares against the register. Deferring the streaming recompute
    /// from every protect/clear to the drain point keeps the register
    /// value-identical at every observation while skipping the per-write
    /// host MAC chain. Simulated MAC latency is still charged per write by
    /// [`Self::protect`], so this moves no simulated cycle.
    root_dirty: bool,
    /// Persistent dump-table register: MAC over the address, MAC, and
    /// drain-order tables written by the last ADR dump. Protects the dump's
    /// *structure* — without it an attacker could splice a stale order
    /// table into a fresh dump and silently drop or reorder replay.
    table_root: Mac64,
    /// Next cycle at which the pipelined MAC engine can accept work.
    engine_next_issue: Cycle,
    /// Post design: completion time of the in-flight deferred MAC.
    deferred_busy_until: Cycle,
    /// Post design: number of writes that found the unit busy.
    busy_rejections: u64,
    /// Event sink for the cycle-stamped MAC begin/end spans.
    trace: TraceSink,
}

impl MinorSecurityUnit {
    /// Creates a Mi-SU for a physical WPQ of `physical_entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `physical_entries` is zero.
    pub fn new(kind: MiSuKind, physical_entries: usize, key_seed: u64) -> Self {
        Self::with_geometry(
            kind,
            1,
            physical_entries,
            key_seed,
            dolos_crypto::latency::MAC_LATENCY,
        )
    }

    /// Creates a Mi-SU for a bank-sharded WPQ: `banks` shards of
    /// `per_bank_physical` slots each. One Mi-SU protects the whole set
    /// (the MAC engine and the persistent registers stay single, per the
    /// paper); only the pad/MAC arrays and the dump geometry scale.
    ///
    /// The §5.2.1 shrinkage applies *per shard* — each bank reserves its
    /// own drain-MAC energy — so the usable total is
    /// `banks × usable(per_bank_physical)`, not `usable(banks × per_bank)`.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two or `per_bank_physical` is
    /// zero.
    pub fn with_geometry(
        kind: MiSuKind,
        banks: usize,
        per_bank_physical: usize,
        key_seed: u64,
        mac_latency: u64,
    ) -> Self {
        assert!(per_bank_physical > 0, "WPQ must have entries");
        assert!(
            banks.is_power_of_two(),
            "bank count must be a power of two, got {banks}"
        );
        let physical_entries = banks * per_bank_physical;
        let usable_entries = banks * kind.usable_wpq_entries(per_bank_physical);
        let mut aes_key = [0u8; 16];
        aes_key[0..8].copy_from_slice(&key_seed.to_le_bytes());
        aes_key[8] = 0x11; // domain separation: Mi-SU encryption key
        let mut mac_key = [0u8; 16];
        mac_key[0..8].copy_from_slice(&key_seed.to_le_bytes());
        mac_key[8] = 0x22; // domain separation: Mi-SU MAC key
        let aes = Aes128::new(&aes_key);
        let mac = MacEngine::new(mac_key);
        let mut unit = Self {
            kind,
            physical_entries,
            usable_entries,
            aes,
            mac,
            mac_latency,
            persistent_counter: 0,
            pads: Vec::new(),
            leaf_macs: vec![[0; 8]; usable_entries],
            root: [0; 8],
            root_dirty: false,
            table_root: [0; 8],
            engine_next_issue: Cycle::ZERO,
            deferred_busy_until: Cycle::ZERO,
            busy_rejections: 0,
            trace: TraceSink::Null,
        };
        unit.regenerate_pads();
        unit.recompute_full_tree();
        unit
    }

    /// Installs the event-tracing mode (discarding any buffered events).
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace = TraceSink::from_mode(mode);
    }

    /// Drains buffered trace events (empty when tracing is off).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// The design option in use.
    pub fn kind(&self) -> MiSuKind {
        self.kind
    }

    /// WPQ entries usable for buffering under this design.
    pub fn usable_entries(&self) -> usize {
        self.usable_entries
    }

    /// The persistent counter register value (current epoch base).
    pub fn persistent_counter(&self) -> u64 {
        self.persistent_counter
    }

    /// Writes rejected because the Post design's deferred MAC was in flight.
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections
    }

    /// When the Post design's deferred MAC engine becomes free.
    pub fn busy_until(&self) -> Cycle {
        self.deferred_busy_until
    }

    fn slot_counter(&self, slot: usize) -> u64 {
        self.persistent_counter + slot as u64
    }

    fn regenerate_pads(&mut self) {
        // Regenerated at every epoch advance (boot, post-drain, recovery
        // finish): reuse the slot buffers in place rather than rebuilding
        // the Vec, so steady-state epoch turnover allocates nothing.
        self.pads.resize(self.usable_entries, [0u8; 64]);
        for slot in 0..self.usable_entries {
            let iv = IvBuilder::new()
                .page_id(slot as u64) // slot index stands in for the address
                .counter(self.slot_counter(slot))
                .build();
            pad_into(&self.aes, &iv, &mut self.pads[slot]);
        }
    }

    fn recompute_full_tree(&mut self) {
        // Materializes the deferred Full-design root; stream the leaf MACs
        // instead of collecting a slice-of-slices per call. Protect/clear
        // only mark `root_dirty`; the register catches up here, at the
        // drain (or recovery-reset) observation point.
        if self.kind == MiSuKind::Full {
            let mut mac = self.mac.streamer(self.leaf_macs.len());
            for leaf in &self.leaf_macs {
                mac.part(leaf);
            }
            self.root = mac.finish();
        }
        self.root_dirty = false;
    }

    /// MAC over the dump's three tables, bound to the current epoch.
    /// Stored in the persistent `table_root` register at dump time and
    /// re-checked at recovery: the tables name *which* slots replay and in
    /// what order, so they need integrity just as the payloads do.
    fn dump_table_mac(
        &self,
        addr_table: &[u64],
        mac_table: &[[u8; 8]],
        order_table: &[u64],
    ) -> Mac64 {
        // Each table streams as one logical part (same tag as MACing the
        // concatenated bytes) without materializing concatenation buffers.
        let mut mac = self.mac.streamer(4);
        mac.part(&self.persistent_counter.to_le_bytes());
        mac.begin_part(addr_table.len() as u64 * 8);
        for v in addr_table {
            mac.update(&v.to_le_bytes());
        }
        mac.end_part();
        mac.begin_part(mac_table.len() as u64 * 8);
        for m in mac_table {
            mac.update(m);
        }
        mac.end_part();
        mac.begin_part(order_table.len() as u64 * 8);
        for v in order_table {
            mac.update(&v.to_le_bytes());
        }
        mac.end_part();
        mac.finish()
    }

    fn entry_mac(&self, slot: usize, addr: LineAddr, ciphertext: &Line) -> Mac64 {
        self.mac.tag_parts(&[
            &self.slot_counter(slot).to_le_bytes(),
            &addr.as_u64().to_le_bytes(),
            ciphertext,
        ])
    }

    /// Whether the unit must reject a write at `now`.
    ///
    /// Only the Post design rejects: its single allowed deferred MAC may
    /// still be in flight ("once a write request is accepted, i.e., MiSU is
    /// not full or busy"). Rejections are counted.
    pub fn is_busy(&mut self, now: Cycle) -> bool {
        if self.kind == MiSuKind::Post && self.deferred_busy_until > now {
            self.busy_rejections += 1;
            true
        } else {
            false
        }
    }

    /// Encrypts a write for WPQ slot `slot`, produces its MAC per the active
    /// design, and returns the cycle at which the critical-path work
    /// completes (the persist-completion time).
    ///
    /// The MAC engine is pipelined at one computation per
    /// [`dolos_crypto::latency::MAC_LATENCY`]: Full's two chained MACs give
    /// a 2·MAC latency at 1·MAC occupancy; Partial takes 1·MAC; Post
    /// completes immediately and books the engine for one deferred MAC
    /// (ADR reserves the energy to finish it if power fails first).
    pub fn protect(
        &mut self,
        now: Cycle,
        slot: usize,
        addr: LineAddr,
        plaintext: &Line,
    ) -> (Cycle, Line, Option<Mac64>) {
        assert!(slot < self.usable_entries, "slot outside usable WPQ");
        let mut ciphertext = *plaintext;
        xor_in_place(&mut ciphertext, &self.pads[slot]);
        let issue = now.max(self.engine_next_issue);
        // The Mi-SU is deliberately tiny: a single MAC engine computes both
        // of Full's chained MACs, so its occupancy per entry equals its
        // critical-path MAC count.
        self.engine_next_issue = issue + self.kind.critical_path_macs().max(1) * self.mac_latency;
        let (done, mac) = match self.kind {
            MiSuKind::Full => {
                self.leaf_macs[slot] = self.entry_mac(slot, addr, &ciphertext);
                self.root_dirty = true;
                if self.trace.is_enabled() {
                    let mid = issue + self.mac_latency;
                    // Leaf MAC, then the chained WPQ-root recompute.
                    self.trace
                        .span(EventKind::MisuMac, issue, mid, addr.as_u64(), 1);
                    self.trace.span(
                        EventKind::MisuMac,
                        mid,
                        mid + self.mac_latency,
                        addr.as_u64(),
                        2,
                    );
                }
                (issue + 2 * self.mac_latency, None)
            }
            MiSuKind::Partial => {
                if self.trace.is_enabled() {
                    self.trace.span(
                        EventKind::MisuMac,
                        issue,
                        issue + self.mac_latency,
                        addr.as_u64(),
                        1,
                    );
                }
                (
                    issue + self.mac_latency,
                    Some(self.entry_mac(slot, addr, &ciphertext)),
                )
            }
            MiSuKind::Post => {
                // The write commits now; the MAC completes in background.
                self.deferred_busy_until = issue + self.mac_latency;
                if self.trace.is_enabled() {
                    // value 0: deferred, off the persist critical path.
                    self.trace.span(
                        EventKind::MisuMac,
                        issue,
                        self.deferred_busy_until,
                        addr.as_u64(),
                        0,
                    );
                }
                (now, Some(self.entry_mac(slot, addr, &ciphertext)))
            }
        };
        (done, ciphertext, mac)
    }

    /// Marks a slot cleared after the Ma-SU fully processed it (Full design
    /// refreshes the slot's leaf MAC so the persistent root stays accurate).
    pub fn on_clear(&mut self, slot: usize) {
        if self.kind == MiSuKind::Full {
            self.leaf_macs[slot] = [0; 8];
            self.root_dirty = true;
        }
    }

    /// Decrypts a WPQ payload (one XOR with the slot pad — §4.5 notes this
    /// costs a single cycle on read hits).
    pub fn decrypt(&self, slot: usize, ciphertext: &Line) -> Line {
        let mut plaintext = *ciphertext;
        xor_in_place(&mut plaintext, &self.pads[slot]);
        plaintext
    }

    /// ADR drain: dumps the occupied WPQ entries (plus, for Partial/Post,
    /// their MACs) into the NVM dump region. Runs on reserve power — no
    /// simulated time is charged, matching the standard ADR budget the
    /// design preserves.
    ///
    /// Dump layout within the region: one line per physical slot, then the
    /// address table, then the MAC lines, then the drain-order table.
    /// `entries` must be in ring (fetch) order: recovery replays them in
    /// exactly that order so that an older un-cleared write to an address
    /// can never overwrite a newer one.
    pub fn drain_to_nvm(
        &mut self,
        entries: &[WpqEntry],
        nvm: &mut NvmDevice,
        layout: &MetadataLayout,
    ) {
        // First observation of the root register since the last write:
        // materialize the deferred Full-design root so the dump (and the
        // recovery that re-derives it from the dumped entries) sees exactly
        // the value an eager per-write recompute would have left here.
        if self.root_dirty {
            self.recompute_full_tree();
        }
        let slots = self.physical_entries as u64;
        // Address table: physical_entries u64 values, EMPTY_SLOT when free.
        let mut addr_table = vec![EMPTY_SLOT; self.physical_entries];
        let mut mac_table = vec![[0u8; 8]; self.physical_entries];
        let mut order_table = vec![EMPTY_SLOT; self.physical_entries];
        for (pos, entry) in entries.iter().enumerate() {
            #[expect(clippy::disallowed_methods, reason = "ADR dump: WPQ entry payloads")]
            nvm.poke(layout.wpq_dump_addr(entry.slot as u64), &entry.payload);
            addr_table[entry.slot] = entry.addr.as_u64();
            order_table[pos] = entry.slot as u64;
            if let Some(mac) = entry.mac {
                mac_table[entry.slot] = mac;
            }
        }
        // The tables' integrity register: one 8-byte persistent-register
        // write, within the reserve-energy budget alongside the dump burst.
        self.table_root = self.dump_table_mac(&addr_table, &mac_table, &order_table);
        let addr_lines = self.physical_entries.div_ceil(8) as u64;
        let tables = [
            &addr_table,
            &mac_table
                .iter()
                .map(|m| u64::from_le_bytes(*m))
                .collect::<Vec<_>>(),
            &order_table,
        ];
        for (t, table) in tables.iter().enumerate() {
            for (i, chunk) in table.chunks(8).enumerate() {
                let mut line = [0u8; 64];
                for (j, &v) in chunk.iter().enumerate() {
                    line[j * 8..j * 8 + 8].copy_from_slice(&v.to_le_bytes());
                }
                #[expect(clippy::disallowed_methods, reason = "ADR dump: the slot tables")]
                nvm.poke(
                    layout.wpq_dump_addr(slots + t as u64 * addr_lines + i as u64),
                    &line,
                );
            }
        }
    }

    /// Boot-time recovery, first half: reads the dump region back (as the
    /// last [`Self::drain_to_nvm`] wrote it), verifies integrity, and
    /// returns the decrypted writes in drain order for Ma-SU replay,
    /// without mutating any Mi-SU state.
    ///
    /// Recovery is split in two so it is *restartable*: a nested crash
    /// between replayed entries leaves the persistent counter (and thus the
    /// pad/MAC epoch) untouched, and a second recovery verifies the same
    /// dump under the same epoch. Only [`Self::finish_recovery`] — called
    /// once every entry has been replayed — advances the epoch.
    ///
    /// # Errors
    ///
    /// Returns a [`SecurityError`] if the dump tables do not match the
    /// persistent table register, any occupied entry fails MAC
    /// verification (Partial/Post), or the recomputed root does not match
    /// the persistent root register (Full).
    pub fn read_dump(
        &self,
        nvm: &NvmDevice,
        layout: &MetadataLayout,
    ) -> Result<Vec<(LineAddr, Line)>, SecurityError> {
        let slots = self.physical_entries as u64;
        let addr_lines = self.physical_entries.div_ceil(8) as u64;
        let mut addr_table = vec![EMPTY_SLOT; self.physical_entries];
        for i in 0..addr_lines {
            let line = nvm.peek(layout.wpq_dump_addr(slots + i));
            for j in 0..8 {
                let idx = (i * 8 + j as u64) as usize;
                if idx < self.physical_entries {
                    let mut bytes = [0u8; 8];
                    bytes.copy_from_slice(&line[j * 8..j * 8 + 8]);
                    addr_table[idx] = u64::from_le_bytes(bytes);
                }
            }
        }
        let mut mac_table = vec![[0u8; 8]; self.physical_entries];
        for i in 0..addr_lines {
            let line = nvm.peek(layout.wpq_dump_addr(slots + addr_lines + i));
            for j in 0..8 {
                let idx = (i * 8 + j as u64) as usize;
                if idx < self.physical_entries {
                    mac_table[idx].copy_from_slice(&line[j * 8..j * 8 + 8]);
                }
            }
        }

        // Drain-order table (third table region).
        let mut order_table = vec![EMPTY_SLOT; self.physical_entries];
        for i in 0..addr_lines {
            let line = nvm.peek(layout.wpq_dump_addr(slots + 2 * addr_lines + i));
            for j in 0..8 {
                let idx = (i * 8 + j as u64) as usize;
                if idx < self.physical_entries {
                    let mut bytes = [0u8; 8];
                    bytes.copy_from_slice(&line[j * 8..j * 8 + 8]);
                    order_table[idx] = u64::from_le_bytes(bytes);
                }
            }
        }

        // Verify the tables against the persistent register before trusting
        // anything they say: a spliced or torn table (stale epoch, dropped
        // or reordered slots) must be caught even when every individual
        // entry it names still carries a valid MAC.
        if self.dump_table_mac(&addr_table, &mac_table, &order_table) != self.table_root {
            return Err(SecurityError::DumpTableMismatch);
        }

        let mut recovered = Vec::new();
        let mut leaf_macs = vec![[0u8; 8]; self.usable_entries];
        for &slot_raw in order_table.iter().take_while(|&&s| s != EMPTY_SLOT) {
            let slot = slot_raw as usize;
            if slot >= self.usable_entries {
                return Err(SecurityError::WpqEntryTampered { slot });
            }
            let addr_raw = addr_table[slot];
            if addr_raw == EMPTY_SLOT {
                return Err(SecurityError::WpqEntryTampered { slot });
            }
            let addr = LineAddr::containing(addr_raw);
            let ciphertext = nvm.peek(layout.wpq_dump_addr(slot as u64));
            let expected = self.entry_mac(slot, addr, &ciphertext);
            match self.kind {
                MiSuKind::Full => leaf_macs[slot] = expected,
                MiSuKind::Partial | MiSuKind::Post => {
                    if mac_table[slot] != expected {
                        return Err(SecurityError::WpqEntryTampered { slot });
                    }
                }
            }
            recovered.push((addr, self.decrypt(slot, &ciphertext)));
        }
        if self.kind == MiSuKind::Full {
            let mut mac = self.mac.streamer(leaf_macs.len());
            for leaf in &leaf_macs {
                mac.part(leaf);
            }
            if mac.finish() != self.root {
                return Err(SecurityError::WpqRootMismatch);
            }
        }
        Ok(recovered)
    }

    /// Completes a recovery: advances the persistent counter register by
    /// the physical WPQ size and generates fresh pads, so a drained
    /// (slot, counter) pair is never reused, and resets the engine.
    ///
    /// Must be called exactly once per completed recovery, after every
    /// entry returned by [`Self::read_dump`] has been replayed.
    pub fn finish_recovery(&mut self) {
        self.persistent_counter += self.physical_entries as u64;
        self.regenerate_pads();
        self.leaf_macs = vec![[0; 8]; self.usable_entries];
        self.recompute_full_tree();
        self.deferred_busy_until = Cycle::ZERO;
        self.engine_next_issue = Cycle::ZERO;
    }

    /// Storage overhead per Table 3 of the paper.
    ///
    /// * Persistent counter: 8 B in every design.
    /// * MACs: Full keeps 16 leaf-MAC registers plus a 7-node interior tree
    ///   and root (192 B); Partial and Post keep one 8 B MAC register per
    ///   physical slot (128 B).
    /// * Pads: 72 B per usable entry in Full (address and data encrypted
    ///   together in the paper's layout); 80 B in Partial/Post (entry pad
    ///   plus MAC-masking pad).
    /// * Tag array: 8 B of volatile address per usable slot (§5.5).
    pub fn storage_overhead(&self) -> MiSuStorage {
        let mac_bytes = match self.kind {
            MiSuKind::Full => 192,
            MiSuKind::Partial | MiSuKind::Post => 128,
        };
        let pad_per_entry = match self.kind {
            MiSuKind::Full => 72,
            MiSuKind::Partial | MiSuKind::Post => 80,
        };
        MiSuStorage {
            persistent_counter_bytes: 8,
            mac_bytes,
            pad_bytes: pad_per_entry * self.usable_entries,
            tag_array_bytes: 8 * self.usable_entries,
        }
    }

    /// Estimated Mi-SU recovery cycles (§5.5): read back the dump, regenerate
    /// old pads, drain every entry through the Ma-SU, then regenerate fresh
    /// pads.
    pub fn estimated_recovery_cycles(&self) -> u64 {
        const NVM_READ: u64 = 600;
        const PAD_GEN: u64 = 40;
        const DRAIN_PER_ENTRY: u64 = 2100;
        let n = self.usable_entries as u64;
        let read_lines = match self.kind {
            // Full reads only the WPQ content (16 lines at 16 entries).
            MiSuKind::Full => n,
            // Partial/Post also read two 64 B MAC blocks.
            MiSuKind::Partial | MiSuKind::Post => n + 2,
        };
        read_lines * NVM_READ + n * PAD_GEN + n * DRAIN_PER_ENTRY + n * PAD_GEN
    }
}

#[cfg(test)]
mod tests {
    #![expect(clippy::disallowed_methods, reason = "tests tamper with NVM directly")]
    use super::*;

    fn addr(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    fn misu(kind: MiSuKind) -> MinorSecurityUnit {
        MinorSecurityUnit::new(kind, 16, 42)
    }

    #[test]
    fn usable_entries_per_design() {
        assert_eq!(misu(MiSuKind::Full).usable_entries(), 16);
        assert_eq!(misu(MiSuKind::Partial).usable_entries(), 13);
        assert_eq!(misu(MiSuKind::Post).usable_entries(), 10);
    }

    #[test]
    fn critical_path_latency_per_design() {
        let mut full = misu(MiSuKind::Full);
        let (done, _, _) = full.protect(Cycle::ZERO, 0, addr(1), &[1; 64]);
        assert_eq!(done.as_u64(), 320);
        let mut partial = misu(MiSuKind::Partial);
        let (done, _, _) = partial.protect(Cycle::ZERO, 0, addr(1), &[1; 64]);
        assert_eq!(done.as_u64(), 160);
        let mut post = misu(MiSuKind::Post);
        let (done, _, _) = post.protect(Cycle::ZERO, 0, addr(1), &[1; 64]);
        assert_eq!(done.as_u64(), 0);
    }

    #[test]
    fn mac_engine_occupancy_follows_design() {
        // Full's two chained MACs fully occupy the single Mi-SU engine, so
        // back-to-back writes space at 320 cycles; Partial spaces at 160.
        let mut m = misu(MiSuKind::Full);
        let (d0, _, _) = m.protect(Cycle::ZERO, 0, addr(1), &[1; 64]);
        let (d1, _, _) = m.protect(Cycle::ZERO, 1, addr(2), &[1; 64]);
        assert_eq!(d0.as_u64(), 320);
        assert_eq!(d1.as_u64(), 640);
        let mut m = misu(MiSuKind::Partial);
        let (d0, _, _) = m.protect(Cycle::ZERO, 0, addr(1), &[1; 64]);
        let (d1, _, _) = m.protect(Cycle::ZERO, 1, addr(2), &[1; 64]);
        assert_eq!(d0.as_u64(), 160);
        assert_eq!(d1.as_u64(), 320);
    }

    #[test]
    fn post_design_is_busy_while_deferred_mac_runs() {
        let mut m = misu(MiSuKind::Post);
        assert!(!m.is_busy(Cycle::ZERO));
        m.protect(Cycle::ZERO, 0, addr(1), &[1; 64]);
        // Engine busy for 160 cycles.
        assert!(m.is_busy(Cycle::new(10)));
        assert_eq!(m.busy_rejections(), 1);
        assert!(!m.is_busy(Cycle::new(160)));
    }

    #[test]
    fn encrypt_decrypt_round_trips_per_slot() {
        let mut m = misu(MiSuKind::Partial);
        let pt = [0xABu8; 64];
        let (_, ct, mac) = m.protect(Cycle::ZERO, 3, addr(7), &pt);
        assert_ne!(ct, pt);
        assert!(mac.is_some());
        assert_eq!(m.decrypt(3, &ct), pt);
    }

    #[test]
    fn pads_differ_across_slots() {
        let mut m = misu(MiSuKind::Full);
        let pt = [0u8; 64];
        let (_, c0, _) = m.protect(Cycle::ZERO, 0, addr(0), &pt);
        let (_, c1, _) = m.protect(Cycle::ZERO, 1, addr(0), &pt);
        assert_ne!(c0, c1);
    }

    fn drain_and_recover(
        kind: MiSuKind,
        tamper: impl FnOnce(&mut NvmDevice, &MetadataLayout),
    ) -> Result<Vec<(LineAddr, Line)>, SecurityError> {
        let mut m = MinorSecurityUnit::new(kind, 16, 42);
        let layout = MetadataLayout::new(1 << 20);
        let mut nvm = NvmDevice::new();
        let mut entries = Vec::new();
        for slot in 0..3usize {
            let pt = [slot as u8 + 1; 64];
            let (_, ct, mac) = m.protect(Cycle::ZERO, slot, addr(slot as u64 + 10), &pt);
            entries.push(WpqEntry {
                addr: addr(slot as u64 + 10),
                payload: ct,
                mac,
                slot,
            });
        }
        m.drain_to_nvm(&entries, &mut nvm, &layout);
        tamper(&mut nvm, &layout);
        let recovered = m.read_dump(&nvm, &layout)?;
        m.finish_recovery();
        Ok(recovered)
    }

    #[test]
    fn drain_recover_round_trips_all_designs() {
        for kind in MiSuKind::ALL {
            let recovered = drain_and_recover(kind, |_, _| {}).expect("clean recovery");
            assert_eq!(recovered.len(), 3);
            for (i, (a, pt)) in recovered.iter().enumerate() {
                assert_eq!(a.line_index(), i as u64 + 10);
                assert_eq!(*pt, [i as u8 + 1; 64]);
            }
        }
    }

    #[test]
    fn tampered_dump_entry_is_detected() {
        for kind in MiSuKind::ALL {
            let result = drain_and_recover(kind, |nvm, layout| {
                nvm.tamper(layout.wpq_dump_addr(1), |line| line[5] ^= 0xFF);
            });
            assert!(result.is_err(), "{kind:?} missed tampering");
        }
    }

    #[test]
    fn tampered_mac_table_is_detected_in_partial() {
        let result = drain_and_recover(MiSuKind::Partial, |nvm, layout| {
            // MAC table lines sit after the 16 slot lines + 2 addr lines.
            nvm.tamper(layout.wpq_dump_addr(18), |line| line[0] ^= 1);
        });
        // The persistent table register catches the splice before any
        // per-entry verification runs.
        assert_eq!(result, Err(SecurityError::DumpTableMismatch));
    }

    #[test]
    fn stale_order_table_is_detected() {
        // Splicing the previous epoch's drain-order table into a fresh dump
        // must not silently drop or reorder replayed writes: the persistent
        // table register pins the tables as a unit.
        for kind in MiSuKind::ALL {
            let mut m = misu(kind);
            let layout = MetadataLayout::new(1 << 20);
            let mut nvm = NvmDevice::new();
            let burst = |m: &mut MinorSecurityUnit, n: usize, tag: u8| -> Vec<WpqEntry> {
                (0..n)
                    .map(|slot| {
                        let pt = [tag + slot as u8; 64];
                        let a = addr(slot as u64 + 10);
                        let (_, ct, mac) = m.protect(Cycle::ZERO, slot, a, &pt);
                        WpqEntry {
                            addr: a,
                            payload: ct,
                            mac,
                            slot,
                        }
                    })
                    .collect()
            };
            let first = burst(&mut m, 2, 1);
            m.drain_to_nvm(&first, &mut nvm, &layout);
            let order_line = layout.wpq_dump_addr(16 + 2 * 2);
            let stale = nvm.snapshot_line(order_line);
            m.read_dump(&nvm, &layout).expect("clean first epoch");
            m.finish_recovery();
            let second = burst(&mut m, 3, 7);
            m.drain_to_nvm(&second, &mut nvm, &layout);
            nvm.replay_snapshot(order_line, &stale);
            assert_eq!(
                m.read_dump(&nvm, &layout),
                Err(SecurityError::DumpTableMismatch),
                "{kind:?} accepted a stale order table"
            );
        }
    }

    #[test]
    fn counter_register_advances_per_recovery_epoch() {
        let mut m = misu(MiSuKind::Partial);
        let layout = MetadataLayout::new(1 << 20);
        let mut nvm = NvmDevice::new();
        m.drain_to_nvm(&[], &mut nvm, &layout);
        let pad_before = m.pads[0];
        m.read_dump(&nvm, &layout).unwrap();
        m.finish_recovery();
        assert_eq!(m.persistent_counter(), 16);
        assert_ne!(m.pads[0], pad_before, "pads must rotate after a drain");
    }

    #[test]
    fn storage_overhead_matches_table_3() {
        let full = misu(MiSuKind::Full).storage_overhead();
        assert_eq!(full.persistent_counter_bytes, 8);
        assert_eq!(full.mac_bytes, 192);
        assert_eq!(full.pad_bytes, 72 * 16);

        let partial = misu(MiSuKind::Partial).storage_overhead();
        assert_eq!(partial.mac_bytes, 128);
        assert_eq!(partial.pad_bytes, 80 * 13);

        let post = misu(MiSuKind::Post).storage_overhead();
        assert_eq!(post.mac_bytes, 128);
        assert_eq!(post.pad_bytes, 80 * 10);
    }

    #[test]
    fn recovery_estimate_matches_section_5_5_for_full() {
        // 600*16 + 40*16 + 2100*16 + 40*16 = 44,480 cycles (§5.5).
        assert_eq!(misu(MiSuKind::Full).estimated_recovery_cycles(), 44_480);
    }

    #[test]
    fn full_design_root_tracks_clears() {
        // The root register is deferred: observe it the way a drain would,
        // by materializing before each read.
        let mut m = misu(MiSuKind::Full);
        let _ = m.protect(Cycle::ZERO, 0, addr(1), &[1; 64]);
        m.recompute_full_tree();
        let root_live = m.root;
        m.on_clear(0);
        m.recompute_full_tree();
        assert_ne!(m.root, root_live);
    }
}
