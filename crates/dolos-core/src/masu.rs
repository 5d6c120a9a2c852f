//! The Major Security Unit (Ma-SU), §4.4.
//!
//! The Ma-SU is a full conventional secure-NVM pipeline — counter-mode AES,
//! Bonsai data MACs, integrity tree, Anubis shadow tracking, Osiris counter
//! persistence — packaged so it can run either *before* the WPQ (the
//! Pre-WPQ-Secure baseline) or *behind* it (Dolos).
//!
//! Per write it performs, functionally and with Table 1 timing:
//!
//! 1. fetch the split-counter block (counter cache, miss → NVM read with
//!    Anubis shadow-table bookkeeping);
//! 2. increment the line's counter (minor overflow re-encrypts the page);
//! 3. generate the CTR pad (AES), encrypt, compute the Bonsai data MAC and
//!    update the integrity tree (10 serial MACs eager, 4 lazy);
//! 4. stage everything in the persistent redo-log registers, then issue the
//!    NVM writes (ciphertext, MAC, periodic Osiris counter write-back).
//!
//! The returned completion time is when the redo log is filled — the point
//! after which the write is recoverable without the WPQ entry (paper §4.4:
//! steps ③ and ④ can proceed in parallel once the log is ready).

// Strict inside a budgeted crate: Ma-SU recovery runs after a crash, where
// a panic would lose the state it rebuilds; return a `SecurityError`.
// tests/lint_policy.rs holds this file at zero panic-lint expects.

use std::collections::BTreeMap;

use dolos_crypto::aes::Aes128;
use dolos_crypto::ctr::xor_in_place;
use dolos_crypto::latency::CryptoLatency;
use dolos_crypto::mac::MacEngine;
use dolos_crypto::padcache::PadCache;
use dolos_nvm::addr::LineAddr;
use dolos_nvm::{Line, NvmDevice};
use dolos_secmem::bmt::{data_mac, BonsaiMerkleTree};
use dolos_secmem::cache::{Access, SetAssocCache};
use dolos_secmem::counters::{CounterBlock, IncrementResult, LineCounter};
use dolos_secmem::ecc::{ecc64, probe_counter};
use dolos_secmem::layout::MetadataLayout;
use dolos_secmem::shadow::ShadowTable;
use dolos_secmem::toc::TreeOfCounters;
use dolos_sim::flat::FlatMap;
use dolos_sim::paged::PagedTable;
use dolos_sim::resource::Pipeline;
use dolos_sim::stats::StatSet;
use dolos_sim::trace::{EventKind, TraceEvent, TraceMode, TraceSink};
use dolos_sim::Cycle;

use crate::config::UpdateScheme;
use crate::error::SecurityError;

/// The integrity tree behind the Ma-SU.
#[derive(Debug, Clone)]
enum Tree {
    Eager(BonsaiMerkleTree),
    Lazy(TreeOfCounters),
}

/// Outcome of recovery, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasuRecovery {
    /// Counter blocks rebuilt from the shadow-table working set.
    pub rebuilt_counter_blocks: usize,
    /// Lines whose counters were recovered by Osiris probing.
    pub probed_lines: usize,
    /// Whether a staged redo-log entry was replayed.
    pub redo_replayed: bool,
    /// Simulated recovery cycles: NVM reads of the shadow working set, AES
    /// probe decryptions, and the tree-rebuild MACs, per Table 1 latencies.
    pub cycles: u64,
}

/// The Major Security Unit.
#[derive(Debug, Clone)]
pub struct MajorSecurityUnit {
    scheme: UpdateScheme,
    layout: MetadataLayout,
    aes: Aes128,
    mac: MacEngine,
    counter_cache: SetAssocCache,
    /// Merkle-tree metadata cache (Table 1: 256 KiB, 8-way). Holds interior
    /// tree nodes; a miss on the update path fetches the node from NVM.
    mt_cache: SetAssocCache,
    shadow: ShadowTable,
    tree: Tree,
    /// Persistent ECC bits co-located with each data line, keyed by line
    /// index in the same paged table as the device's lines. Nonvolatile:
    /// survives crashes like the data it rides with. A line with no entry
    /// was never written; that presence bit is what `read`,
    /// `reencrypt_page` and recovery test.
    ecc: PagedTable<u64>,
    /// Updates per counter block since its last NVM write-back.
    pending_counter_updates: FlatMap<u64>,
    /// Host-side memo cache over the counter-mode pad computation. Purely
    /// functional: hits and misses return identical pads, and the simulated
    /// AES latency is charged by the engine model either way.
    pad_cache: PadCache,
    osiris_phase: u64,
    /// One crypto/tree-update engine per NVM bank (index =
    /// [`LineAddr::bank_index`]). With a single bank this is the paper's
    /// globally serial update engine; more banks model per-bank metadata
    /// pipelines whose lazy subtree updates proceed independently.
    engines: Vec<Pipeline>,
    banks: usize,
    /// AES pad latency, kept alongside the engines so trace spans can split
    /// one engine occupancy into its encrypt and tree-update stages.
    aes_cycles: u64,
    /// Serial tree-update MAC latency of the active scheme.
    tree_cycles: u64,
    writes_processed: u64,
    overflows: u64,
    reads_served: u64,
    /// Event sink for the cycle-stamped drain-stage spans.
    trace: TraceSink,
}

impl MajorSecurityUnit {
    /// Creates a Ma-SU over `layout` with the given scheme and caches.
    // The argument list mirrors ControllerConfig's knob-per-field layout;
    // bundling them into an ad-hoc struct would just duplicate that config.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        scheme: UpdateScheme,
        layout: MetadataLayout,
        latency: CryptoLatency,
        counter_cache_bytes: usize,
        counter_cache_ways: usize,
        mt_cache_bytes: usize,
        mt_cache_ways: usize,
        osiris_phase: u64,
        key_seed: u64,
    ) -> Self {
        let mut aes_key = [0u8; 16];
        aes_key[0..8].copy_from_slice(&key_seed.to_le_bytes());
        aes_key[8] = 0x33; // domain separation: Ma-SU data key
        let mut mac_key = [0u8; 16];
        mac_key[0..8].copy_from_slice(&key_seed.to_le_bytes());
        mac_key[8] = 0x44; // domain separation: Ma-SU MAC/tree key
        let mac = MacEngine::new(mac_key);
        let pages = layout.pages();
        let tree = match scheme {
            UpdateScheme::EagerMerkle => Tree::Eager(BonsaiMerkleTree::new(pages, &mac)),
            UpdateScheme::LazyToc => Tree::Lazy(TreeOfCounters::new(pages, &mac)),
        };
        let cache = SetAssocCache::with_capacity_bytes(counter_cache_bytes, counter_cache_ways);
        let mt_cache = SetAssocCache::with_capacity_bytes(mt_cache_bytes, mt_cache_ways);
        // Anubis must be able to track every metadata line either cache can
        // hold, so its capacity follows both cache sizes.
        let shadow_capacity = counter_cache_bytes / 64 + mt_cache_bytes / 64;
        let tree_cycles = match scheme {
            UpdateScheme::EagerMerkle => latency.eager_update_cycles(),
            UpdateScheme::LazyToc => latency.lazy_update_cycles(),
        };
        Self {
            scheme,
            layout,
            aes: Aes128::new(&aes_key),
            mac,
            counter_cache: cache,
            mt_cache,
            shadow: ShadowTable::new(shadow_capacity),
            tree,
            ecc: PagedTable::new(),
            pending_counter_updates: FlatMap::new(),
            // 256 direct-mapped slots: covers the same-page rewrite/read-back
            // window of every workload here at 20 KiB of host memory.
            pad_cache: PadCache::new(256),
            osiris_phase,
            engines: {
                // The integrity-tree update MACs for one write are serial
                // (Table 1); successive writes to the same bank cannot
                // overlap their tree updates either, because each update
                // rewrites the path to the root that the next depends on.
                // Each engine therefore accepts a new write only when the
                // previous update is done. One engine per bank; see
                // `set_banks`.
                let update = latency.aes + tree_cycles;
                vec![Pipeline::new(update, update)]
            },
            banks: 1,
            aes_cycles: latency.aes,
            tree_cycles,
            writes_processed: 0,
            overflows: 0,
            reads_served: 0,
            trace: TraceSink::Null,
        }
    }

    /// Reshapes the update engine into one pipeline per NVM bank,
    /// discarding any in-flight engine state. Call before issuing writes.
    /// With `banks == 1` this is the paper's single serial engine.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two.
    pub fn set_banks(&mut self, banks: usize) {
        assert!(
            banks.is_power_of_two(),
            "bank count must be a power of two, got {banks}"
        );
        let update = self.aes_cycles + self.tree_cycles;
        self.engines = (0..banks).map(|_| Pipeline::new(update, update)).collect();
        self.banks = banks;
    }

    /// Installs the event-tracing mode (discarding any buffered events).
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace = TraceSink::from_mode(mode);
    }

    /// Drains buffered trace events (empty when tracing is off).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// The metadata layout in use.
    pub fn layout(&self) -> &MetadataLayout {
        &self.layout
    }

    /// The update scheme in use.
    pub fn scheme(&self) -> UpdateScheme {
        self.scheme
    }

    /// Writes fully processed so far.
    pub fn writes_processed(&self) -> u64 {
        self.writes_processed
    }

    fn latency_aes(&self) -> u64 {
        dolos_crypto::latency::AES_LATENCY
    }

    fn pad_for(&mut self, addr: LineAddr, packed_counter: u64) -> [u8; 64] {
        self.pad_cache.pad(&self.aes, addr.as_u64(), packed_counter)
    }

    /// Fetches the counter block for `page`, modelling the counter cache and
    /// Anubis shadow writes. Returns `(block, miss_penalty_cycles)`.
    fn fetch_counter_block(
        &mut self,
        now: Cycle,
        page: u64,
        nvm: &mut NvmDevice,
    ) -> (CounterBlock, u64) {
        if let Some(line) = self.counter_cache.probe_get(page) {
            return (CounterBlock::from_line(line), 0);
        }
        let (done, line) = nvm.read_line(now, self.layout.counter_block_addr(page));
        let penalty = done - now;
        if let Some(ev) = self.counter_cache.fill(page, line, false) {
            if ev.dirty {
                #[expect(clippy::disallowed_methods, reason = "Ma-SU: evicted counter block")]
                nvm.write_line(now, self.layout.counter_block_addr(ev.key), &ev.data);
                self.pending_counter_updates.remove(ev.key);
            }
            self.shadow.remove(ev.key);
        }
        self.shadow.record(page);
        (CounterBlock::from_line(&line), penalty)
    }

    /// Stores `page`'s encoded counter block (`line`, from
    /// [`CounterBlock::to_line`]) in the counter cache, writing it back to
    /// NVM on the Osiris phase or when `force_writeback` is set.
    fn store_counter_block(
        &mut self,
        now: Cycle,
        page: u64,
        line: &Line,
        nvm: &mut NvmDevice,
        force_writeback: bool,
    ) {
        if !self.counter_cache.update(page, *line) {
            // Not resident (shouldn't happen right after a fetch, but keep
            // the invariant): fill as dirty.
            if let Some(ev) = self.counter_cache.fill(page, *line, true) {
                if ev.dirty {
                    #[expect(clippy::disallowed_methods, reason = "Ma-SU: evicted dirty counters")]
                    nvm.write_line(now, self.layout.counter_block_addr(ev.key), &ev.data);
                    self.pending_counter_updates.remove(ev.key);
                }
                self.shadow.remove(ev.key);
            }
            self.shadow.record(page);
        }
        let pending = self.pending_counter_updates.get_mut_or_insert(page, 0);
        *pending += 1;
        if force_writeback || *pending >= self.osiris_phase {
            // Osiris stop-loss: persist the counter block.
            #[expect(clippy::disallowed_methods, reason = "Ma-SU: Osiris stop-loss")]
            nvm.write_line(now, self.layout.counter_block_addr(page), line);
            *pending = 0;
        }
    }

    fn write_data_mac(&self, nvm: &mut NvmDevice, addr: LineAddr, mac: [u8; 8]) {
        let (line_addr, offset) = self.layout.mac_slot(addr);
        nvm.tamper(line_addr, |line| {
            line[offset..offset + 8].copy_from_slice(&mac);
        });
    }

    fn read_data_mac(&self, nvm: &NvmDevice, addr: LineAddr) -> [u8; 8] {
        let (line_addr, offset) = self.layout.mac_slot(addr);
        let line = nvm.peek(line_addr);
        let mut mac = [0u8; 8];
        mac.copy_from_slice(&line[offset..offset + 8]);
        mac
    }

    /// Probes the MT cache for every interior node on `page`'s tree path,
    /// fetching misses from NVM. Returns the added latency.
    fn fetch_tree_path(&mut self, now: Cycle, page: u64, nvm: &mut NvmDevice) -> u64 {
        use dolos_secmem::bmt::ARITY;
        let mut penalty = 0u64;
        let mut idx = page;
        let mut level = 1u64;
        // Key space: disjoint from counter pages via a level tag in the
        // high bits.
        while idx > 0 || level == 1 {
            idx /= ARITY;
            let key = (level << 56) | idx;
            if self.mt_cache.probe(key) == Access::Miss {
                let (done, _) = nvm.read_line(now + penalty, self.layout.counter_block_addr(0));
                penalty += done - (now + penalty);
                if let Some(ev) = self.mt_cache.fill(key, [0; 64], false) {
                    self.shadow.remove(ev.key | (1 << 63));
                }
                self.shadow.record(key | (1 << 63));
            }
            if idx == 0 {
                break;
            }
            level += 1;
        }
        penalty
    }

    fn update_tree(&mut self, page: u64, counter_line: &Line) {
        match &mut self.tree {
            Tree::Eager(bmt) => {
                bmt.update_leaf(&self.mac, page, counter_line);
            }
            Tree::Lazy(toc) => toc.update_leaf(&self.mac, page, counter_line),
        }
    }

    /// Re-encrypts every written line of `page` after a minor-counter
    /// overflow, using `old_block` for decryption and `new_block` for
    /// re-encryption (§2.1 split-counter semantics).
    fn reencrypt_page(
        &mut self,
        now: Cycle,
        page: u64,
        old_block: &CounterBlock,
        new_block: &CounterBlock,
        skip_line: usize,
        nvm: &mut NvmDevice,
    ) {
        self.overflows += 1;
        for line_in_page in 0..64 {
            if line_in_page == skip_line {
                continue; // the triggering line is re-written by the caller
            }
            let addr = LineAddr::containing(page * 4096 + line_in_page as u64 * 64);
            let line_index = addr.line_index();
            let Some(&ecc) = self.ecc.get(line_index) else {
                continue; // never written
            };
            let old_ct = nvm.peek(addr);
            let old_counter = old_block.line_counter(line_in_page).packed();
            let mut plaintext = old_ct;
            xor_in_place(&mut plaintext, &self.pad_for(addr, old_counter));
            debug_assert_eq!(ecc64(&plaintext), ecc, "pre-overflow state consistent");
            let new_counter = new_block.line_counter(line_in_page).packed();
            let mut ct = plaintext;
            xor_in_place(&mut ct, &self.pad_for(addr, new_counter));
            #[expect(clippy::disallowed_methods, reason = "Ma-SU: overflow re-encryption")]
            nvm.write_line(now, addr, &ct);
            self.write_data_mac(
                nvm,
                addr,
                data_mac(&self.mac, addr.as_u64(), new_counter, &ct),
            );
        }
    }

    /// Processes one write through the full secure pipeline, including the
    /// data-line NVM write. See [`MajorSecurityUnit::secure_write`] for the
    /// variant that leaves the data write to the caller (the Pre-WPQ
    /// baseline, where the WPQ drains ciphertext to NVM itself).
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies outside the protected region.
    pub fn process_write(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        plaintext: &Line,
        nvm: &mut NvmDevice,
    ) -> Cycle {
        self.secure_write(now, addr, plaintext, nvm, true).0
    }

    /// Runs the secure pipeline for one write.
    ///
    /// Returns `(completion, ciphertext)`, where `completion` is the cycle
    /// the security work (counter fetch + AES + tree MACs) finishes — the
    /// point at which the write is recoverable. When `write_data` is false,
    /// metadata still persists but the data line itself is left to the
    /// caller.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies outside the protected region.
    pub fn secure_write(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        plaintext: &Line,
        nvm: &mut NvmDevice,
        write_data: bool,
    ) -> (Cycle, Line) {
        assert!(
            self.layout.is_data_addr(addr),
            "write outside protected region"
        );
        self.writes_processed += 1;
        let page = addr.page_index();
        let line_in_page = addr.line_in_page();

        // ① fetch counters.
        let (mut block, miss_penalty) = self.fetch_counter_block(now, page, nvm);
        let old_block = block;

        // ② increment; handle overflow.
        let result = block.increment(line_in_page);
        let counter = result.counter().packed();
        let overflowed = matches!(result, IncrementResult::PageOverflow(_));
        if overflowed {
            self.reencrypt_page(now, page, &old_block, &block, line_in_page, nvm);
        }

        // ③ crypto: pad, encrypt, data MAC, tree update. Timing per Table 1:
        // AES + (10 | 4) serial MACs, on the shared engine, after the
        // counter-fetch penalty. Interior tree nodes come from the MT cache;
        // each miss fetches the node from NVM first.
        let mt_penalty = self.fetch_tree_path(now, page, nvm);
        let start = now + miss_penalty + mt_penalty;
        let done = self.engines[addr.bank_index(self.banks)].acquire(start);
        if self.trace.is_enabled() {
            // The engine occupies one aes + tree-update slab ending at
            // `done`; split it into its re-encrypt and tree-update stages.
            let issue = Cycle::new(done.as_u64() - (self.aes_cycles + self.tree_cycles));
            let encrypted = issue + self.aes_cycles;
            self.trace
                .span(EventKind::MasuEncrypt, issue, encrypted, addr.as_u64(), 0);
            self.trace
                .span(EventKind::MasuTreeUpdate, encrypted, done, addr.as_u64(), 0);
        }

        let mut ciphertext = *plaintext;
        xor_in_place(&mut ciphertext, &self.pad_for(addr, counter));
        let mac = data_mac(&self.mac, addr.as_u64(), counter, &ciphertext);
        *self.ecc.entry(addr.line_index()) = ecc64(plaintext);

        // Encoded once: the tree leaf and the cached/persisted block are
        // the same 64 bytes.
        let counter_line = block.to_line();
        self.update_tree(page, &counter_line);

        // ④ the redo-log registers of §4.4 are modelled by atomicity at
        // `done`: every NVM effect below happens together with the security
        // completion. A crash before `done` leaves the (uncleared) WPQ entry
        // to be replayed at recovery; a crash after `done` finds all effects
        // persisted — the two cases the paper's ready-bit protocol
        // distinguishes, with the same recoverability guarantee.
        if write_data {
            #[expect(clippy::disallowed_methods, reason = "Ma-SU: the data line write")]
            nvm.write_line(done, addr, &ciphertext);
        }
        self.write_data_mac(nvm, addr, mac);
        self.store_counter_block(done, page, &counter_line, nvm, overflowed);
        if self.trace.is_enabled() {
            // The §4.4 redo-register commit point: security work and NVM
            // effects become atomic here.
            self.trace
                .instant(EventKind::MasuRedoCommit, done, addr.as_u64(), 0);
        }

        (done, ciphertext)
    }

    /// Decrypts `ciphertext` for `addr` under the line's *current* counter
    /// (used to serve read hits on baseline WPQ entries, which hold
    /// already-secured ciphertext).
    pub fn decrypt_current(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        ciphertext: &Line,
        nvm: &mut NvmDevice,
    ) -> Line {
        let (block, _) = self.fetch_counter_block(now, addr.page_index(), nvm);
        let counter = block.line_counter(addr.line_in_page()).packed();
        let mut plaintext = *ciphertext;
        xor_in_place(&mut plaintext, &self.pad_for(addr, counter));
        plaintext
    }

    /// Reads one protected line, verifying its Bonsai MAC.
    ///
    /// Never-written lines return zeroes without verification (no MAC
    /// exists for them yet).
    ///
    /// # Errors
    ///
    /// Returns [`SecurityError::DataMacMismatch`] on verification failure.
    pub fn read(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        nvm: &mut NvmDevice,
    ) -> Result<(Cycle, Line), SecurityError> {
        assert!(
            self.layout.is_data_addr(addr),
            "read outside protected region"
        );
        self.reads_served += 1;
        if !self.ecc.contains_key(addr.line_index()) {
            return Ok((now + 1, [0u8; 64]));
        }
        let page = addr.page_index();
        let (block, miss_penalty) = self.fetch_counter_block(now, page, nvm);
        let counter = block.line_counter(addr.line_in_page()).packed();
        let (read_done, ciphertext) = nvm.read_line(now + miss_penalty, addr);
        let stored_mac = self.read_data_mac(nvm, addr);
        if data_mac(&self.mac, addr.as_u64(), counter, &ciphertext) != stored_mac {
            return Err(SecurityError::DataMacMismatch { addr });
        }
        // Pad pre-generation hides decryption latency (§2.1).
        let mut plaintext = ciphertext;
        xor_in_place(&mut plaintext, &self.pad_for(addr, counter));
        Ok((read_done, plaintext))
    }

    /// Models the crash: volatile state (counter cache, lazy tree cache,
    /// engine) is lost. Persistent registers (root, shadow table in NVM,
    /// ECC bits) survive.
    pub fn crash(&mut self) {
        self.counter_cache.lose_all();
        self.mt_cache.lose_all();
        self.pending_counter_updates.clear();
        for engine in &mut self.engines {
            engine.reset();
        }
        if let Tree::Lazy(toc) = &mut self.tree {
            toc.crash(&self.mac);
        }
        // The eager tree's interior nodes are volatile too, but they are
        // recomputed wholesale during recovery, so nothing to do here.
    }

    /// Recovers metadata after a crash: replays the Anubis shadow working
    /// set through Osiris counter probing, rebuilds the integrity tree, and
    /// verifies it against the persistent root register.
    ///
    /// # Errors
    ///
    /// Returns a [`SecurityError`] if any counter cannot be recovered or the
    /// rebuilt tree fails verification.
    pub fn recover(&mut self, nvm: &mut NvmDevice) -> Result<MasuRecovery, SecurityError> {
        const NVM_READ: u64 = 600;
        let mut report = MasuRecovery {
            rebuilt_counter_blocks: 0,
            probed_lines: 0,
            redo_replayed: false,
            cycles: 0,
        };

        // Anubis: only shadow-tracked counter blocks can be stale.
        // Anubis tracks both counter blocks and MT nodes; only counter
        // blocks (no level tag in the high bits) need Osiris rebuilding —
        // interior nodes are recomputed wholesale below.
        let mut tracked: Vec<u64> = self
            .shadow
            .tracked()
            .into_iter()
            .filter(|k| k >> 56 == 0)
            .collect();
        // Replay in ascending page order: recovery work (and its cycle
        // accounting) must be a pure function of the tracked set, not of
        // the order the shadow table happened to allocate slots.
        tracked.sort_unstable();
        // Counter blocks Osiris rewrites, for the lazy tree's leaf check.
        let mut rewritten: Vec<(u64, Line)> = Vec::new();
        // Shadow-table scan + one counter-block read per tracked page.
        report.cycles += (tracked.len() as u64).div_ceil(8) * NVM_READ;
        for page in &tracked {
            let page = *page;
            report.cycles += NVM_READ;
            let stored = CounterBlock::from_line(&nvm.peek(self.layout.counter_block_addr(page)));
            let mut rebuilt = stored;
            let mut changed = false;
            for line_in_page in 0..64 {
                let addr = LineAddr::containing(page * 4096 + line_in_page as u64 * 64);
                let Some(&ecc) = self.ecc.get(addr.line_index()) else {
                    continue;
                };
                let ciphertext = nvm.peek(addr);
                let base = stored.line_counter(line_in_page).packed();
                let (counter, _) = probe_counter(
                    &self.aes,
                    addr.as_u64(),
                    &ciphertext,
                    ecc,
                    base,
                    self.osiris_phase,
                )
                .ok_or(SecurityError::CounterUnrecoverable { addr })?;
                report.probed_lines += 1;
                // Data-line read plus the probe decryptions actually tried.
                report.cycles += NVM_READ + (counter - base + 1) * self.latency_aes();
                if counter != base {
                    changed = true;
                    // Unpack (major, minor) and set it directly: every
                    // written line of the page is probed, so each one ends
                    // at its own persisted counter, (major, 0) included.
                    rebuilt.set_line_counter(
                        line_in_page,
                        LineCounter {
                            major: counter / 128,
                            minor: (counter % 128) as u8,
                        },
                    );
                }
            }
            if changed {
                report.rebuilt_counter_blocks += 1;
                let line = rebuilt.to_line();
                #[expect(clippy::disallowed_methods, reason = "recovery: rebuilt counter block")]
                nvm.poke(self.layout.counter_block_addr(page), &line);
                rewritten.push((page, line));
            }
        }
        self.shadow.clear();

        // Rebuild the integrity tree from the persisted counter blocks and
        // verify against the persistent root register.
        match &mut self.tree {
            Tree::Eager(bmt) => {
                let expected_root = bmt.root(&self.mac);
                let mut rebuilt = BonsaiMerkleTree::new(self.layout.pages(), &self.mac);
                let base = self.layout.counter_block_addr(0).as_u64();
                let end = base + self.layout.pages() * 64;
                for addr in nvm.resident_lines_in(base, end) {
                    let page = (addr.as_u64() - base) / 64;
                    rebuilt.update_leaf(&self.mac, page, &nvm.peek(addr));
                    report.cycles +=
                        NVM_READ + rebuilt.height() as u64 * dolos_crypto::latency::MAC_LATENCY;
                }
                if rebuilt.root(&self.mac) != expected_root {
                    return Err(SecurityError::TreeRootMismatch);
                }
                *bmt = rebuilt;
            }
            Tree::Lazy(toc) => {
                toc.recover(&self.mac)
                    .map_err(|_| SecurityError::TocShadowTampered)?;
                // The ToC is not rebuilt, so a rewritten counter block must
                // match the leaf the recovered tree already holds: a wrong
                // rebuild (or a replayed line steering Osiris to an old
                // counter) fails here, not at a later audit.
                for (page, line) in &rewritten {
                    if !toc.verify_leaf(&self.mac, *page, line) {
                        return Err(SecurityError::TreeRootMismatch);
                    }
                }
            }
        }
        Ok(report)
    }

    /// Verifies the integrity tree against the *current* counters (NVM
    /// overlaid with dirty cached blocks), without mutating the tree.
    pub(crate) fn check_tree_consistency(&mut self, nvm: &NvmDevice) -> Result<(), SecurityError> {
        let layout = self.layout;
        let base = layout.counter_block_addr(0).as_u64();
        let end = base + layout.pages() * 64;
        let mut contents: BTreeMap<u64, Line> = BTreeMap::new();
        for addr in nvm.resident_lines_in(base, end) {
            contents.insert((addr.as_u64() - base) / 64, nvm.peek(addr));
        }
        for (page, line) in self.counter_cache.dirty_blocks() {
            contents.insert(page, line);
        }
        match &mut self.tree {
            Tree::Eager(bmt) => {
                let recomputed =
                    BonsaiMerkleTree::recompute_root(&self.mac, layout.pages(), &contents);
                if recomputed != bmt.root(&self.mac) {
                    return Err(SecurityError::TreeRootMismatch);
                }
            }
            Tree::Lazy(toc) => {
                for (&page, line) in &contents {
                    if !toc.verify_leaf(&self.mac, page, line) {
                        return Err(SecurityError::TreeRootMismatch);
                    }
                }
            }
        }
        Ok(())
    }

    /// Snapshots Ma-SU statistics.
    pub fn stats(&self) -> StatSet {
        let mut s = self.counter_cache.stats("ctr_cache");
        s.merge(&self.mt_cache.stats("mt_cache"));
        s.merge(&self.shadow.stats());
        s.set("masu.writes", self.writes_processed as f64);
        s.set("masu.reads", self.reads_served as f64);
        s.set("masu.overflows", self.overflows as f64);
        s.set(
            "masu.engine_ops",
            self.engines.iter().map(Pipeline::operations).sum::<u64>() as f64,
        );
        s
    }
}

#[cfg(test)]
mod tests {
    #![expect(clippy::disallowed_methods, reason = "tests tamper with NVM directly")]
    use super::*;

    fn masu(scheme: UpdateScheme) -> (MajorSecurityUnit, NvmDevice) {
        let layout = MetadataLayout::new(1 << 20);
        (
            MajorSecurityUnit::new(
                scheme,
                layout,
                CryptoLatency::default(),
                8 * 1024,
                4,
                256 * 1024,
                8,
                4,
                7,
            ),
            NvmDevice::new(),
        )
    }

    fn addr(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    #[test]
    fn write_then_read_round_trips() {
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        let pt = [0x42u8; 64];
        m.process_write(Cycle::ZERO, addr(5), &pt, &mut nvm);
        let (_, got) = m.read(Cycle::ZERO, addr(5), &mut nvm).unwrap();
        assert_eq!(got, pt);
    }

    #[test]
    fn data_is_encrypted_in_nvm() {
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        let pt = [0x42u8; 64];
        m.process_write(Cycle::ZERO, addr(5), &pt, &mut nvm);
        assert_ne!(nvm.peek(addr(5)), pt);
    }

    #[test]
    fn rewrites_change_ciphertext() {
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        let pt = [0x42u8; 64];
        m.process_write(Cycle::ZERO, addr(5), &pt, &mut nvm);
        let ct1 = nvm.peek(addr(5));
        m.process_write(Cycle::ZERO, addr(5), &pt, &mut nvm);
        let ct2 = nvm.peek(addr(5));
        assert_ne!(ct1, ct2, "counter bump must change the pad");
        let (_, got) = m.read(Cycle::ZERO, addr(5), &mut nvm).unwrap();
        assert_eq!(got, pt);
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        let (_, got) = m.read(Cycle::ZERO, addr(9), &mut nvm).unwrap();
        assert_eq!(got, [0u8; 64]);
    }

    #[test]
    fn tampered_data_is_detected_on_read() {
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        m.process_write(Cycle::ZERO, addr(5), &[1; 64], &mut nvm);
        nvm.tamper(addr(5), |line| line[0] ^= 0xFF);
        assert!(matches!(
            m.read(Cycle::ZERO, addr(5), &mut nvm),
            Err(SecurityError::DataMacMismatch { .. })
        ));
    }

    #[test]
    fn replayed_data_is_detected_on_read() {
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        m.process_write(Cycle::ZERO, addr(5), &[1; 64], &mut nvm);
        let stale = nvm.snapshot_line(addr(5));
        let stale_mac = m.read_data_mac(&nvm, addr(5));
        m.process_write(Cycle::ZERO, addr(5), &[2; 64], &mut nvm);
        // Attacker rolls back both data and MAC.
        nvm.replay_snapshot(addr(5), &stale);
        m.write_data_mac(&mut nvm, addr(5), stale_mac);
        assert!(m.read(Cycle::ZERO, addr(5), &mut nvm).is_err());
    }

    #[test]
    fn relocated_data_is_detected_on_read() {
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        m.process_write(Cycle::ZERO, addr(5), &[1; 64], &mut nvm);
        m.process_write(Cycle::ZERO, addr(6), &[2; 64], &mut nvm);
        // Swap the two lines and their MACs.
        let a = nvm.peek(addr(5));
        let b = nvm.peek(addr(6));
        nvm.poke(addr(5), &b);
        nvm.poke(addr(6), &a);
        let mac_a = m.read_data_mac(&nvm, addr(5));
        let mac_b = m.read_data_mac(&nvm, addr(6));
        m.write_data_mac(&mut nvm, addr(5), mac_b);
        m.write_data_mac(&mut nvm, addr(6), mac_a);
        assert!(m.read(Cycle::ZERO, addr(5), &mut nvm).is_err());
        assert!(m.read(Cycle::ZERO, addr(6), &mut nvm).is_err());
    }

    #[test]
    fn timing_matches_table_1_eager() {
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        // First write misses the counter cache (600) and the MT cache for
        // page 0's single interior node (650: a 600-cycle read issued one
        // 50-cycle port slot behind the counter read): then AES + 10 MACs.
        let done = m.process_write(Cycle::ZERO, addr(5), &[1; 64], &mut nvm);
        assert_eq!(done.as_u64(), 600 + 650 + 40 + 1600);
        // Second write to the same page hits both caches: 40 + 1600.
        let done2 = m.process_write(done, addr(6), &[1; 64], &mut nvm);
        assert_eq!(done2 - done, 40 + 1600);
    }

    #[test]
    fn timing_matches_table_1_lazy() {
        let (mut m, mut nvm) = masu(UpdateScheme::LazyToc);
        let done = m.process_write(Cycle::ZERO, addr(5), &[1; 64], &mut nvm);
        assert_eq!(done.as_u64(), 600 + 650 + 40 + 640);
    }

    #[test]
    fn per_bank_engines_overlap_independent_updates() {
        let (mut m, mut nvm) = masu(UpdateScheme::LazyToc);
        m.set_banks(4);
        let done = m.process_write(Cycle::ZERO, addr(0), &[1; 64], &mut nvm);
        assert_eq!(done.as_u64(), 600 + 650 + 40 + 640);
        // Same page (caches hit), different bank: bank 1's engine is idle,
        // so this update is not serialized behind bank 0's.
        let done2 = m.process_write(Cycle::ZERO, addr(1), &[1; 64], &mut nvm);
        assert_eq!(done2.as_u64(), 40 + 640);
        let s = m.stats();
        assert_eq!(s.get("masu.engine_ops"), Some(2.0));
    }

    #[test]
    fn crash_and_recover_restores_reads() {
        for scheme in [UpdateScheme::EagerMerkle, UpdateScheme::LazyToc] {
            let (mut m, mut nvm) = masu(scheme);
            for i in 0..20u64 {
                m.process_write(Cycle::ZERO, addr(i), &[i as u8 + 1; 64], &mut nvm);
            }
            m.crash();
            nvm.power_cycle();
            m.recover(&mut nvm).expect("clean recovery");
            for i in 0..20u64 {
                let (_, got) = m.read(Cycle::ZERO, addr(i), &mut nvm).unwrap();
                assert_eq!(got, [i as u8 + 1; 64], "scheme {scheme:?} line {i}");
            }
        }
    }

    #[test]
    fn recovery_probes_stale_counters() {
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        // Phase 4: three writes leave the NVM counter stale by 3.
        for _ in 0..3 {
            m.process_write(Cycle::ZERO, addr(5), &[9; 64], &mut nvm);
        }
        m.crash();
        let report = m.recover(&mut nvm).expect("recovery");
        assert!(report.probed_lines > 0);
        assert!(report.rebuilt_counter_blocks > 0);
        let (_, got) = m.read(Cycle::ZERO, addr(5), &mut nvm).unwrap();
        assert_eq!(got, [9; 64]);
    }

    #[test]
    fn post_crash_tampering_fails_recovery() {
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        m.process_write(Cycle::ZERO, addr(5), &[1; 64], &mut nvm);
        m.crash();
        nvm.tamper(addr(5), |line| line[0] ^= 0xFF);
        assert!(m.recover(&mut nvm).is_err());
    }

    #[test]
    fn minor_overflow_reencrypts_page() {
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        m.process_write(Cycle::ZERO, addr(1), &[0xAA; 64], &mut nvm);
        let before = nvm.peek(addr(1));
        // Overflow line 0's minor counter (127 increments + 1).
        for _ in 0..=127u32 {
            m.process_write(Cycle::ZERO, addr(0), &[0xBB; 64], &mut nvm);
        }
        let s = m.stats();
        assert!(s.get_or_zero("masu.overflows") >= 1.0);
        // Line 1 was re-encrypted under the new epoch...
        assert_ne!(nvm.peek(addr(1)), before);
        // ...and still reads back correctly.
        let (_, got) = m.read(Cycle::ZERO, addr(1), &mut nvm).unwrap();
        assert_eq!(got, [0xAA; 64]);
        let (_, got0) = m.read(Cycle::ZERO, addr(0), &mut nvm).unwrap();
        assert_eq!(got0, [0xBB; 64]);
    }

    #[test]
    fn recovery_after_overflow_restores_minor_zero_counters() {
        for scheme in [UpdateScheme::EagerMerkle, UpdateScheme::LazyToc] {
            let (mut m, mut nvm) = masu(scheme);
            m.process_write(Cycle::ZERO, addr(0), &[0xAA; 64], &mut nvm);
            // Line 1's 128th write overflows the page: line 0 is re-encrypted
            // at (1, 0), line 1 moves to (1, 1), and the block persists.
            for _ in 0..128 {
                m.process_write(Cycle::ZERO, addr(1), &[0xBB; 64], &mut nvm);
            }
            assert_eq!(m.stats().get_or_zero("masu.overflows"), 1.0);
            // One more write: (1, 2), below the Osiris stop-loss phase of 4,
            // so the persisted block is stale when power fails.
            m.process_write(Cycle::ZERO, addr(1), &[0xCC; 64], &mut nvm);
            m.crash();
            nvm.power_cycle();
            m.recover(&mut nvm)
                .unwrap_or_else(|e| panic!("{scheme:?}: recover failed: {e:?}"));
            m.audit(&mut nvm)
                .unwrap_or_else(|e| panic!("{scheme:?}: audit after recover: {e:?}"));
            assert_eq!(
                m.read(Cycle::ZERO, addr(0), &mut nvm).unwrap().1,
                [0xAA; 64]
            );
            assert_eq!(
                m.read(Cycle::ZERO, addr(1), &mut nvm).unwrap().1,
                [0xCC; 64]
            );
        }
    }

    #[test]
    fn lazy_recovery_rejects_a_replay_that_rolls_a_counter_back() {
        let (mut m, mut nvm) = masu(UpdateScheme::LazyToc);
        m.process_write(Cycle::ZERO, addr(5), &[7; 64], &mut nvm);
        let stale = nvm.peek(addr(5));
        let stale_mac = m.read_data_mac(&nvm, addr(5));
        m.process_write(Cycle::ZERO, addr(5), &[7; 64], &mut nvm);
        m.crash();
        nvm.power_cycle();
        // The old ciphertext and MAC decrypt to the same plaintext under
        // the old counter, so Osiris settles on that counter: only the
        // recovered tree's leaf can tell the rebuilt block is stale.
        nvm.replay_snapshot(addr(5), &stale);
        m.write_data_mac(&mut nvm, addr(5), stale_mac);
        assert_eq!(m.recover(&mut nvm), Err(SecurityError::TreeRootMismatch));
    }

    #[test]
    fn stats_expose_cache_behaviour() {
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        m.process_write(Cycle::ZERO, addr(0), &[1; 64], &mut nvm);
        m.process_write(Cycle::ZERO, addr(1), &[1; 64], &mut nvm);
        let s = m.stats();
        assert_eq!(s.get("masu.writes"), Some(2.0));
        assert_eq!(s.get("ctr_cache.misses"), Some(1.0));
        assert_eq!(s.get("ctr_cache.hits"), Some(1.0));
    }
}
