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
    /// Boxed: its main, cached and shadow copies make it the larger tree.
    Lazy(Box<TreeOfCounters>),
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
    /// probe decryptions, and the tree-rebuild MACs, at the unit's
    /// configured crypto latencies (Table 1 by default).
    pub cycles: u64,
}

/// The Major Security Unit.
#[derive(Debug, Clone)]
pub struct MajorSecurityUnit {
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
    pending_counter_updates: PagedTable<u64>,
    /// Host-side memo cache over the counter-mode pad computation. Purely
    /// functional: hits and misses return identical pads, and the simulated
    /// AES latency is charged by the engine model either way.
    pad_cache: PadCache,
    /// Counter blocks the last lazy-ToC recovery rewrote, by page. Kept
    /// between recoveries with room for every block the counter cache can
    /// hold, so a recovery fills it without allocating.
    rewritten_pages: Vec<u64>,
    osiris_phase: u64,
    /// One crypto/tree-update engine per NVM bank (index =
    /// [`LineAddr::bank_index`]). With a single bank this is the paper's
    /// globally serial update engine; more banks model per-bank metadata
    /// pipelines whose lazy subtree updates proceed independently.
    engines: Vec<Pipeline>,
    banks: usize,
    /// Crypto latencies: the AES pad term lets trace spans split one engine
    /// occupancy into its encrypt and tree-update stages, and recovery
    /// charges its probes and tree MACs from it.
    latency: CryptoLatency,
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
            UpdateScheme::LazyToc => Tree::Lazy(Box::new(TreeOfCounters::new(pages, &mac))),
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
            layout,
            aes: Aes128::new(&aes_key),
            mac,
            counter_cache: cache,
            mt_cache,
            shadow: ShadowTable::new(shadow_capacity),
            tree,
            ecc: PagedTable::new(),
            pending_counter_updates: PagedTable::new(),
            // 256 direct-mapped slots: covers the same-page rewrite/read-back
            // window of every workload here at 20 KiB of host memory.
            pad_cache: PadCache::new(256),
            // Anubis tracks at most one counter block per counter-cache line.
            rewritten_pages: match scheme {
                UpdateScheme::EagerMerkle => Vec::new(),
                UpdateScheme::LazyToc => Vec::with_capacity(counter_cache_bytes / 64),
            },
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
            latency,
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
        let update = self.latency.aes + self.tree_cycles;
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
        let pending = self.pending_counter_updates.entry(page);
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
        // The page's written lines, in line order: only they have ECC.
        for (line_index, &ecc) in self.ecc.range(page * 64, page * 64 + 64) {
            let addr = LineAddr::from_index(line_index);
            let line_in_page = addr.line_in_page();
            if line_in_page == skip_line {
                continue; // the triggering line is re-written by the caller
            }
            let old_ct = nvm.peek(addr);
            let old_counter = old_block.line_counter(line_in_page).packed();
            let mut plaintext = old_ct;
            // `pad_for` inlined: it would borrow all of `self` while the
            // ECC range is read.
            let old_pad = self.pad_cache.pad(&self.aes, addr.as_u64(), old_counter);
            xor_in_place(&mut plaintext, &old_pad);
            debug_assert_eq!(ecc64(&plaintext), ecc, "pre-overflow state consistent");
            let new_counter = new_block.line_counter(line_in_page).packed();
            let mut ct = plaintext;
            let new_pad = self.pad_cache.pad(&self.aes, addr.as_u64(), new_counter);
            xor_in_place(&mut ct, &new_pad);
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
            let issue = Cycle::new(done.as_u64() - (self.latency.aes + self.tree_cycles));
            let encrypted = issue + self.latency.aes;
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
        // The eager tree's interior nodes are volatile too, but recovery
        // keeps them only if they match the persisted counter blocks, so
        // nothing to do here.
    }

    /// Recovers metadata after a crash: replays the Anubis shadow working
    /// set through Osiris counter probing, and verifies the integrity tree
    /// against the persisted counter blocks and the persistent root
    /// register. An eager tree whose leaves are exactly the persisted
    /// counter blocks equals their rebuild, so it is kept without one; the
    /// modelled hardware's wholesale rebuild is charged in cycles.
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
        // blocks (the keys below the level-tagged MT keys) need Osiris
        // rebuilding — interior nodes are checked as a whole below. The
        // table yields them in ascending page order, so recovery work (and
        // its cycle accounting) is a pure function of the tracked set.
        let mut tracked_pages = 0u64;
        self.rewritten_pages.clear();
        for page in self.shadow.tracked().take_while(|&key| key < 1 << 56) {
            // One counter-block read per tracked page.
            tracked_pages += 1;
            report.cycles += NVM_READ;
            let stored = CounterBlock::from_line(&nvm.peek(self.layout.counter_block_addr(page)));
            let mut rebuilt = stored;
            let mut changed = false;
            // The page's written lines, in line order: only they have ECC.
            for (line_index, &ecc) in self.ecc.range(page * 64, page * 64 + 64) {
                let addr = LineAddr::from_index(line_index);
                let line_in_page = addr.line_in_page();
                let ciphertext = nvm.peek(addr);
                let base = stored.line_counter(line_in_page).packed();
                // Candidate pads come from the memo, which still holds the
                // line's newest pad unless another line evicted it.
                let pads = |c| self.pad_cache.pad(&self.aes, addr.as_u64(), c);
                let (counter, _) = probe_counter(pads, &ciphertext, ecc, base, self.osiris_phase)
                    .ok_or(SecurityError::CounterUnrecoverable { addr })?;
                report.probed_lines += 1;
                // Data-line read plus the probe decryptions actually tried.
                report.cycles += NVM_READ + (counter - base + 1) * self.latency.aes;
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
                if matches!(self.tree, Tree::Lazy(_)) {
                    self.rewritten_pages.push(page);
                }
            }
        }
        // The shadow-table scan: one NVM read per 8 tracked pages.
        report.cycles += tracked_pages.div_ceil(8) * NVM_READ;
        self.shadow.clear();

        // Check the integrity tree against the persisted counter blocks and
        // the persistent root register.
        match &mut self.tree {
            Tree::Eager(bmt) => {
                let base = self.layout.counter_block_addr(0).as_u64();
                let end = base + self.layout.pages() * 64;
                // A tree whose leaves are exactly the persisted blocks
                // equals their rebuild at every node (`holds_exactly`), so
                // it is kept as it is, with nothing built or allocated.
                // Otherwise the root recomputed from the blocks decides, as
                // in `check_tree_consistency`; the held tree is kept either
                // way, so a failed recovery leaves it as it was.
                let mut blocks = 0;
                let lines = nvm.lines_in(base, end).map(|(addr, line)| {
                    blocks += 1;
                    ((addr.as_u64() - base) / 64, line)
                });
                if !bmt.holds_exactly(&self.mac, lines) {
                    let contents: BTreeMap<u64, Line> = nvm
                        .lines_in(base, end)
                        .map(|(addr, line)| ((addr.as_u64() - base) / 64, *line))
                        .collect();
                    let rebuilt =
                        BonsaiMerkleTree::recompute_root(&self.mac, self.layout.pages(), &contents);
                    if rebuilt != bmt.root(&self.mac) {
                        return Err(SecurityError::TreeRootMismatch);
                    }
                    blocks = contents.len() as u64;
                }
                // The modelled hardware rebuilds the tree wholesale: one
                // counter-block read and one leaf-to-root MAC chain per
                // resident block.
                report.cycles += blocks * (NVM_READ + bmt.height() as u64 * self.latency.mac);
            }
            Tree::Lazy(toc) => {
                toc.recover(&self.mac)
                    .map_err(|_| SecurityError::TocShadowTampered)?;
                // The ToC is not rebuilt, so a rewritten counter block must
                // match the leaf the recovered tree already holds: a wrong
                // rebuild (or a replayed line steering Osiris to an old
                // counter) fails here, not at a later audit.
                for &page in &self.rewritten_pages {
                    let line = nvm.peek(self.layout.counter_block_addr(page));
                    if !toc.verify_leaf(&self.mac, page, &line) {
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
        masu_with(scheme, CryptoLatency::default())
    }

    fn masu_with(scheme: UpdateScheme, latency: CryptoLatency) -> (MajorSecurityUnit, NvmDevice) {
        let layout = MetadataLayout::new(1 << 20);
        (
            MajorSecurityUnit::new(scheme, layout, latency, 8 * 1024, 4, 256 * 1024, 8, 4, 7),
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
    fn recovery_charges_the_configured_crypto_latencies() {
        // The crash state does not depend on timing, so one lineage
        // recovers to the same work under every latency; only the charged
        // terms move, each in proportion to its latency.
        let cycles = |aes: u64, mac: u64| {
            let latency = CryptoLatency {
                aes,
                mac,
                ..CryptoLatency::default()
            };
            let (mut m, mut nvm) = masu_with(UpdateScheme::EagerMerkle, latency);
            for i in 0..8u64 {
                for _ in 0..3 {
                    m.process_write(Cycle::ZERO, addr(i * 64 + i), &[i as u8 + 1; 64], &mut nvm);
                }
            }
            m.crash();
            nvm.power_cycle();
            m.recover(&mut nvm).expect("recovery").cycles
        };
        // Osiris probes: one AES decryption per counter tried.
        let probes = cycles(40, 160) - cycles(0, 160);
        assert!(probes > 0);
        assert_eq!(cycles(80, 160) - cycles(0, 160), 2 * probes);
        // The eager tree rebuild: one leaf-to-root MAC chain per block.
        let tree = cycles(40, 320) - cycles(40, 160);
        assert!(tree > 0);
        assert_eq!(cycles(40, 480) - cycles(40, 160), 2 * tree);
    }

    #[test]
    fn recovery_is_a_function_of_the_tracked_set() {
        // 24 pages, three lines each written 1–3 times. Each page keeps the
        // order of its own writes (its Osiris write-backs depend on it);
        // only the order across pages differs, and with it the order the
        // shadow table records them in.
        let pages: Vec<Vec<u64>> = (0..24u64)
            .map(|p| {
                let lines = [0, 3, 17 + p % 5].into_iter();
                let writes = |l: u64| std::iter::repeat_n(p * 64 + l, 1 + ((p + l) % 3) as usize);
                lines.flat_map(writes).collect()
            })
            .collect();
        let ascending: Vec<u64> = pages.iter().flatten().copied().collect();
        let descending: Vec<u64> = pages.iter().rev().flatten().copied().collect();
        let interleaved: Vec<u64> = (0..9)
            .flat_map(|round| {
                pages
                    .iter()
                    .rev()
                    .filter_map(move |p| p.get(round).copied())
            })
            .collect();
        for scheme in [UpdateScheme::EagerMerkle, UpdateScheme::LazyToc] {
            let outcomes: Vec<_> = [&ascending, &descending, &interleaved]
                .into_iter()
                .map(|order| {
                    assert_eq!(order.len(), ascending.len());
                    let (mut m, mut nvm) = masu(scheme);
                    for &line in order {
                        m.process_write(Cycle::ZERO, addr(line), &[line as u8; 64], &mut nvm);
                    }
                    // Every page is still cached, so every order tracks
                    // the same pages.
                    assert_eq!(m.stats().get("ctr_cache.resident"), Some(24.0));
                    let tracked: Vec<u64> = m.shadow.tracked().collect();
                    m.crash();
                    nvm.power_cycle();
                    let report = m.recover(&mut nvm).expect("clean recovery");
                    for &line in &ascending {
                        let (_, got) = m.read(Cycle::ZERO, addr(line), &mut nvm).unwrap();
                        assert_eq!(got, [line as u8; 64], "{scheme:?} line {line}");
                    }
                    (tracked, report)
                })
                .collect();
            let (_, first) = &outcomes[0];
            assert!(first.probed_lines > 0 && first.rebuilt_counter_blocks > 0);
            for outcome in &outcomes[1..] {
                assert_eq!(outcome, &outcomes[0], "{scheme:?}");
            }
        }
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

    /// The eager tree.
    fn eager_tree(m: &mut MajorSecurityUnit) -> &mut BonsaiMerkleTree {
        let Tree::Eager(bmt) = &mut m.tree else {
            panic!("eager scheme")
        };
        bmt
    }

    /// The eager tree's root, read on a clone so `m` stays unmaterialized.
    fn eager_root(m: &MajorSecurityUnit) -> dolos_crypto::mac::Mac64 {
        let mut m = m.clone();
        let mac = m.mac.clone();
        eager_tree(&mut m).root(&mac)
    }

    /// The resident counter blocks, by page.
    fn counter_blocks(m: &MajorSecurityUnit, nvm: &NvmDevice) -> BTreeMap<u64, Line> {
        let base = m.layout.counter_block_addr(0).as_u64();
        nvm.lines_in(base, base + m.layout.pages() * 64)
            .map(|(addr, line)| ((addr.as_u64() - base) / 64, *line))
            .collect()
    }

    /// Recovers `m`, returning the outcome and whether its eager tree, as
    /// it was before recovery, holds exactly the resident counter blocks
    /// after it: the condition under which recovery keeps the tree without
    /// a root compare. (The compare materializes the tree, so the tree
    /// after recovery cannot tell.)
    fn recover_kept(
        m: &mut MajorSecurityUnit,
        nvm: &mut NvmDevice,
    ) -> (Result<MasuRecovery, SecurityError>, bool) {
        let mut before = m.clone();
        let outcome = m.recover(nvm);
        let blocks = counter_blocks(m, nvm);
        let mac = m.mac.clone();
        let kept = eager_tree(&mut before)
            .holds_exactly(&mac, blocks.iter().map(|(page, line)| (*page, line)));
        (outcome, kept)
    }

    /// Replaces `m`'s eager tree with one rebuilt wholesale from the
    /// resident counter blocks, as the modelled hardware's recovery does.
    fn rebuild_tree(m: &mut MajorSecurityUnit, nvm: &NvmDevice) {
        let mut rebuilt = BonsaiMerkleTree::new(m.layout.pages(), &m.mac);
        for (page, line) in &counter_blocks(m, nvm) {
            rebuilt.update_leaf(&m.mac, *page, line);
        }
        m.tree = Tree::Eager(rebuilt);
    }

    /// Over seeded lineages of writes (hot lines that overflow, pages
    /// spread past the counter cache's reach so blocks are written back
    /// and fall out of the Anubis working set), audits that materialize
    /// the tree and crashes, a Ma-SU that keeps its eager tree at every
    /// recovery and one whose tree is rebuilt wholesale after every
    /// recovery return the same outcomes, leave the same device, hold the
    /// same root and read back every written line alike. Each recovery
    /// finds the kept tree holding exactly the resident blocks.
    #[test]
    fn kept_tree_and_wholesale_rebuild_agree_over_seeded_lineages() {
        for seed in [1u64, 0xD0105, 0x5EED_0033] {
            let mut rng = dolos_sim::rng::XorShift::new(seed);
            let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
            let (mut r, mut r_nvm) = (m.clone(), nvm.clone());
            let mut written: BTreeMap<u64, u8> = BTreeMap::new();
            for round in 0..10 {
                for _ in 0..1 + rng.next_below(120) {
                    let line = match rng.next_below(4) {
                        0 | 1 => rng.next_below(2),
                        _ => rng.next_below(250) * 64 + rng.next_below(4),
                    };
                    let value = rng.next_u64() as u8;
                    m.process_write(Cycle::ZERO, addr(line), &[value; 64], &mut nvm);
                    r.process_write(Cycle::ZERO, addr(line), &[value; 64], &mut r_nvm);
                    written.insert(line, value);
                }
                if rng.next_below(3) == 0 {
                    m.audit(&mut nvm).expect("clean audit");
                    r.audit(&mut r_nvm).expect("clean audit");
                }
                for (m, nvm) in [(&mut m, &mut nvm), (&mut r, &mut r_nvm)] {
                    m.crash();
                    nvm.power_cycle();
                }
                let at = format!("seed {seed:#x} round {round}");
                let (outcome, kept) = recover_kept(&mut m, &mut nvm);
                assert_eq!(outcome, r.recover(&mut r_nvm), "{at}");
                outcome.unwrap_or_else(|e| panic!("{at}: {e:?}"));
                assert!(kept, "{at}: tree not kept");
                rebuild_tree(&mut r, &r_nvm);
                let lines = |nvm: &NvmDevice| -> Vec<(LineAddr, Line)> {
                    nvm.lines_in(0, u64::MAX).map(|(a, l)| (a, *l)).collect()
                };
                assert_eq!(lines(&nvm), lines(&r_nvm), "{at}");
                assert_eq!(eager_root(&m), eager_root(&r), "{at}");
                for (&line, &value) in &written {
                    for (m, nvm) in [(&mut m, &mut nvm), (&mut r, &mut r_nvm)] {
                        let (_, got) = m.read(Cycle::ZERO, addr(line), nvm).unwrap();
                        assert_eq!(got, [value; 64], "{at} line {line}");
                    }
                }
            }
            let stats = m.stats();
            for key in ["masu.overflows", "ctr_cache.writebacks"] {
                assert!(stats.get_or_zero(key) >= 1.0, "seed {seed:#x}: {key}");
            }
        }
    }

    /// A resident counter block that differs from the tree's leaf, however
    /// the tree holds that leaf (pending, materialized, both, or not at all),
    /// fails recovery with `TreeRootMismatch`, leaves the tree as it was,
    /// and fails a second recovery the same way; the untampered state
    /// keeps its tree.
    #[test]
    fn tampered_counter_block_fails_recovery_and_leaves_the_tree() {
        // Sets line 63's minor counter in `page`'s block. Line 63 is never
        // written, so Osiris (which probes written lines) still succeeds
        // and only the tree can see the change.
        let tamper = |m: &MajorSecurityUnit, nvm: &mut NvmDevice, page: u64| {
            let at = m.layout.counter_block_addr(page);
            let mut block = CounterBlock::from_line(&nvm.peek(at));
            let major = block.line_counter(63).major;
            block.set_line_counter(63, LineCounter { major, minor: 1 });
            nvm.poke(at, &block.to_line());
        };
        // How the tree holds page 0's leaf at the crash.
        let holds = ["pending", "materialized", "pending over materialized"];
        for (held, tampered_page) in holds
            .into_iter()
            .flat_map(|held| [None, Some(0), Some(40)].map(|page| (held, page)))
        {
            let case = format!("{held} leaf, tampered page {tampered_page:?}");
            let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
            for i in 0..3u64 {
                m.process_write(Cycle::ZERO, addr(5 + i), &[i as u8 + 1; 64], &mut nvm);
            }
            if held != "pending" {
                m.audit(&mut nvm).expect("clean audit");
            }
            if held == "pending over materialized" {
                m.process_write(Cycle::ZERO, addr(6), &[9; 64], &mut nvm);
            }
            let root = eager_root(&m);
            m.crash();
            nvm.power_cycle();
            let Some(page) = tampered_page else {
                let (outcome, kept) = recover_kept(&mut m, &mut nvm);
                assert!(outcome.is_ok() && kept, "{case}: {outcome:?}, kept {kept}");
                continue;
            };
            tamper(&m, &mut nvm, page);
            for attempt in 0..2 {
                assert_eq!(
                    m.recover(&mut nvm),
                    Err(SecurityError::TreeRootMismatch),
                    "{case}, attempt {attempt}"
                );
                assert_eq!(eager_root(&m), root, "{case}: the tree must stay as it was");
            }
        }
        // A zero block where the tree holds no leaf equals the default:
        // the tree is kept.
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        m.process_write(Cycle::ZERO, addr(5), &[1; 64], &mut nvm);
        m.crash();
        nvm.poke(m.layout.counter_block_addr(40), &[0; 64]);
        let (outcome, kept) = recover_kept(&mut m, &mut nvm);
        assert!(outcome.is_ok() && kept, "{outcome:?}, kept {kept}");
        // A held leaf equal to the default with no resident block is not
        // held exactly, yet a rebuild has the same root: the root compare
        // decides, and recovery succeeds with the tree as it was.
        let (mut m, mut nvm) = masu(UpdateScheme::EagerMerkle);
        m.process_write(Cycle::ZERO, addr(5), &[1; 64], &mut nvm);
        let mac = m.mac.clone();
        eager_tree(&mut m).update_leaf(&mac, 40, &[0; 64]);
        let root = eager_root(&m);
        m.crash();
        let (outcome, kept) = recover_kept(&mut m, &mut nvm);
        assert!(outcome.is_ok() && !kept, "{outcome:?}, kept {kept}");
        assert_eq!(eager_root(&m), root);
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
