//! The secure memory system: frontend, WPQ, background drain, crash and
//! recovery.
//!
//! [`SecureMemorySystem`] composes the Mi-SU, Ma-SU, WPQ and NVM device into
//! one of four controller architectures (Figure 5 of the paper):
//!
//! * **IdealNonSecure** — no security; a persist completes on WPQ insertion.
//! * **DeferredSecure** — the infeasible Figure 5-c machine: persists
//!   complete on insertion and the full pipeline runs behind the WPQ with no
//!   Mi-SU cost. Used only for the motivation comparison (Figure 6).
//! * **PreWpqSecure** — the Anubis/AGIT baseline: the full security pipeline
//!   runs *before* insertion, on the critical path of the persist.
//! * **Dolos** — the paper's design: the Mi-SU protects the WPQ with 0–2
//!   MACs of critical-path latency; the Ma-SU secures entries after
//!   eviction.
//!
//! Each architecture is one variant of the private `Units` enum, holding
//! exactly the security units that design has, so every step matches on the
//! units it needs rather than on the configured kind.
//!
//! Timing is simulated by lazy catch-up: every public operation first
//! advances the background drain engine to `now`; the drain processes each
//! bank's WPQ shard strictly in order, retiring up to one entry per idle
//! bank per scheduling round (same-bank drains serialize through the bank's
//! redo-log buffer; distinct banks proceed independently). With
//! `banks = 1` — the default — this degenerates to the paper's
//! single-queue, one-at-a-time model, cycle for cycle.

use std::collections::VecDeque;

use dolos_nvm::addr::LineAddr;
use dolos_nvm::wpq::InsertOutcome;
use dolos_nvm::{BankSet, Line, NvmDevice};
use dolos_secmem::layout::MetadataLayout;
use dolos_sim::stats::{Running, StatSet};
use dolos_sim::trace::{sort_events, EventKind, TraceEvent, TraceMode, TraceSink};
use dolos_sim::Cycle;

use crate::config::{ControllerConfig, ControllerKind};
use crate::error::SecurityError;
use crate::inject::{FaultPlan, InjectionPoint};
use crate::masu::{MajorSecurityUnit, MasuRecovery};
use crate::misu::MinorSecurityUnit;

/// Report of a completed recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WPQ entries replayed from the ADR dump.
    pub wpq_entries_replayed: usize,
    /// Ma-SU metadata recovery details (absent for IdealNonSecure).
    pub masu: Option<MasuRecovery>,
    /// Estimated recovery cycles for the Mi-SU path (§5.5 model).
    pub estimated_misu_cycles: u64,
}

/// The security units of one controller architecture (Figure 5): each
/// variant holds exactly the units its design has.
#[derive(Debug)]
#[expect(clippy::large_enum_variant, reason = "one per system, held inline")]
enum Units {
    /// No security unit: lines enter and leave the WPQ as plaintext.
    Ideal,
    /// Figure 5-c: the Ma-SU runs behind the WPQ on plaintext entries.
    Deferred(MajorSecurityUnit),
    /// Figure 5-b: the Ma-SU secures each line before it enters the WPQ.
    PreWpq(MajorSecurityUnit),
    /// The Mi-SU in front of the WPQ, the Ma-SU behind it.
    Dolos(MinorSecurityUnit, MajorSecurityUnit),
}

impl Units {
    /// Whichever of the Mi-SU and Ma-SU this design has.
    fn parts(
        &mut self,
    ) -> (
        Option<&mut MinorSecurityUnit>,
        Option<&mut MajorSecurityUnit>,
    ) {
        match self {
            Units::Ideal => (None, None),
            Units::Deferred(masu) | Units::PreWpq(masu) => (None, Some(masu)),
            Units::Dolos(misu, masu) => (Some(misu), Some(masu)),
        }
    }
}

/// The secure persistent-memory system.
///
/// # Examples
///
/// ```
/// use dolos_core::{ControllerConfig, MiSuKind, SecureMemorySystem};
/// use dolos_sim::Cycle;
///
/// let mut system = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
/// let addr = 0x1000;
/// let done = system.persist_write(Cycle::ZERO, addr, &[7; 64]);
/// // One Mi-SU MAC (160 cycles) in the critical path.
/// assert_eq!(done.as_u64(), 160);
/// let (_, data) = system.read(done, addr);
/// assert_eq!(data, [7; 64]);
/// ```
#[derive(Debug)]
pub struct SecureMemorySystem {
    config: ControllerConfig,
    layout: MetadataLayout,
    nvm: NvmDevice,
    wpq: BankSet,
    units: Units,
    /// Per-bank: entries being drained (started, not yet cleared), in
    /// order, with their completion times. Completion is monotone within a
    /// bank by construction (the bank's busy-until clamp).
    inflight: Vec<VecDeque<(usize, Cycle)>>,
    /// Per-bank: ready times of queued entries, in insertion order.
    ready_times: Vec<VecDeque<Cycle>>,
    /// How many fetched entries may be in flight at once *per bank*: the
    /// drain engine's pipeline depth (latency / initiation interval).
    /// Entries beyond this stay live in the WPQ and remain eligible for
    /// coalescing.
    drain_depth: usize,
    crashed: bool,
    persists: u64,
    retries: u64,
    persist_latency: Running,
    read_wpq_hits: u64,
    /// Armed fault-injection plan (crash testing); `None` in normal runs.
    fault: Option<FaultPlan>,
    /// A fault fired inside the background drain engine; the next fallible
    /// operation converts it into a crash.
    pending_power_failure: Option<InjectionPoint>,
    /// Controller-level trace sink (persist spans, fence stalls). Component
    /// sinks live inside the WPQ, NVM device, Mi-SU and Ma-SU; all buffers
    /// merge in [`Self::take_trace_events`].
    trace: TraceSink,
}

impl SecureMemorySystem {
    /// Builds a system from a configuration.
    pub fn new(config: ControllerConfig) -> Self {
        let layout = MetadataLayout::new(config.region_bytes);
        let masu = || {
            let mut masu = MajorSecurityUnit::new(
                config.scheme,
                layout,
                config.latency,
                config.counter_cache_bytes,
                config.counter_cache_ways,
                config.mt_cache_bytes,
                config.mt_cache_ways,
                config.osiris_phase,
                config.key_seed,
            );
            masu.set_banks(config.banks);
            masu
        };
        let units = match config.kind {
            ControllerKind::IdealNonSecure => Units::Ideal,
            ControllerKind::DeferredSecure => Units::Deferred(masu()),
            ControllerKind::PreWpqSecure => Units::PreWpq(masu()),
            ControllerKind::Dolos(kind) => Units::Dolos(
                MinorSecurityUnit::with_geometry(
                    kind,
                    config.banks,
                    config.physical_wpq_entries,
                    config.key_seed,
                    config.latency.mac,
                ),
                masu(),
            ),
        };
        let drain_depth = match units {
            Units::Ideal | Units::PreWpq(_) => {
                (dolos_nvm::device::WRITE_LATENCY / dolos_nvm::device::WRITE_ISSUE_INTERVAL)
                    as usize
            }
            Units::Deferred(_) | Units::Dolos(..) => {
                (config.masu_update_cycles() / config.latency.mac.max(1)) as usize + 1
            }
        };
        let mut wpq = BankSet::new(config.banks, config.usable_wpq_entries());
        wpq.set_coalescing(config.coalescing);
        let banks = config.banks;
        let trace = config.trace;
        let mut system = Self {
            trace: TraceSink::Null,
            config,
            layout,
            nvm: NvmDevice::new(),
            wpq,
            units,
            inflight: vec![VecDeque::new(); banks],
            ready_times: vec![VecDeque::new(); banks],
            drain_depth,
            crashed: false,
            persists: 0,
            retries: 0,
            persist_latency: Running::new(),
            read_wpq_hits: 0,
            fault: None,
            pending_power_failure: None,
        };
        system.set_trace_mode(trace);
        system
    }

    /// Switches the tracing mode of the whole system (controller plus every
    /// component sink). Buffered events from the previous mode are kept
    /// until drained with [`Self::take_trace_events`].
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.config.trace = mode;
        self.trace = TraceSink::from_mode(mode);
        self.wpq.set_trace_mode(mode);
        self.nvm.set_trace_mode(mode);
        let (misu, masu) = self.units.parts();
        if let Some(misu) = misu {
            misu.set_trace_mode(mode);
        }
        if let Some(masu) = masu {
            masu.set_trace_mode(mode);
        }
    }

    /// Drains every buffered trace event (controller, WPQ, NVM device,
    /// Mi-SU, Ma-SU) into one deterministically ordered stream.
    ///
    /// Returns an empty vector when tracing is off. The order is a pure
    /// function of the event set (begin, end, kind, addr, value), so two
    /// runs of the same workload produce byte-identical streams regardless
    /// of component drain order.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        let mut events = self.trace.take();
        events.extend(self.wpq.take_trace_events());
        events.extend(self.nvm.take_trace_events());
        let (misu, masu) = self.units.parts();
        if let Some(misu) = misu {
            events.extend(misu.take_trace_events());
        }
        if let Some(masu) = masu {
            events.extend(masu.take_trace_events());
        }
        sort_events(&mut events);
        events
    }

    /// Arms a one-shot power-failure plan. The next time execution reaches
    /// the plan's injection point for the configured occurrence, the system
    /// crashes exactly there and the interrupted fallible operation returns
    /// [`SecurityError::PowerInterrupted`].
    ///
    /// Replaces any previously armed plan.
    pub fn arm_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Disarms and returns the armed plan (with its occurrence counters),
    /// if any.
    pub fn disarm_fault(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    fn fault_fires(&mut self, point: InjectionPoint) -> bool {
        self.fault.as_mut().is_some_and(|p| p.observe(point))
    }

    /// Converts a power failure that fired inside the drain engine into a
    /// crash at `t`.
    fn take_power_failure(&mut self, t: Cycle) -> Result<(), SecurityError> {
        if let Some(point) = self.pending_power_failure.take() {
            self.crash(t);
            return Err(SecurityError::PowerInterrupted { point });
        }
        Ok(())
    }

    /// The active configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The metadata layout (for tests that target metadata regions).
    pub fn layout(&self) -> &MetadataLayout {
        &self.layout
    }

    /// Whether the system is in the crashed (powered-off) state.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Direct access to the NVM device for attack injection in tests and
    /// examples. Mutating data through this handle models an external
    /// attacker, not a program write.
    pub fn nvm_mut(&mut self) -> &mut NvmDevice {
        &mut self.nvm
    }

    /// Read-only access to the NVM device.
    pub fn nvm(&self) -> &NvmDevice {
        &self.nvm
    }
    fn drain_one(&mut self, slot: usize, addr: LineAddr, payload: &Line, start: Cycle) -> Cycle {
        match &mut self.units {
            Units::Ideal | Units::PreWpq(_) => {
                // Ideal writes plaintext; the baseline writes the ciphertext
                // it secured before insertion. Either way the drain is just
                // the data write, and the slot frees when the device accepts
                // it (not when the cells finish programming).
                #[expect(clippy::disallowed_methods, reason = "WPQ drain: the data line write")]
                let (accepted, _completed) = self.nvm.write_line_ticket(start, addr, payload);
                accepted
            }
            // Full pipeline behind the WPQ, payload still plaintext.
            Units::Deferred(masu) => masu.process_write(start, addr, payload, &mut self.nvm),
            Units::Dolos(misu, masu) => {
                // ① decrypt with the slot pad (one XOR), ②③ full pipeline.
                let plaintext = misu.decrypt(slot, payload);
                if self.trace.is_enabled() {
                    self.trace.span(
                        EventKind::MasuPadDecrypt,
                        start,
                        start + 1,
                        addr.as_u64(),
                        0,
                    );
                }
                masu.process_write(start + 1, addr, &plaintext, &mut self.nvm)
            }
        }
    }

    /// Advances the background drain engine to `now`: completed entries are
    /// cleared (strictly in per-bank ring order) and every queued entry is
    /// started — the Ma-SU engine is pipelined, so starts are paced by the
    /// engine model, not by the previous entry's completion.
    ///
    /// Scheduling is batched across banks: each fixpoint round visits every
    /// bank and starts work on each idle one, so up to one entry per bank
    /// retires per round instead of the queue head globally gating the rest.
    fn advance(&mut self, now: Cycle) {
        // A power failure already fired in the engine: the machine is dark
        // until a fallible operation converts it into a crash.
        if self.pending_power_failure.is_some() {
            return;
        }
        // Alternate fill and clear until a fixpoint: fill every bank's
        // pipeline, then clear every completed entry, then fill the freed
        // slots, … The old shape instead refilled at most ONE entry per
        // cleared entry, and only when the pipeline had been *exactly* full
        // before the pop — a stall-prone coupling that silently
        // under-refilled whenever the two conditions drifted apart. The
        // fixpoint shape makes liveness unconditional: on exit either every
        // bank's pipeline is full, or no live unfetched entry remains, or
        // nothing more completed by `now`.
        loop {
            for bank in 0..self.wpq.banks() {
                // Start up to the engine's pipeline depth per bank: deeper
                // entries stay live (and coalescible) until a slot frees.
                while self.inflight[bank].len() < self.drain_depth {
                    let Some(entry) = self.wpq.fetch_oldest(bank) else {
                        break;
                    };
                    #[expect(clippy::expect_used, reason = "each queued entry has a ready time")]
                    let ready = self.ready_times[bank]
                        .pop_front()
                        .expect("ready_times tracks queued entries");
                    // An entry ready before its bank finished the previous
                    // drain waited on the bank — the contention the banked
                    // model exists to relieve. At one bank that wait is the
                    // old global serialization and stays untraced, keeping
                    // single-bank trace streams byte-identical.
                    let busy = self.wpq.busy_until(bank);
                    if self.trace.is_enabled() && busy > ready && self.wpq.banks() > 1 {
                        self.trace.span(
                            EventKind::BankBusy,
                            ready,
                            busy,
                            bank as u64,
                            busy - ready,
                        );
                    }
                    let done = self.drain_one(entry.slot, entry.addr, &entry.payload, ready);
                    // Clamp monotone against the bank's previous drain so
                    // ring clearing stays in order even when a counter-cache
                    // miss inflates one entry's completion. Other banks'
                    // clocks are untouched — that independence is the
                    // memory-level parallelism.
                    let clamped = self.wpq.note_drain_done(bank, done);
                    self.inflight[bank].push_back((entry.slot, clamped));
                    // Mid-drain fault: the entry is applied to NVM but not
                    // yet cleared from the WPQ, so the ADR dump will carry
                    // it again and recovery replays on top of the partial
                    // application.
                    if self.fault_fires(InjectionPoint::MasuDrain) {
                        self.pending_power_failure = Some(InjectionPoint::MasuDrain);
                        return;
                    }
                }
            }
            // Clear (strictly in each bank's ring order) what completed.
            let mut cleared = false;
            for bank in 0..self.wpq.banks() {
                while let Some(&(slot, done)) = self.inflight[bank].front() {
                    if done > now {
                        break;
                    }
                    self.wpq.clear_at(done, slot);
                    if let Units::Dolos(misu, _) = &mut self.units {
                        misu.on_clear(slot);
                    }
                    self.inflight[bank].pop_front();
                    cleared = true;
                }
            }
            if !cleared {
                return;
            }
        }
    }

    /// A full bank: one retry event (Table 2), then wait for the bank's
    /// oldest in-flight drain to free a slot. Other banks may still be
    /// idle, but an address cannot change banks. Returns the new time.
    fn retry_when_bank_frees(
        &mut self,
        t: Cycle,
        bank: usize,
        addr: LineAddr,
    ) -> Result<Cycle, SecurityError> {
        self.retries += 1;
        #[expect(clippy::expect_used, reason = "a full bank has an in-flight drain")]
        let free_at = self.inflight[bank]
            .front()
            .map(|&(_, done)| done)
            .expect("a full WPQ bank always has an in-flight drain");
        let until = t.max(free_at);
        if self.trace.is_enabled() {
            self.trace
                .span(EventKind::FenceStall, t, until, addr.as_u64(), 0);
        }
        self.advance(until);
        self.take_power_failure(until)?;
        Ok(until)
    }

    /// Persists one cacheline: the core has executed a flush (clwb+fence)
    /// and blocks until the line is accepted into the persistence domain.
    ///
    /// Returns the cycle at which the persist completes. WPQ-full
    /// conditions retry internally and are counted (Table 2's retry
    /// events).
    ///
    /// # Panics
    ///
    /// Panics if the system is crashed or the address is not 64-byte
    /// aligned / outside the protected region.
    #[expect(clippy::expect_used, reason = "documented panic (# Panics)")]
    pub fn persist_write(&mut self, now: Cycle, addr: u64, data: &Line) -> Cycle {
        self.try_persist_write(now, addr, data)
            .expect("persist interrupted by an injected power failure")
    }

    /// Fallible variant of [`Self::persist_write`] for fault-injection runs:
    /// an armed [`FaultPlan`] firing mid-persist crashes the system at that
    /// exact microarchitectural instant and surfaces as
    /// [`SecurityError::PowerInterrupted`]. With no plan armed this never
    /// returns an error.
    ///
    /// # Errors
    ///
    /// Returns [`SecurityError::PowerInterrupted`] when an injected power
    /// failure fired; the system is then crashed and must be recovered.
    ///
    /// # Panics
    ///
    /// Same alignment/region/crashed panics as [`Self::persist_write`].
    pub fn try_persist_write(
        &mut self,
        now: Cycle,
        addr: u64,
        data: &Line,
    ) -> Result<Cycle, SecurityError> {
        assert!(!self.crashed, "persist on a crashed system");
        #[expect(clippy::expect_used, reason = "documented panic: unaligned address")]
        let addr = LineAddr::new(addr).expect("persist address must be line-aligned");
        assert!(
            self.layout.is_data_addr(addr),
            "address outside protected region"
        );
        self.persists += 1;
        if self.fault_fires(InjectionPoint::PersistStart) {
            self.crash(now);
            return Err(SecurityError::PowerInterrupted {
                point: InjectionPoint::PersistStart,
            });
        }
        self.advance(now);
        self.take_power_failure(now)?;
        if self.trace.is_enabled() {
            self.trace
                .instant(EventKind::PersistStart, now, addr.as_u64(), 0);
        }
        let bank = self.wpq.bank_of(addr);
        let mut t = now;

        // Pre-WPQ security (baseline): the whole pipeline runs before the
        // line may enter the persistence domain.
        let mut secured = *data;
        if let Units::PreWpq(masu) = &mut self.units {
            let (done, ciphertext) = masu.secure_write(t, addr, data, &mut self.nvm, false);
            secured = ciphertext;
            t = done;
            self.advance(t);
            self.take_power_failure(t)?;
        }

        let (t, done) = loop {
            // Dolos Post design: the Mi-SU may be busy with its one allowed
            // deferred MAC; the write retries when it is.
            if let Units::Dolos(misu, _) = &mut self.units {
                if misu.is_busy(t) {
                    let until = misu.busy_until();
                    if self.trace.is_enabled() {
                        self.trace
                            .span(EventKind::FenceStall, t, until, addr.as_u64(), 1);
                    }
                    t = until;
                    self.advance(t);
                    self.take_power_failure(t)?;
                    continue;
                }
            }

            // Pick the slot (coalesce or allocate) so the Mi-SU can use the
            // slot's pre-generated pad.
            let slot = match self.wpq.coalesce_slot(addr) {
                Some(slot) => Some(slot),
                None => self.wpq.next_insert_slot(bank),
            };
            let Some(slot) = slot else {
                t = self.retry_when_bank_frees(t, bank, addr)?;
                continue;
            };

            // Power cut as the Mi-SU starts MAC'ing the line: the write is
            // lost before any Mi-SU state (pad, leaf MAC, root) is touched,
            // so the dump stays consistent with the persistent registers.
            // (Dolos-only: other kinds have no Mi-SU instant to cut at.)
            if matches!(self.units, Units::Dolos(..))
                && self.fault_fires(InjectionPoint::MisuProtect)
            {
                self.crash(t);
                return Err(SecurityError::PowerInterrupted {
                    point: InjectionPoint::MisuProtect,
                });
            }
            let (done, payload, mac) = match &mut self.units {
                Units::Dolos(misu, _) => misu.protect(t, slot, addr, data),
                _ => (t, secured, None),
            };
            match self.wpq.try_insert_at(t, addr, payload, mac) {
                InsertOutcome::Inserted { slot: s } => {
                    debug_assert_eq!(s, slot);
                    self.ready_times[bank].push_back(done);
                }
                InsertOutcome::Coalesced { slot: s } => debug_assert_eq!(s, slot),
                InsertOutcome::Full => {
                    // Raced with our own slot choice: treat as a retry.
                    t = self.retry_when_bank_frees(t, bank, addr)?;
                    continue;
                }
            }
            break (t, done);
        };
        self.persist_latency.record(done - now);
        if self.trace.is_enabled() {
            self.trace
                .span(EventKind::PersistAck, now, done, addr.as_u64(), done - now);
        }
        // The persist completed: from here the write must survive any power
        // failure.
        if self.fault_fires(InjectionPoint::WpqInsert) {
            self.crash(t);
            return Err(SecurityError::PowerInterrupted {
                point: InjectionPoint::WpqInsert,
            });
        }
        self.advance(done);
        self.take_power_failure(done)?;
        Ok(done)
    }

    /// Reads one cacheline, serving WPQ hits from the tag array (§4.5).
    ///
    /// # Panics
    ///
    /// Panics if the system is crashed, the address is unaligned or outside
    /// the protected region, or (test invariant) integrity verification
    /// fails — use [`SecureMemorySystem::try_read`] to observe attacks.
    #[expect(clippy::expect_used, reason = "documented panic (# Panics)")]
    pub fn read(&mut self, now: Cycle, addr: u64) -> (Cycle, Line) {
        self.try_read(now, addr)
            .expect("integrity verification failed")
    }

    /// Reads one cacheline, returning integrity failures as errors.
    ///
    /// # Errors
    ///
    /// Returns [`SecurityError::DataMacMismatch`] when the stored data fails
    /// its Bonsai MAC check.
    ///
    /// # Panics
    ///
    /// Panics if the system is crashed or the address is invalid.
    pub fn try_read(&mut self, now: Cycle, addr: u64) -> Result<(Cycle, Line), SecurityError> {
        assert!(!self.crashed, "read on a crashed system");
        #[expect(clippy::expect_used, reason = "documented panic: unaligned address")]
        let addr = LineAddr::new(addr).expect("read address must be line-aligned");
        assert!(
            self.layout.is_data_addr(addr),
            "address outside protected region"
        );
        self.advance(now);
        if let Some(entry) = self
            .config
            .coalescing
            .then(|| self.wpq.lookup(addr))
            .flatten()
        {
            let payload = entry.payload;
            let slot = entry.slot;
            self.read_wpq_hits += 1;
            let data = match &mut self.units {
                Units::Dolos(misu, _) => misu.decrypt(slot, &payload),
                Units::PreWpq(masu) => masu.decrypt_current(now, addr, &payload, &mut self.nvm),
                Units::Ideal | Units::Deferred(_) => payload,
            };
            // Tag-array hit plus one XOR: a single cycle (§4.5).
            return Ok((now + 1, data));
        }
        match self.units.parts() {
            (_, Some(masu)) => masu.read(now, addr, &mut self.nvm),
            (_, None) => {
                // Never-written lines short-circuit, mirroring the secure
                // paths (which skip verification for lines with no MAC).
                if self.nvm.peek(addr) == [0u8; 64] {
                    return Ok((now + 1, [0u8; 64]));
                }
                let (done, data) = self.nvm.read_line(now, addr);
                Ok((done, data))
            }
        }
    }

    /// Drains the WPQ completely and waits for the background engine — used
    /// by tests and between workload phases. Returns the quiescent time.
    #[expect(clippy::expect_used, reason = "try_quiesce is the fallible form")]
    pub fn quiesce(&mut self, now: Cycle) -> Cycle {
        self.try_quiesce(now)
            .expect("quiesce interrupted by an injected power failure")
    }

    /// Fallible variant of [`Self::quiesce`] for fault-injection runs.
    ///
    /// # Errors
    ///
    /// Returns [`SecurityError::PowerInterrupted`] when an armed
    /// [`FaultPlan`] fired inside the drain engine; the system is then
    /// crashed.
    pub fn try_quiesce(&mut self, now: Cycle) -> Result<Cycle, SecurityError> {
        let mut t = now;
        loop {
            self.advance(t);
            self.take_power_failure(t)?;
            // Wait for the last completion across every bank; advancing to
            // it clears everything earlier, then the loop re-checks for
            // entries that started meanwhile.
            let latest = self
                .inflight
                .iter()
                .filter_map(|q| q.back().map(|&(_, done)| done))
                .max();
            match latest {
                Some(done) => t = done,
                None if self.wpq.is_empty() => return Ok(t),
                #[expect(clippy::unreachable, reason = "advance starts work on live entries")]
                None => unreachable!("advance starts work while entries remain"),
            }
        }
    }

    /// Power failure at `now`: ADR flushes the WPQ to NVM, volatile state is
    /// lost, and the system refuses operations until [`Self::recover`].
    ///
    /// The ADR path does exactly what the active design affords: Dolos dumps
    /// already-protected entries (plus Mi-SU MACs); the baseline writes its
    /// already-secured ciphertext to the entries' home addresses; the
    /// deferred/ideal models complete their writes on reserve power.
    pub fn crash(&mut self, now: Cycle) {
        assert!(!self.crashed, "already crashed");
        self.advance(now);
        let occupied = self.wpq.occupied_in_order();
        match &mut self.units {
            Units::Dolos(misu, _) => misu.drain_to_nvm(&occupied, &mut self.nvm, &self.layout),
            Units::Ideal | Units::PreWpq(_) => {
                // The payload is already what belongs at home: plaintext
                // (ideal) or the ciphertext secured before insertion.
                for entry in &occupied {
                    #[expect(clippy::disallowed_methods, reason = "ADR dump: payload as stored")]
                    self.nvm.poke(entry.addr, &entry.payload);
                }
            }
            Units::Deferred(masu) => {
                // Figure 5-c must run the full pipeline on reserve power —
                // the very thing the paper argues exceeds the ADR budget. We
                // model the functional effect regardless.
                for entry in &occupied {
                    masu.process_write(now, entry.addr, &entry.payload, &mut self.nvm);
                }
            }
        }
        if let (_, Some(masu)) = self.units.parts() {
            masu.crash();
        }
        // `clear_all` also rewinds every bank's busy-until clock, so drains
        // after recovery start from a fresh per-bank serialization point.
        self.wpq.clear_all();
        for queue in &mut self.ready_times {
            queue.clear();
        }
        for queue in &mut self.inflight {
            queue.clear();
        }
        self.nvm.power_cycle();
        // A drain-engine power failure still pending (it fired in a read or
        // in this call's own advance) is this crash: it must not resurface
        // as a second crash after recovery.
        self.pending_power_failure = None;
        self.crashed = true;
    }

    /// Boot-time recovery after a crash.
    ///
    /// Recovery is restartable: a nested power failure (an armed
    /// [`FaultPlan`] at [`InjectionPoint::RecoveryReplay`]) aborts mid-replay
    /// with the system still crashed, and a subsequent `recover` call
    /// verifies the same dump under the same Mi-SU epoch and replays it
    /// again — replay is idempotent, so partially applied entries are safe.
    ///
    /// # Errors
    ///
    /// Returns [`SecurityError::NotCrashed`] when the system has not
    /// crashed, [`SecurityError::PowerInterrupted`] on a nested injected
    /// crash, and any other [`SecurityError`] if an integrity check fails
    /// (the threat model's attacks being detected).
    pub fn recover(&mut self) -> Result<RecoveryReport, SecurityError> {
        if !self.crashed {
            return Err(SecurityError::NotCrashed);
        }
        let mut report = RecoveryReport {
            wpq_entries_replayed: 0,
            masu: None,
            estimated_misu_cycles: 0,
        };
        if let (_, Some(masu)) = self.units.parts() {
            report.masu = Some(masu.recover(&mut self.nvm)?);
        }
        if let Units::Dolos(misu, masu) = &mut self.units {
            report.estimated_misu_cycles = misu.estimated_recovery_cycles();
            let replay = misu.read_dump(&self.nvm, &self.layout)?;
            report.wpq_entries_replayed = replay.len();
            for (addr, plaintext) in replay {
                // Nested crash between replayed entries: volatile recovery
                // progress is lost, the dump (and the Mi-SU epoch) stays as
                // it was, and the system remains crashed.
                let point = InjectionPoint::RecoveryReplay;
                if self.fault.as_mut().is_some_and(|p| p.observe(point)) {
                    masu.crash();
                    self.nvm.power_cycle();
                    return Err(SecurityError::PowerInterrupted { point });
                }
                masu.process_write(Cycle::ZERO, addr, &plaintext, &mut self.nvm);
            }
            // All entries are home: only now advance the pad/MAC epoch.
            misu.finish_recovery();
        }
        self.crashed = false;
        Ok(report)
    }

    /// Splits the masu/nvm borrow for the audit module.
    pub(crate) fn audit_parts(&mut self) -> Result<crate::audit::AuditReport, SecurityError> {
        match self.units.parts() {
            (_, Some(masu)) => masu.audit(&mut self.nvm),
            (_, None) => Ok(crate::audit::AuditReport::default()),
        }
    }

    /// Number of persist operations served.
    pub fn persists(&self) -> u64 {
        self.persists
    }

    /// Number of WPQ-insertion retry events (Table 2's metric).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Retry events per kilo write requests.
    pub fn retries_per_kwr(&self) -> f64 {
        if self.persists == 0 {
            0.0
        } else {
            self.retries as f64 * 1000.0 / self.persists as f64
        }
    }

    /// Smallest critical-path persist latency observed so far, in cycles,
    /// or `None` before the first completed persist.
    ///
    /// This is the observation hook the conformance harness keys its
    /// metamorphic latency ordering on: the minimum isolates the scheme's
    /// intrinsic critical path (0 / 160 / 320 / full-pipeline cycles) from
    /// queueing and cache-state noise that inflates the mean.
    pub fn persist_latency_min(&self) -> Option<u64> {
        self.persist_latency.min()
    }

    /// Snapshots every statistic of the system.
    pub fn stats(&self) -> StatSet {
        let mut s = self.wpq.stats();
        s.merge(&self.nvm.stats());
        match &self.units {
            Units::Ideal => {}
            Units::Deferred(masu) | Units::PreWpq(masu) => s.merge(&masu.stats()),
            Units::Dolos(misu, masu) => {
                s.merge(&masu.stats());
                s.set("misu.busy_rejections", misu.busy_rejections() as f64);
                s.set("misu.persistent_counter", misu.persistent_counter() as f64);
            }
        }
        s.set("ctrl.persists", self.persists as f64);
        s.set("ctrl.retries", self.retries as f64);
        s.set("ctrl.retries_per_kwr", self.retries_per_kwr());
        s.set("ctrl.read_wpq_hits", self.read_wpq_hits as f64);
        s.set("ctrl.persist_latency_mean", self.persist_latency.mean());
        s.set(
            "ctrl.persist_latency_min",
            self.persist_latency.min().unwrap_or(0) as f64,
        );
        s.set(
            "ctrl.persist_latency_max",
            self.persist_latency.max().unwrap_or(0) as f64,
        );
        s
    }
}

#[cfg(test)]
pub(crate) mod reference_drain {
    //! The pre-bank single-queue drain scheduler, kept as an executable
    //! reference model. The lockstep tests run seeded scenarios through
    //! this model and through a [`BankSet`] with `banks = 1` driven by the
    //! production scheduling rules, asserting identical retire sequences,
    //! occupancy, and statistics.
    #![expect(clippy::unreachable, reason = "test-only model of the drain loops")]

    use std::collections::VecDeque;

    use dolos_nvm::addr::LineAddr;
    use dolos_nvm::wpq::{InsertOutcome, WriteQueue};
    use dolos_nvm::{BankSet, Line};
    use dolos_sim::stats::StatSet;
    use dolos_sim::Cycle;

    /// Deterministic synthetic drain completion, standing in for the Ma-SU
    /// pipeline: a pure function of the entry's address and ready time.
    pub fn synthetic_done(addr: LineAddr, ready: Cycle) -> Cycle {
        ready + 100 + (addr.line_index() % 7) * 30
    }

    /// The old global scheduler: one queue, one monotone completion clamp,
    /// one depth-limited in-flight window.
    pub struct ReferenceDrain {
        wpq: WriteQueue,
        inflight: VecDeque<(usize, Cycle)>,
        ready: VecDeque<Cycle>,
        last_done: Cycle,
        depth: usize,
        /// Cleared (slot, cycle) pairs in retirement order.
        pub retired: Vec<(usize, u64)>,
    }

    impl ReferenceDrain {
        pub fn new(capacity: usize, depth: usize) -> Self {
            Self {
                wpq: WriteQueue::new(capacity),
                inflight: VecDeque::new(),
                ready: VecDeque::new(),
                last_done: Cycle::ZERO,
                depth,
                retired: Vec::new(),
            }
        }

        pub fn occupancy(&self) -> usize {
            self.wpq.len()
        }

        pub fn stats(&self) -> StatSet {
            self.wpq.stats()
        }

        /// Inserts (or coalesces) a write; `false` when the queue is full.
        pub fn insert(&mut self, now: Cycle, addr: LineAddr, payload: Line) -> bool {
            match self.wpq.try_insert_at(now, addr, payload, None) {
                InsertOutcome::Inserted { .. } => {
                    self.ready.push_back(now);
                    true
                }
                InsertOutcome::Coalesced { .. } => true,
                InsertOutcome::Full => false,
            }
        }

        /// The old fill/clear fixpoint, with the drain pipeline abstracted
        /// to [`synthetic_done`].
        pub fn advance(&mut self, now: Cycle) {
            loop {
                while self.inflight.len() < self.depth {
                    let Some(entry) = self.wpq.fetch_oldest() else {
                        break;
                    };
                    let ready = self.ready.pop_front().expect("ready tracks entries");
                    let done = synthetic_done(entry.addr, ready);
                    self.last_done = self.last_done.max(done);
                    self.inflight.push_back((entry.slot, self.last_done));
                }
                let mut cleared = false;
                while let Some(&(slot, done)) = self.inflight.front() {
                    if done > now {
                        break;
                    }
                    self.wpq.clear_at(done, slot);
                    self.retired.push((slot, done.as_u64()));
                    self.inflight.pop_front();
                    cleared = true;
                }
                if !cleared {
                    return;
                }
            }
        }

        pub fn quiesce(&mut self, now: Cycle) -> Cycle {
            let mut t = now;
            loop {
                self.advance(t);
                match self.inflight.back() {
                    Some(&(_, done)) => t = done,
                    None if self.wpq.is_empty() => return t,
                    None => unreachable!("advance starts work while entries remain"),
                }
            }
        }
    }

    /// The banked scheduler over a [`BankSet`], mirroring the production
    /// `advance` fixpoint with the same synthetic drain model.
    pub struct BankedDrain {
        set: BankSet,
        inflight: Vec<VecDeque<(usize, Cycle)>>,
        ready: Vec<VecDeque<Cycle>>,
        depth: usize,
        /// Cleared (slot, cycle) pairs in retirement order.
        pub retired: Vec<(usize, u64)>,
    }

    impl BankedDrain {
        pub fn new(banks: usize, per_bank_capacity: usize, depth: usize) -> Self {
            Self {
                set: BankSet::new(banks, per_bank_capacity),
                inflight: vec![VecDeque::new(); banks],
                ready: vec![VecDeque::new(); banks],
                depth,
                retired: Vec::new(),
            }
        }

        pub fn occupancy(&self) -> usize {
            self.set.len()
        }

        pub fn stats(&self) -> StatSet {
            self.set.stats()
        }

        /// Inserts (or coalesces) a write; `false` when its bank is full.
        pub fn insert(&mut self, now: Cycle, addr: LineAddr, payload: Line) -> bool {
            let bank = self.set.bank_of(addr);
            match self.set.try_insert_at(now, addr, payload, None) {
                InsertOutcome::Inserted { .. } => {
                    self.ready[bank].push_back(now);
                    true
                }
                InsertOutcome::Coalesced { .. } => true,
                InsertOutcome::Full => false,
            }
        }

        pub fn advance(&mut self, now: Cycle) {
            loop {
                for bank in 0..self.set.banks() {
                    while self.inflight[bank].len() < self.depth {
                        let Some(entry) = self.set.fetch_oldest(bank) else {
                            break;
                        };
                        let ready = self.ready[bank].pop_front().expect("ready tracks entries");
                        let done = synthetic_done(entry.addr, ready);
                        let clamped = self.set.note_drain_done(bank, done);
                        self.inflight[bank].push_back((entry.slot, clamped));
                    }
                }
                let mut cleared = false;
                for bank in 0..self.set.banks() {
                    while let Some(&(slot, done)) = self.inflight[bank].front() {
                        if done > now {
                            break;
                        }
                        self.set.clear_at(done, slot);
                        self.retired.push((slot, done.as_u64()));
                        self.inflight[bank].pop_front();
                        cleared = true;
                    }
                }
                if !cleared {
                    return;
                }
            }
        }

        pub fn quiesce(&mut self, now: Cycle) -> Cycle {
            let mut t = now;
            loop {
                self.advance(t);
                let latest = self
                    .inflight
                    .iter()
                    .filter_map(|q| q.back().map(|&(_, done)| done))
                    .max();
                match latest {
                    Some(done) => t = done,
                    None if self.set.is_empty() => return t,
                    None => unreachable!("advance starts work while entries remain"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MiSuKind, UpdateScheme};

    fn line(v: u8) -> Line {
        [v; 64]
    }

    #[test]
    fn ideal_persists_in_one_cycle() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::ideal());
        let done = sys.persist_write(Cycle::ZERO, 0, &line(1));
        assert_eq!(done.as_u64(), 0);
        let (_, data) = sys.read(done, 0);
        assert_eq!(data, line(1));
    }

    #[test]
    fn baseline_pays_full_security_before_persist() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::baseline());
        let done = sys.persist_write(Cycle::ZERO, 0, &line(1));
        // Counter miss (600) + MT-node miss (650) + AES (40) + tree (1600).
        assert_eq!(done.as_u64(), 2890);
    }

    #[test]
    fn dolos_persists_at_misu_latency() {
        for (kind, expected) in [
            (MiSuKind::Full, 320),
            (MiSuKind::Partial, 160),
            (MiSuKind::Post, 0),
        ] {
            let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(kind));
            let done = sys.persist_write(Cycle::ZERO, 0, &line(1));
            assert_eq!(done.as_u64(), expected, "{kind:?}");
        }
    }

    #[test]
    fn persist_latency_min_exposes_the_intrinsic_critical_path() {
        for (config, expected) in [
            (ControllerConfig::dolos(MiSuKind::Full), 320),
            (ControllerConfig::dolos(MiSuKind::Partial), 160),
            (ControllerConfig::dolos(MiSuKind::Post), 0),
            (ControllerConfig::ideal(), 0),
            (ControllerConfig::baseline(), 2890),
        ] {
            let mut sys = SecureMemorySystem::new(config);
            assert_eq!(
                sys.persist_latency_min(),
                None,
                "{}",
                sys.config().kind.name()
            );
            sys.persist_write(Cycle::ZERO, 0, &line(1));
            assert_eq!(
                sys.persist_latency_min(),
                Some(expected),
                "{}",
                sys.config().kind.name()
            );
            assert_eq!(
                sys.stats().get_or_zero("ctrl.persist_latency_min"),
                expected as f64
            );
        }
    }

    #[test]
    fn dolos_read_back_through_wpq_and_after_drain() {
        // Every design, not only Dolos: each `Units` variant decodes a WPQ
        // hit its own way (Mi-SU pad, Ma-SU decrypt, or plaintext as is).
        for config in [
            ControllerConfig::ideal(),
            ControllerConfig::deferred(),
            ControllerConfig::baseline(),
            ControllerConfig::dolos(MiSuKind::Full),
            ControllerConfig::dolos(MiSuKind::Partial),
            ControllerConfig::dolos(MiSuKind::Post),
        ] {
            let name = config.kind.name();
            let mut sys = SecureMemorySystem::new(config);
            let done = sys.persist_write(Cycle::ZERO, 0x40, &line(9));
            // Immediately: served from the WPQ tag array.
            let (t, data) = sys.read(done, 0x40);
            assert_eq!(data, line(9), "{name} WPQ hit");
            assert_eq!(t - done, 1, "{name} WPQ hit time");
            assert_eq!(sys.stats().get_or_zero("ctrl.read_wpq_hits"), 1.0, "{name}");
            // After quiescing: served from NVM (through the Ma-SU if any).
            let quiet = sys.quiesce(done);
            let (_, data) = sys.read(quiet, 0x40);
            assert_eq!(data, line(9), "{name} after the drain");
            assert_eq!(sys.stats().get_or_zero("ctrl.read_wpq_hits"), 1.0, "{name}");
        }
    }

    #[test]
    fn wpq_fills_and_retries_under_burst() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Post));
        let mut t = Cycle::ZERO;
        for i in 0..64u64 {
            t = sys.persist_write(t, i * 64, &line(i as u8));
        }
        assert!(
            sys.retries() > 0,
            "a 10-entry WPQ must fill under a 64-line burst"
        );
        let quiet = sys.quiesce(t);
        for i in 0..64u64 {
            let (_, data) = sys.read(quiet, i * 64);
            assert_eq!(data, line(i as u8));
        }
    }

    #[test]
    fn coalescing_merges_same_address_writes() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut t = Cycle::ZERO;
        // Backlog the drain pipeline with distinct addresses, then rewrite
        // the most recent one: it is still live and must coalesce.
        for i in 0..12u64 {
            t = sys.persist_write(t, i * 64, &line(i as u8));
        }
        t = sys.persist_write(t, 11 * 64, &line(0xEE));
        let s = sys.stats();
        assert!(s.get_or_zero("wpq.coalesces") > 0.0, "stats: {s}");
        let (_, data) = sys.read(t, 11 * 64);
        assert_eq!(data, line(0xEE));
        let quiet = sys.quiesce(t);
        let (_, data) = sys.read(quiet, 11 * 64);
        assert_eq!(data, line(0xEE));
    }

    #[test]
    fn drain_survives_pipeline_deeper_than_usable_wpq() {
        // Regression guard for the drain-refill rule. The old `advance`
        // refilled at most one entry per cleared slot and only when the
        // pipeline had been *exactly* full before the pop
        // (`inflight.len() + 1 == drain_depth`). A Post design with a small
        // physical WPQ has fewer usable entries than the pipeline is deep,
        // so that "exactly full" condition is unsatisfiable — every drain
        // start had to be rescued by the next call's fill loop. The fixpoint
        // loop makes the refill unconditional; this test pins the liveness
        // contract: an arbitrarily long burst fully drains and every line
        // is readable from NVM afterwards.
        let mut config = ControllerConfig::dolos(MiSuKind::Post);
        config.physical_wpq_entries = 8; // usable (2) < drain depth (11)
        let mut sys = SecureMemorySystem::new(config);
        let mut t = Cycle::ZERO;
        for i in 0..48u64 {
            t = sys.persist_write(t, i * 64, &line(i as u8 + 1));
        }
        let quiet = sys.quiesce(t);
        for i in 0..48u64 {
            let (_, data) = sys.read(quiet, i * 64);
            assert_eq!(data, line(i as u8 + 1), "line {i} lost in the drain");
        }
        assert!(sys.retries() > 0, "a 2-entry WPQ must retry under a burst");
    }

    #[test]
    fn burst_drain_timing_is_unchanged_by_refill_fix() {
        // Cycle-exact pin of the quiesce time for a backlogged burst, one
        // per design kind. The refill restructure must start the same
        // entries at the same ready times in the same order — any timing
        // drift (double-starting, reordering, early/late refill) moves
        // these numbers.
        for (config, expected) in [
            (ControllerConfig::baseline(), 53930u64),
            (ControllerConfig::deferred(), 53730),
            (ControllerConfig::dolos(MiSuKind::Full), 54051),
            (ControllerConfig::dolos(MiSuKind::Partial), 53891),
            (ControllerConfig::dolos(MiSuKind::Post), 53731),
        ] {
            let name = config.kind.name();
            let mut sys = SecureMemorySystem::new(config);
            let mut t = Cycle::ZERO;
            for i in 0..32u64 {
                t = sys.persist_write(t, (i % 24) * 64, &line(i as u8));
            }
            let quiet = sys.quiesce(t);
            assert_eq!(quiet.as_u64(), expected, "{name} quiesce time drifted");
        }
    }

    #[test]
    fn banked_scheduler_locksteps_with_the_single_queue_reference() {
        use super::reference_drain::{BankedDrain, ReferenceDrain};
        for seed in [1u64, 7, 99, 24301] {
            let mut reference = ReferenceDrain::new(13, 4);
            let mut banked = BankedDrain::new(1, 13, 4);
            let mut state = seed;
            let mut t = Cycle::ZERO;
            for step in 0..400u32 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = LineAddr::from_index((state >> 33) % 48);
                let payload = [(state >> 17) as u8; 64];
                let a = reference.insert(t, addr, payload);
                let b = banked.insert(t, addr, payload);
                assert_eq!(a, b, "seed {seed} step {step} insert outcome");
                t = t + 1 + (state % 200);
                reference.advance(t);
                banked.advance(t);
                assert_eq!(
                    reference.occupancy(),
                    banked.occupancy(),
                    "seed {seed} step {step} occupancy"
                );
            }
            assert_eq!(reference.quiesce(t), banked.quiesce(t), "seed {seed}");
            assert_eq!(reference.retired, banked.retired, "seed {seed} retires");
            assert_eq!(
                reference.stats().to_string(),
                banked.stats().to_string(),
                "seed {seed} stats"
            );
        }
    }

    #[test]
    fn banked_controller_round_trips_across_bank_counts() {
        for banks in [1usize, 2, 4, 8] {
            let config = ControllerConfig::dolos(MiSuKind::Partial).with_banks(banks);
            let mut sys = SecureMemorySystem::new(config);
            let mut t = Cycle::ZERO;
            for i in 0..48u64 {
                t = sys.persist_write(t, i * 64, &line(i as u8 + 1));
            }
            let quiet = sys.quiesce(t);
            for i in 0..48u64 {
                let (_, data) = sys.read(quiet, i * 64);
                assert_eq!(data, line(i as u8 + 1), "banks={banks} line {i}");
            }
        }
    }

    #[test]
    fn banks_overlap_drain_bound_bursts() {
        // The fig16 drain-bound condition: Post puts nothing in the persist
        // critical path, so throughput is gated entirely by the background
        // Ma-SU update engine. Four banks must overlap those updates for at
        // least the 1.2x the issue's acceptance bar demands (the measured
        // ratio is far higher).
        let quiesce_for = |banks: usize| {
            let config = ControllerConfig::dolos(MiSuKind::Post)
                .with_scheme(UpdateScheme::LazyToc)
                .with_banks(banks);
            let mut sys = SecureMemorySystem::new(config);
            let mut t = Cycle::ZERO;
            for i in 0..32u64 {
                t = sys.persist_write(t, i * 64, &line(i as u8 + 1));
            }
            let quiet = sys.quiesce(t);
            for i in 0..32u64 {
                let (_, data) = sys.read(quiet, i * 64);
                assert_eq!(data, line(i as u8 + 1), "banks={banks} line {i}");
            }
            quiet.as_u64()
        };
        let single = quiesce_for(1);
        let banked = quiesce_for(4);
        assert!(
            single * 5 >= banked * 6,
            "4 banks must beat 1 bank by >= 1.2x on a drain-bound burst: {single} vs {banked}"
        );
    }

    #[test]
    fn crash_recover_round_trips_all_kinds() {
        let configs = [
            ControllerConfig::ideal(),
            ControllerConfig::baseline(),
            ControllerConfig::deferred(),
            ControllerConfig::dolos(MiSuKind::Full),
            ControllerConfig::dolos(MiSuKind::Partial),
            ControllerConfig::dolos(MiSuKind::Post),
        ];
        for config in configs {
            let name = config.kind.name();
            let mut sys = SecureMemorySystem::new(config);
            let mut t = Cycle::ZERO;
            for i in 0..32u64 {
                t = sys.persist_write(t, i * 64, &line(i as u8 + 1));
            }
            // Crash immediately: many writes still sit in the WPQ.
            sys.crash(t);
            assert!(sys.is_crashed());
            let report = sys.recover().unwrap_or_else(|e| panic!("{name}: {e}"));
            if matches!(sys.config().kind, ControllerKind::Dolos(_)) {
                assert!(report.wpq_entries_replayed > 0, "{name} should replay");
            }
            for i in 0..32u64 {
                let (_, data) = sys.read(Cycle::ZERO, i * 64);
                assert_eq!(data, line(i as u8 + 1), "{name} line {i}");
            }
        }
    }

    #[test]
    fn banked_crash_recovery_replays_every_bank() {
        for banks in [2usize, 4] {
            let config = ControllerConfig::dolos(MiSuKind::Full).with_banks(banks);
            let mut sys = SecureMemorySystem::new(config);
            let mut t = Cycle::ZERO;
            for i in 0..24u64 {
                t = sys.persist_write(t, i * 64, &line(i as u8 + 1));
            }
            sys.crash(t);
            let report = sys.recover().expect("banked recovery");
            assert!(report.wpq_entries_replayed > 0, "banks={banks}");
            for i in 0..24u64 {
                let (_, data) = sys.read(Cycle::ZERO, i * 64);
                assert_eq!(data, line(i as u8 + 1), "banks={banks} line {i}");
            }
        }
    }

    #[test]
    fn tampered_wpq_dump_is_detected_at_recovery() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        let t = sys.persist_write(Cycle::ZERO, 0, &line(5));
        sys.crash(t);
        let dump0 = sys.layout().wpq_dump_addr(0);
        sys.nvm_mut().tamper(dump0, |l| l[0] ^= 0xFF);
        assert!(sys.recover().is_err());
    }

    #[test]
    fn tampered_nvm_data_is_detected_on_read() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Full));
        let t = sys.persist_write(Cycle::ZERO, 0x40, &line(5));
        let quiet = sys.quiesce(t);
        sys.nvm_mut()
            .tamper(LineAddr::new(0x40).unwrap(), |l| l[3] ^= 1);
        assert!(matches!(
            sys.try_read(quiet, 0x40),
            Err(SecurityError::DataMacMismatch { .. })
        ));
    }

    #[test]
    fn post_design_counts_busy_rejections() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Post));
        // Two back-to-back writes at the same instant: the second finds the
        // deferred MAC in flight.
        sys.persist_write(Cycle::ZERO, 0, &line(1));
        sys.persist_write(Cycle::ZERO, 64, &line(2));
        assert!(sys.stats().get_or_zero("misu.busy_rejections") >= 1.0);
    }

    #[test]
    fn lazy_scheme_round_trips() {
        let config = ControllerConfig::dolos(MiSuKind::Partial).with_scheme(UpdateScheme::LazyToc);
        let mut sys = SecureMemorySystem::new(config);
        let mut t = Cycle::ZERO;
        for i in 0..16u64 {
            t = sys.persist_write(t, i * 64, &line(i as u8));
        }
        sys.crash(t);
        sys.recover().expect("lazy recovery");
        for i in 0..16u64 {
            let (_, data) = sys.read(Cycle::ZERO, i * 64);
            assert_eq!(data, line(i as u8));
        }
    }

    #[test]
    fn deferred_drains_behind_the_wpq() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::deferred());
        let done = sys.persist_write(Cycle::ZERO, 0, &line(1));
        assert_eq!(done.as_u64(), 0, "no security in the critical path");
        let quiet = sys.quiesce(done);
        assert!(
            quiet.as_u64() >= 1600,
            "the pipeline still ran in background"
        );
        let (_, data) = sys.read(quiet, 0);
        assert_eq!(data, line(1));
    }

    #[test]
    fn retries_per_kwr_is_normalized() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::ideal());
        assert_eq!(sys.retries_per_kwr(), 0.0);
        sys.persist_write(Cycle::ZERO, 0, &line(1));
        assert_eq!(sys.retries_per_kwr(), 0.0);
    }

    #[test]
    #[should_panic(expected = "crashed")]
    fn persist_after_crash_panics() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::ideal());
        sys.crash(Cycle::ZERO);
        sys.persist_write(Cycle::ZERO, 0, &line(1));
    }

    #[test]
    fn recover_without_crash_is_an_error() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        assert_eq!(sys.recover(), Err(SecurityError::NotCrashed));
    }

    #[test]
    fn armed_fault_crashes_at_wpq_insert_and_write_survives() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        sys.arm_fault(FaultPlan::new(InjectionPoint::WpqInsert, 3));
        let mut t = Cycle::ZERO;
        let mut interrupted_at = None;
        for i in 0..8u64 {
            match sys.try_persist_write(t, i * 64, &line(i as u8 + 1)) {
                Ok(done) => t = done,
                Err(SecurityError::PowerInterrupted { point }) => {
                    assert_eq!(point, InjectionPoint::WpqInsert);
                    interrupted_at = Some(i);
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        // Fired on the 4th insert (0-based occurrence 3).
        assert_eq!(interrupted_at, Some(3));
        assert!(sys.is_crashed());
        sys.recover().expect("clean recovery");
        // Every write whose insert happened — including the interrupted
        // one, whose persist completed — must be durable.
        for i in 0..4u64 {
            let (_, data) = sys.read(Cycle::ZERO, i * 64);
            assert_eq!(data, line(i as u8 + 1), "line {i}");
        }
    }

    #[test]
    fn fault_lost_at_misu_protect_is_legal_and_rest_survive() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        sys.arm_fault(FaultPlan::new(InjectionPoint::MisuProtect, 2));
        let mut t = Cycle::ZERO;
        let mut completed = Vec::new();
        for i in 0..6u64 {
            match sys.try_persist_write(t, i * 64, &line(i as u8 + 1)) {
                Ok(done) => {
                    t = done;
                    completed.push(i);
                }
                Err(SecurityError::PowerInterrupted { point }) => {
                    assert_eq!(point, InjectionPoint::MisuProtect);
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(completed, vec![0, 1]);
        sys.recover()
            .expect("half-spent Mi-SU state must not poison recovery");
        for &i in &completed {
            let (_, data) = sys.read(Cycle::ZERO, i * 64);
            assert_eq!(data, line(i as u8 + 1));
        }
        sys.audit().expect("clean audit after protect-point crash");
    }

    #[test]
    fn nested_crash_during_recovery_is_restartable() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut t = Cycle::ZERO;
        for i in 0..8u64 {
            t = sys.persist_write(t, i * 64, &line(i as u8 + 1));
        }
        sys.crash(t);
        // Power fails again after two entries have been replayed.
        sys.arm_fault(FaultPlan::new(InjectionPoint::RecoveryReplay, 2));
        assert_eq!(
            sys.recover(),
            Err(SecurityError::PowerInterrupted {
                point: InjectionPoint::RecoveryReplay,
            })
        );
        assert!(sys.is_crashed(), "nested crash leaves the system down");
        // Second boot: same dump, same epoch, full replay.
        sys.recover().expect("recovery must be restartable");
        for i in 0..8u64 {
            let (_, data) = sys.read(Cycle::ZERO, i * 64);
            assert_eq!(data, line(i as u8 + 1), "line {i}");
        }
        sys.audit().expect("clean audit after nested crash");
    }

    #[test]
    fn fault_in_drain_engine_surfaces_and_recovers() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        sys.arm_fault(FaultPlan::new(InjectionPoint::MasuDrain, 4));
        let mut t = Cycle::ZERO;
        let mut wrote = 0u64;
        let mut interrupted = false;
        for i in 0..32u64 {
            match sys.try_persist_write(t, i * 64, &line(i as u8 + 1)) {
                Ok(done) => {
                    t = done;
                    wrote = i + 1;
                }
                Err(SecurityError::PowerInterrupted { point }) => {
                    assert_eq!(point, InjectionPoint::MasuDrain);
                    interrupted = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(interrupted, "a 32-line burst must reach the 5th drain");
        sys.recover()
            .expect("replay over a partially applied drain must be clean");
        for i in 0..wrote {
            let (_, data) = sys.read(Cycle::ZERO, i * 64);
            assert_eq!(data, line(i as u8 + 1), "line {i}");
        }
        sys.audit().expect("clean audit after mid-drain crash");
    }

    #[test]
    fn drain_fault_pending_at_a_plain_crash_does_not_resurface() {
        // The drain fault fires inside a read's drain step, where no
        // fallible call can surface it; a plain crash must subsume it.
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut t = Cycle::ZERO;
        // More writes than the drain pipeline holds, so the read's drain
        // step still has entries to start.
        for i in 0..12u64 {
            t = sys.persist_write(t, i * 64, &line(i as u8 + 1));
        }
        sys.arm_fault(FaultPlan::new(InjectionPoint::MasuDrain, 0));
        let (t, _) = sys.read(t + 100_000, 0);
        assert!(sys.disarm_fault().is_some_and(|p| p.fired()));
        sys.crash(t);
        sys.recover().expect("clean recovery");
        let done = sys
            .try_persist_write(Cycle::ZERO, 64, &line(9))
            .expect("the subsumed drain fault must not crash the next persist");
        sys.quiesce(done);
        sys.audit().expect("clean audit");
    }

    #[test]
    fn disarmed_plans_leave_timing_untouched() {
        let mut plain = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut armed = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        // A plan that never fires (occurrence far beyond the run).
        armed.arm_fault(FaultPlan::new(InjectionPoint::WpqInsert, 1 << 40));
        let mut tp = Cycle::ZERO;
        let mut ta = Cycle::ZERO;
        for i in 0..32u64 {
            tp = plain.persist_write(tp, i * 64, &line(i as u8));
            ta = armed
                .try_persist_write(ta, i * 64, &line(i as u8))
                .expect("never fires");
            assert_eq!(tp, ta, "write {i}");
        }
        assert_eq!(plain.quiesce(tp), armed.try_quiesce(ta).unwrap());
    }
}
