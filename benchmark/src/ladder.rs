//! The traced round's replay ladder: per-layer host time, measured from
//! outside the simulator through its public API.
//!
//! For every recorded system the ladder
//! 1. replays the recorded controller-visible trace through a fresh
//!    [`SecureMemorySystem`], timing each `persist_write`/`try_read` call
//!    (the `core` layer) and checking the replay reaches the recorded cycle;
//! 2. replays it again, untimed, with event tracing on;
//! 3. drives fresh standalone instances of each layer (Mi-SU, Ma-SU, tree,
//!    pad cache and data MAC, WPQ banks, metadata caches, NVM reads) with
//!    the calls those events stand for, timing each layer's pass.
//!
//! An event belongs to the measured transaction whose controller calls
//! emitted it: drains run lazily inside later calls, and the host pays for
//! them there. Standalone cost differs from in-situ cost (cold branch
//! predictors, no interleaving), so the residuals derived here — the
//! controller's scheduling self time and the Ma-SU's self time — may be
//! negative; they are reported as measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use dolos_core::{
    ControllerConfig, ControllerKind, MajorSecurityUnit, MinorSecurityUnit, SecureMemorySystem,
    SecurityError, TraceEvent, TraceMode, UpdateScheme,
};
use dolos_crypto::padcache::PadCache;
use dolos_crypto::{Aes128, MacEngine};
use dolos_nvm::{BankSet, Line, LineAddr, NvmDevice};
use dolos_secmem::bmt::ARITY;
use dolos_secmem::cache::Access;
use dolos_secmem::{
    data_mac, BonsaiMerkleTree, CounterBlock, MetadataLayout, SetAssocCache, TreeOfCounters,
};
use dolos_sim::stats::StatSet;
use dolos_sim::trace::EventKind;
use dolos_sim::Cycle;
use dolos_whisper::env::OP_COST;
use dolos_whisper::TraceOp;

use crate::run::{CellRun, Recording, Segment};

/// The payload a replay writes for `addr`; timing never depends on it.
fn line_for(addr: u64) -> Line {
    let mut line = [0u8; 64];
    line[..8].copy_from_slice(&addr.to_le_bytes());
    line
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// One controller call of a replay.
#[derive(Debug, Clone, Copy)]
enum Call {
    Persist(Cycle, u64),
    Read(Cycle, u64),
}

impl Call {
    fn execute(self, sys: &mut SecureMemorySystem) -> Result<Cycle, SecurityError> {
        match self {
            Call::Persist(at, addr) => Ok(sys.persist_write(at, addr, &line_for(addr))),
            Call::Read(at, addr) => sys.try_read(at, addr).map(|(done, _)| done),
        }
    }
}

/// Observers of a replay.
trait Hooks {
    fn call(
        &mut self,
        sys: &mut SecureMemorySystem,
        op: Option<usize>,
        call: Call,
    ) -> Result<Cycle, SecurityError>;
    fn segment_start(&mut self, _sys: &mut SecureMemorySystem, _seg: &Segment) {}
    fn segment_end(&mut self, _sys: &mut SecureMemorySystem, _seg: &Segment) {}
    fn recovered(&mut self, _sys: &mut SecureMemorySystem) {}
}

/// Replays a recording through a fresh system, mirroring `PmEnv`'s
/// timing (and `Trace::replay`'s) exactly, plus the recorded crashes.
/// Returns the system and its final simulated cycle.
fn drive(
    rec: &Recording,
    mode: TraceMode,
    hooks: &mut impl Hooks,
) -> Result<(SecureMemorySystem, u64), SecurityError> {
    let mut sys = SecureMemorySystem::new(rec.config.clone().with_trace(mode));
    let mut now = Cycle::ZERO;
    for seg in &rec.segments {
        hooks.segment_start(&mut sys, seg);
        for op in seg.trace.iter() {
            match op {
                TraceOp::Work(ops) => now += ops * OP_COST,
                TraceOp::Delay(cycles) => now += *cycles,
                // A background write-back does not block the core.
                TraceOp::Writeback(addr) => {
                    hooks.call(&mut sys, seg.op, Call::Persist(now, *addr))?;
                }
                TraceOp::PersistBatch(lines) => {
                    let mut fence = now;
                    for &addr in lines {
                        fence =
                            fence.max(hooks.call(&mut sys, seg.op, Call::Persist(now, addr))?);
                    }
                    now = fence;
                }
                TraceOp::Read(addr) => {
                    now = hooks.call(&mut sys, seg.op, Call::Read(now, *addr))?
                }
            }
        }
        hooks.segment_end(&mut sys, seg);
        if seg.crash_after {
            sys.crash(now);
            sys.recover()?;
            hooks.recovered(&mut sys);
        }
    }
    Ok((sys, now.as_u64()))
}

/// Per-op host time of the timed replay.
#[derive(Debug, Clone, Copy, Default)]
struct OpCore {
    busy_ns: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Hooks of the timed replay (`core`).
struct Timed {
    epoch: Instant,
    first_op: usize,
    ops: Vec<OpCore>,
    stats_start: Option<StatSet>,
    call_ns: Vec<f64>,
    persist_ns: u64,
    calls: u64,
    reads: u64,
}

impl Hooks for Timed {
    fn call(
        &mut self,
        sys: &mut SecureMemorySystem,
        op: Option<usize>,
        call: Call,
    ) -> Result<Cycle, SecurityError> {
        let Some(op) = op else {
            return call.execute(sys);
        };
        let t0 = Instant::now();
        let result = call.execute(sys);
        let t1 = Instant::now();
        let ns = nanos(t0, t1);
        self.call_ns.push(ns as f64);
        self.calls += 1;
        match call {
            Call::Persist(..) => self.persist_ns += ns,
            Call::Read(..) => self.reads += 1,
        }
        if let Some(slot) = self.ops.get_mut(op - self.first_op) {
            if slot.busy_ns == 0 {
                slot.start_ns = nanos(self.epoch, t0);
            }
            slot.busy_ns += ns;
            slot.end_ns = nanos(self.epoch, t1);
        }
        result
    }

    fn segment_start(&mut self, sys: &mut SecureMemorySystem, seg: &Segment) {
        if seg.op.is_some() && self.stats_start.is_none() {
            self.stats_start = Some(sys.stats());
        }
    }
}

/// Events emitted while replaying one segment, or while recovering.
struct Chunk {
    op: Option<usize>,
    events: Vec<TraceEvent>,
    crash_after: bool,
}

/// Hooks of the event replay.
#[derive(Default)]
struct Events {
    chunks: Vec<Chunk>,
}

impl Hooks for Events {
    fn call(
        &mut self,
        sys: &mut SecureMemorySystem,
        _op: Option<usize>,
        call: Call,
    ) -> Result<Cycle, SecurityError> {
        call.execute(sys)
    }

    fn segment_end(&mut self, sys: &mut SecureMemorySystem, seg: &Segment) {
        self.chunks.push(Chunk {
            op: seg.op,
            events: sys.take_trace_events(),
            crash_after: seg.crash_after,
        });
    }

    fn recovered(&mut self, sys: &mut SecureMemorySystem) {
        self.chunks.push(Chunk {
            op: None,
            events: sys.take_trace_events(),
            crash_after: false,
        });
    }
}

/// The calls one op's events stand for, per layer.
#[derive(Debug, Default)]
struct OpCalls {
    protects: Vec<(Cycle, LineAddr)>,
    masu_writes: Vec<(Cycle, LineAddr)>,
    tree: Vec<(u64, Line)>,
    crypto: Vec<(u64, u64)>,
    wpq: Vec<WpqCall>,
    cache: Vec<u64>,
    reads: Vec<(Cycle, LineAddr)>,
}

#[derive(Debug, Clone, Copy)]
enum WpqCall {
    Insert(Cycle, LineAddr),
    Retire(Cycle, LineAddr),
}

fn protects(c: &OpCalls) -> &[(Cycle, LineAddr)] {
    &c.protects
}
fn masu_writes(c: &OpCalls) -> &[(Cycle, LineAddr)] {
    &c.masu_writes
}
fn tree_updates(c: &OpCalls) -> &[(u64, Line)] {
    &c.tree
}
fn crypto_calls(c: &OpCalls) -> &[(u64, u64)] {
    &c.crypto
}
fn wpq_calls(c: &OpCalls) -> &[WpqCall] {
    &c.wpq
}
fn cache_probes(c: &OpCalls) -> &[u64] {
    &c.cache
}
fn nvm_reads(c: &OpCalls) -> &[(Cycle, LineAddr)] {
    &c.reads
}

enum Tree {
    Eager(BonsaiMerkleTree),
    Lazy(TreeOfCounters),
}

/// Fresh standalone instances of every layer, built from a cell's config.
struct Standalone {
    misu: Option<MinorSecurityUnit>,
    next_slot: usize,
    masu: Option<MajorSecurityUnit>,
    masu_nvm: NvmDevice,
    tree: Option<Tree>,
    blocks: BTreeMap<u64, CounterBlock>,
    aes: Aes128,
    pads: PadCache,
    mac: MacEngine,
    wpq: BankSet,
    ctr_cache: SetAssocCache,
    mt_cache: SetAssocCache,
    nvm: NvmDevice,
    data_bytes: u64,
}

/// Host time of each layer's standalone passes.
#[derive(Debug, Clone, Copy, Default)]
struct LayerNs {
    misu: u64,
    masu: u64,
    tree: u64,
    pad: u64,
    mac: u64,
    wpq: u64,
    cache: u64,
    nvm: u64,
}

impl Standalone {
    fn new(config: &ControllerConfig) -> Self {
        let layout = MetadataLayout::new(config.region_bytes);
        let secure = config.kind != ControllerKind::IdealNonSecure;
        // The Ma-SU's key derivation (data key 0x33, MAC key 0x44).
        let mut aes_key = [0u8; 16];
        aes_key[..8].copy_from_slice(&config.key_seed.to_le_bytes());
        aes_key[8] = 0x33;
        let mut mac_key = aes_key;
        mac_key[8] = 0x44;
        let mac = MacEngine::new(mac_key);
        let misu = match config.kind {
            ControllerKind::Dolos(kind) => Some(MinorSecurityUnit::with_geometry(
                kind,
                config.banks,
                config.physical_wpq_entries,
                config.key_seed,
                config.latency.mac,
            )),
            _ => None,
        };
        let masu = secure.then(|| {
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
        });
        let tree = secure.then(|| match config.scheme {
            UpdateScheme::EagerMerkle => Tree::Eager(BonsaiMerkleTree::new(layout.pages(), &mac)),
            UpdateScheme::LazyToc => Tree::Lazy(TreeOfCounters::new(layout.pages(), &mac)),
        });
        let mut wpq = BankSet::new(config.banks, config.usable_wpq_entries());
        wpq.set_coalescing(config.coalescing);
        Standalone {
            misu,
            next_slot: 0,
            masu,
            masu_nvm: NvmDevice::new(),
            tree,
            blocks: BTreeMap::new(),
            aes: Aes128::new(&aes_key),
            pads: PadCache::new(256),
            mac,
            wpq,
            ctr_cache: SetAssocCache::with_capacity_bytes(
                config.counter_cache_bytes,
                config.counter_cache_ways,
            ),
            mt_cache: SetAssocCache::with_capacity_bytes(
                config.mt_cache_bytes,
                config.mt_cache_ways,
            ),
            nvm: NvmDevice::new(),
            data_bytes: layout.data_bytes(),
        }
    }

    fn counter(&self, addr: LineAddr) -> u64 {
        self.blocks
            .get(&addr.page_index())
            .map_or(0, |b| b.line_counter(addr.line_in_page()).packed())
    }

    /// Translates one op's events into the calls each layer replays.
    fn gather(&mut self, events: &[TraceEvent], calls: &mut OpCalls) {
        let secure = self.masu.is_some();
        for ev in events {
            let addr = LineAddr::containing(ev.addr);
            match ev.kind {
                // value 2 is the second MAC of Full's single protect call.
                EventKind::MisuMac if ev.value != 2 => calls.protects.push((ev.begin, addr)),
                EventKind::MasuRedoCommit => {
                    calls.masu_writes.push((ev.begin, addr));
                    calls.crypto.push((ev.addr, self.counter(addr)));
                    calls.cache.push(addr.page_index());
                }
                EventKind::MasuTreeUpdate => {
                    let page = addr.page_index();
                    let block = self.blocks.entry(page).or_default();
                    block.increment(addr.line_in_page());
                    calls.tree.push((page, block.to_line()));
                }
                EventKind::WpqInsert | EventKind::WpqCoalesce => {
                    calls.wpq.push(WpqCall::Insert(ev.begin, addr));
                }
                EventKind::WpqRetire => calls.wpq.push(WpqCall::Retire(ev.begin, addr)),
                EventKind::NvmRead => {
                    calls.reads.push((ev.begin, addr));
                    // A secure read of a data line verifies its MAC and
                    // decrypts it: one more pad and data MAC.
                    if secure && ev.addr < self.data_bytes {
                        calls.crypto.push((ev.addr, self.counter(addr)));
                    }
                }
                _ => {}
            }
        }
    }

    fn protect(&mut self, &(at, addr): &(Cycle, LineAddr)) {
        if let Some(misu) = self.misu.as_mut() {
            let slot = self.next_slot;
            self.next_slot = (slot + 1) % misu.usable_entries();
            black_box(misu.protect(at, slot, addr, &line_for(addr.as_u64())));
            misu.on_clear(slot);
        }
    }

    fn masu_write(&mut self, &(at, addr): &(Cycle, LineAddr)) {
        // The Ma-SU always writes the data line here: the Pre-WPQ baseline
        // leaves it to its WPQ drain, which the standalone unit lacks, and a
        // page re-encryption needs the line's current ciphertext.
        if let Some(masu) = self.masu.as_mut() {
            let line = line_for(addr.as_u64());
            black_box(masu.process_write(at, addr, &line, &mut self.masu_nvm));
        }
    }

    fn tree_update(&mut self, (page, line): &(u64, Line)) {
        match self.tree.as_mut() {
            Some(Tree::Eager(bmt)) => bmt.update_leaf(&self.mac, *page, line),
            Some(Tree::Lazy(toc)) => toc.update_leaf(&self.mac, *page, line),
            None => {}
        }
    }

    fn pad(&mut self, &(addr, counter): &(u64, u64)) {
        black_box(self.pads.pad(&self.aes, addr, counter));
    }

    fn data_mac(&mut self, &(addr, counter): &(u64, u64)) {
        black_box(data_mac(&self.mac, addr, counter, &line_for(addr)));
    }

    fn wpq_call(&mut self, call: &WpqCall) {
        match *call {
            WpqCall::Insert(at, addr) => {
                black_box(
                    self.wpq
                        .try_insert_at(at, addr, line_for(addr.as_u64()), None),
                );
            }
            WpqCall::Retire(at, addr) => {
                // Fetch and clear back to back, so the fetched entry is
                // always its bank's clear head.
                let bank = self.wpq.bank_of(addr);
                if let Some(entry) = self.wpq.fetch_oldest(bank) {
                    self.wpq.clear_at(at, entry.slot);
                }
            }
        }
    }

    /// The Ma-SU's counter-block probe plus its MT-path probes.
    fn cache_probe(&mut self, &page: &u64) {
        if self.ctr_cache.probe(page) == Access::Miss {
            self.ctr_cache.fill(page, [0; 64], false);
        }
        let mut idx = page;
        let mut level = 1u64;
        loop {
            idx /= ARITY;
            let key = (level << 56) | idx;
            if self.mt_cache.probe(key) == Access::Miss {
                self.mt_cache.fill(key, [0; 64], false);
            }
            if idx == 0 {
                break;
            }
            level += 1;
        }
    }

    fn nvm_read(&mut self, &(at, addr): &(Cycle, LineAddr)) {
        black_box(self.nvm.read_line(at, addr));
    }

    /// Applies calls without timing (set-up, warm-up and recovery work).
    fn apply(&mut self, c: &OpCalls) {
        c.protects.iter().for_each(|x| self.protect(x));
        c.masu_writes.iter().for_each(|x| self.masu_write(x));
        c.tree.iter().for_each(|x| self.tree_update(x));
        c.crypto.iter().for_each(|x| self.pad(x));
        c.wpq.iter().for_each(|x| self.wpq_call(x));
        c.cache.iter().for_each(|x| self.cache_probe(x));
        c.reads.iter().for_each(|x| self.nvm_read(x));
    }

    /// Volatile state lost at a crash, rebuilt as recovery would.
    fn crash(&mut self) {
        self.wpq.clear_all();
        self.ctr_cache.lose_all();
        self.mt_cache.lose_all();
        self.nvm.power_cycle();
        if let Some(masu) = self.masu.as_mut() {
            masu.crash();
            let _ = masu.recover(&mut self.masu_nvm);
        }
        if let Some(Tree::Lazy(toc)) = self.tree.as_mut() {
            toc.crash(&self.mac);
            let _ = toc.recover(&self.mac);
        }
    }

    /// Times one layer's pass over `ops`: the whole pass is the layer's
    /// busy time, and each op with work gets a span.
    fn pass<T>(
        &mut self,
        ops: &[(usize, OpCalls)],
        pick: fn(&OpCalls) -> &[T],
        run: fn(&mut Self, &T),
        layer: &'static str,
        spans: &mut Spans,
    ) -> u64 {
        let start = Instant::now();
        let mut last = start;
        for (op, calls) in ops {
            let list = pick(calls);
            if list.is_empty() {
                continue;
            }
            for call in list {
                run(self, call);
            }
            let now = Instant::now();
            spans.layer(*op, layer, last, now);
            last = now;
        }
        nanos(start, Instant::now())
    }

    /// Times every layer over one crash-free stretch of measured ops.
    fn passes(&mut self, ops: &[(usize, OpCalls)], ns: &mut LayerNs, spans: &mut Spans) {
        if ops.is_empty() {
            return;
        }
        ns.misu += self.pass(ops, protects, Self::protect, "core.misu", spans);
        ns.masu += self.pass(ops, masu_writes, Self::masu_write, "core.masu", spans);
        ns.tree += self.pass(ops, tree_updates, Self::tree_update, "secmem.tree", spans);
        ns.pad += self.pass(ops, crypto_calls, Self::pad, "crypto.pad", spans);
        ns.mac += self.pass(ops, crypto_calls, Self::data_mac, "crypto.mac", spans);
        ns.wpq += self.pass(ops, wpq_calls, Self::wpq_call, "nvm.wpq", spans);
        ns.cache += self.pass(ops, cache_probes, Self::cache_probe, "secmem.cache", spans);
        ns.nvm += self.pass(ops, nvm_reads, Self::nvm_read, "nvm.device", spans);
    }
}

/// One span: a layer's host interval for one op. Start and end are ns
/// since the run's epoch; busy is the layer's own time inside it.
#[derive(Debug, Clone, Copy)]
struct SpanRow {
    cell: u32,
    op: u32,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    busy_ns: u64,
}

/// Spans kept in memory for the whole run and written at exit.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    cell: u32,
    rows: Vec<SpanRow>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            cell: 0,
            rows: Vec::new(),
        }
    }

    fn push(&mut self, op: usize, layer: &'static str, start_ns: u64, end_ns: u64, busy_ns: u64) {
        self.rows.push(SpanRow {
            cell: self.cell,
            op: op as u32,
            layer,
            start_ns,
            end_ns,
            busy_ns,
        });
    }

    fn layer(&mut self, op: usize, layer: &'static str, start: Instant, end: Instant) {
        let (s, e) = (nanos(self.epoch, start), nanos(self.epoch, end));
        self.push(op, layer, s, e, e - s);
    }

    /// The parent of each span name in the layer tree.
    fn parent(layer: &str) -> &'static str {
        match layer {
            "op" => "-",
            "core" => "op",
            "crypto.pad" | "crypto.mac" | "secmem.tree" | "secmem.cache" => "core.masu",
            _ => "core",
        }
    }

    /// Writes the spans to `path` (see [`Spans::to_tsv`]).
    pub fn write(&self, labels: &[String], path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_tsv(labels))
    }

    /// Tab-separated rows: cell, op, layer, parent, start_ns, end_ns,
    /// busy_ns. `labels[cell]` names each cell in a header comment.
    fn to_tsv(&self, labels: &[String]) -> String {
        let mut out = String::new();
        for (i, label) in labels.iter().enumerate() {
            let _ = writeln!(out, "# cell {i} {label}");
        }
        out.push_str("cell\top\tlayer\tparent\tstart_ns\tend_ns\tbusy_ns\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                r.cell,
                r.op,
                r.layer,
                Self::parent(r.layer),
                r.start_ns,
                r.end_ns,
                r.busy_ns
            );
        }
        out
    }
}

/// Per-layer totals over a traced round.
#[derive(Debug, Default)]
pub struct Ladder {
    /// Untraced host time of the replayed transactions (the ladder root).
    op_ns: u64,
    txns: u64,
    fences: u64,
    flushes: u64,
    core_ns: u64,
    calls: u64,
    call_ns: Vec<f64>,
    persist_ns: u64,
    reads: u64,
    sim_cycles: u64,
    counts: StatSet,
    protects: u64,
    masu_writes: u64,
    tree_updates: u64,
    crypto_calls: u64,
    ns: LayerNs,
}

/// Exact counters taken from the replayed system's statistics.
const COUNTED: [&str; 16] = [
    "ctrl.persists",
    "ctrl.retries",
    "ctrl.read_wpq_hits",
    "misu.busy_rejections",
    "masu.reads",
    "masu.overflows",
    "ctr_cache.hits",
    "ctr_cache.misses",
    "mt_cache.hits",
    "mt_cache.misses",
    "wpq.inserts",
    "wpq.coalesces",
    "wpq.full_events",
    "nvm.reads",
    "nvm.writes",
    "nvm.resident_lines",
];

impl Ladder {
    /// Runs the ladder over one cell's recordings. `untraced` is the same
    /// cell from the untraced round (its op times are the ladder root).
    /// Returns the end-to-end ops of recordings whose replay diverged.
    pub fn add_cell(&mut self, untraced: &CellRun, traced: &CellRun, spans: &mut Spans) -> u64 {
        let mut diverged = 0;
        for rec in &traced.recordings {
            let ops: Vec<usize> = rec.segments.iter().filter_map(|s| s.op).collect();
            let (Some(&first), Some(&last)) = (ops.first(), ops.last()) else {
                continue;
            };
            if !self.add_recording(rec, first, last, untraced, spans) {
                let episodes = rec.segments.iter().filter(|s| s.crash_after).count();
                diverged += if episodes > 0 { episodes } else { ops.len() } as u64;
            }
        }
        self.fences += traced.fences;
        self.flushes += traced.flushes;
        spans.cell += 1;
        diverged
    }

    fn add_recording(
        &mut self,
        rec: &Recording,
        first: usize,
        last: usize,
        untraced: &CellRun,
        spans: &mut Spans,
    ) -> bool {
        let mut timed = Timed {
            epoch: spans.epoch,
            first_op: first,
            ops: vec![OpCore::default(); last - first + 1],
            stats_start: None,
            call_ns: Vec::new(),
            persist_ns: 0,
            calls: 0,
            reads: 0,
        };
        let Ok((sys, cycles)) = drive(rec, TraceMode::Off, &mut timed) else {
            return false;
        };
        if cycles != rec.cycles {
            return false;
        }
        let mut events = Events::default();
        if drive(rec, TraceMode::Record, &mut events).is_err() {
            return false;
        }

        let end = sys.stats();
        let start = timed.stats_start.unwrap_or_default();
        for name in COUNTED {
            let value = if name == "nvm.resident_lines" {
                end.get_or_zero(name)
            } else {
                end.get_or_zero(name) - start.get_or_zero(name)
            };
            self.counts.add(name, value);
        }
        self.sim_cycles += cycles;
        self.calls += timed.calls;
        self.reads += timed.reads;
        self.persist_ns += timed.persist_ns;
        self.call_ns.append(&mut timed.call_ns);
        for (i, core) in timed.ops.iter().enumerate() {
            let op = first + i;
            let (Some(&start_ns), Some(&op_ns)) =
                (untraced.txn_start_ns.get(op), untraced.txn_ns.get(op))
            else {
                continue;
            };
            self.txns += 1;
            self.op_ns += op_ns;
            self.core_ns += core.busy_ns;
            spans.push(op, "op", start_ns, start_ns + op_ns, op_ns);
            if core.busy_ns > 0 {
                spans.push(op, "core", core.start_ns, core.end_ns, core.busy_ns);
            }
        }
        self.standalone(rec, events.chunks, spans);
        true
    }

    fn standalone(&mut self, rec: &Recording, chunks: Vec<Chunk>, spans: &mut Spans) {
        let mut layers = Standalone::new(&rec.config);
        let mut stretch: Vec<(usize, OpCalls)> = Vec::new();
        for chunk in chunks {
            let mut calls = OpCalls::default();
            layers.gather(&chunk.events, &mut calls);
            match chunk.op {
                Some(op) => {
                    self.protects += calls.protects.len() as u64;
                    self.masu_writes += calls.masu_writes.len() as u64;
                    self.tree_updates += calls.tree.len() as u64;
                    self.crypto_calls += calls.crypto.len() as u64;
                    stretch.push((op, calls));
                }
                None => {
                    layers.passes(&stretch, &mut self.ns, spans);
                    stretch.clear();
                    layers.apply(&calls);
                }
            }
            if chunk.crash_after {
                layers.passes(&stretch, &mut self.ns, spans);
                stretch.clear();
                layers.crash();
            }
        }
        layers.passes(&stretch, &mut self.ns, spans);
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get_or_zero(name)
    }

    /// The layer metrics this ladder determines, by name.
    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let frac = |ns: f64| {
            if self.op_ns == 0 {
                0.0
            } else {
                ns / self.op_ns as f64
            }
        };
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let n = &self.ns;
        let whisper_ns = self.op_ns as f64 - self.core_ns as f64;
        let masu_self = n.masu as f64 - (n.pad + n.mac + n.tree + n.cache) as f64;
        let ctrl_self = self.core_ns as f64 - (n.misu + n.masu + n.wpq) as f64;
        let call_ns = crate::stats::sorted(self.call_ns.clone());
        let persists = self.count("ctrl.persists");
        let (inserts, coalesces) = (self.count("wpq.inserts"), self.count("wpq.coalesces"));
        let (ctr_hits, ctr_misses) = (self.count("ctr_cache.hits"), self.count("ctr_cache.misses"));
        let entries = [
            ("whisper.self_ms", whisper_ns / 1e6),
            ("whisper.self_frac", frac(whisper_ns)),
            ("whisper.txns", self.txns as f64),
            ("whisper.fences", self.fences as f64),
            ("whisper.flushes", self.flushes as f64),
            ("core.calls", self.calls as f64),
            ("core.busy_ms", ms(self.core_ns)),
            ("core.busy_frac", frac(self.core_ns as f64)),
            (
                "core.call_ns_p50",
                crate::stats::nearest_rank(&call_ns, 0.5).unwrap_or(0.0),
            ),
            (
                "core.call_ns_p99",
                crate::stats::tail_or_max(&call_ns, 0.99),
            ),
            ("core.persists", persists),
            ("core.reads", self.reads as f64),
            ("core.read_wpq_hits", self.count("ctrl.read_wpq_hits")),
            ("core.retries", self.count("ctrl.retries")),
            (
                "core.retries_per_kwr",
                ratio(self.count("ctrl.retries") * 1000.0, persists),
            ),
            ("core.ns_per_persist", per(self.persist_ns, persists as u64)),
            ("core.sim_cycles", self.sim_cycles as f64),
            ("core.ctrl.self_ms", ctrl_self / 1e6),
            ("core.ctrl.self_frac", frac(ctrl_self)),
            ("core.misu.protects", self.protects as f64),
            ("core.misu.busy_ms", ms(n.misu)),
            ("core.misu.ns_per_protect", per(n.misu, self.protects)),
            (
                "core.misu.busy_rejections",
                self.count("misu.busy_rejections"),
            ),
            ("core.masu.writes", self.masu_writes as f64),
            ("core.masu.reads", self.count("masu.reads")),
            ("core.masu.busy_ms", ms(n.masu)),
            ("core.masu.self_ms", masu_self / 1e6),
            ("core.masu.ns_per_write", per(n.masu, self.masu_writes)),
            ("core.masu.overflows", self.count("masu.overflows")),
            ("crypto.pads", self.crypto_calls as f64),
            ("crypto.macs", self.crypto_calls as f64),
            ("crypto.busy_ms", ms(n.pad + n.mac)),
            ("crypto.ns_per_pad", per(n.pad, self.crypto_calls)),
            ("crypto.ns_per_mac", per(n.mac, self.crypto_calls)),
            ("secmem.tree.updates", self.tree_updates as f64),
            ("secmem.tree.busy_ms", ms(n.tree)),
            ("secmem.tree.ns_per_update", per(n.tree, self.tree_updates)),
            ("secmem.cache.ctr_hits", ctr_hits),
            ("secmem.cache.ctr_misses", ctr_misses),
            (
                "secmem.cache.ctr_hit_ratio",
                ratio(ctr_hits, ctr_hits + ctr_misses),
            ),
            ("secmem.cache.mt_hits", self.count("mt_cache.hits")),
            ("secmem.cache.mt_misses", self.count("mt_cache.misses")),
            ("secmem.cache.busy_ms", ms(n.cache)),
            ("nvm.wpq.inserts", inserts),
            ("nvm.wpq.coalesces", coalesces),
            ("nvm.wpq.full_events", self.count("wpq.full_events")),
            (
                "nvm.wpq.coalesce_ratio",
                ratio(coalesces, inserts + coalesces),
            ),
            ("nvm.wpq.busy_ms", ms(n.wpq)),
            ("nvm.device.reads", self.count("nvm.reads")),
            ("nvm.device.writes", self.count("nvm.writes")),
            (
                "nvm.device.resident_lines",
                self.count("nvm.resident_lines"),
            ),
            ("nvm.device.read_busy_ms", ms(n.nvm)),
        ];
        out.extend(entries);
    }
}
