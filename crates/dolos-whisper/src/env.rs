//! The persistent-memory programming environment.
//!
//! [`PmEnv`] is what a persistent application sees: a byte-addressable
//! region backed by the secure memory system, a volatile cache image (the
//! CPU caches), explicit `clwb`/`sfence` persistence, a bump allocator, and
//! an instruction/cycle accounting model.
//!
//! The cache image is a [`PagedTable`] keyed by line index: an entry of
//! `{data, dirty, queued}` exists while the CPU holds a copy of the line. A
//! store edits its entry in place, `clwb` reads the dirty flag and sets the
//! queued flag on that same entry (so a line joins the flush queue once,
//! without a scan of the queue), `sfence` clears both, and a dirty-eviction
//! write-back removes the entry. The CPU cache hierarchy beside it keeps no
//! data bytes: tags, dirty bits and LRU stamps only.
//!
//! Persistence semantics mirror x86: stores land in the (volatile) cache
//! image; [`PmEnv::clwb`] queues a line for write-back; [`PmEnv::sfence`]
//! issues every queued line to the memory controller *in parallel* (they
//! pipeline through the security units) and blocks until all have reached
//! the persistence domain. A crash loses the cache image and everything not
//! yet fenced.

use dolos_core::{RecoveryReport, SecureMemorySystem, SecurityError};
use dolos_sim::paged::PagedTable;
use dolos_sim::Cycle;

use crate::cpu_cache::CpuCacheHierarchy;
use crate::trace::{Trace, TraceOp};

/// Cycles charged per basic operation (address arithmetic, compare, hash
/// step). The calibration constant of the core model: chosen so the mean
/// WPQ inter-arrival time lands in the few-hundred-cycle range the paper
/// reports (473 cycles on average across WHISPER).
pub const OP_COST: u64 = 12;

/// One line the CPU holds a copy of.
#[derive(Debug)]
struct LineSlot {
    /// The line's current value.
    data: [u8; 64],
    /// Modified since its last write-back.
    dirty: bool,
    /// In the flush queue, waiting for the next `sfence`.
    queued: bool,
}

impl Default for LineSlot {
    fn default() -> Self {
        Self {
            data: [0; 64],
            dirty: false,
            queued: false,
        }
    }
}

/// The persistent-memory environment.
///
/// # Examples
///
/// ```
/// use dolos_core::{ControllerConfig, MiSuKind};
/// use dolos_whisper::env::PmEnv;
///
/// let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
/// let ptr = env.alloc(128);
/// env.write_u64(ptr, 0xDEAD_BEEF);
/// env.persist(ptr, 8); // clwb + sfence
/// assert_eq!(env.read_u64(ptr), 0xDEAD_BEEF);
/// assert!(env.now().as_u64() > 0);
/// ```
#[derive(Debug)]
pub struct PmEnv {
    system: SecureMemorySystem,
    now: Cycle,
    instructions: u64,
    heap_next: u64,
    heap_end: u64,
    /// Volatile CPU-side copy of the lines the CPU holds, by line index.
    image: PagedTable<LineSlot>,
    /// Lines queued by `clwb`, persisted at the next `sfence`.
    flush_queue: Vec<u64>,
    fences: u64,
    flushes: u64,
    /// Active trace recording, if any.
    recorder: Option<Trace>,
    /// The Table 1 cache hierarchy (timing + dirty-eviction behaviour).
    caches: CpuCacheHierarchy,
}

impl PmEnv {
    /// Creates an environment over a fresh secure memory system.
    pub fn new(config: dolos_core::ControllerConfig) -> Self {
        let heap_end = config.region_bytes;
        Self {
            system: SecureMemorySystem::new(config),
            now: Cycle::ZERO,
            instructions: 0,
            heap_next: 64, // keep null (0) unallocated
            heap_end,
            image: PagedTable::new(),
            flush_queue: Vec::new(),
            fences: 0,
            flushes: 0,
            recorder: None,
            caches: CpuCacheHierarchy::new(),
        }
    }

    /// Starts recording the memory-controller-visible operation stream (see
    /// [`crate::trace::Trace`]). Any previous recording is discarded.
    pub fn start_recording(&mut self) {
        let region = self.heap_end;
        self.recorder = Some(Trace::new(region));
    }

    /// Stops recording and returns the captured trace, if recording was on.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.recorder.take()
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Instructions retired so far (the CPI denominator).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Cycles per instruction so far.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.now.as_u64() as f64 / self.instructions as f64
        }
    }

    /// The underlying secure memory system.
    pub fn system(&self) -> &SecureMemorySystem {
        &self.system
    }

    /// Mutable access to the system (attack injection in tests).
    pub fn system_mut(&mut self) -> &mut SecureMemorySystem {
        &mut self.system
    }

    /// `sfence` operations issued.
    pub fn fences(&self) -> u64 {
        self.fences
    }

    /// `clwb` operations issued.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Charges `ops` basic operations of application compute.
    pub fn work(&mut self, ops: u64) {
        self.instructions += ops;
        self.now += ops * OP_COST;
        if let Some(trace) = self.recorder.as_mut() {
            trace.push(TraceOp::Work(ops));
        }
    }

    /// Allocates `size` bytes (64-byte aligned), charging allocator work.
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted.
    pub fn alloc(&mut self, size: u64) -> u64 {
        self.work(4);
        let addr = self.heap_next;
        let size = size.div_ceil(64) * 64;
        self.heap_next += size;
        assert!(
            self.heap_next <= self.heap_end,
            "PM heap exhausted: {} > {}",
            self.heap_next,
            self.heap_end
        );
        addr
    }

    /// Bytes currently allocated.
    pub fn heap_used(&self) -> u64 {
        self.heap_next
    }

    fn line_of(addr: u64) -> u64 {
        addr & !63
    }

    /// Issues the write-backs of dirty LLC evictions: they go through the
    /// persist path (competing for WPQ slots) without blocking the core, and
    /// the CPU drops its copy.
    fn handle_writebacks(&mut self, evicted: Vec<u64>) {
        for line in evicted {
            let Some(slot) = self.image.remove(line / 64) else {
                continue;
            };
            if slot.dirty {
                let _ = self.system.persist_write(self.now, line, &slot.data);
                if let Some(trace) = self.recorder.as_mut() {
                    trace.push(TraceOp::Writeback(line));
                }
                // An eviction write-back supersedes a pending clwb.
                if slot.queued {
                    self.flush_queue.retain(|&l| l != line);
                }
            }
        }
    }

    /// Accesses `line` through the cache hierarchy, loading it from memory
    /// if no level (and no CPU-side copy) holds it. Returns the line's slot
    /// in the image.
    fn touch_line(&mut self, line: u64, write: bool) -> &mut LineSlot {
        let access = self.caches.access(line, write);
        self.now += access.latency;
        if let Some(trace) = self.recorder.as_mut() {
            trace.push(TraceOp::Delay(access.latency));
        }
        self.handle_writebacks(access.writebacks);
        self.image.get_or_insert_with(line / 64, || {
            // Memory read through the secure controller (timed + verified).
            let (done, data) = self.system.read(self.now, line);
            self.now = done;
            if let Some(trace) = self.recorder.as_mut() {
                trace.push(TraceOp::Read(line));
            }
            LineSlot {
                data,
                dirty: false,
                queued: false,
            }
        })
    }

    /// Writes bytes at `addr` (volatile until flushed).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        self.work(1 + bytes.len() as u64 / 8);
        let mut offset = 0usize;
        while offset < bytes.len() {
            let cur = addr + offset as u64;
            let line = Self::line_of(cur);
            let in_line = (cur - line) as usize;
            let take = (64 - in_line).min(bytes.len() - offset);
            let slot = self.touch_line(line, true);
            slot.data[in_line..in_line + take].copy_from_slice(&bytes[offset..offset + take]);
            slot.dirty = true;
            offset += take;
        }
    }

    /// Reads bytes at `addr`.
    pub fn read_bytes(&mut self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Fills `out` with the bytes at `addr`.
    fn read_into(&mut self, addr: u64, out: &mut [u8]) {
        self.work(1 + out.len() as u64 / 8);
        let mut offset = 0usize;
        while offset < out.len() {
            let cur = addr + offset as u64;
            let line = Self::line_of(cur);
            let in_line = (cur - line) as usize;
            let take = (64 - in_line).min(out.len() - offset);
            let slot = self.touch_line(line, false);
            out[offset..offset + take].copy_from_slice(&slot.data[in_line..in_line + take]);
            offset += take;
        }
    }

    /// Writes a u64 at `addr`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a u64 at `addr`.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        let mut bytes = [0; 8];
        self.read_into(addr, &mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Queues every line overlapping `[addr, addr + len)` for write-back.
    pub fn clwb(&mut self, addr: u64, len: u64) {
        let first = Self::line_of(addr);
        let last = Self::line_of(addr + len.max(1) - 1);
        let mut line = first;
        loop {
            let slot = self.image.get_mut(line / 64);
            if let Some(slot) = slot.filter(|slot| slot.dirty && !slot.queued) {
                slot.queued = true;
                self.flush_queue.push(line);
                self.flushes += 1;
                self.work(1);
            }
            if line == last {
                break;
            }
            line += 64;
        }
    }

    /// Orders all queued write-backs: issues them to the controller in
    /// parallel and blocks until every one reaches the persistence domain.
    pub fn sfence(&mut self) {
        self.fences += 1;
        self.work(1);
        if self.flush_queue.is_empty() {
            return;
        }
        let start = self.now;
        let mut fence_done = start;
        // Taken out for the loop and put back empty, keeping its capacity.
        let mut queue = std::mem::take(&mut self.flush_queue);
        if let Some(trace) = self.recorder.as_mut() {
            trace.push(TraceOp::PersistBatch(queue.clone()));
        }
        for &line in &queue {
            // Queued lines are dirty, hence held: a write-back that
            // evicted one also dropped it from the queue.
            let slot = self.image.entry(line / 64);
            slot.dirty = false;
            slot.queued = false;
            let done = self.system.persist_write(start, line, &slot.data);
            fence_done = fence_done.max(done);
            self.caches.clean(line);
        }
        queue.clear();
        self.flush_queue = queue;
        self.now = fence_done;
    }

    /// `clwb` + `sfence` for one range.
    pub fn persist(&mut self, addr: u64, len: u64) {
        self.clwb(addr, len);
        self.sfence();
    }

    /// Power failure now: the cache image (with all unflushed stores) is
    /// lost; the ADR dump runs.
    pub fn crash(&mut self) {
        self.image.clear();
        self.flush_queue.clear();
        self.caches.lose_all();
        let now = self.now;
        self.system.crash(now);
    }

    /// Reboots and recovers the secure memory system.
    ///
    /// # Errors
    ///
    /// Propagates integrity failures detected during recovery.
    pub fn recover(&mut self) -> Result<RecoveryReport, SecurityError> {
        self.system.recover()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolos_core::{ControllerConfig, MiSuKind};

    fn env() -> PmEnv {
        PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial))
    }

    #[test]
    fn write_read_round_trip_volatile() {
        let mut e = env();
        let p = e.alloc(256);
        e.write_bytes(p, &[1, 2, 3, 4]);
        assert_eq!(e.read_bytes(p, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn cross_line_writes() {
        let default = ControllerConfig::DEFAULT_REGION_BYTES;
        // (region bytes, address, length): a span over four lines, one
        // across the boundary between two 64-line image pages, and the
        // last line of a one-page region.
        for (region, addr, len) in [
            (default, 124, 200),
            (default, 4096 - 100, 200),
            (4096, 4032, 64),
        ] {
            let mut config = ControllerConfig::dolos(MiSuKind::Partial);
            config.region_bytes = region;
            let mut e = PmEnv::new(config);
            e.alloc(addr + len - 64);
            let data: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5A).collect();
            e.write_bytes(addr, &data);
            assert_eq!(e.read_bytes(addr, len as usize), data, "at {addr}");
            let tail = u64::from_le_bytes(data[data.len() - 8..].try_into().unwrap());
            assert_eq!(e.read_u64(addr + len - 8), tail, "at {addr}");
            // Persisted, the bytes come back from memory after a crash.
            e.persist(addr, len);
            e.crash();
            e.recover().expect("clean recovery");
            assert_eq!(e.read_bytes(addr, len as usize), data, "at {addr}");
        }
    }

    #[test]
    fn crash_drops_every_cached_line_and_later_reads_come_from_nvm() {
        let mut e = env();
        let far = 10 * 4096 + 64;
        e.write_u64(64, 1);
        e.persist(64, 8);
        e.write_u64(64, 2); // cached, never flushed
        e.write_u64(far, 7); // another page, never flushed
        assert_eq!(e.read_u64(8), 0);
        assert_eq!(e.image.len(), 3);
        e.crash();
        assert!(e.image.is_empty(), "the crash drops every cached line");
        e.recover().expect("clean recovery");
        e.start_recording();
        assert_eq!(e.read_u64(64), 1, "the flushed value");
        assert_eq!(e.read_u64(far), 0, "the unflushed store is lost");
        assert_eq!(e.read_u64(8), 0);
        assert_eq!(e.read_u64(64), 1, "cached again: no second load");
        let loads: Vec<u64> = e
            .take_trace()
            .expect("recording")
            .iter()
            .filter_map(|op| match op {
                TraceOp::Read(line) => Some(*line),
                _ => None,
            })
            .collect();
        assert_eq!(loads, [64, far, 0], "each line loads from memory once");
    }

    #[test]
    fn clwb_of_untouched_lines_allocates_and_queues_nothing() {
        let mut e = env();
        e.write_u64(64, 1);
        e.clwb(64 * 4096, 64 * 1024);
        assert_eq!(e.flushes(), 0);
        assert_eq!(e.image.len(), 1);
        e.clwb(64, 8);
        e.clwb(64, 8);
        assert_eq!(e.flushes(), 1, "a queued line is queued once");
    }

    #[test]
    fn alloc_is_line_aligned_and_monotonic() {
        let mut e = env();
        let a = e.alloc(1);
        let b = e.alloc(65);
        let c = e.alloc(64);
        assert_eq!(a % 64, 0);
        assert_eq!(b - a, 64);
        assert_eq!(c - b, 128);
    }

    #[test]
    fn fence_persists_queued_lines_in_parallel() {
        let mut e = env();
        let p = e.alloc(64 * 8);
        for i in 0..8 {
            e.write_u64(p + i * 64, i);
        }
        let before = e.now();
        e.clwb(p, 64 * 8);
        e.sfence();
        let elapsed = e.now() - before;
        // 8 lines pipelined at one MAC (160) each: ~1.3k cycles, far less
        // than 8 serial Ma-SU pipelines (8 x 1.6k+).
        assert!(elapsed < 8 * 1640, "fence took {elapsed}");
        assert!(elapsed >= 160);
    }

    #[test]
    fn unflushed_stores_are_lost_on_crash() {
        let mut e = env();
        let p = e.alloc(128);
        e.write_u64(p, 111);
        e.persist(p, 8);
        e.write_u64(p + 64, 222); // never flushed
        e.crash();
        e.recover().expect("clean recovery");
        assert_eq!(e.read_u64(p), 111);
        assert_eq!(e.read_u64(p + 64), 0, "unflushed store must be lost");
    }

    #[test]
    fn flushed_stores_survive_crash() {
        let mut e = env();
        let p = e.alloc(4096);
        for i in 0..32 {
            e.write_u64(p + i * 128, i + 1);
            e.persist(p + i * 128, 8);
        }
        e.crash();
        e.recover().expect("clean recovery");
        for i in 0..32 {
            assert_eq!(e.read_u64(p + i * 128), i + 1);
        }
    }

    #[test]
    fn clwb_of_clean_lines_is_a_noop() {
        let mut e = env();
        let p = e.alloc(64);
        e.write_u64(p, 5);
        e.persist(p, 8);
        let fences_before = e.fences();
        let flushes_before = e.flushes();
        e.persist(p, 8); // nothing dirty
        assert_eq!(e.flushes(), flushes_before);
        assert_eq!(e.fences(), fences_before + 1);
    }

    #[test]
    fn cpi_accounts_work() {
        let mut e = env();
        e.work(100);
        assert_eq!(e.instructions(), 100);
        assert_eq!(e.now().as_u64(), 100 * OP_COST);
        assert!((e.cpi() - OP_COST as f64).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn heap_exhaustion_panics() {
        let mut config = ControllerConfig::dolos(MiSuKind::Partial);
        config.region_bytes = 4096;
        let mut e = PmEnv::new(config);
        e.alloc(8192);
    }
    /// Dirtying more distinct lines than the LLC holds, with no flush at
    /// all, is the only way WHISPER-style code reaches the dirty-eviction
    /// write-back path (every workload commit flushes). The counts and the
    /// clock are pinned: any change to the line image or the cache tags
    /// that moves one simulated event shows here.
    #[test]
    fn llc_dirty_evictions_write_back_and_survive_crash() {
        use crate::cpu_cache::LLC_BYTES;
        let value = |i: u64| i ^ 0xA5A5;
        let mut e = env();
        e.start_recording();
        let lines = (LLC_BYTES / 64) as u64 + 4096;
        let base = e.alloc(lines * 64);
        for i in 0..lines {
            e.write_u64(base + i * 64, value(i));
        }
        let written_back = |e: &PmEnv| -> Vec<u64> {
            let trace = e.recorder.as_ref().expect("recording");
            trace
                .iter()
                .filter_map(|op| match op {
                    TraceOp::Writeback(line) => Some((line - base) / 64),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(written_back(&e).len(), 5248);
        assert_eq!(e.now().as_u64(), 10_678_320);
        assert_eq!(e.system().persists(), 5248);
        assert_eq!(e.flushes(), 0);

        // The volatile view: written-back lines come back from memory,
        // cached ones from the image.
        for i in (0..lines).step_by(997) {
            assert_eq!(e.read_u64(base + i * 64), value(i), "line {i}");
        }
        let survivors = written_back(&e);
        assert_eq!(survivors.len(), 5252);
        assert_eq!(e.now().as_u64(), 18_154_382);
        assert_eq!(e.system().persists(), 5252);

        // Only written-back lines reach the persistence domain.
        e.crash();
        e.recover().expect("clean recovery");
        for &i in &survivors {
            assert_eq!(e.read_u64(base + i * 64), value(i), "written back {i}");
        }
        let lost: Vec<u64> = (0..lines)
            .step_by(101)
            .filter(|i| !survivors.contains(i))
            .collect();
        assert_eq!(lost.len(), 1283);
        for &i in &lost {
            assert_eq!(e.read_u64(base + i * 64), 0, "never written back {i}");
        }
    }
}
