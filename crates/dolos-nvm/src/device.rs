//! PCM device model: real bytes, Table 1 timing.
//!
//! The store is a [`PagedTable`] keyed by line index: only pages of 64
//! lines that hold a written line exist, so a "16 GB" device costs memory
//! proportional to the working set. Reads of never-written lines return
//! zeroes, matching a zero-initialized medium.
//!
//! Timing follows the paper's DDR-based PCM: 150 ns reads and 500 ns writes,
//! i.e. 600 and 2000 cycles at the 4 GHz core clock. Reads and writes each
//! serialize on their own port; this deliberately simple channel model is the
//! same abstraction level the paper's table implies.

use dolos_sim::paged::PagedTable;
use dolos_sim::resource::Pipeline;
use dolos_sim::stats::StatSet;
use dolos_sim::trace::{EventKind, TraceEvent, TraceMode, TraceSink};
use dolos_sim::Cycle;

use crate::{addr::LineAddr, Line, LINE_SIZE};

/// PCM read latency in cycles (150 ns at 4 GHz).
pub const READ_LATENCY: u64 = 600;

/// PCM write latency in cycles (500 ns at 4 GHz).
pub const WRITE_LATENCY: u64 = 2000;

/// Issue interval of the read port: the device accepts a new read every
/// 50 cycles (~12.5 ns, a DDR-bus-limited 64 B transfer) even though each
/// read takes [`READ_LATENCY`] to complete.
pub const READ_ISSUE_INTERVAL: u64 = 50;

/// Issue interval of the write port: sustained PCM write bandwidth of one
/// 64 B line per 100 cycles (~2.5 GB/s), independent of the per-line
/// [`WRITE_LATENCY`].
pub const WRITE_ISSUE_INTERVAL: u64 = 100;

/// One resident line: its contents and the program cycles it has endured.
#[derive(Debug, Clone, Copy)]
struct StoredLine {
    data: Line,
    /// Timed writes only — the endurance profile (PCM cells wear out after
    /// ~1e8 writes; secure-NVM designs care about write amplification).
    /// Untimed stores (pokes, tampering, replays, restores) leave it alone.
    programs: u64,
}

impl Default for StoredLine {
    fn default() -> Self {
        Self {
            data: [0; LINE_SIZE],
            programs: 0,
        }
    }
}

/// The non-volatile memory device: a sparse line store plus timing ports.
///
/// The contents survive [`NvmDevice::power_cycle`], which models a crash /
/// reboot: timing state resets, data stays. Tests use [`NvmDevice::tamper`]
/// and [`NvmDevice::replay_snapshot`] to mount the attacks from the threat
/// model (spoofing, relocation, replay).
#[derive(Debug, Clone)]
pub struct NvmDevice {
    /// Line store keyed by line index, in pages of 64 lines allocated on
    /// first touch. Iteration is in address order, so range scans
    /// (recovery's counter-region enumeration) come out sorted. Each line
    /// carries its own endurance count, so a timed write is one lookup.
    lines: PagedTable<StoredLine>,
    read_port: Pipeline,
    write_port: Pipeline,
    reads: u64,
    writes: u64,
    /// Event sink for cycle-stamped read/write service spans.
    trace: TraceSink,
}

impl Default for NvmDevice {
    fn default() -> Self {
        Self {
            lines: PagedTable::new(),
            read_port: Pipeline::new(READ_ISSUE_INTERVAL, READ_LATENCY),
            write_port: Pipeline::new(WRITE_ISSUE_INTERVAL, WRITE_LATENCY),
            reads: 0,
            writes: 0,
            trace: TraceSink::Null,
        }
    }
}

impl NvmDevice {
    /// Creates an empty (all-zero) device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the event-tracing mode (discarding any buffered events).
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace = TraceSink::from_mode(mode);
    }

    /// Drains buffered trace events (empty when tracing is off).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// Reads a line, returning `(completion_time, data)`.
    pub fn read_line(&mut self, now: Cycle, addr: LineAddr) -> (Cycle, Line) {
        self.reads += 1;
        let done = self.read_port.acquire(now);
        if self.trace.is_enabled() {
            self.trace
                .span(EventKind::NvmRead, now, done, addr.as_u64(), done - now);
        }
        let data = self.peek(addr);
        (done, data)
    }

    /// Writes a line, returning the completion time.
    #[expect(clippy::disallowed_methods, reason = "delegates to the ticketed write")]
    pub fn write_line(&mut self, now: Cycle, addr: LineAddr, data: &Line) -> Cycle {
        self.write_line_ticket(now, addr, data).1
    }

    /// Writes a line, returning `(accepted, completed)`: the write is
    /// *accepted* (buffer slot can be reused) one issue interval after the
    /// port picks it up; the cells finish programming at *completed*.
    pub fn write_line_ticket(&mut self, now: Cycle, addr: LineAddr, data: &Line) -> (Cycle, Cycle) {
        self.writes += 1;
        let line = self.cell(addr);
        line.data = *data;
        line.programs += 1;
        let completed = self.write_port.acquire(now);
        let accepted = Cycle::new(completed.as_u64() - (WRITE_LATENCY - WRITE_ISSUE_INTERVAL));
        if self.trace.is_enabled() {
            self.trace.span(
                EventKind::NvmWrite,
                now,
                completed,
                addr.as_u64(),
                accepted.as_u64(),
            );
        }
        (accepted, completed)
    }

    /// Reads a line's current contents without consuming device time.
    ///
    /// Used by recovery bookkeeping and tests; the timing-accurate path is
    /// [`NvmDevice::read_line`].
    pub fn peek(&self, addr: LineAddr) -> Line {
        self.lines
            .get(addr.line_index())
            .map_or([0; LINE_SIZE], |line| line.data)
    }

    /// The resident entry for `addr`, created blank if the line was never
    /// stored.
    fn cell(&mut self, addr: LineAddr) -> &mut StoredLine {
        self.lines.entry(addr.line_index())
    }

    /// Writes a line's contents without consuming device time.
    ///
    /// Used by the ADR drain path, whose energy budget is accounted
    /// separately from run-time device ports, and by test setup.
    pub fn poke(&mut self, addr: LineAddr, data: &Line) {
        self.cell(addr).data = *data;
    }

    /// Applies an attacker mutation to a line (spoofing/relocation attacks).
    ///
    /// Returns the previous contents.
    pub fn tamper(&mut self, addr: LineAddr, f: impl FnOnce(&mut Line)) -> Line {
        let data = &mut self.cell(addr).data;
        let before = *data;
        f(data);
        before
    }

    /// Flips a single bit of a line (rowhammer-style corruption / targeted
    /// spoofing). `bit` counts from the least-significant bit of byte 0;
    /// values wrap within the line.
    ///
    /// Returns the previous contents.
    pub fn flip_bit(&mut self, addr: LineAddr, bit: u32) -> Line {
        let byte = (bit as usize / 8) % LINE_SIZE;
        let mask = 1u8 << (bit % 8);
        self.tamper(addr, |line| line[byte] ^= mask)
    }

    /// Captures the contents of a line for a later replay attack.
    pub fn snapshot_line(&self, addr: LineAddr) -> Line {
        self.peek(addr)
    }

    /// Replays previously captured contents into a line (replay attack).
    pub fn replay_snapshot(&mut self, addr: LineAddr, old: &Line) {
        self.cell(addr).data = *old;
    }

    /// Captures every resident line in `[start, end)`, sorted by address.
    /// Pairs with [`NvmDevice::restore_lines`] to model torn ADR dumps and
    /// region-wide replay attacks: snapshot the region, let execution
    /// continue, then restore a chosen subset of its lines.
    pub fn snapshot_range(&self, start: u64, end: u64) -> Vec<(LineAddr, Line)> {
        self.lines_in(start, end).map(|(a, l)| (a, *l)).collect()
    }

    /// Writes captured `(address, contents)` pairs back, untimed. Restoring
    /// only part of a [`NvmDevice::snapshot_range`] capture models a torn
    /// write burst: some lines carry the new epoch, the rest the old one.
    pub fn restore_lines(&mut self, lines: &[(LineAddr, Line)]) {
        for (addr, data) in lines {
            self.cell(*addr).data = *data;
        }
    }

    /// Models a power cycle: data is retained, timing/port state resets.
    pub fn power_cycle(&mut self) {
        self.read_port.reset();
        self.write_port.reset();
    }

    /// Number of timed reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of timed writes served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Timed writes a given line has endured.
    pub fn line_write_count(&self, addr: LineAddr) -> u64 {
        self.lines
            .get(addr.line_index())
            .map_or(0, |line| line.programs)
    }

    /// The endurance hot spot: the most-written line and its write count.
    /// Ties resolve to the lowest address (ordered iteration), so the answer
    /// is a pure function of the write history. `None` until some line has
    /// taken a timed write.
    pub fn max_line_writes(&self) -> Option<(LineAddr, u64)> {
        self.lines
            .iter()
            .map(|(index, line)| (index, line.programs))
            .filter(|&(_, c)| c > 0)
            .max_by(|(a1, c1), (a2, c2)| c1.cmp(c2).then(a2.cmp(a1)))
            .map(|(index, c)| (LineAddr::from_index(index), c))
    }

    /// Number of distinct lines ever written.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    /// Addresses of resident (ever-written) lines within `[start, end)`,
    /// sorted. Recovery uses this to enumerate the counter-block region
    /// without scanning the full device: the paged store skips every page
    /// below `start` and stops at `end`.
    pub fn resident_lines_in(&self, start: u64, end: u64) -> Vec<LineAddr> {
        self.lines_in(start, end).map(|(addr, _)| addr).collect()
    }

    /// The resident lines within `[start, end)` with their contents, in
    /// address order, walked in place: recovery reads a region this way
    /// without collecting it or looking each line up again.
    pub fn lines_in(&self, start: u64, end: u64) -> impl Iterator<Item = (LineAddr, &Line)> {
        let line = LINE_SIZE as u64;
        self.lines
            .range(start.div_ceil(line), end.div_ceil(line))
            .map(|(index, stored)| (LineAddr::from_index(index), &stored.data))
    }

    /// Snapshots device statistics.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("nvm.reads", self.reads as f64);
        s.set("nvm.writes", self.writes as f64);
        s.set("nvm.resident_lines", self.resident_lines() as f64);
        s.set(
            "nvm.max_line_writes",
            self.max_line_writes().map_or(0.0, |(_, c)| c as f64),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    #![expect(clippy::disallowed_methods, reason = "tests tamper with NVM directly")]
    use super::*;

    fn addr(a: u64) -> LineAddr {
        LineAddr::new(a).expect("aligned")
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut nvm = NvmDevice::new();
        let line = [0xC3u8; 64];
        nvm.write_line(Cycle::ZERO, addr(0x40), &line);
        let (_, got) = nvm.read_line(Cycle::ZERO, addr(0x40));
        assert_eq!(got, line);
    }

    #[test]
    fn flip_bit_toggles_and_wraps() {
        let mut nvm = NvmDevice::new();
        nvm.poke(addr(0x40), &[0u8; 64]);
        nvm.flip_bit(addr(0x40), 13); // byte 1, bit 5
        assert_eq!(nvm.peek(addr(0x40))[1], 1 << 5);
        nvm.flip_bit(addr(0x40), 13);
        assert_eq!(nvm.peek(addr(0x40)), [0u8; 64]);
        // Bit index wraps within the 512-bit line.
        nvm.flip_bit(addr(0x40), 512);
        assert_eq!(nvm.peek(addr(0x40))[0], 1);
    }

    #[test]
    fn partial_restore_models_a_torn_dump() {
        let mut nvm = NvmDevice::new();
        for i in 0..4u64 {
            nvm.poke(addr(i * 64), &[1u8; 64]);
        }
        let old = nvm.snapshot_range(0, 4 * 64);
        assert_eq!(old.len(), 4);
        for i in 0..4u64 {
            nvm.poke(addr(i * 64), &[2u8; 64]);
        }
        // Tear: only the first two lines revert to the old epoch.
        nvm.restore_lines(&old[..2]);
        assert_eq!(nvm.peek(addr(0))[0], 1);
        assert_eq!(nvm.peek(addr(64))[0], 1);
        assert_eq!(nvm.peek(addr(128))[0], 2);
        assert_eq!(nvm.peek(addr(192))[0], 2);
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let mut nvm = NvmDevice::new();
        let (_, got) = nvm.read_line(Cycle::ZERO, addr(0x80));
        assert_eq!(got, [0u8; 64]);
    }

    #[test]
    fn timing_matches_table_1() {
        let mut nvm = NvmDevice::new();
        let (done, _) = nvm.read_line(Cycle::ZERO, addr(0));
        assert_eq!(done, Cycle::new(READ_LATENCY));
        let wdone = nvm.write_line(Cycle::ZERO, addr(0), &[0; 64]);
        assert_eq!(wdone, Cycle::new(WRITE_LATENCY));
    }

    #[test]
    fn writes_pipeline_on_the_port() {
        let mut nvm = NvmDevice::new();
        let a = nvm.write_line(Cycle::ZERO, addr(0), &[1; 64]);
        let b = nvm.write_line(Cycle::ZERO, addr(64), &[2; 64]);
        assert_eq!(a, Cycle::new(WRITE_LATENCY));
        // Second write issues one interval later, not a full latency later.
        assert_eq!(b, Cycle::new(WRITE_ISSUE_INTERVAL + WRITE_LATENCY));
    }

    #[test]
    fn write_ticket_accepts_before_completion() {
        let mut nvm = NvmDevice::new();
        let (accepted, completed) = nvm.write_line_ticket(Cycle::ZERO, addr(0), &[1; 64]);
        assert_eq!(accepted, Cycle::new(WRITE_ISSUE_INTERVAL));
        assert_eq!(completed, Cycle::new(WRITE_LATENCY));
    }

    #[test]
    fn data_survives_power_cycle() {
        let mut nvm = NvmDevice::new();
        nvm.write_line(Cycle::new(100), addr(0), &[9; 64]);
        nvm.power_cycle();
        assert_eq!(nvm.peek(addr(0)), [9; 64]);
        // Port pacing resets with power.
        let (accepted, _) = nvm.write_line_ticket(Cycle::ZERO, addr(64), &[1; 64]);
        assert_eq!(accepted, Cycle::new(WRITE_ISSUE_INTERVAL));
    }

    #[test]
    fn tamper_returns_old_contents() {
        let mut nvm = NvmDevice::new();
        nvm.poke(addr(0), &[5; 64]);
        let before = nvm.tamper(addr(0), |line| line[0] ^= 0xFF);
        assert_eq!(before, [5; 64]);
        assert_eq!(nvm.peek(addr(0))[0], 5 ^ 0xFF);
    }

    #[test]
    fn replay_restores_stale_data() {
        let mut nvm = NvmDevice::new();
        nvm.poke(addr(0), &[1; 64]);
        let stale = nvm.snapshot_line(addr(0));
        nvm.poke(addr(0), &[2; 64]);
        nvm.replay_snapshot(addr(0), &stale);
        assert_eq!(nvm.peek(addr(0)), [1; 64]);
    }

    #[test]
    fn endurance_tracking_counts_per_line() {
        let mut nvm = NvmDevice::new();
        for _ in 0..3 {
            nvm.write_line(Cycle::ZERO, addr(0), &[1; 64]);
        }
        nvm.write_line(Cycle::ZERO, addr(64), &[1; 64]);
        assert_eq!(nvm.line_write_count(addr(0)), 3);
        assert_eq!(nvm.line_write_count(addr(64)), 1);
        assert_eq!(nvm.line_write_count(addr(128)), 0);
        let (hot, count) = nvm.max_line_writes().unwrap();
        assert_eq!(hot, addr(0));
        assert_eq!(count, 3);
        // Pokes (ADR drain / test setup) do not count as wear-inducing
        // program operations in this model.
        nvm.poke(addr(0), &[2; 64]);
        assert_eq!(nvm.line_write_count(addr(0)), 3);
    }

    #[test]
    fn untimed_stores_never_count_as_program_cycles() {
        let mut nvm = NvmDevice::new();
        nvm.poke(addr(0), &[1; 64]);
        nvm.tamper(addr(64), |line| line[0] = 2);
        nvm.flip_bit(addr(128), 3);
        nvm.replay_snapshot(addr(192), &[4; 64]);
        nvm.restore_lines(&[(addr(256), [5; 64]), (addr(0), [6; 64])]);
        for a in [0, 64, 128, 192, 256] {
            assert_eq!(nvm.line_write_count(addr(a)), 0, "line {a:#x}");
        }
        assert_eq!(nvm.max_line_writes(), None, "only poked, never programmed");
        assert_eq!(nvm.resident_lines(), 5, "poked lines are resident");
        assert_eq!(nvm.peek(addr(0)), [6; 64]);
        let stats = nvm.stats();
        let keys: Vec<&str> = stats.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "nvm.max_line_writes",
                "nvm.reads",
                "nvm.resident_lines",
                "nvm.writes"
            ]
        );
        assert_eq!(stats.get("nvm.max_line_writes"), Some(0.0));

        // A programmed line keeps its count across later untimed stores,
        // and a poked line's first timed write counts from zero.
        nvm.write_line(Cycle::ZERO, addr(64), &[7; 64]);
        nvm.write_line(Cycle::ZERO, addr(64), &[8; 64]);
        nvm.write_line(Cycle::ZERO, addr(0), &[9; 64]);
        nvm.poke(addr(64), &[1; 64]);
        nvm.tamper(addr(64), |line| line[1] = 1);
        nvm.flip_bit(addr(64), 0);
        nvm.replay_snapshot(addr(64), &[2; 64]);
        nvm.restore_lines(&[(addr(64), [3; 64])]);
        assert_eq!(nvm.line_write_count(addr(64)), 2);
        assert_eq!(nvm.line_write_count(addr(0)), 1);
        assert_eq!(nvm.max_line_writes(), Some((addr(64), 2)));
        assert_eq!(nvm.resident_lines(), 5);
        assert_eq!(nvm.stats().get("nvm.writes"), Some(3.0));
    }

    /// The store's semantics hold across its page (64 lines) and chunk
    /// boundaries: lines on either side of each, and one far above 2^63.
    #[test]
    fn semantics_hold_across_page_and_chunk_boundaries() {
        use dolos_sim::paged::{CHUNK_PAGES, PAGE_SLOTS};
        let page = (PAGE_SLOTS * LINE_SIZE) as u64;
        let chunk = page * CHUNK_PAGES as u64;
        let lines = [
            page - 64,
            page,
            page + 64,
            chunk - 64,
            chunk,
            chunk + page,
            (1 << 63) + 64,
        ];
        let mut nvm = NvmDevice::new();
        for (i, &a) in lines.iter().enumerate() {
            nvm.poke(addr(a), &[i as u8 + 1; 64]);
        }
        assert_eq!(nvm.resident_lines(), lines.len());
        assert_eq!(nvm.max_line_writes(), None, "pokes never count");

        // Mid-page bounds: half-open, sorted, across both boundaries.
        let got = |lo: u64, hi: u64| nvm.resident_lines_in(lo, hi);
        assert_eq!(got(page - 32, page + 64), [addr(page)]);
        assert_eq!(
            got(page - 64, page + 65),
            [addr(page - 64), addr(page), addr(page + 64)]
        );
        assert_eq!(
            got(page + 1, chunk + 1),
            [addr(page + 64), addr(chunk - 64), addr(chunk)]
        );
        assert_eq!(
            got(chunk + 1, u64::MAX),
            [addr(chunk + page), addr((1 << 63) + 64)]
        );
        assert_eq!(got(chunk, chunk), []);
        assert_eq!(got(chunk + 64, chunk), []);
        let contents: Vec<(LineAddr, u8)> = nvm
            .lines_in(page - 64, chunk + 1)
            .map(|(a, l)| (a, l[0]))
            .collect();
        assert_eq!(
            contents,
            [
                (addr(page - 64), 1),
                (addr(page), 2),
                (addr(page + 64), 3),
                (addr(chunk - 64), 4),
                (addr(chunk), 5)
            ]
        );

        // Equal counts on both sides of each boundary: the lowest address
        // wins the tie.
        for &a in &lines[1..] {
            nvm.write_line(Cycle::ZERO, addr(a), &[9; 64]);
            nvm.write_line(Cycle::ZERO, addr(a), &[9; 64]);
        }
        assert_eq!(nvm.max_line_writes(), Some((addr(page), 2)));
        nvm.write_line(Cycle::ZERO, addr(chunk), &[9; 64]);
        assert_eq!(nvm.max_line_writes(), Some((addr(chunk), 3)));
        nvm.poke(addr(page - 64), &[7; 64]);
        assert_eq!(nvm.line_write_count(addr(page - 64)), 0);

        // A snapshot across both boundaries, partially restored.
        let old = nvm.snapshot_range(page - 64, chunk + page + 64);
        let old_addrs: Vec<LineAddr> = old.iter().map(|&(a, _)| a).collect();
        assert_eq!(old_addrs, nvm.resident_lines_in(0, chunk + page + 64));
        assert_eq!(old.len(), 6);
        for &a in &lines {
            nvm.poke(addr(a), &[0xEE; 64]);
        }
        nvm.restore_lines(&old[2..5]);
        let now: Vec<u8> = lines.iter().map(|&a| nvm.peek(addr(a))[0]).collect();
        assert_eq!(now, [0xEE, 0xEE, 9, 9, 9, 0xEE, 0xEE]);
        assert_eq!(nvm.line_write_count(addr(chunk)), 3, "restores never count");
        assert_eq!(nvm.resident_lines(), lines.len());
    }

    #[test]
    fn stats_count_operations() {
        let mut nvm = NvmDevice::new();
        nvm.write_line(Cycle::ZERO, addr(0), &[0; 64]);
        nvm.read_line(Cycle::ZERO, addr(0));
        let s = nvm.stats();
        assert_eq!(s.get("nvm.reads"), Some(1.0));
        assert_eq!(s.get("nvm.writes"), Some(1.0));
    }
}
