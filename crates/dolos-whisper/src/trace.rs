//! Persist-trace capture and replay.
//!
//! Recording a workload once and replaying its memory-controller-visible
//! operation stream (compute gaps, fence-batched persists, reads) against
//! any controller configuration decouples *workload generation* from
//! *controller evaluation* — the trace-driven mode cycle-level simulators
//! like gem5 offer. Because every timing model in this workspace is
//! deterministic and payload-independent, a replay reproduces the original
//! run's cycle count exactly; the trace tests assert that.
//!
//! Traces serialize to a simple line-oriented text format:
//!
//! ```text
//! DOLOS-TRACE v1 region=67108864
//! W 420            # compute: 420 basic ops
//! P 4096,4160      # one fence batch: persist lines 0x1000 and 0x1040
//! R 4096           # read line 0x1000
//! ```

// Strict inside a budgeted crate: this parses trace files from outside the
// program, so a hostile file must yield an error, never a panic.
// tests/lint_policy.rs holds this file at zero panic-lint expects.

use std::fmt::Write as _;

use dolos_core::{ControllerConfig, SecureMemorySystem};
use dolos_nvm::LineAddr;
use dolos_secmem::layout::MetadataLayout;
use dolos_sim::Cycle;

use crate::env::OP_COST;

/// The most simulated cycles the `W`/`D` ops of a parsed trace may add:
/// half the clock's range, which leaves the other half for the memory-side
/// latencies a replay adds on top.
pub const MAX_THINK_CYCLES: u64 = u64::MAX / 2;

/// One memory-controller-visible operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Compute for `ops` basic operations.
    Work(u64),
    /// A raw pipeline delay in cycles (cache-hierarchy latency).
    Delay(u64),
    /// One fence batch: all lines issue together, the fence waits for all.
    PersistBatch(Vec<u64>),
    /// A dirty-LLC eviction written back through the controller without
    /// blocking the core.
    Writeback(u64),
    /// A demand read of one line.
    Read(u64),
}

/// A recorded operation stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    region_bytes: u64,
    ops: Vec<TraceOp>,
}

/// Timing results of a trace replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayResult {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Persist operations issued.
    pub persists: u64,
    /// WPQ retry events.
    pub retries: u64,
}

/// Error parsing a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    reason: &'static str,
}

impl core::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.reason
        )
    }
}

impl std::error::Error for ParseTraceError {}

impl Trace {
    /// Creates an empty trace over a protected region of `region_bytes`.
    pub fn new(region_bytes: u64) -> Self {
        Self {
            region_bytes,
            ops: Vec::new(),
        }
    }

    /// The protected-region size the trace was captured against.
    pub fn region_bytes(&self) -> u64 {
        self.region_bytes
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends an operation (coalescing consecutive `Work`/`Delay` entries).
    pub fn push(&mut self, op: TraceOp) {
        match (&op, self.ops.last_mut()) {
            (TraceOp::Work(n), Some(TraceOp::Work(last))) => *last += n,
            (TraceOp::Delay(n), Some(TraceOp::Delay(last))) => *last += n,
            _ => self.ops.push(op),
        }
    }

    /// Iterates the operations.
    pub fn iter(&self) -> impl Iterator<Item = &TraceOp> {
        self.ops.iter()
    }

    /// Total persist (line) count in the trace.
    pub fn persist_lines(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::PersistBatch(lines) => lines.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Replays the trace against a controller configuration.
    ///
    /// Payloads are synthesized from the address (timing is payload
    /// independent throughout the model).
    pub fn replay(&self, mut config: ControllerConfig) -> ReplayResult {
        config.region_bytes = self.region_bytes;
        let mut sys = SecureMemorySystem::new(config);
        let mut now = Cycle::ZERO;
        for op in &self.ops {
            match op {
                TraceOp::Work(ops) => now += ops * OP_COST,
                TraceOp::Delay(cycles) => now += *cycles,
                TraceOp::Writeback(addr) => {
                    let mut payload = [0u8; 64];
                    payload[0..8].copy_from_slice(&addr.to_le_bytes());
                    // Background write-back: does not block the core.
                    let _ = sys.persist_write(now, *addr, &payload);
                }
                TraceOp::PersistBatch(lines) => {
                    let start = now;
                    let mut fence = now;
                    for &addr in lines {
                        let mut payload = [0u8; 64];
                        payload[0..8].copy_from_slice(&addr.to_le_bytes());
                        let done = sys.persist_write(start, addr, &payload);
                        fence = fence.max(done);
                    }
                    now = fence;
                }
                TraceOp::Read(addr) => {
                    let (done, _) = sys.read(now, *addr);
                    now = done;
                }
            }
        }
        ReplayResult {
            cycles: now.as_u64(),
            persists: sys.persists(),
            retries: sys.retries(),
        }
    }

    /// Serializes to the line-oriented text format.
    pub fn serialize(&self) -> String {
        let mut out = format!("DOLOS-TRACE v1 region={}\n", self.region_bytes);
        for op in &self.ops {
            match op {
                TraceOp::Work(n) => {
                    let _ = writeln!(out, "W {n}");
                }
                TraceOp::Delay(n) => {
                    let _ = writeln!(out, "D {n}");
                }
                TraceOp::Writeback(addr) => {
                    let _ = writeln!(out, "B {addr}");
                }
                TraceOp::PersistBatch(lines) => {
                    let list: Vec<String> = lines.iter().map(u64::to_string).collect();
                    let _ = writeln!(out, "P {}", list.join(","));
                }
                TraceOp::Read(addr) => {
                    let _ = writeln!(out, "R {addr}");
                }
            }
        }
        out
    }

    /// Parses the text format produced by [`Trace::serialize`].
    ///
    /// A trace this returns replays without panicking: its region is in
    /// `1..=`[`MetadataLayout::MAX_DATA_BYTES`], its addresses are
    /// line-aligned and inside the page-rounded region, and its `W`/`D`
    /// ops add at most [`MAX_THINK_CYCLES`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on malformed input.
    pub fn parse(text: &str) -> Result<Self, ParseTraceError> {
        let head_err = |reason| ParseTraceError { line: 1, reason };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(head_err("empty input"))?;
        let region_bytes = header
            .strip_prefix("DOLOS-TRACE v1 region=")
            .and_then(|v| v.parse().ok())
            .ok_or(head_err("bad header"))?;
        if !(1..=MetadataLayout::MAX_DATA_BYTES).contains(&region_bytes) {
            return Err(head_err("region size out of range"));
        }
        let data_bytes = MetadataLayout::new(region_bytes).data_bytes();
        let mut trace = Trace::new(region_bytes);
        let mut think_cycles = 0u64;
        for (idx, line) in lines {
            let err = |reason| ParseTraceError {
                line: idx + 1,
                reason,
            };
            let line = line.split('#').next().unwrap_or("").trim();
            let mut chars = line.chars();
            let Some(tag) = chars.next() else {
                continue;
            };
            let rest = chars.as_str().trim();
            let addr = |text: &str| match text.trim().parse::<u64>() {
                Err(_) => Err(err("bad address")),
                Ok(a) if LineAddr::new(a).is_none() => Err(err("address is not line-aligned")),
                Ok(a) if a >= data_bytes => Err(err("address outside the region")),
                Ok(a) => Ok(a),
            };
            let op = match tag {
                'W' => TraceOp::Work(rest.parse().map_err(|_| err("bad work count"))?),
                'D' => TraceOp::Delay(rest.parse().map_err(|_| err("bad delay"))?),
                'B' => TraceOp::Writeback(addr(rest)?),
                'R' => TraceOp::Read(addr(rest)?),
                'P' => TraceOp::PersistBatch(rest.split(',').map(addr).collect::<Result<_, _>>()?),
                _ => return Err(err("unknown op tag")),
            };
            let think = match op {
                TraceOp::Work(ops) => ops.checked_mul(OP_COST),
                TraceOp::Delay(cycles) => Some(cycles),
                _ => Some(0),
            };
            think_cycles = think
                .and_then(|c| think_cycles.checked_add(c))
                .filter(|&total| total <= MAX_THINK_CYCLES)
                .ok_or(err("compute time exceeds MAX_THINK_CYCLES"))?;
            trace.ops.push(op);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;
    use crate::workloads::WorkloadKind;
    use crate::PmEnv;
    use dolos_core::{ControllerKind, MiSuKind};
    use dolos_sim::rng::XorShift;

    fn record_hashmap() -> (Trace, u64) {
        let mut config = ControllerConfig::dolos(MiSuKind::Partial);
        config.region_bytes = RunConfig::default().region_bytes;
        let mut env = PmEnv::new(config);
        env.start_recording();
        let mut w = WorkloadKind::Hashmap.build();
        w.setup(&mut env);
        let mut rng = XorShift::new(11);
        for _ in 0..20 {
            w.transaction(&mut env, 512, &mut rng);
        }
        let cycles = env.now().as_u64();
        (env.take_trace().expect("recording"), cycles)
    }

    #[test]
    fn replay_reproduces_recorded_cycles_exactly() {
        let (trace, original_cycles) = record_hashmap();
        let result = trace.replay(ControllerConfig::dolos(MiSuKind::Partial));
        assert_eq!(result.cycles, original_cycles);
        assert!(result.persists > 0);
    }

    #[test]
    fn replay_against_other_controllers_preserves_ordering() {
        let (trace, _) = record_hashmap();
        let ideal = trace.replay(ControllerConfig::ideal());
        let dolos = trace.replay(ControllerConfig::dolos(MiSuKind::Partial));
        let baseline = trace.replay(ControllerConfig::baseline());
        assert!(ideal.cycles <= dolos.cycles);
        assert!(dolos.cycles < baseline.cycles);
        assert_eq!(ideal.persists, baseline.persists);
    }

    #[test]
    fn serialization_round_trips() {
        let (trace, _) = record_hashmap();
        let text = trace.serialize();
        let parsed = Trace::parse(&text).expect("well-formed");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("DOLOS-TRACE v1 region=abc").is_err());
        assert!(Trace::parse("DOLOS-TRACE v1 region=64\nX 5").is_err());
        assert!(Trace::parse("DOLOS-TRACE v1 region=64\nP 1,zz").is_err());
    }

    /// Line and reason of a trace `parse` must reject.
    fn rejection(text: &str) -> (usize, &'static str) {
        let err = Trace::parse(text).expect_err("hostile trace must be rejected");
        (err.line, err.reason)
    }

    const HEAD: &str = "DOLOS-TRACE v1 region=4096\n";

    #[test]
    fn parse_rejects_a_multibyte_op_tag() {
        assert_eq!(rejection(&format!("{HEAD}\u{e9} 5")), (2, "unknown op tag"));
    }

    #[test]
    fn parse_rejects_unaligned_addresses() {
        for op in ["P 3", "P 0,65", "R 1", "B 4095"] {
            let expected = (2, "address is not line-aligned");
            assert_eq!(rejection(&format!("{HEAD}{op}")), expected, "{op}");
        }
    }

    #[test]
    fn parse_rejects_addresses_outside_the_region() {
        let outside = (2, "address outside the region");
        let text = "DOLOS-TRACE v1 region=67108864\nP 134217728";
        assert_eq!(rejection(text), outside);
        // The bound is the page-rounded region the controller protects.
        assert!(Trace::parse("DOLOS-TRACE v1 region=100\nP 4032").is_ok());
        assert_eq!(rejection(&format!("{HEAD}R 4096")), outside);
    }

    #[test]
    fn parse_rejects_empty_and_oversized_regions() {
        for region in [0, MetadataLayout::MAX_DATA_BYTES + 1, u64::MAX] {
            let text = format!("DOLOS-TRACE v1 region={region}");
            assert_eq!(rejection(&text), (1, "region size out of range"));
        }
    }

    #[test]
    fn parse_rejects_compute_time_that_overflows() {
        for body in [
            format!("W {}", u64::MAX),
            format!("W {}", MAX_THINK_CYCLES / OP_COST + 1),
            format!("D {MAX_THINK_CYCLES}\nP 0\nW 1"),
        ] {
            let reason = rejection(&format!("{HEAD}{body}")).1;
            assert_eq!(reason, "compute time exceeds MAX_THINK_CYCLES", "{body}");
        }
    }

    #[test]
    fn traces_at_every_parse_bound_replay_on_every_scheme() {
        let top = MetadataLayout::MAX_DATA_BYTES - 64;
        let region = top + 64;
        let text =
            format!("DOLOS-TRACE v1 region={region}\nD {MAX_THINK_CYCLES}\nP 0,{top}\nR {top}");
        let trace = Trace::parse(&text).expect("every bound is inclusive");
        for kind in ControllerKind::ALL {
            let cycles = trace.replay(kind.into()).cycles;
            assert!(cycles > MAX_THINK_CYCLES, "{kind:?}");
        }
    }

    /// Seeded truncation, bit flips and byte substitutions of a recorded
    /// trace: each mutant parses to `Ok` or `Err`, never a panic, and
    /// every `Ok` replays.
    #[test]
    fn corrupted_traces_parse_or_fail_cleanly_and_replay() {
        let (trace, _) = record_hashmap();
        let text = trace.serialize().into_bytes();
        let mut rng = XorShift::new(0xC0_22_07);
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..600 {
            let mut bytes = text.clone();
            let at = rng.next_below(bytes.len() as u64) as usize;
            match case % 3 {
                0 => bytes.truncate(at),
                1 => bytes[at] ^= 1 << rng.next_below(8),
                _ => bytes[at] = rng.next_below(256) as u8,
            }
            match Trace::parse(&String::from_utf8_lossy(&bytes)) {
                Ok(mutant) => {
                    let result = mutant.replay(ControllerConfig::dolos(MiSuKind::Post));
                    assert!(result.persists >= mutant.persist_lines());
                    accepted += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        // Both outcomes occur, so the sweep exercises parse and replay.
        assert!(accepted * rejected > 0, "{accepted} ok, {rejected} err");
    }

    #[test]
    fn parse_tolerates_comments_and_blanks() {
        let text = "DOLOS-TRACE v1 region=4096\n\nW 10 # think\nP 0,64\nR 0\n";
        let t = Trace::parse(text).expect("well-formed");
        assert_eq!(t.len(), 3);
        assert_eq!(t.persist_lines(), 2);
    }

    #[test]
    fn push_coalesces_consecutive_work() {
        let mut t = Trace::new(64);
        t.push(TraceOp::Work(5));
        t.push(TraceOp::Work(7));
        t.push(TraceOp::Read(0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().next(), Some(&TraceOp::Work(12)));
    }
}
