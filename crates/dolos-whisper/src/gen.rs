//! Seeded synthetic trace generation for the conformance harness.
//!
//! [`generate`] produces transaction-shaped persist traces without running a
//! full workload: each transaction follows the PMDK undo-log discipline the
//! [`crate::txn`] module implements for real — log records fence-ordered
//! before the data lines they cover, then a commit marker — over a bounded
//! data keyspace with a reserved log-region tail. Reads and dirty-LLC
//! writebacks only ever target lines a previous transaction already
//! persisted, so a replay (or a differential run) never observes an
//! uninitialized line.
//!
//! Generation is pure: the same seed and configuration always produce the
//! same [`Trace`], byte for byte through [`Trace::serialize`]. That is what
//! makes the traces usable as campaign cells — a failing trace is replayed
//! from `(seed, config)` alone.

use dolos_sim::rng::XorShift;

use crate::trace::{Trace, TraceOp};

/// Shape of a generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGenConfig {
    /// Transactions to generate.
    pub txns: usize,
    /// Data lines addressable by transactions (keyspace).
    pub keyspace: u64,
    /// Log-region lines reserved past the data region.
    pub log_lines: u64,
    /// Maximum data lines written by one transaction (at least 1 is
    /// always written).
    pub batch_max: usize,
    /// Maximum compute ops between transactions (at least 1).
    pub work_max: u64,
    /// Probability that a committed transaction is followed by a read of an
    /// already-persisted line.
    pub read_chance: f64,
    /// Probability that a committed transaction is followed by a dirty-LLC
    /// writeback of an already-persisted data line.
    pub writeback_chance: f64,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        Self {
            txns: 24,
            keyspace: 32,
            log_lines: 8,
            batch_max: 4,
            work_max: 200,
            read_chance: 0.35,
            writeback_chance: 0.15,
        }
    }
}

impl TraceGenConfig {
    /// Line address of the commit-marker line (one line past the data
    /// region).
    pub fn commit_addr(&self) -> u64 {
        self.keyspace.max(1) * 64
    }

    /// First line address of the reserved log region.
    pub fn log_base(&self) -> u64 {
        self.commit_addr() + 64
    }

    /// Protected-region size covering data, marker and log lines.
    pub fn region_bytes(&self) -> u64 {
        self.log_base() + self.log_lines.max(1) * 64
    }
}

/// Generates one transaction-shaped trace from a seed.
pub fn generate(seed: u64, config: &TraceGenConfig) -> Trace {
    let mut rng = XorShift::new(seed ^ 0x7AC3_5EED);
    let data_lines = config.keyspace.max(1);
    let log_lines = config.log_lines.max(1);
    let commit_addr = config.commit_addr();
    let log_base = config.log_base();
    let mut trace = Trace::new(config.region_bytes());
    // Data lines some earlier transaction has already committed; reads and
    // writebacks draw only from here.
    let mut persisted: Vec<u64> = Vec::new();
    let mut log_cursor = 0u64;

    for _ in 0..config.txns {
        trace.push(TraceOp::Work(1 + rng.next_below(config.work_max.max(1))));

        // The transaction's working set: distinct data lines.
        let want = 1 + rng.next_below(config.batch_max.max(1) as u64) as usize;
        let mut data: Vec<u64> = Vec::with_capacity(want);
        for _ in 0..want {
            let addr = rng.next_below(data_lines) * 64;
            if !data.contains(&addr) {
                data.push(addr);
            }
        }

        // Undo-log discipline: one log record per data line, fenced before
        // the data, then the commit marker in its own fence batch. Log slots
        // rotate through the reserved region so records overwrite in place.
        let mut log: Vec<u64> = Vec::with_capacity(data.len());
        for _ in &data {
            let slot = log_base + (log_cursor % log_lines) * 64;
            log_cursor += 1;
            if !log.contains(&slot) {
                log.push(slot);
            }
        }
        trace.push(TraceOp::PersistBatch(log));
        trace.push(TraceOp::PersistBatch(data.clone()));
        trace.push(TraceOp::PersistBatch(vec![commit_addr]));
        for addr in data {
            if !persisted.contains(&addr) {
                persisted.push(addr);
            }
        }

        // Post-commit traffic over settled lines only.
        if rng.chance(config.read_chance) {
            let pick = rng.next_below(persisted.len() as u64) as usize;
            trace.push(TraceOp::Read(persisted[pick]));
        }
        if rng.chance(config.writeback_chance) {
            let pick = rng.next_below(persisted.len() as u64) as usize;
            trace.push(TraceOp::Writeback(persisted[pick]));
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = TraceGenConfig::default();
        let a = generate(42, &config);
        let b = generate(42, &config);
        assert_eq!(a, b);
        assert_eq!(a.serialize(), b.serialize());
        assert_ne!(a, generate(43, &config));
    }

    #[test]
    fn traces_are_well_formed() {
        let config = TraceGenConfig {
            txns: 60,
            ..TraceGenConfig::default()
        };
        let trace = generate(7, &config);
        let region = config.region_bytes();
        let mut persisted = std::collections::BTreeSet::new();
        for op in trace.iter() {
            match op {
                TraceOp::Work(n) | TraceOp::Delay(n) => assert!(*n > 0),
                TraceOp::PersistBatch(lines) => {
                    assert!(!lines.is_empty(), "empty fence batch");
                    let mut seen = std::collections::BTreeSet::new();
                    for &addr in lines {
                        assert_eq!(addr % 64, 0);
                        assert!(addr + 64 <= region, "address past region: {addr:#x}");
                        assert!(seen.insert(addr), "duplicate line in batch: {addr:#x}");
                        persisted.insert(addr);
                    }
                }
                TraceOp::Read(addr) | TraceOp::Writeback(addr) => {
                    assert!(
                        persisted.contains(addr),
                        "touches never-persisted line {addr:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn transactions_follow_the_undo_log_discipline() {
        // Fence batches come in (log, data, marker) triples: log lines live
        // in the reserved tail, data lines below the marker, and the marker
        // batch is exactly the commit line.
        let config = TraceGenConfig::default();
        let trace = generate(11, &config);
        let batches: Vec<&Vec<u64>> = trace
            .iter()
            .filter_map(|op| match op {
                TraceOp::PersistBatch(lines) => Some(lines),
                _ => None,
            })
            .collect();
        assert_eq!(batches.len(), config.txns * 3);
        for triple in batches.chunks(3) {
            assert!(triple[0].iter().all(|&a| a >= config.log_base()));
            assert!(triple[1].iter().all(|&a| a < config.commit_addr()));
            assert_eq!(triple[2].as_slice(), &[config.commit_addr()]);
        }
    }

    #[test]
    fn generated_traces_round_trip_through_the_text_format() {
        let trace = generate(99, &TraceGenConfig::default());
        let text = trace.serialize();
        let parsed = Trace::parse(&text).expect("serialized trace must parse");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn generated_traces_replay_on_a_controller() {
        let config = TraceGenConfig {
            txns: 10,
            ..TraceGenConfig::default()
        };
        let trace = generate(5, &config);
        let result = trace.replay(dolos_core::ControllerConfig::dolos(
            dolos_core::MiSuKind::Partial,
        ));
        assert!(result.persists > 0);
        assert!(result.cycles > 0);
    }
}
