//! The profiling engine: traced WHISPER runs across schemes × workloads.
//!
//! [`run_profile`] runs every configured (scheme, workload) cell through
//! the deterministic job pool ([`dolos_sim::pool::run_indexed`]), each cell
//! a traced [`dolos_whisper::runner::run_workload`] whose event stream is
//! reduced to a persist-latency histogram, a WPQ-occupancy histogram and a
//! critical-path [`Attribution`]. A fresh-system probe per scheme records
//! the intrinsic persist floor — the paper's 0 (ideal), 320 (Dolos-Full),
//! 160 (Dolos-Partial), 0 (Dolos-Post) and 2890 (`pre-wpq-secure`) cycle
//! minimums.
//!
//! Every report field is a pure function of (scheme, workload, run
//! parameters); the job count only partitions the work, so
//! [`ProfileReport::to_json`] is byte-identical at any `--jobs` value.

use dolos_core::{ControllerConfig, ControllerKind, SecureMemorySystem, TraceMode};
use dolos_sim::pool;
use dolos_sim::trace::EventKind;
use dolos_sim::Cycle;
use dolos_whisper::runner::{run_workload, RunConfig};
use dolos_whisper::workloads::WorkloadKind;

use crate::attrib::{attribute, Attribution};
use crate::hist::TraceHistogram;

/// The schemes a profile reports by default, in the canonical comparison
/// order shared with `dolos-verify`: the insecure upper bound, the
/// state-of-the-art baseline, then the three Dolos Mi-SU designs.
pub const REPORT_SCHEMES: [ControllerKind; 5] = [
    ControllerKind::IdealNonSecure,
    ControllerKind::PreWpqSecure,
    ControllerKind::Dolos(dolos_core::MiSuKind::Full),
    ControllerKind::Dolos(dolos_core::MiSuKind::Partial),
    ControllerKind::Dolos(dolos_core::MiSuKind::Post),
];

/// Resolves a workload display name ("Hashmap", "NStore:YCSB", ...),
/// case-insensitively, over the extended workload set.
pub fn parse_workload(name: &str) -> Option<WorkloadKind> {
    WorkloadKind::EXTENDED
        .into_iter()
        .find(|kind| kind.name().eq_ignore_ascii_case(name))
}

/// The intrinsic persist floor of a scheme: the latency of the very first
/// persist on a fresh system, where nothing is cached, queued or busy —
/// the scheme's critical path with every miss penalty exposed.
pub fn persist_floor(kind: ControllerKind) -> u64 {
    let mut system = SecureMemorySystem::new(kind.into());
    let done = system.persist_write(Cycle::ZERO, 0, &[0x5A; 64]);
    done.as_u64()
}

/// Parameters of one profiling sweep.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Measured transactions per cell.
    pub transactions: usize,
    /// Transaction payload bytes.
    pub txn_bytes: usize,
    /// Warm-up transactions (their events are discarded).
    pub warmup: usize,
    /// RNG seed shared by every cell.
    pub seed: u64,
    /// Worker threads for the job pool (0 = all available). Affects
    /// wall-clock only, never the report.
    pub jobs: usize,
    /// NVM banks (power of two). One bank reproduces the unbanked
    /// controller cycle-for-cycle; more banks shard the WPQ and overlap
    /// drains, and traced runs additionally emit `BankBusy` spans.
    pub banks: usize,
    /// Schemes to profile, in report order.
    pub schemes: Vec<ControllerKind>,
    /// Workloads to profile, in report order.
    pub workloads: Vec<WorkloadKind>,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self {
            transactions: 40,
            txn_bytes: 256,
            warmup: 8,
            seed: 0x5EED,
            jobs: 1,
            banks: 1,
            schemes: REPORT_SCHEMES.to_vec(),
            workloads: WorkloadKind::ALL.to_vec(),
        }
    }
}

impl ProfileConfig {
    /// The per-cell run parameters (transactions, payload, warm-up, seed).
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            transactions: self.transactions,
            txn_bytes: self.txn_bytes,
            warmup: self.warmup,
            seed: self.seed,
            ..RunConfig::default()
        }
    }
}

/// One traced (scheme, workload) cell.
#[derive(Debug, Clone)]
pub struct CellProfile {
    /// Scheme report name.
    pub scheme: &'static str,
    /// Workload display name.
    pub workload: &'static str,
    /// Simulated cycles over the measured window.
    pub cycles: u64,
    /// Persist operations in the measured window.
    pub persists: u64,
    /// WPQ-full retry events in the measured window.
    pub retries: u64,
    /// Trace events recorded in the measured window.
    pub events: usize,
    /// Persist critical-path latencies (`PersistAck` span lengths).
    pub latency: TraceHistogram,
    /// WPQ live-entry occupancy samples.
    pub occupancy: TraceHistogram,
    /// Critical-path cycle attribution.
    pub attribution: Attribution,
}

impl CellProfile {
    /// Serializes the cell as a deterministic JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":{:?},\"cycles\":{},\"persists\":{},\"retries\":{},\
             \"events\":{},\"latency\":{},\"occupancy\":{},\"attribution\":{}}}",
            self.workload,
            self.cycles,
            self.persists,
            self.retries,
            self.events,
            self.latency.to_json(),
            self.occupancy.to_json(),
            self.attribution.to_json(),
        )
    }
}

/// Profiles one (scheme, workload) cell with tracing enabled, on a
/// `banks`-way banked backend.
pub fn profile_cell(
    kind: ControllerKind,
    workload: WorkloadKind,
    run: &RunConfig,
    banks: usize,
) -> CellProfile {
    let config = ControllerConfig::from(kind)
        .with_banks(banks)
        .with_trace(TraceMode::Record);
    let result = run_workload(workload, config, run);
    let mut latency = TraceHistogram::new();
    let mut occupancy = TraceHistogram::new();
    for e in &result.trace_events {
        match e.kind {
            EventKind::PersistAck => latency.record(e.span_cycles()),
            EventKind::WpqOccupancy => occupancy.record(e.value),
            _ => {}
        }
    }
    CellProfile {
        scheme: kind.name(),
        workload: result.workload,
        cycles: result.cycles,
        persists: result.persists,
        retries: result.retries,
        events: result.trace_events.len(),
        latency,
        occupancy,
        attribution: attribute(&result.trace_events),
    }
}

/// One scheme's row group: the fresh-system floor plus one cell per
/// workload.
#[derive(Debug, Clone)]
pub struct SchemeProfile {
    /// Scheme report name.
    pub scheme: &'static str,
    /// Fresh-system persist floor in cycles ([`persist_floor`]).
    pub floor: u64,
    /// Per-workload cells, in configured workload order.
    pub cells: Vec<CellProfile>,
}

impl SchemeProfile {
    /// Serializes the scheme group as a deterministic JSON object.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(CellProfile::to_json).collect();
        format!(
            "{{\"scheme\":{:?},\"floor\":{},\"cells\":[{}]}}",
            self.scheme,
            self.floor,
            cells.join(",")
        )
    }
}

/// A full profiling sweep.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Measured transactions per cell.
    pub transactions: usize,
    /// Transaction payload bytes.
    pub txn_bytes: usize,
    /// Warm-up transactions per cell.
    pub warmup: usize,
    /// RNG seed.
    pub seed: u64,
    /// NVM banks per cell.
    pub banks: usize,
    /// Scheme groups in report order.
    pub schemes: Vec<SchemeProfile>,
}

impl ProfileReport {
    /// Serializes the report as deterministic JSON. The job count is
    /// deliberately absent: the serialization must be byte-identical at
    /// any `--jobs` value, and is.
    pub fn to_json(&self) -> String {
        let schemes: Vec<String> = self.schemes.iter().map(SchemeProfile::to_json).collect();
        format!(
            "{{\"transactions\":{},\"txn_bytes\":{},\"warmup\":{},\"seed\":{},\"banks\":{},\
             \"schemes\":[{}]}}",
            self.transactions,
            self.txn_bytes,
            self.warmup,
            self.seed,
            self.banks,
            schemes.join(",")
        )
    }

    /// Renders the human-readable critical-path report.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for scheme in &self.schemes {
            out.push_str(&format!(
                "scheme {} (fresh persist floor {} cycles)\n",
                scheme.scheme, scheme.floor
            ));
            out.push_str(&format!(
                "  {:<12} {:>8} {:>7} {:>7} {:>7} {:>7}  {:>7} {:>7} {:>7} {:>6}\n",
                "workload",
                "persists",
                "p50",
                "p95",
                "p99",
                "max",
                "crypto",
                "queue",
                "device",
                "gap"
            ));
            for cell in &scheme.cells {
                let a = &cell.attribution;
                let pct = |part: u64| {
                    if a.ack_cycles == 0 {
                        0.0
                    } else {
                        part as f64 * 100.0 / a.ack_cycles as f64
                    }
                };
                out.push_str(&format!(
                    "  {:<12} {:>8} {:>7} {:>7} {:>7} {:>7}  {:>6.1}% {:>6.1}% {:>6.1}% {:>5.1}%\n",
                    cell.workload,
                    cell.persists,
                    cell.latency.percentile(0.50),
                    cell.latency.percentile(0.95),
                    cell.latency.percentile(0.99),
                    cell.latency.max().unwrap_or(0),
                    pct(a.crypto),
                    pct(a.queueing),
                    pct(a.device),
                    pct(a.gap),
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// Runs the full sweep over the deterministic job pool.
pub fn run_profile(config: &ProfileConfig) -> ProfileReport {
    let run = config.run_config();
    let pairs: Vec<(ControllerKind, WorkloadKind)> = config
        .schemes
        .iter()
        .flat_map(|&kind| config.workloads.iter().map(move |&w| (kind, w)))
        .collect();
    let cells = pool::run_indexed(config.jobs, &pairs, |_, &(kind, workload)| {
        profile_cell(kind, workload, &run, config.banks)
    });
    let mut cells = cells.into_iter();
    let schemes = config
        .schemes
        .iter()
        .map(|&kind| SchemeProfile {
            scheme: kind.name(),
            floor: persist_floor(kind),
            cells: cells.by_ref().take(config.workloads.len()).collect(),
        })
        .collect();
    ProfileReport {
        transactions: config.transactions,
        txn_bytes: config.txn_bytes,
        warmup: config.warmup,
        seed: config.seed,
        banks: config.banks,
        schemes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_reproduce_the_paper_minimums() {
        for (kind, expected) in REPORT_SCHEMES.iter().zip([0, 2890, 320, 160, 0]) {
            assert_eq!(persist_floor(*kind), expected, "{}", kind.name());
        }
    }

    #[test]
    fn banked_profiles_are_jobs_invariant_and_report_their_bank_count() {
        let mut config = ProfileConfig {
            transactions: 6,
            txn_bytes: 2048,
            warmup: 2,
            banks: 4,
            schemes: vec![ControllerKind::Dolos(dolos_core::MiSuKind::Full)],
            workloads: vec![WorkloadKind::Hashmap],
            ..ProfileConfig::default()
        };
        let serial = run_profile(&config).to_json();
        assert!(serial.contains("\"banks\":4"), "{serial}");
        config.jobs = 3;
        assert_eq!(run_profile(&config).to_json(), serial);
    }

    #[test]
    fn jobs_only_partition_the_work() {
        let mut config = ProfileConfig {
            transactions: 6,
            txn_bytes: 128,
            warmup: 2,
            schemes: vec![
                ControllerKind::IdealNonSecure,
                ControllerKind::Dolos(dolos_core::MiSuKind::Partial),
            ],
            workloads: vec![WorkloadKind::Hashmap, WorkloadKind::Btree],
            ..ProfileConfig::default()
        };
        let serial = run_profile(&config).to_json();
        config.jobs = 3;
        assert_eq!(run_profile(&config).to_json(), serial);
    }
}
