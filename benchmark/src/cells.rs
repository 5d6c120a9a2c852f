//! The four workloads as lists of simulation cells.
//!
//! A cell is one simulated system driven by one client in one thread, in a
//! closed loop: the next operation starts when the previous one returns.
//! Every round rebuilds every cell from scratch, so rounds repeat identical
//! work and their exact counts must agree.

use dolos_core::{ControllerConfig, MiSuKind, UpdateScheme};
use dolos_whisper::{RunConfig, WorkloadKind};

/// The benchmark workloads (see `spec::WORKLOADS` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperEager,
    FrontendIdeal,
    DrainBound,
    CrashRecover,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperEager,
        Workload::FrontendIdeal,
        Workload::DrainBound,
        Workload::CrashRecover,
    ];

    /// The stable name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].0
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Crash shape of a `crash-recover` cell.
#[derive(Debug, Clone, Copy)]
pub struct Crashes {
    /// Transactions between consecutive crashes.
    pub every: usize,
    /// Crash/recover episodes per round.
    pub episodes: usize,
    /// Episodes per lineage before a fresh system replaces it.
    pub lineage: usize,
}

/// One simulation cell.
#[derive(Debug, Clone)]
pub struct Cell {
    pub kind: WorkloadKind,
    pub config: ControllerConfig,
    pub txn_bytes: usize,
    /// Client compute between transactions, in basic ops.
    pub think_ops: u64,
    /// Untimed transactions that warm the metadata caches first.
    pub warmup: usize,
    /// Measured transactions (transaction workloads).
    pub txns: usize,
    /// Present for `crash-recover`, whose op is a crash plus a recovery.
    pub crashes: Option<Crashes>,
}

impl Cell {
    fn new(
        kind: WorkloadKind,
        config: ControllerConfig,
        txn_bytes: usize,
        think: Option<u64>,
    ) -> Self {
        let run = RunConfig {
            txn_bytes,
            think_ops_per_txn: think,
            ..RunConfig::default()
        };
        Cell {
            kind,
            config: config.with_region_bytes(run.region_bytes),
            txn_bytes,
            think_ops: run.effective_think_ops(),
            warmup: WARMUP,
            txns: 0,
            crashes: None,
        }
    }

    /// A short label for the span file.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/banks{}",
            self.kind.name(),
            self.config.kind.name(),
            self.config.scheme.name(),
            self.config.banks
        )
    }
}

/// Warm-up transactions per cell: fills the 128 KiB counter cache for the
/// 256-key working set before anything is timed.
const WARMUP: usize = 48;

/// The cells of one round of `workload`. `quick` shrinks every size for
/// smoke tests; the shapes stay the same.
pub fn cells(workload: Workload, quick: bool) -> Vec<Cell> {
    let scale = |full: usize, small: usize| if quick { small } else { full };
    let mut cells = Vec::new();
    match workload {
        Workload::PaperEager => {
            for kind in WorkloadKind::ALL {
                for config in secure_schemes() {
                    let mut cell = Cell::new(kind, config, 1024, None);
                    cell.txns = scale(1000, 6);
                    cells.push(cell);
                }
            }
        }
        Workload::FrontendIdeal => {
            for kind in WorkloadKind::EXTENDED {
                let mut cell = Cell::new(kind, ControllerConfig::ideal(), 1024, None);
                cell.txns = scale(12_000, 8);
                cells.push(cell);
            }
        }
        Workload::DrainBound => {
            for kind in [
                WorkloadKind::Hashmap,
                WorkloadKind::Btree,
                WorkloadKind::Redis,
            ] {
                for banks in [1, 4] {
                    let config = ControllerConfig::dolos(MiSuKind::Full)
                        .with_scheme(UpdateScheme::LazyToc)
                        .with_banks(banks);
                    let mut cell = Cell::new(kind, config, 2048, Some(0));
                    cell.txns = scale(2000, 6);
                    cells.push(cell);
                }
            }
        }
        Workload::CrashRecover => {
            for scheme in [UpdateScheme::EagerMerkle, UpdateScheme::LazyToc] {
                for config in secure_schemes() {
                    let mut cell = Cell::new(
                        WorkloadKind::Hashmap,
                        config.with_scheme(scheme),
                        1024,
                        Some(0),
                    );
                    // Caches restart cold after every crash, so warming them
                    // first would measure nothing.
                    cell.warmup = 0;
                    cell.crashes = Some(Crashes {
                        every: 4,
                        episodes: scale(400, 4),
                        lineage: scale(LINEAGE_EPISODES, 2),
                    });
                    cells.push(cell);
                }
            }
        }
    }
    cells
}

/// Episodes per `crash-recover` lineage. Eight episodes (32 transactions)
/// stay below the first minor-counter page overflow of every scheme, after
/// which eager-BMT recovery fails with a false `TreeRootMismatch` (see the
/// README's recovery-bug section and `benchmark repro`).
pub const LINEAGE_EPISODES: usize = 8;

/// The four secure controllers the paper compares.
fn secure_schemes() -> [ControllerConfig; 4] {
    [
        ControllerConfig::baseline(),
        ControllerConfig::dolos(MiSuKind::Full),
        ControllerConfig::dolos(MiSuKind::Partial),
        ControllerConfig::dolos(MiSuKind::Post),
    ]
}
