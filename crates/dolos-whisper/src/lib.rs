//! WHISPER-style persistent workloads for the Dolos evaluation.
//!
//! The paper evaluates six database benchmarks from the WHISPER suite
//! (hashmap, ctree, btree, rbtree, N-Store/YCSB, Redis). This crate
//! re-implements each as a real persistent data structure running against
//! the simulated secure memory system:
//!
//! * [`mod@env`] — the persistent-memory programming environment: a volatile
//!   cache image over the protected region, `clwb`/`sfence` semantics that
//!   turn into timed persist operations, a bump allocator, and an
//!   instruction-count model for CPI;
//! * [`txn`] — PMDK-style undo-log transactions (log before data, ordered
//!   by fences, commit marker, truncation);
//! * [`mod@gen`] — seeded synthetic transaction-shaped traces for the
//!   conformance harness (`dolos-verify`);
//! * [`workloads`] — the six benchmarks behind one [`Workload`] trait;
//! * [`runner`] — warm-up + measured-run orchestration producing
//!   [`runner::RunResult`] rows for the experiment harness.
//!
//! # Examples
//!
//! ```
//! use dolos_core::{ControllerConfig, MiSuKind};
//! use dolos_whisper::runner::{run_workload, RunConfig};
//! use dolos_whisper::workloads::WorkloadKind;
//!
//! let run = RunConfig { transactions: 20, txn_bytes: 256, ..RunConfig::default() };
//! let result = run_workload(WorkloadKind::Hashmap, ControllerConfig::dolos(MiSuKind::Partial), &run);
//! assert!(result.persists > 0);
//! assert!(result.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu_cache;
pub mod env;
pub mod gen;
pub mod runner;
pub mod trace;
pub mod txn;
pub mod workloads;

pub use env::PmEnv;
pub use gen::{generate, TraceGenConfig};
pub use runner::{run_workload, RunConfig, RunResult};
pub use trace::{ReplayResult, Trace, TraceOp};
pub use txn::UndoLog;
pub use workloads::{Workload, WorkloadKind};
