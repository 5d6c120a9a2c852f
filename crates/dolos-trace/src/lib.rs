//! dolos-trace: deterministic trace analysis for the Dolos simulator.
//!
//! The emitting side lives in [`dolos_sim::trace`]: every timing-bearing
//! component (controller, WPQ, Mi-SU, Ma-SU, NVM device) owns a
//! `TraceSink` and, when `ControllerConfig::with_trace(TraceMode::Record)`
//! is set, stamps typed events with simulated-cycle begin/end times. This
//! crate is the consuming side:
//!
//! * [`hist`] — streaming log2-bucket latency histograms with exact
//!   min/max and percentiles that stay exact while the number of distinct
//!   values is small (always the case for the simulator's quantized
//!   latencies). Merging is associative and order-independent, so
//!   [`dolos_sim::pool`] partitions merge to byte-identical reports at any
//!   `--jobs` value.
//! * [`attrib`] — per-persist critical-path attribution: within the
//!   union of `PersistAck` windows, cycles are attributed to crypto
//!   (MAC/AES/tree work), queueing (WPQ-full and Mi-SU-busy stalls),
//!   device (NVM port service), or gap (everything else), with overlaps
//!   resolved in that priority order.
//! * [`profile`] — the scheme × workload profiling engine behind the
//!   `dolos-trace` CLI and `dolos-bench --trace`: traced WHISPER runs in
//!   the deterministic job pool, persist-latency and WPQ-occupancy
//!   histograms per cell, and a fresh-system floor probe per scheme that
//!   reproduces the paper's 0 / 160 / 320 / 2890-cycle persist minimums.
//! * [`chrome`] — Chrome `trace_event` JSON export (load in
//!   `chrome://tracing` or Perfetto), one track per pipeline lane.
//!
//! Everything here is a pure function of the event stream; no wall-clock,
//! no host state, no floating-point ambiguity in any exported field.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod chrome;
pub mod hist;
pub mod profile;

pub use attrib::{attribute, Attribution};
pub use chrome::chrome_trace_json;
pub use hist::TraceHistogram;
pub use profile::{
    parse_workload, persist_floor, profile_cell, run_profile, CellProfile, ProfileConfig,
    ProfileReport, SchemeProfile, REPORT_SCHEMES,
};
