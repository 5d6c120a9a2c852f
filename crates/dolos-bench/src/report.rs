//! Plain-text table rendering (re-export).
//!
//! The implementation moved to [`dolos_sim::table`] so that report-producing
//! crates (the verify conformance matrix) can render tables
//! without pulling in the wall-clock-exempt bench harness. This module keeps
//! the original `dolos_bench::report` paths working.

pub use dolos_sim::table::{f1, f2, f3, Table};
