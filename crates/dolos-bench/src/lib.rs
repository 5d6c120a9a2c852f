//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§5).
//!
//! Each `fig*` / `table*` function runs the relevant workload × controller
//! sweep and returns structured rows; [`report`] renders them next to the
//! paper's published values so the shape comparison is immediate. The
//! `experiments` binary drives them from the command line:
//!
//! ```text
//! cargo run --release -p dolos-bench --bin experiments -- all
//! cargo run --release -p dolos-bench --bin experiments -- fig12 --transactions 1000
//! ```
//!
//! Absolute numbers will not match gem5 (different substrate); the claims
//! under test are the *shapes*: who wins, by what factor, and where the
//! crossovers sit. `EXPERIMENTS.md` records one full run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod experiments;
pub mod paper;
pub mod report;

pub use experiments::{ExperimentConfig, ExperimentId};
