//! dolos-verify: differential and metamorphic conformance across the
//! Dolos Mi-SU variants and baselines.
//!
//! The repo's one falsifier. It asks whether each design keeps its
//! crash-consistency and integrity promises under adversarial power cuts
//! and tampering, and the stronger cross-cutting question: **do all the
//! designs mean the same thing?** One seeded, shrinkable operation trace is
//! run through every controller design — the three Dolos Mi-SU options,
//! the eager-BMT `pre-wpq-secure` baseline, the infeasible `deferred`
//! machine, and the insecure `ideal` reference — side by side, and the
//! harness checks
//!
//! * a shared **semantic oracle**: read values during the stream and the
//!   post-crash recovered plaintext must match the acknowledged-write
//!   model in every scheme, and tampering must be detected or provably
//!   harmless in every secure scheme ([`engine`]);
//! * **cross-scheme identity**: every scheme must acknowledge the same
//!   persist prefix when a power failure cuts the stream at a
//!   scheme-independent injection point ([`scenario`]);
//! * **metamorphic invariants**: minimum persist latency ordered
//!   Post ≤ Partial ≤ Full ≤ baseline, burst WPQ capacity exactly the
//!   configured 16/13/10, and security on/off never changing data
//!   semantics ([`campaign`]).
//!
//! Alongside the seeded campaigns, [`enumerate()`] runs every short op
//! sequence under every power cut on every design through the same
//! engine, shortest first ([`mod@enumerate`]).
//!
//! Counterexamples shrink to minimal replayable reproducers through
//! [`shrink_with`]; campaigns parallelize over
//! [`dolos_sim::pool`] with byte-identical reports at any `--jobs` value.
//! The `dolos-verify` binary is the CLI entry point (`campaign`,
//! `replay`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod engine;
pub mod enumerate;
pub mod scenario;

pub use campaign::{
    capacity_probe, run_metamorphic, run_verify, FailureCase, MetamorphicReport, MetamorphicRow,
    SchemeSummary, VerifyConfig, VerifyReport,
};
pub use engine::{
    build_round_ops, run_scenario, run_scheme, verify_schemes, EngineOp, ScenarioVerdict,
    SchemeObservation,
};
pub use enumerate::{enumerate, Letter, ALPHABET};
pub use scenario::{
    check_geometry, shrink_with, Scenario, ScenarioConfig, TamperSpec, VerifyRound, CUT_POINTS,
};
