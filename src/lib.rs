//! # Dolos
//!
//! A reproduction of *"Dolos: Improving the Performance of Persistent
//! Applications in ADR-Supported Secure Memory"* (Han, Tuck, Awad — MICRO
//! 2021) as a Rust workspace.
//!
//! This facade crate re-exports the public API of every subsystem so
//! examples, integration tests, and downstream users can depend on a single
//! crate:
//!
//! * [`sim`] — simulation kernel (cycles, resources, RNG, statistics);
//! * [`crypto`] — functional AES-128 / CTR pads / CBC-MAC plus the paper's
//!   latency model;
//! * [`nvm`] — PCM device model, NVM byte store, and the Write Pending Queue;
//! * [`secmem`] — split counters, counter cache, Bonsai Merkle Tree, Tree of
//!   Counters, Anubis shadow table, Osiris counter recovery;
//! * [`core`] — the paper's contribution: Mi-SU / Ma-SU split secure memory
//!   controller, crash + recovery machinery, attack detection;
//! * [`whisper`] — WHISPER-style persistent workloads and the trace engine;
//! * [`trace`] — event-trace analysis: latency histograms, per-persist
//!   critical-path attribution, Chrome `trace_event` export.
//!
//! # Quickstart
//!
//! ```
//! use dolos::core::{ControllerConfig, ControllerKind, MiSuKind, SecureMemorySystem};
//! use dolos::sim::Cycle;
//!
//! // Build a Dolos controller with the Partial-WPQ Mi-SU design.
//! let config = ControllerConfig::dolos(MiSuKind::Partial);
//! let mut system = SecureMemorySystem::new(config);
//!
//! // Persist one cacheline; the returned time is when the persist completes.
//! let line = [0xABu8; 64];
//! let done = system.persist_write(Cycle::ZERO, 0x1000, &line);
//! assert!(done.as_u64() > 0);
//!
//! // Read it back through the controller (hits the WPQ tag array).
//! let (_, data) = system.read(done, 0x1000);
//! assert_eq!(data, line);
//! ```

#![forbid(unsafe_code)]
// Panic budget 0: the facade only re-exports.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub use dolos_core as core;
pub use dolos_crypto as crypto;
pub use dolos_nvm as nvm;
pub use dolos_secmem as secmem;
pub use dolos_sim as sim;
pub use dolos_trace as trace;
pub use dolos_whisper as whisper;
