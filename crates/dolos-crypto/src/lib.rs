//! Functional cryptography for the Dolos secure-memory model.
//!
//! The paper models crypto engines purely by latency (Table 1: AES 40 cycles,
//! MAC 160 cycles). This crate implements the *functional* side from scratch
//! so the rest of the workspace can verify real ciphertext, real MACs, and
//! real Merkle-tree roots across crashes and attacks:
//!
//! * [`aes`] — AES-128 block encryption (FIPS-197, encrypt-only) with three
//!   implementations of one function: AES-NI, selected by [`Aes128::new`]
//!   when the `x86_64` CPU reports `aes`; the portable T-table cipher,
//!   selected everywhere else; and the byte-oriented
//!   [`Aes128::encrypt_block_reference`] both are lockstep-tested against;
//! * [`ctr`] — counter-mode pad generation with the paper's IV layout
//!   (page ID ‖ page offset ‖ counter ‖ padding, Figure 2); hot paths use
//!   the allocation-free [`ctr::pad_line`] / [`ctr::pad_into`];
//! * [`mac`] — PMAC over AES-128 with 64-bit truncated tags (8-byte MACs,
//!   as the paper assumes for WPQ entries and BMT nodes), with a streaming
//!   [`mac::MacStream`] for part lists that are never materialized
//!   contiguously;
//! * [`latency`] — the cycle costs from Table 1, kept separate from the
//!   functional code so timing-model changes never touch the data path;
//! * [`padcache`] — a direct-mapped memo cache over [`ctr::pad_line`] for
//!   the Ma-SU's hot same-line rewrite/read-back pattern (host-time only:
//!   hit and miss return identical bytes).
//!
//! Simulated timing comes exclusively from [`latency`]; nothing in the
//! functional modules feeds the cycle model, so making this crate faster in
//! wall-clock terms can never move a simulated cycle.
//!
//! # Examples
//!
//! ```
//! use dolos_crypto::{aes::Aes128, ctr::IvBuilder, mac::MacEngine};
//!
//! let key = Aes128::new(&[0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
//!                         0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c]);
//! let iv = IvBuilder::new().address(0x4000).counter(7).build();
//! let pad = dolos_crypto::ctr::generate_pad(&key, &iv, 64);
//! assert_eq!(pad.len(), 64);
//!
//! let mac = MacEngine::new([9u8; 16]);
//! let tag = mac.tag(&pad);
//! assert_eq!(tag, mac.tag(&pad)); // deterministic
//! ```

// The AES-NI backend (`aes/ni.rs`) is the one module allowed `unsafe`;
// every block there carries a `// SAFETY:` comment.
#![deny(unsafe_code)]
// Panic budget 0 (tests/lint_policy.rs). The Ma-SU pad cache (`padcache`)
// sits on the decrypt path, and the AES-NI backend (`aes::ni`) is the
// workspace's only unsafe code: neither may abort, whatever it is handed.
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod aes;
pub mod ctr;
pub mod latency;
pub mod mac;
pub mod padcache;

pub use aes::Aes128;
pub use ctr::{generate_pad, pad_into, pad_line, Iv, IvBuilder};
pub use mac::{Mac64, MacEngine, MacStream};
