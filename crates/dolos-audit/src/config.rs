//! The audit policy: which crates and files each lint applies to.
//!
//! The policy is data, not code — lints read it, fixtures construct their
//! own. [`Config::workspace`] is the single source of truth for the real
//! repository and is what `cargo run -p dolos-audit -- check` enforces.
//!
//! Checks that resolved types express better live in clippy, not here:
//! `crates/clippy.toml` disallows hasher-seeded collections and host
//! clocks, and `#![deny(clippy::unwrap_used, ...)]` attributes make the
//! budget-0 crates and three strict modules reject every panic site.

use std::collections::{BTreeMap, BTreeSet};

/// Lint name: per-crate ratchets on unwrap/expect/panic sites.
pub const LINT_PANIC_PATH: &str = "panic-path";
/// Lint name: NVM writes not reachable from the WPQ drain/recovery roots.
pub const LINT_PERSISTENCE_DOMAIN: &str = "persistence-domain";
/// Lint name: key material reaching formatting/serialization sinks.
pub const LINT_SECRET_FLOW: &str = "secret-flow";
/// Lint name: allocating calls reachable from the persist critical path.
pub const LINT_HOT_ALLOC: &str = "hot-alloc";
/// Lint name: malformed, unknown, or unused `audit:allow` comments.
pub const LINT_SUPPRESSION: &str = "suppression";

/// Every lint an `audit:allow` comment may name.
pub const KNOWN_LINTS: [&str; 4] = [
    LINT_PANIC_PATH,
    LINT_PERSISTENCE_DOMAIN,
    LINT_SECRET_FLOW,
    LINT_HOT_ALLOC,
];

/// `NvmDevice` methods that write lines without passing through the WPQ.
pub const DEVICE_WRITE_METHODS: [&str; 5] = [
    "poke",
    "write_line",
    "write_line_ticket",
    "restore_lines",
    "replay_snapshot",
];

/// The audit policy for one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path suffixes of files allowed to call `NvmDevice` write methods
    /// directly regardless of reachability (the device itself — its own
    /// methods are the write primitives).
    pub sanctioned_persistence_files: Vec<String>,
    /// `Type::fn` / `fn` patterns naming the functions through which every
    /// NVM write must be reachable: the controller's drain/persist/crash/
    /// recover entry points.
    pub persistence_roots: Vec<String>,
    /// `Type::fn` / `fn` patterns naming the persist-critical-path roots
    /// for the hot-alloc lint.
    pub hot_path_roots: Vec<String>,
    /// Type names that carry key material.
    pub secret_types: Vec<String>,
    /// Path suffixes of files whose formatting impls for secret types are
    /// the sanctioned redacted ones.
    pub sanctioned_debug_files: Vec<String>,
    /// Per-crate maximums for unsuppressed panic sites. Crates not listed
    /// have budget 0. Every number may only go
    /// DOWN: lowering one after a cleanup prevents regressions; raising
    /// one needs a written justification in the PR that does so.
    pub panic_budgets: Vec<(String, usize)>,
    /// Direct crate dependencies (crate → deps), used to scope call-graph
    /// edges. Empty = no scoping (maximally conservative; the fixture
    /// default). [`crate::walk::crate_dependencies`] fills it from the
    /// workspace `Cargo.toml`s.
    pub crate_deps: BTreeMap<String, BTreeSet<String>>,
}

impl Config {
    /// The policy enforced on this repository.
    pub fn workspace() -> Self {
        Self {
            // PR 3..7 sanctioned whole controller/masu/misu files; the
            // call-graph form of the lint covers those sites through the
            // persistence roots below, so only the device itself remains.
            sanctioned_persistence_files: to_vec(&["dolos-nvm/src/device.rs"]),
            persistence_roots: to_vec(&[
                "SecureMemorySystem::drain_one",
                "SecureMemorySystem::try_persist_write",
                "SecureMemorySystem::crash",
                "SecureMemorySystem::recover",
            ]),
            hot_path_roots: to_vec(&[
                // The fixpoint drain loop: everything a persist touches.
                "SecureMemorySystem::advance",
                // Ma-SU pad and write pipeline.
                "MajorSecurityUnit::pad_for",
                "MajorSecurityUnit::secure_write",
                // Mi-SU pad and MAC paths.
                "MinorSecurityUnit::protect",
                "MinorSecurityUnit::decrypt",
                "MinorSecurityUnit::regenerate_pads",
                "MinorSecurityUnit::entry_mac",
                // The MAC engine itself.
                "MacEngine::tag",
                "MacEngine::tag_parts",
                "MacEngine::stream_tag",
            ]),
            secret_types: to_vec(&["Aes128", "MacEngine"]),
            sanctioned_debug_files: to_vec(&["dolos-crypto/src/aes.rs", "dolos-crypto/src/mac.rs"]),
            // Ratchet: 43 total sites when the audit landed (PR 3); split
            // per-crate at the exact current counts in PR 8 (still summing
            // to 43) so growth in one crate can no longer hide behind
            // cleanup in another. Unlisted crates have budget 0. Only
            // lower these.
            panic_budgets: vec![
                ("dolos-core".to_string(), 20),
                ("dolos-nvm".to_string(), 3),
                ("dolos-secmem".to_string(), 2),
                ("dolos-whisper".to_string(), 13),
                ("dolos-bench".to_string(), 1),
            ],
            crate_deps: BTreeMap::new(),
        }
    }

    /// Whether `path` (repo-relative, `/`-separated) ends with one of the
    /// given suffixes.
    pub fn path_matches(path: &str, suffixes: &[String]) -> bool {
        suffixes.iter().any(|s| path.ends_with(s.as_str()))
    }

    /// The panic budget for a crate (0 when unlisted).
    pub fn panic_budget_for(&self, krate: &str) -> usize {
        let budget = self.panic_budgets.iter().find(|(k, _)| k == krate);
        budget.map_or(0, |(_, b)| *b)
    }
}

fn to_vec(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}
