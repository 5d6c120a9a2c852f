//! `dolos-audit`: a dependency-free static analyzer for the Dolos workspace.
//!
//! The simulator's headline guarantee is that every result — benchmark
//! cycle counts, conformance campaign verdicts, recovery replays — is a pure
//! function of its inputs, and the paper's security/performance arguments
//! are *structural*: key material stays inside the crypto engines, the
//! persist critical path allocates nothing, and every NVM write flows
//! through the WPQ. The type system cannot see the ways those guarantees
//! quietly erode; this crate enforces them at the source level.
//!
//! Clippy owns the checks that resolved types can express: the disallowed
//! hasher-seeded collections and host clocks in `crates/clippy.toml`, and
//! the `#![deny(clippy::unwrap_used, ...)]` attributes on budget-0 crates
//! and strict modules. This crate keeps what clippy cannot see, in three
//! phases:
//!
//! 1. **Per-file** — a hand-rolled comment- and string-aware lexer
//!    ([`lexer`]) finds the panic sites ([`lints`]) that the per-crate
//!    ratchet counts.
//! 2. **Workspace** — a dependency-free item parser ([`items`]) recovers
//!    `mod`/`impl`/`fn` structure from the same tokens; a conservative
//!    name-based call graph with reachability ([`graph`]) powers the
//!    interprocedural lints ([`interproc`]): secret-flow, hot-alloc, and
//!    the call-graph form of persistence-domain.
//! 3. **Suppression & budgets** — findings from both phases pass through
//!    in-source `audit:allow` suppressions, stale allows become findings,
//!    and per-crate panic ratchets are enforced.
//!
//! Run it with:
//!
//! ```text
//! cargo run -p dolos-audit -- check
//! ```
//!
//! Intentional exceptions are annotated in place and must carry a reason:
//!
//! ```text
//! // audit:allow(<lint>) -- <why this site is exempt>
//! ```
//!
//! Suppressions that stop matching anything fail the audit, so the
//! exception list can only shrink alongside the code it describes.

#![forbid(unsafe_code)]
// Panic budget 0: the audit reports findings, it does not abort on odd
// source text.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(missing_docs)]

pub mod config;
pub mod graph;
pub mod interproc;
pub mod items;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod walk;

use std::collections::BTreeMap;

use config::{Config, LINT_PANIC_PATH, LINT_SUPPRESSION};
use graph::{Graph, GraphFile};
use lints::{analyze_file, try_suppress, SourceFile};
use report::{Finding, Report};

/// Audits a set of files under one policy.
pub fn audit_files(files: &[SourceFile], config: &Config) -> Report {
    // Phase A: per-file lexing, panic sites, suppression extraction.
    let mut analyses = Vec::with_capacity(files.len());
    let mut graph_files = Vec::with_capacity(files.len());
    for file in files {
        let (analysis, tokens) = analyze_file(file);
        analyses.push(analysis);
        graph_files.push(GraphFile::new(&file.krate, &file.path, tokens));
    }

    // Phase B: item graph + interprocedural lints.
    let graph = Graph::build(&graph_files, &config.crate_deps);
    let mut interproc_by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for finding in interproc::run(&graph_files, &graph, config) {
        let file = finding.file.clone();
        interproc_by_file.entry(file).or_default().push(finding);
    }

    // Phase C: suppressions and panic budgets.
    let mut findings = Vec::new();
    let mut suppressions = 0usize;
    let mut sites_by_crate: BTreeMap<&str, usize> = BTreeMap::new();
    for (file, analysis) in files.iter().zip(&mut analyses) {
        findings.append(&mut analysis.pre_findings);
        for finding in interproc_by_file.remove(&file.path).unwrap_or_default() {
            if !try_suppress(&mut analysis.suppressions, &finding.lint, finding.line) {
                findings.push(finding);
            }
        }
        // Panic sites are counted, not reported: the ratchet compares each
        // crate's total against its budget. A site can still be excluded
        // from the count with an explicit allow.
        let count = analysis
            .panic_lines
            .iter()
            .filter(|line| !try_suppress(&mut analysis.suppressions, LINT_PANIC_PATH, **line))
            .count();
        *sites_by_crate.entry(file.krate.as_str()).or_default() += count;
        for s in &analysis.suppressions {
            if s.used {
                suppressions += 1;
            } else {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: s.line,
                    lint: LINT_SUPPRESSION.into(),
                    message: format!(
                        "audit:allow({}) matched no finding on this or the next \
                         line; delete the stale suppression",
                        s.lint
                    ),
                });
            }
        }
    }
    for (krate, count) in &sites_by_crate {
        let budget = config.panic_budget_for(krate);
        if *count > budget {
            findings.push(Finding {
                file: "(workspace)".into(),
                line: 0,
                lint: LINT_PANIC_PATH.into(),
                message: format!(
                    "{count} unsuppressed unwrap/expect/panic sites in `{krate}` \
                     exceed its ratchet budget of {budget}; remove sites or \
                     annotate them with `audit:allow(panic-path) -- <reason>` \
                     (budgets only ratchet down)"
                ),
            });
        }
    }
    findings.sort();
    Report {
        findings,
        files_scanned: files.len(),
        panic_sites: sites_by_crate.values().sum(),
        suppressions,
    }
}

/// Audits one source string under a synthetic path/crate (fixture helper).
pub fn audit_source(path: &str, krate: &str, text: &str, config: &Config) -> Report {
    audit_sources(&[(path, krate, text)], config)
}

/// Audits several `(path, krate, text)` sources together (fixture helper
/// for cross-file reachability cases).
pub fn audit_sources(sources: &[(&str, &str, &str)], config: &Config) -> Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, krate, text)| SourceFile {
            path: path.to_string(),
            krate: krate.to_string(),
            text: text.to_string(),
        })
        .collect();
    audit_files(&files, config)
}

/// Runs the workspace audit rooted at `root` with the standard policy.
///
/// A root with no Rust sources under `src/` or `crates/*/src/` is an
/// error, not a clean report: an audit of nothing proves nothing.
pub fn check_workspace(root: &std::path::Path) -> std::io::Result<Report> {
    let files = walk::collect_workspace(root)?;
    if files.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no Rust sources under {}", root.display()),
        ));
    }
    let mut config = Config::workspace();
    config.crate_deps = walk::crate_dependencies(root)?;
    Ok(audit_files(&files, &config))
}
