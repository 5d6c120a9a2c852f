//! Per-file lints plus the suppression mechanism shared by every lint.
//!
//! Each local lint walks the token stream of one file (test regions
//! excluded) and emits [`Finding`]s; the interprocedural lints in
//! [`crate::interproc`] add workspace-level findings later. Any finding can
//! be silenced with a line comment on the same line or the line above:
//!
//! ```text
//! // audit:allow(<lint>) -- <reason>
//! ```
//!
//! The reason is mandatory — an allow without a written justification is
//! itself a finding — and every suppression must match a real finding, so
//! stale allows fail the audit instead of rotting in place.

use crate::config::{Config, KNOWN_LINTS, LINT_NONDETERMINISM, LINT_PANIC_PATH, LINT_WALL_CLOCK};
use crate::lexer::{in_regions, lex, test_regions, Comment, Token, TokenKind};
use crate::report::Finding;

/// One source file presented to the audit.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative, `/`-separated path (e.g. `crates/dolos-core/src/masu.rs`).
    pub path: String,
    /// The crate the file belongs to (e.g. `dolos-core`).
    pub krate: String,
    /// File contents.
    pub text: String,
}

/// Collections whose iteration order depends on the process hasher seed.
const HASHER_SEEDED: [&str; 4] = ["HashMap", "HashSet", "RandomState", "DefaultHasher"];

/// Identifiers that read host wall-clock time or ambient entropy.
const AMBIENT_HOST_STATE: [&str; 5] = [
    "Instant",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "getrandom",
];

/// Macros that abort instead of returning an error.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// One `audit:allow` suppression extracted from a file.
#[derive(Debug)]
pub(crate) struct Suppression {
    /// The lint being allowed.
    pub lint: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// The mandatory justification after `--`.
    pub reason: String,
    /// Whether a finding consumed it (unused suppressions are findings).
    pub used: bool,
}

/// Phase-A output for one file: raw (pre-suppression) local findings plus
/// everything the later phases need.
#[derive(Debug)]
pub(crate) struct FileAnalysis {
    /// Suppression-hygiene findings (malformed/unknown/reason-less allows)
    /// that bypass suppression entirely.
    pub pre_findings: Vec<Finding>,
    /// Local lint findings before suppression.
    pub raw: Vec<Finding>,
    /// `(line, what)` for unsuppressed-candidate panic sites.
    pub panic_lines: Vec<(u32, String)>,
    /// Whether the file is in the strict panic set (sites become findings).
    pub strict: bool,
    /// Valid suppressions, to be threaded through every finding phase.
    pub suppressions: Vec<Suppression>,
}

/// Runs phase A on one file: lex, strip test regions, parse suppressions,
/// run the local lints. Returns the analysis plus the filtered token
/// stream (for the call-graph phase).
pub(crate) fn analyze_file(file: &SourceFile, config: &Config) -> (FileAnalysis, Vec<Token>) {
    let lexed = lex(&file.text);
    let regions = test_regions(&lexed.tokens);
    let mut pre_findings = Vec::new();
    let suppressions = parse_suppressions(&lexed.comments, &regions, &file.path, &mut pre_findings);
    let tokens: Vec<Token> = lexed
        .tokens
        .into_iter()
        .filter(|t| !in_regions(&regions, t.line))
        .collect();

    let mut raw: Vec<Finding> = Vec::new();
    if config.deterministic_crates.contains(&file.krate) {
        lint_nondeterminism(&tokens, &file.path, &mut raw);
    }
    if !config.clock_exempt_crates.contains(&file.krate) {
        lint_wall_clock(&tokens, &file.path, &mut raw);
    }
    let strict = Config::path_matches(&file.path, &config.strict_panic_files);
    let panic_lines = panic_site_lines(&tokens);
    if strict {
        for (line, what) in &panic_lines {
            raw.push(Finding {
                file: file.path.clone(),
                line: *line,
                lint: LINT_PANIC_PATH.into(),
                message: format!(
                    "`{what}` on a recovery/crash-oracle path; return a typed \
                     error (SecurityError / oracle verdict) instead of aborting"
                ),
            });
        }
    }
    (
        FileAnalysis {
            pre_findings,
            raw,
            panic_lines,
            strict,
            suppressions,
        },
        tokens,
    )
}

/// Extracts `audit:allow` suppressions, reporting malformed ones. Comments
/// inside `#[cfg(test)]` regions are ignored — test code is not linted, so a
/// suppression there could only ever be stale.
fn parse_suppressions(
    comments: &[Comment],
    regions: &[(u32, u32)],
    path: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("audit:allow") else {
            continue;
        };
        if in_regions(regions, c.line) {
            continue;
        }
        let mut fail = |message: String| {
            findings.push(Finding {
                file: path.to_string(),
                line: c.line,
                lint: crate::config::LINT_SUPPRESSION.into(),
                message,
            });
        };
        let Some((lint, after)) = rest
            .strip_prefix('(')
            .and_then(|r| r.split_once(')'))
            .map(|(l, a)| (l.trim(), a.trim()))
        else {
            fail("malformed suppression; use `audit:allow(<lint>) -- <reason>`".into());
            continue;
        };
        if !KNOWN_LINTS.contains(&lint) {
            fail(format!(
                "unknown lint `{lint}`; known lints: {}",
                KNOWN_LINTS.join(", ")
            ));
            continue;
        }
        let reason = after.strip_prefix("--").map(str::trim).unwrap_or_default();
        if reason.is_empty() {
            fail(format!(
                "suppression of `{lint}` has no reason; append `-- <why this \
                 site is exempt>`"
            ));
            continue;
        }
        out.push(Suppression {
            lint: lint.to_string(),
            line: c.line,
            reason: reason.to_string(),
            used: false,
        });
    }
    out
}

/// Marks the first matching suppression used; returns whether one matched.
/// A suppression covers its own line (trailing comment) and the next line.
pub(crate) fn try_suppress(suppressions: &mut [Suppression], lint: &str, line: u32) -> bool {
    for s in suppressions.iter_mut() {
        if s.lint == lint && (s.line == line || s.line + 1 == line) {
            s.used = true;
            return true;
        }
    }
    false
}

fn lint_nondeterminism(tokens: &[Token], path: &str, out: &mut Vec<Finding>) {
    for t in tokens {
        if t.kind == TokenKind::Ident && HASHER_SEEDED.contains(&t.text.as_str()) {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                lint: LINT_NONDETERMINISM.into(),
                message: format!(
                    "`{}` iterates in a process-random hasher order; use \
                     dolos_sim::flat::FlatMap (small, u64-keyed) or \
                     BTreeMap/BTreeSet in deterministic crates",
                    t.text
                ),
            });
        }
    }
}

fn lint_wall_clock(tokens: &[Token], path: &str, out: &mut Vec<Finding>) {
    for t in tokens {
        if t.kind == TokenKind::Ident && AMBIENT_HOST_STATE.contains(&t.text.as_str()) {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                lint: LINT_WALL_CLOCK.into(),
                message: format!(
                    "`{}` reads host wall-clock/entropy, making results a \
                     function of the machine; simulated components take time \
                     as Cycle inputs (host timing belongs in dolos-bench)",
                    t.text
                ),
            });
        }
    }
}

/// Lines holding `.unwrap()`, `.expect(`, or an aborting macro invocation.
fn panic_site_lines(tokens: &[Token]) -> Vec<(u32, String)> {
    let mut sites = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && tokens[i - 1].kind == TokenKind::Punct && tokens[i - 1].text == ".";
        let next = tokens.get(i + 1);
        let next_is = |p: &str| next.is_some_and(|n| n.kind == TokenKind::Punct && n.text == p);
        if (t.text == "unwrap" || t.text == "expect") && prev_dot && next_is("(") {
            sites.push((t.line, format!(".{}()", t.text)));
        } else if PANIC_MACROS.contains(&t.text.as_str()) && next_is("!") {
            sites.push((t.line, format!("{}!", t.text)));
        }
    }
    sites
}
