//! The panic-site ratchet shared by `lint_policy.rs` (run over the
//! workspace) and `fixtures.rs` (run over small source snippets).
//!
//! Each shipped panic site carries `#[expect(clippy::<lint>, reason)]`, and
//! the count per crate must equal the crate's budget. Test code that panics
//! by design carries one module- or file-level `#![expect(..)]` instead,
//! outside the budgets.

pub const PANIC_LINTS: [&str; 6] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Shipped panic sites per crate. Unlisted crates have budget 0. Only
/// lower these.
const PANIC_BUDGETS: [(&str, usize); 5] = [
    ("dolos-core", 20),
    ("dolos-nvm", 3),
    ("dolos-secmem", 2),
    ("dolos-whisper", 13),
    ("dolos-bench", 1),
];

/// Modules that must never panic, inside budgeted crates: Ma-SU recovery,
/// the banked WPQ (the ADR domain) and the trace-file parser.
const STRICT_FILES: [&str; 3] = [
    "crates/dolos-core/src/masu.rs",
    "crates/dolos-nvm/src/bank.rs",
    "crates/dolos-whisper/src/trace.rs",
];

/// One `#[expect(..)]` / `#![expect(..)]` attribute: its first line, whether
/// it is inner, and the panic lints it names.
struct Expect {
    line: usize,
    inner: bool,
    lints: Vec<&'static str>,
}

fn panic_expects(text: &str) -> Vec<Expect> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let t = line.trim_start();
        let inner = t.starts_with("#![expect(");
        if !inner && !t.starts_with("#[expect(") {
            continue;
        }
        // The attribute may wrap: read up to its closing `)]`.
        let mut attr = String::new();
        for l in &lines[i..] {
            attr.push_str(l);
            if l.trim_end().ends_with(")]") {
                break;
            }
        }
        let lints: Vec<&'static str> = PANIC_LINTS
            .into_iter()
            .filter(|lint| {
                attr.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                    .any(|w| w == format!("clippy::{lint}"))
            })
            .collect();
        if !lints.is_empty() {
            out.push(Expect {
                line: i + 1,
                inner,
                lints,
            });
        }
    }
    out
}

/// Whether the inner attribute on `line` (1-based) opens a `#[cfg(test)]`
/// module: above it are only the module's inner doc lines, its `mod x {`
/// line and, above that, `#[cfg(test)]`.
fn opens_test_module(text: &str, line: usize) -> bool {
    let lines: Vec<&str> = text.lines().take(line - 1).collect();
    let mut above = lines.iter().rev().map(|l| l.trim());
    let Some(header) = above.find(|l| !l.starts_with("//!") && !l.is_empty()) else {
        return false;
    };
    let opens_mod = header.split_whitespace().any(|w| w == "mod") && header.ends_with('{');
    opens_mod && above.next() == Some("#[cfg(test)]")
}

/// The panic sites that `text`, the file `rel` of crate `dir`, counts
/// against the crate's budget, or the first expect that is out of place: a
/// site in a strict module, or a module-level expect outside test code.
pub fn file_sites(dir: &str, rel: &str, text: &str) -> Result<usize, String> {
    let mut sites = 0;
    for e in panic_expects(text) {
        if !e.inner {
            if STRICT_FILES.contains(&rel) {
                return Err(format!("{rel}:{}: a strict module may not panic", e.line));
            }
            sites += e.lints.len();
            continue;
        }
        // Test code that panics by design, outside the budgets.
        let test_file = rel.starts_with(&format!("crates/{dir}/tests/"));
        if !test_file && !opens_test_module(text, e.line) {
            return Err(format!(
                "{rel}:{}: a module-level panic expect belongs to test code only",
                e.line
            ));
        }
    }
    Ok(sites)
}

/// Holds the `sites` counted over crate `dir` to its own budget: more is a
/// new panic path, fewer means the budget must come down to match.
pub fn check_budget(dir: &str, sites: usize) -> Result<(), String> {
    let budget = PANIC_BUDGETS
        .iter()
        .find(|(name, _)| *name == dir)
        .map_or(0, |&(_, b)| b);
    if sites > budget {
        return Err(format!(
            "{dir}: {sites} panic-site expects exceed its budget of {budget}; \
             return an error instead (budgets only go down)"
        ));
    }
    if sites < budget {
        return Err(format!(
            "{dir}: {sites} panic-site expects, budget {budget}: lower its \
             entry in PANIC_BUDGETS to {sites}"
        ));
    }
    Ok(())
}
