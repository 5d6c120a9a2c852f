//! Findings, the suppression inventory, and their text / JSON renderings.

use std::fmt;

use dolos_sim::json::escape;

/// JSON schema version of [`Report::to_json`]. Bumped when the shape
/// changes: v1 was findings/count/files_scanned/panic_sites; v2 adds this
/// field and the active-suppression inventory.
pub const SCHEMA_VERSION: u32 = 2;

/// One audit finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative, `/`-separated path (`(workspace)` for global findings).
    pub file: String,
    /// 1-based line (0 for global findings).
    pub line: u32,
    /// The lint that fired (one of the `LINT_*` names).
    pub lint: String,
    /// Human-readable explanation including the fix direction.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// One active (matched) `audit:allow` suppression — the exception
/// inventory CI diffs across PRs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SuppressedSite {
    /// Repo-relative, `/`-separated path.
    pub file: String,
    /// 1-based line of the `audit:allow` comment.
    pub line: u32,
    /// The allowed lint.
    pub lint: String,
    /// The written justification.
    pub reason: String,
}

/// The outcome of one audit run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Unsuppressed panic sites counted against the ratchet budgets.
    pub panic_sites: usize,
    /// Active suppressions, sorted by (file, line).
    pub suppressed: Vec<SuppressedSite>,
}

impl Report {
    /// Whether the audit passed.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "audit: {} finding(s) across {} file(s); {} panic site(s) against \
             the ratchet budget; {} active suppression(s)\n",
            self.findings.len(),
            self.files_scanned,
            self.panic_sites,
            self.suppressed.len()
        ));
        out
    }

    /// Renders the machine-readable report (schema version 2).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\"}}",
                escape(&f.file),
                f.line,
                escape(&f.lint),
                escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"suppressions\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"reason\": \"{}\"}}",
                escape(&s.file),
                s.line,
                escape(&s.lint),
                escape(&s.reason)
            ));
        }
        if !self.suppressed.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"count\": {},\n  \"files_scanned\": {},\n  \"panic_sites\": {}\n}}\n",
            self.findings.len(),
            self.files_scanned,
            self.panic_sites
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_and_json_render_findings() {
        let report = Report {
            findings: vec![Finding {
                file: "crates/x/src/a.rs".into(),
                line: 7,
                lint: "nondeterminism".into(),
                message: "say \"no\"".into(),
            }],
            files_scanned: 3,
            panic_sites: 2,
            suppressed: vec![SuppressedSite {
                file: "crates/x/src/b.rs".into(),
                line: 9,
                lint: "panic-path".into(),
                reason: "cache invariant".into(),
            }],
        };
        assert!(report.to_text().contains("a.rs:7: [nondeterminism]"));
        assert!(report.to_text().contains("1 active suppression(s)"));
        let json = report.to_json();
        assert!(json.contains("\"schema_version\": 2"));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("say \\\"no\\\""));
        assert!(json.contains("\"panic_sites\": 2"));
        assert!(json.contains("\"reason\": \"cache invariant\""));
        assert_eq!(dolos_sim::json::validate(&json), Ok(()));
    }

    #[test]
    fn empty_report_is_clean_and_valid_json() {
        let report = Report::default();
        assert!(report.is_clean());
        let json = report.to_json();
        assert!(json.contains("\"findings\": [],"));
        assert!(json.contains("\"suppressions\": [],"));
        assert_eq!(dolos_sim::json::validate(&json), Ok(()));
    }
}
