//! Findings and their text rendering.

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

/// The outcome of one audit run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Unsuppressed panic sites counted against the ratchet budgets.
    pub panic_sites: usize,
    /// `audit:allow` comments that matched a finding or panic site.
    pub suppressions: usize,
}

impl Report {
    /// Whether the audit passed.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report: one `file:line: [lint] message`
    /// line per finding, then the summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file, f.line, f.lint, f.message
            ));
        }
        out.push_str(&format!(
            "audit: {} finding(s) across {} file(s); {} panic site(s) against \
             the ratchet budget; {} active suppression(s)\n",
            self.findings.len(),
            self.files_scanned,
            self.panic_sites,
            self.suppressions
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_renders_findings() {
        let report = Report {
            findings: vec![Finding {
                file: "crates/x/src/a.rs".into(),
                line: 7,
                lint: "hot-alloc".into(),
                message: "say \"no\"".into(),
            }],
            files_scanned: 3,
            panic_sites: 2,
            suppressions: 1,
        };
        let text = report.to_text();
        assert!(text.contains("a.rs:7: [hot-alloc] say \"no\""));
        assert!(text.contains("1 finding(s) across 3 file(s); 2 panic site(s)"));
        assert!(text.contains("1 active suppression(s)"));
        assert!(!report.is_clean());
    }

    #[test]
    fn empty_report_is_clean() {
        let report = Report::default();
        assert!(report.is_clean());
        assert!(report.to_text().starts_with("audit: 0 finding(s)"));
    }
}
