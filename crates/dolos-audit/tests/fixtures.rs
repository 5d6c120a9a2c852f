//! Fixture tests: every lint pinned both firing and suppressed.
//!
//! These are the audit's own regression suite. Each lint gets (at least) a
//! pair of fixtures — one where it must fire, one where an `audit:allow`
//! with a reason silences it — plus hygiene cases for the suppression
//! grammar itself, cross-file cases for the call-graph lints, two *graft*
//! tests that re-introduce real historical violations into the live
//! workspace sources, and a final test that the real workspace is clean.
//! That last test is what makes the audit self-enforcing: re-deriving
//! `Debug` on a key-bearing type or deleting a suppression whose finding is
//! still live flips `cargo run -p dolos-audit -- check` (and this test) to
//! red. The clippy half of the policy is pinned by
//! `clippy_policy_is_in_place`; `ci/clippy_grafts.sh` shows each clippy
//! check firing.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dolos_audit::config::Config;
use dolos_audit::report::Report;
use dolos_audit::{audit_files, audit_source, audit_sources, check_workspace, walk};

fn fixture_config() -> Config {
    Config {
        sanctioned_persistence_files: vec!["src/device.rs".into()],
        persistence_roots: vec!["Ctl::drain".into()],
        hot_path_roots: vec!["Ctl::advance".into()],
        secret_types: vec!["Aes128".into(), "MacEngine".into()],
        sanctioned_debug_files: vec!["src/aes.rs".into()],
        panic_budgets: Vec::new(),
        crate_deps: BTreeMap::new(),
    }
}

fn lints_fired(path: &str, krate: &str, text: &str) -> Vec<String> {
    audit_source(path, krate, text, &fixture_config())
        .findings
        .into_iter()
        .map(|f| f.lint)
        .collect()
}

// --- panic-path -----------------------------------------------------------

#[test]
fn panic_budget_ratchets_per_crate() {
    let src = "fn f() { a.unwrap(); b.expect(\"m\"); }\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.panic_sites, 2);
    // `det` has no budget entry in the fixture config (budget 0): the
    // per-crate workspace finding fires and names the crate.
    let budget = report
        .findings
        .iter()
        .find(|f| f.file == "(workspace)")
        .expect("budget finding");
    assert_eq!(budget.lint, "panic-path");
    assert!(budget.message.contains("ratchet"));
    assert!(budget.message.contains("`det`"));
}

#[test]
fn panic_budget_is_counted_per_crate_not_globally() {
    // Two crates with one site each against per-crate budgets of 1: clean.
    // The old global ratchet could not express this.
    let mut config = fixture_config();
    config.panic_budgets = vec![("det".into(), 1), ("other".into(), 1)];
    let report = audit_sources(
        &[
            ("src/a.rs", "det", "fn f() { a.unwrap(); }\n"),
            ("src/b.rs", "other", "fn g() { b.unwrap(); }\n"),
        ],
        &config,
    );
    assert!(report.is_clean(), "{}", report.to_text());
    assert_eq!(report.panic_sites, 2);
    // Concentrating both sites in one crate blows that crate's budget.
    let report = audit_sources(
        &[
            ("src/a.rs", "det", "fn f() { a.unwrap(); }\n"),
            ("src/b.rs", "det", "fn g() { b.unwrap(); }\n"),
        ],
        &config,
    );
    assert!(!report.is_clean());
}

#[test]
fn allowed_panic_sites_do_not_count_against_the_budget() {
    let src = "// audit:allow(panic-path) -- bounded arithmetic, cannot overflow\n\
               fn f() { a.unwrap(); }\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.panic_sites, 0);
    assert!(report.is_clean());
}

#[test]
fn panic_sites_in_test_modules_are_free() {
    let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); panic!(\"boom\"); }\n}\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.panic_sites, 0);
    assert!(report.is_clean());
}

#[test]
fn panic_sites_ignore_comments_and_strings() {
    let src = "// A bare x.unwrap() would be wrong here.\n\
               fn f() { let s = \"x.unwrap()\"; let t = r#\"panic!(\"no\")\"#; }\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.panic_sites, 0);
    assert!(report.is_clean(), "{}", report.to_text());
}

#[test]
fn trailing_same_line_suppression_holds() {
    let src = "fn f() { a.unwrap(); } // audit:allow(panic-path) -- length checked by the caller\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.panic_sites, 0);
    assert!(report.is_clean(), "{}", report.to_text());
}

#[test]
fn unwrap_like_identifiers_are_not_panic_sites() {
    let src = "fn f() { a.unwrap_or(0); b.unwrap_or_default(); expect(c); }\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.panic_sites, 0);
}

// --- persistence-domain (call-graph form) ---------------------------------

#[test]
fn persistence_domain_fires_outside_the_persistence_reach() {
    let src = "fn f(nvm: &mut NvmDevice) { nvm.poke(a, &d); nvm.restore_lines(&v); }\n";
    let fired = lints_fired("src/a.rs", "det", src);
    assert_eq!(fired, vec!["persistence-domain", "persistence-domain"]);
}

#[test]
fn persistence_domain_allows_writes_reachable_from_a_root() {
    // `drain` (a configured persistence root) -> helper -> device write:
    // legal, even across files and without any sanctioned-file carve-out.
    let report = audit_sources(
        &[
            (
                "src/ctl.rs",
                "det",
                "impl Ctl { fn drain(&mut self) { flush(&mut self.nvm); } }\n",
            ),
            (
                "src/flush.rs",
                "det",
                "pub fn flush(nvm: &mut NvmDevice) { nvm.write_line(now, a, &d); }\n",
            ),
        ],
        &fixture_config(),
    );
    assert!(report.is_clean(), "{}", report.to_text());
}

#[test]
fn persistence_domain_fires_on_rogue_writes_next_to_legal_ones() {
    // Same device method, two callers: only the one outside the
    // drain-reachable region is a WPQ bypass.
    let report = audit_sources(
        &[
            (
                "src/ctl.rs",
                "det",
                "impl Ctl { fn drain(&mut self) { self.step(); }\n\
                 fn step(&mut self) { self.nvm.poke(a, b); } }\n",
            ),
            (
                "src/rogue.rs",
                "det",
                "fn rogue(nvm: &mut NvmDevice) { nvm.poke(a, b); }\n",
            ),
        ],
        &fixture_config(),
    );
    let fired: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "persistence-domain")
        .collect();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].file, "src/rogue.rs");
    assert!(fired[0].message.contains("`rogue`"));
}

#[test]
fn persistence_domain_is_silent_in_sanctioned_files_and_on_definitions() {
    let call = "fn f(nvm: &mut NvmDevice) { nvm.write_line(now, a, &d); }\n";
    assert!(lints_fired("src/device.rs", "det", call).is_empty());
    // A method *definition* is not a call: no `.` before the name.
    let def = "impl NvmDevice { pub fn write_line(&mut self) {} }\n";
    assert!(lints_fired("src/a.rs", "det", def).is_empty());
}

#[test]
fn persistence_domain_suppression_with_reason_holds() {
    let src = "// audit:allow(persistence-domain) -- fault injection bypasses ADR on purpose\n\
               fn f(nvm: &mut NvmDevice) { nvm.replay_snapshot(a, &s); }\n";
    assert!(lints_fired("src/a.rs", "det", src).is_empty());
}

// --- secret-flow ----------------------------------------------------------

#[test]
fn secret_flow_fires_on_leaky_derive() {
    let src = "#[derive(Clone, Debug)]\npub struct Aes128 { round_keys: [u32; 44] }\n";
    assert_eq!(lints_fired("src/key.rs", "det", src), vec!["secret-flow"]);
}

#[test]
fn secret_flow_fires_on_format_of_secret_param() {
    let src = "fn dump(key: &Aes128) { println!(\"{:?}\", key); }\n";
    assert_eq!(lints_fired("src/a.rs", "det", src), vec!["secret-flow"]);
}

#[test]
fn secret_flow_allows_sanctioned_redacted_debug_impl() {
    let src = "impl core::fmt::Debug for MacEngine {\n\
               fn fmt(&self, f: &mut Formatter) -> Result { redacted(f) }\n}\n";
    // Sanctioned in src/aes.rs per the fixture config, a finding elsewhere.
    assert!(lints_fired("src/aes.rs", "det", src).is_empty());
    assert_eq!(lints_fired("src/b.rs", "det", src), vec!["secret-flow"]);
}

#[test]
fn secret_flow_crosses_files_interprocedurally() {
    // caller.rs passes a secret field to render(), which hands its
    // parameter to a format macro in another file: both ends are findings.
    let report = audit_sources(
        &[
            (
                "src/caller.rs",
                "det",
                "struct Unit { engine: MacEngine }\n\
                 impl Unit { fn go(&self) { render(&self.engine); } }\n",
            ),
            (
                "src/render.rs",
                "det",
                "pub fn render(e: &MacEngine) { println!(\"{:?}\", e); }\n",
            ),
        ],
        &fixture_config(),
    );
    let files: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.lint == "secret-flow")
        .map(|f| f.file.as_str())
        .collect();
    assert!(files.contains(&"src/caller.rs"), "{}", report.to_text());
    assert!(files.contains(&"src/render.rs"), "{}", report.to_text());
}

#[test]
fn secret_flow_suppression_with_reason_holds() {
    let src = "// audit:allow(secret-flow) -- key id only, not key material\n\
               fn dump(key: &Aes128) { println!(\"{:?}\", key); }\n";
    assert!(lints_fired("src/a.rs", "det", src).is_empty());
}

// --- hot-alloc ------------------------------------------------------------

#[test]
fn hot_alloc_fires_with_the_call_path_from_the_root() {
    let src = "impl Ctl { fn advance(&mut self) { helper(); } }\n\
               fn helper() { let v = Vec::new(); }\n\
               fn cold() { let c = Vec::new(); }\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    let hot: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "hot-alloc")
        .collect();
    assert_eq!(hot.len(), 1, "{}", report.to_text());
    assert!(hot[0].message.contains("Ctl::advance -> helper"));
}

#[test]
fn hot_alloc_crosses_files() {
    let report = audit_sources(
        &[
            (
                "src/ctl.rs",
                "det",
                "impl Ctl { fn advance(&mut self) { pad(&mut self.buf); } }\n",
            ),
            (
                "src/pad.rs",
                "det",
                "pub fn pad(buf: &mut [u8]) { let v = vec![0u8; 64]; }\n",
            ),
        ],
        &fixture_config(),
    );
    let hot: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "hot-alloc")
        .collect();
    assert_eq!(hot.len(), 1, "{}", report.to_text());
    assert_eq!(hot[0].file, "src/pad.rs");
}

#[test]
fn hot_alloc_suppression_with_reason_holds() {
    let src = "impl Ctl { fn advance(&mut self) {\n\
               let v = Vec::new(); // audit:allow(hot-alloc) -- setup only, outside timed region\n\
               } }\n";
    assert!(lints_fired("src/a.rs", "det", src).is_empty());
}

// --- suppression hygiene --------------------------------------------------

#[test]
fn suppression_without_reason_is_a_finding() {
    let src = "// audit:allow(persistence-domain)\n\
               fn f(nvm: &mut NvmDevice) { nvm.poke(a, &d); }\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    let lints: Vec<_> = report.findings.iter().map(|f| f.lint.as_str()).collect();
    // The bad allow is reported AND the underlying finding still fires.
    assert!(lints.contains(&"suppression"));
    assert!(lints.contains(&"persistence-domain"));
}

#[test]
fn suppression_of_unknown_lint_is_a_finding() {
    // The determinism and wall-clock checks moved to clippy; allows naming
    // them are as unknown as a made-up lint.
    for lint in ["made-up-lint", "nondeterminism", "wall-clock"] {
        let src = format!("// audit:allow({lint}) -- because\nfn f() {{}}\n");
        let report = audit_source("src/a.rs", "det", &src, &fixture_config());
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("unknown lint"));
    }
}

#[test]
fn deleting_the_violation_strands_the_suppression() {
    // The allow outlives the allocation it used to cover: the audit must go
    // red until the stale comment is deleted too.
    let src = "// audit:allow(hot-alloc) -- justified once upon a time\nfn f() {}\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].lint, "suppression");
    assert!(report.findings[0].message.contains("stale"));
}

#[test]
fn suppression_only_covers_adjacent_lines() {
    let src = "// audit:allow(persistence-domain) -- too far away\n\n\n\
               fn f(nvm: &mut NvmDevice) { nvm.poke(a, &d); }\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    let lints: Vec<_> = report.findings.iter().map(|f| f.lint.as_str()).collect();
    assert!(lints.contains(&"persistence-domain"));
    assert!(lints.contains(&"suppression")); // and the allow counts as stale
}

#[test]
fn active_suppressions_appear_in_the_inventory() {
    let src = "// audit:allow(panic-path) -- bounded, checked on the line above\n\
               fn f() { a.unwrap(); }\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert!(report.is_clean());
    assert_eq!(report.suppressions, 1);
    assert!(report.to_text().contains("1 active suppression(s)"));
}

// --- graft tests: re-introduce real violations into the live sources ------

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Loads the real workspace, applies one textual edit to one file, and
/// audits the result under the real policy. The anchor must exist — if the
/// source drifts, the assert points at this test instead of silently
/// auditing an unmodified tree.
fn grafted_workspace(path_suffix: &str, anchor: &str, replacement: &str) -> Report {
    let root = workspace_root();
    let mut files = walk::collect_workspace(&root).expect("workspace readable");
    let file = files
        .iter_mut()
        .find(|f| f.path.ends_with(path_suffix))
        .expect("graft target exists");
    assert!(
        file.text.contains(anchor),
        "graft anchor vanished from {path_suffix}; update this test"
    );
    file.text = file.text.replace(anchor, replacement);
    let mut config = Config::workspace();
    config.crate_deps = walk::crate_dependencies(&root).expect("manifests readable");
    audit_files(&files, &config)
}

#[test]
fn graft_rederiving_debug_on_aes128_fires_secret_flow() {
    let report = grafted_workspace(
        "dolos-crypto/src/aes.rs",
        "pub struct Aes128 {",
        "#[derive(Debug)]\npub struct Aes128 {",
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.lint == "secret-flow" && f.file.ends_with("aes.rs")),
        "{}",
        report.to_text()
    );
}

#[test]
fn graft_allocating_pad_path_fires_hot_alloc() {
    // Re-introduce a per-write allocation into the Ma-SU pad pipeline — now
    // the pad-cache miss path in dolos-crypto, reached from the hot root
    // `MajorSecurityUnit::pad_for`; the audit must name it and explain the
    // cross-crate path from that root.
    let report = grafted_workspace(
        "dolos-crypto/src/padcache.rs",
        "let pad = pad_line(key, &iv);",
        "let _scratch = iv.to_vec();\n        let pad = pad_line(key, &iv);",
    );
    let hit = report
        .findings
        .iter()
        .find(|f| f.lint == "hot-alloc" && f.file.ends_with("padcache.rs"));
    let hit = hit.unwrap_or_else(|| panic!("expected hot-alloc:\n{}", report.to_text()));
    assert!(hit.message.contains("to_vec"), "{}", hit.message);
}

// --- the real workspace ---------------------------------------------------

#[test]
fn workspace_is_audit_clean() {
    let report = check_workspace(&workspace_root()).expect("workspace readable");
    assert!(
        report.is_clean(),
        "workspace audit must be clean:\n{}",
        report.to_text()
    );
    // The walker found the whole workspace, not a subdirectory.
    assert!(report.files_scanned > 50, "only {}", report.files_scanned);
    // Ratchet sanity: the recorded budgets match reality. If you removed
    // panic sites, lower the crate's entry in
    // `Config::workspace().panic_budgets` to match.
    let total: usize = Config::workspace()
        .panic_budgets
        .iter()
        .map(|(_, b)| *b)
        .sum();
    assert!(report.panic_sites <= total);
}

/// The clippy half of the policy: `crates/clippy.toml` disallows the
/// hasher-seeded collections and host clocks, and the deny attributes make
/// every panic site a clippy error in the budget-0 crates and the strict
/// modules. Clippy cannot notice this policy being deleted, so this test
/// does.
#[test]
fn clippy_policy_is_in_place() {
    let root = workspace_root();
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let live = |text: &str, needle: &str| {
        text.lines()
            .any(|l| !l.trim_start().starts_with('#') && l.contains(needle))
    };
    let policy = read("crates/clippy.toml");
    for needle in [
        "path = \"std::collections::HashMap\"",
        "path = \"std::collections::HashSet\"",
        "path = \"std::hash::RandomState\"",
        "path = \"std::hash::DefaultHasher\"",
        "path = \"std::time::Instant\"",
        "path = \"std::time::SystemTime\"",
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
        "allow-panic-in-tests = true",
    ] {
        assert!(live(&policy, needle), "crates/clippy.toml lost `{needle}`");
    }
    // Host timing is dolos-bench's job: its own file replaces the policy.
    let bench = read("crates/dolos-bench/clippy.toml");
    assert!(
        !live(&bench, "disallowed"),
        "dolos-bench must disallow nothing"
    );

    let denies = [
        "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]",
        "#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]",
    ];
    for rel in [
        // Budget-0 crate roots.
        "src/lib.rs",
        "crates/dolos-sim/src/lib.rs",
        "crates/dolos-crypto/src/lib.rs",
        "crates/dolos-verify/src/lib.rs",
        "crates/dolos-verify/src/bin/dolos-verify.rs",
        "crates/dolos-trace/src/lib.rs",
        "crates/dolos-trace/src/bin/dolos-trace.rs",
        "crates/dolos-audit/src/lib.rs",
        "crates/dolos-audit/src/main.rs",
        // Strict modules inside budgeted crates.
        "crates/dolos-core/src/masu.rs",
        "crates/dolos-nvm/src/bank.rs",
        "crates/dolos-whisper/src/trace.rs",
    ] {
        let text = read(rel);
        for deny in denies {
            assert!(
                text.lines().any(|l| l.trim() == deny),
                "{rel} lost `{deny}`"
            );
        }
    }
}
