//! Pins the lint policy that clippy enforces, since clippy cannot notice
//! the policy itself being deleted.
//!
//! - The root `Cargo.toml` denies the six panic lints in
//!   `[workspace.lints.clippy]`, and every `crates/*` manifest opts in.
//! - `crates/clippy.toml` disallows hasher-seeded collections, host clocks,
//!   the NVM device's write methods (only the WPQ drain, the ADR dump and
//!   recovery may write lines) and `std::env::args`. `dolos-bench` replaces
//!   that file: it disallows no type, only `std::env::args`.
//! - Each shipped panic site carries `#[expect(clippy::<lint>, reason)]`.
//!   The count per crate is a ratchet: it must equal the crate's budget
//!   in `panic_sites/mod.rs`, and a budget only goes down. Test code that
//!   panics by design carries one module- or file-level `#![expect(..)]`
//!   instead, outside the budgets.

mod panic_sites;

use panic_sites::{check_budget, file_sites, PANIC_LINTS};
use std::path::{Path, PathBuf};

const DEVICE_WRITES: [&str; 5] = [
    "poke",
    "write_line",
    "write_line_ticket",
    "restore_lines",
    "replay_snapshot",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Whether a non-comment line of a TOML file contains `needle`.
fn live(toml: &str, needle: &str) -> bool {
    toml.lines()
        .any(|l| !l.trim_start().starts_with('#') && l.contains(needle))
}

fn crate_dirs() -> Vec<String> {
    let mut dirs: Vec<String> = std::fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(|p| p.file_name().expect("named").to_string_lossy().into_owned())
        .collect();
    dirs.sort();
    dirs
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn workspace_denies_the_panic_lints_and_every_crate_opts_in() {
    let manifest = read("Cargo.toml");
    let table = manifest
        .split("[workspace.lints.clippy]")
        .nth(1)
        .expect("root Cargo.toml has [workspace.lints.clippy]");
    let table = table.split("\n[").next().unwrap_or(table);
    for lint in PANIC_LINTS {
        assert!(
            live(table, &format!("{lint} = \"deny\"")),
            "[workspace.lints.clippy] lost `{lint} = \"deny\"`"
        );
    }
    for dir in crate_dirs() {
        let rel = format!("crates/{dir}/Cargo.toml");
        let text = read(&rel);
        let lints = text.split("[lints]").nth(1);
        assert!(
            lints.is_some_and(|t| t.trim_start().starts_with("workspace = true")),
            "{rel} lost `[lints] workspace = true`"
        );
    }
}

#[test]
fn clippy_toml_disallows_the_nondeterministic_types_and_the_device_writes() {
    let policy = read("crates/clippy.toml");
    let mut needles: Vec<String> = [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
        "std::hash::DefaultHasher",
        "std::time::Instant",
        "std::time::SystemTime",
        "std::env::args",
    ]
    .iter()
    .map(|p| format!("path = \"{p}\""))
    .collect();
    needles.extend(
        DEVICE_WRITES
            .iter()
            .map(|m| format!("path = \"dolos_nvm::NvmDevice::{m}\"")),
    );
    needles.extend(
        ["unwrap", "expect", "panic"]
            .iter()
            .map(|k| format!("allow-{k}-in-tests = true")),
    );
    for needle in &needles {
        assert!(live(&policy, needle), "crates/clippy.toml lost `{needle}`");
    }

    // Host timing is dolos-bench's job: its own file replaces the policy,
    // disallows no type, and still makes its CLI read `args_os`.
    let bench = read("crates/dolos-bench/clippy.toml");
    assert!(
        !live(&bench, "disallowed-types"),
        "dolos-bench must disallow no type"
    );
    assert!(
        live(&bench, "path = \"std::env::args\""),
        "dolos-bench/clippy.toml lost `std::env::args`"
    );
}

#[test]
fn panic_site_expects_match_the_per_crate_budgets() {
    for dir in crate_dirs() {
        let mut files = Vec::new();
        rust_files(&root().join("crates").join(&dir), &mut files);
        files.sort();
        let mut sites = 0;
        for path in files {
            let rel = path
                .strip_prefix(root())
                .expect("under the root")
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path).expect("readable source");
            sites += file_sites(&dir, &rel, &text).unwrap_or_else(|e| panic!("{e}"));
        }
        if let Err(e) = check_budget(&dir, sites) {
            panic!("{e}");
        }
    }
}
