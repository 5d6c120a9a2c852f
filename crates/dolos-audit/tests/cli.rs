//! The `dolos-audit` command line: `check` is the only command, and an
//! audit that finds no sources is an error, never a vacuous pass.

use std::process::Command;

fn audit(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dolos-audit"))
        .args(args)
        .output()
        .expect("dolos-audit runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn check_passes_on_the_workspace() {
    assert_eq!(audit(&["check"]).0, Some(0));
}

#[test]
fn removed_and_unknown_arguments_exit_2_with_usage() {
    for args in [
        &["check", "--json"][..],
        &["list-lints"],
        &["check", "--root", "x"],
        &["check", "check"],
        &[],
    ] {
        let (code, stderr) = audit(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(
            stderr.contains("usage: dolos-audit check"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn check_workspace_rejects_a_tree_without_sources() {
    let dir = std::env::temp_dir().join(format!("dolos-audit-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let result = dolos_audit::check_workspace(&dir);
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    assert!(result.is_err(), "an empty tree must not audit clean");
}
