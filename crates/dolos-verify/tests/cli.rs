//! The `dolos-verify` command line rejects what it cannot run: every case
//! here exits 2 with the usage line or an error, and none panics.

use std::process::Command;

fn verify(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dolos-verify"))
        .args(args)
        .output()
        .expect("dolos-verify runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn a_campaign_of_zero_traces_is_rejected_not_passed() {
    let (code, stderr) = verify(&["campaign", "--traces", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage: dolos-verify"), "{stderr}");
}

#[test]
fn malformed_command_lines_exit_2_without_a_panic() {
    for args in [
        &["campaign", "--traces"][..],
        &["campaign", "--traces", "x"],
        &["campaign", "--bogus"],
        &["replay"],
        &["campaign", "--banks", "3"],
    ] {
        let (code, stderr) = verify(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
