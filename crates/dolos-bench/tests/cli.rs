//! End-to-end checks of the `experiments` command line: a valid run exits
//! 0, and a malformed command line exits 2 without a panic, as
//! `dolos-verify` and `dolos-trace` do.

use std::process::Output;

fn experiments(args: &str) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn experiments")
}

#[test]
fn table3_runs_and_exits_0() {
    let out = experiments("table3");
    assert!(out.status.success(), "{out:?}");
    assert!(!String::from_utf8_lossy(&out.stdout).is_empty());
}

#[test]
fn malformed_command_lines_exit_2() {
    for args in [
        "",
        "--bogus",
        "table3 --bogus",
        "fig99",
        "table3 --transactions",
        "table3 --transactions many",
        "bench --repeat 0",
    ] {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: experiments") && !stderr.contains("panicked"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn zero_transactions_exit_2_instead_of_printing_nan() {
    let out = experiments("fig6 --transactions 0");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("NaN"));
}
