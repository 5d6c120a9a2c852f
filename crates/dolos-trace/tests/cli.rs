//! End-to-end checks of the `dolos-trace record` and `replay` subcommands:
//! a recorded trace replays, and hostile input exits 2 without a panic.
#![expect(clippy::expect_used, reason = "helpers fail loudly if spawning fails")]

use std::process::Output;

fn dolos_trace(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_dolos-trace"))
        .args(args)
        .output()
        .expect("spawn dolos-trace")
}

fn tmp_file(name: &str) -> String {
    format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"))
}

#[test]
fn recorded_trace_replays_on_one_scheme() {
    let file = tmp_file("hashmap.trace");
    let mut args: Vec<&str> = "record --workload Hashmap --transactions 10 --txn-bytes 256 --out"
        .split(' ')
        .collect();
    args.push(&file);
    let record = dolos_trace(&args);
    assert!(record.status.success(), "{record:?}");
    let text = std::fs::read_to_string(&file).expect("trace written");
    assert!(text.starts_with("DOLOS-TRACE v1 region=67108864\n"));

    let replay = dolos_trace(&["replay", &file, "--scheme", "dolos-partial"]);
    assert!(replay.status.success(), "{replay:?}");
    let stdout = String::from_utf8_lossy(&replay.stdout);
    let rows: Vec<&str> = stdout.lines().skip(1).collect();
    assert!(
        matches!(rows[..], [row] if row.starts_with("dolos-partial ")),
        "{stdout}"
    );
}

#[test]
fn hostile_trace_files_exit_2_without_a_panic() {
    let cases = [
        "DOLOS-TRACE v1 region=4096\n\u{e9} 5\n",
        "DOLOS-TRACE v1 region=4096\nP 3\n",
        "DOLOS-TRACE v1 region=0\n",
    ];
    for (i, body) in cases.iter().enumerate() {
        let file = tmp_file(&format!("hostile-{i}.trace"));
        std::fs::write(&file, body).expect("write hostile trace");
        let out = dolos_trace(&["replay", &file]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{body:?}: {stderr}");
        assert!(stderr.contains("trace parse error") && !stderr.contains("panicked"));
    }
}

#[test]
fn flags_a_subcommand_does_not_use_exit_2() {
    for args in [
        "record --workload Hashmap --jobs 2",
        "record --workload Hashmap --scheme ideal",
        "record",
        "replay missing.trace --transactions 3",
        "replay --scheme ideal",
        "export --scheme ideal --workload Hashmap --banks 2",
    ] {
        let out = dolos_trace(&args.split(' ').collect::<Vec<_>>());
        assert_eq!(out.status.code(), Some(2), "{args}");
    }
}

#[test]
fn a_command_line_that_is_not_utf8_exits_2() {
    use std::os::unix::ffi::OsStrExt;
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dolos-trace"))
        .args(["record", "--workload"])
        .arg(std::ffi::OsStr::from_bytes(b"Hash\xffmap"))
        .output()
        .expect("spawn dolos-trace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
