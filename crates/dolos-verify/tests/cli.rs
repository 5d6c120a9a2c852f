//! The `dolos-verify` command line rejects what it cannot run: every case
//! here exits 2 with the usage line or an error, and none panics.
#![expect(clippy::expect_used, reason = "helpers fail loudly if spawning fails")]

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

/// Seeded truncation, bit flips and byte substitutions of valid command
/// lines, each run in a fresh directory: every mutant exits 0 or 2, and
/// none panics. The bases hold only single-digit numbers, so no mutant can
/// ask for more than 9 traces, rounds or threads.
#[test]
fn corrupted_command_lines_exit_0_or_2_without_a_panic() {
    use std::os::unix::ffi::OsStrExt;
    let bases = [
        "campaign --traces 1 --jobs 1 --quiet",
        "campaign --seed 3 --traces 2 --rounds 2 --txns 3 --keyspace 8 --banks 2 --quiet",
        "replay seed=5;keys=8;[t3;t2@masu-drain#1]",
    ];
    let mut rng = dolos_sim::rng::XorShift::new(0x5EED_F1A6);
    let (mut ran, mut rejected) = (0, 0);
    for case in 0..300 {
        let mut bytes = bases[case % bases.len()].as_bytes().to_vec();
        let at = rng.next_below(bytes.len() as u64) as usize;
        match case / bases.len() % 3 {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= 1 << rng.next_below(8),
            _ => bytes[at] = rng.next_below(256) as u8,
        }
        // No process argument can hold a NUL byte.
        if bytes.contains(&0) {
            continue;
        }
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sweep-{case}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create case dir");
        let out = Command::new(env!("CARGO_BIN_EXE_dolos-verify"))
            .current_dir(&dir)
            .args(bytes.split(|&b| b == b' ').map(std::ffi::OsStr::from_bytes))
            .output()
            .expect("dolos-verify runs");
        let _ = std::fs::remove_dir_all(&dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{line:?}: {stderr}");
        match out.status.code() {
            Some(0) => ran += 1,
            Some(2) => rejected += 1,
            code => panic!("{line:?} exited {code:?}: {stderr}"),
        }
    }
    // Both outcomes occur, so mutants reach past the first token.
    assert!(ran * rejected > 0, "{ran} ran, {rejected} rejected");
}
