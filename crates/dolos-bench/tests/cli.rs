//! End-to-end checks of the `experiments` command line: a valid run exits
//! 0, and a malformed command line exits 2 without a panic, as
//! `dolos-verify` and `dolos-trace` do.

use std::path::{Path, PathBuf};
use std::process::Output;

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn experiments(args: &str) -> Output {
    experiments_in(Path::new("."), args)
}

fn experiments_in(dir: &Path, args: &str) -> Output {
    std::process::Command::new(BIN)
        .current_dir(dir)
        .args(args.split_whitespace())
        .output()
        .expect("spawn experiments")
}

/// A fresh, empty directory for one test's outputs.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("experiments-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn bench_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("list temp dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("BENCH_"))
        .collect()
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
        "bench --against",
        "bench --against /nonexistent/experiments",
        &format!("table3 --against {BIN}"),
        &format!("bench --golden g.json --against {BIN}"),
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

#[test]
fn golden_runs_write_only_the_golden() {
    let dir = fresh_dir("golden");
    let out = experiments_in(&dir, "bench table3 --golden golden.json");
    assert!(out.status.success(), "{out:?}");
    let golden = std::fs::read_to_string(dir.join("golden.json")).expect("golden written");
    assert!(golden.contains("\"name\": \"table3\""), "{golden}");
    assert_eq!(bench_files(&dir), Vec::<String>::new());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn against_pairs_runs_with_another_binary() {
    let dir = fresh_dir("against");
    let out = experiments_in(
        &dir,
        &format!("bench recovery --transactions 4 --warmup 1 --repeat 2 --against {BIN}"),
    );
    assert!(out.status.success(), "{out:?}");
    let files = bench_files(&dir);
    assert_eq!(files.len(), 1, "{files:?}");
    let json = std::fs::read_to_string(dir.join(&files[0])).expect("read BENCH file");
    assert_eq!(dolos_sim::json::validate(&json), Ok(()));
    for key in [
        "\"revision\": \"",
        "\"parent_revision\": \"",
        "\"parent_cells_per_sec\": ",
        "\"ratio\": ",
        "\"pairs_faster\": ",
    ] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded truncation, bit flips and byte substitutions of valid command
/// lines, each run in a fresh directory: every mutant exits 0 or 2, and
/// none panics. The bases hold only cheap experiments and single-digit
/// numbers, so no mutant can ask for a full sweep or more than 9 threads.
#[test]
fn corrupted_command_lines_exit_0_or_2_without_a_panic() {
    use std::os::unix::ffi::OsStrExt;
    let bases = [
        "table3",
        "recovery",
        "table3 --transactions 2 --warmup 1 --jobs 1",
        "recovery --seed 7 --jobs 2 --transactions 3",
    ];
    let mut rng = dolos_sim::rng::XorShift::new(0xF1A6_5EED);
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
        let dir = fresh_dir(&format!("sweep-{case}"));
        let out = std::process::Command::new(BIN)
            .current_dir(&dir)
            .args(bytes.split(|&b| b == b' ').map(std::ffi::OsStr::from_bytes))
            .output()
            .expect("spawn experiments");
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
