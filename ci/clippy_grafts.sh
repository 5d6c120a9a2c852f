#!/usr/bin/env bash
# Graft checks for the lint policy that clippy owns (crates/clippy.toml and
# the `#![deny(clippy::unwrap_used, ...)]` attributes). Each case appends one
# violation to a live source file, runs
#   cargo clippy -p <crate> --all-targets -- -D warnings
# and requires a failing run that names the expected lint. The dolos-bench
# case is the positive control: host timing is allowed there, so clippy must
# pass. Every grafted file is restored afterwards, also on failure or ^C.
#
# Usage (from anywhere in the repository): ci/clippy_grafts.sh
set -euo pipefail
cd "$(dirname "$0")/.."

scratch=$(mktemp -d)
grafted=""
restore() {
    if [ -n "$grafted" ]; then
        cp "$scratch/original.rs" "$grafted"
        grafted=""
    fi
}
trap 'restore; rm -rf "$scratch"' EXIT

# graft <crate> <file> <expected lint | pass> <code to append>
graft() {
    local crate=$1 file=$2 expect=$3 code=$4 status=0
    cp "$file" "$scratch/original.rs"
    grafted=$file
    printf '\n#[allow(dead_code, clippy::items_after_test_module)]\n%s\n' "$code" >>"$file"
    cargo clippy -q -p "$crate" --all-targets -- -D warnings >"$scratch/log" 2>&1 || status=$?
    restore
    if [ "$expect" = pass ]; then
        if [ "$status" -ne 0 ]; then
            cat "$scratch/log"
            echo "FAIL: control graft in $file should pass clippy"
            exit 1
        fi
    elif [ "$status" -eq 0 ] || ! grep -q "#$expect\b" "$scratch/log"; then
        cat "$scratch/log"
        echo "FAIL: graft in $file should fail clippy with $expect"
        exit 1
    fi
    echo "ok: $file -> $expect"
}

graft dolos-core crates/dolos-core/src/lib.rs disallowed_types \
    'fn clippy_graft() -> std::collections::HashMap<u64, u64> { Default::default() }'
graft dolos-sim crates/dolos-sim/src/lib.rs disallowed_types \
    'fn clippy_graft() -> std::time::Instant { std::time::Instant::now() }'
graft dolos-audit crates/dolos-audit/src/lib.rs disallowed_types \
    'fn clippy_graft() -> std::time::SystemTime { std::time::SystemTime::now() }'
graft dolos-sim crates/dolos-sim/src/queue.rs unwrap_used \
    'fn clippy_graft(block: Option<usize>) -> usize { block.unwrap() }'
graft dolos-verify crates/dolos-verify/src/enumerate.rs expect_used \
    'fn clippy_graft(ops: &[u8]) -> u8 { *ops.first().expect("a letter yields an op") }'
graft dolos-core crates/dolos-core/src/masu.rs unwrap_used \
    'fn clippy_graft(line: Option<u64>) -> u64 { line.unwrap() }'
graft dolos-bench crates/dolos-bench/src/lib.rs pass \
    'fn clippy_graft() -> std::time::Instant { std::time::Instant::now() }'
echo "all clippy grafts behave"
