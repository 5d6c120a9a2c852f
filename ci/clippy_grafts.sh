#!/usr/bin/env bash
# Graft checks for the lint policy that clippy owns: the panic lints denied
# in the root Cargo.toml's [workspace.lints.clippy], and the disallowed
# types and methods in crates/clippy.toml. Each case appends one violation
# to a live source file, runs
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

# graft <crate> <file> <expected lint | pass> <code to append> [<log text>]
# Clippy lints link to `...#<lint>` and rustc lints print `-D <lint-name>`;
# a lint denied by a crate attribute is named only by the attribute's text,
# which the optional fifth argument gives.
graft() {
    local crate=$1 file=$2 expect=$3 code=$4 status=0
    local names=(-E "#$expect\b|${expect//_/-}")
    if [ $# -ge 5 ]; then
        names=(-F "$5")
    fi
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
    elif [ "$status" -eq 0 ] || ! grep -q "${names[@]}" "$scratch/log"; then
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
graft dolos-trace crates/dolos-trace/src/lib.rs disallowed_types \
    'fn clippy_graft() -> std::time::SystemTime { std::time::SystemTime::now() }'
graft dolos-sim crates/dolos-sim/src/queue.rs unwrap_used \
    'fn clippy_graft(block: Option<usize>) -> usize { block.unwrap() }'
graft dolos-verify crates/dolos-verify/src/enumerate.rs expect_used \
    'fn clippy_graft(ops: &[u8]) -> u8 { *ops.first().expect("a letter yields an op") }'
graft dolos-core crates/dolos-core/src/masu.rs unwrap_used \
    'fn clippy_graft(line: Option<u64>) -> u64 { line.unwrap() }'
graft dolos-whisper crates/dolos-whisper/src/trace.rs panic \
    'fn clippy_graft(bad: bool) { if bad { panic!("hostile trace") } }'
# A stale expect fails as surely as a new panic site: the ratchet's
# per-crate counts in tests/lint_policy.rs stay honest.
graft dolos-core crates/dolos-core/src/controller.rs unfulfilled_lint_expectations \
    '#[expect(clippy::unwrap_used, reason = "x")] fn clippy_graft() {}'
# The persistence domain: every NVM device write outside the drain, the ADR
# dump and recovery, including one next to verify's sanctioned tamper write.
dev='nvm: &mut dolos_nvm::NvmDevice, a: dolos_nvm::addr::LineAddr, l: &dolos_nvm::Line'
graft dolos-core crates/dolos-core/src/lib.rs disallowed_methods \
    "fn clippy_graft($dev) { nvm.poke(a, l); }"
graft dolos-core crates/dolos-core/src/misu.rs disallowed_methods \
    "fn clippy_graft($dev) { nvm.write_line(dolos_sim::Cycle::ZERO, a, l); }"
graft dolos-core crates/dolos-core/src/masu.rs disallowed_methods \
    "fn clippy_graft($dev) { nvm.write_line_ticket(dolos_sim::Cycle::ZERO, a, l); }"
graft dolos-core crates/dolos-core/src/controller.rs disallowed_methods \
    "fn clippy_graft($dev) { nvm.replay_snapshot(a, l); }"
graft dolos-verify crates/dolos-verify/src/engine.rs disallowed_methods \
    "fn clippy_graft($dev) { nvm.restore_lines(&[(a, *l)]); }"
# The crypto crate's only `unsafe` is the AES-NI backend (`aes/ni.rs`):
# the counter-mode pad kernel it serves stays safe code in `ctr.rs`.
graft dolos-crypto crates/dolos-crypto/src/ctr.rs unsafe_code \
    'fn clippy_graft(x: &u8) -> u8 {
    // SAFETY: a reference is valid for reads.
    unsafe { *core::ptr::from_ref(x) }
}' '#![deny(unsafe_code)]'
# A CLI reads args_os: a non-UTF-8 argument must exit 2, not panic.
graft dolos-verify crates/dolos-verify/src/bin/dolos-verify.rs disallowed_methods \
    'fn clippy_graft() -> usize { std::env::args().count() }'
graft dolos-bench crates/dolos-bench/src/bin/experiments.rs disallowed_methods \
    'fn clippy_graft() -> usize { std::env::args().count() }'
graft dolos-bench crates/dolos-bench/src/lib.rs pass \
    'fn clippy_graft() -> std::time::Instant { std::time::Instant::now() }'
echo "all clippy grafts behave"
