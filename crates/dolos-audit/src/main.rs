//! CLI for the workspace audit: `cargo run -p dolos-audit -- check`.

#![forbid(unsafe_code)]
// Panic budget 0: bad arguments exit 2 with the usage line.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::path::PathBuf;
use std::process::ExitCode;

use dolos_audit::check_workspace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["check"] {
        eprintln!("dolos-audit: expected the one argument `check`, got {args:?}");
        eprintln!("usage: dolos-audit check");
        return ExitCode::from(2);
    }
    // The binary lives two levels below the workspace root.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    match check_workspace(&root) {
        Ok(report) => {
            print!("{}", report.to_text());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!(
                "dolos-audit: cannot read workspace at {}: {err}",
                root.display()
            );
            ExitCode::from(2)
        }
    }
}
