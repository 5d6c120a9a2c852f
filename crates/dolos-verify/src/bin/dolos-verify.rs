//! `dolos-verify` — differential and metamorphic conformance across the
//! Mi-SU variants and baselines.
//!
//! ```text
//! dolos-verify campaign [--seed N] [--traces N] [--rounds N] [--txns N]
//!                       [--keyspace N] [--no-tamper] [--banks N] [--jobs N]
//!                       [--json PATH] [--quiet]
//! dolos-verify replay <scenario> [--scheme NAME]
//!
//! `campaign` sweeps seeded scenarios across all six designs and checks
//! the metamorphic invariants; the report (including the JSON) is
//! byte-for-byte identical at any `--jobs` value. `replay` re-runs one
//! rendered scenario (as printed in failure reports), either across all
//! schemes or on a single named scheme.
//! ```
//!
//! Exit status is 0 when every obligation held, 1 otherwise, and 2 for a
//! malformed command line (`--traces 0` included), scenario, or
//! bank/keyspace geometry.

// Panic budget 0 (tests/lint_policy.rs): a malformed command line or
// scenario exits 2, never panics.

use std::process::ExitCode;

use dolos_verify::{check_geometry, run_scenario, run_verify, Scenario, VerifyConfig};

fn usage() -> ! {
    eprintln!(
        "usage: dolos-verify campaign [--seed N] [--traces N] [--rounds N] [--txns N] \
         [--keyspace N] [--no-tamper] [--banks N] [--jobs N] [--json PATH] [--quiet]\n\
         \x20      dolos-verify replay <scenario> [--scheme NAME]"
    );
    std::process::exit(2);
}

fn campaign(args: &[String]) -> ExitCode {
    let mut config = VerifyConfig::default();
    let mut json_path: Option<String> = None;
    let mut quiet = false;

    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => config.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            // Zero traces would pass every design vacuously.
            "--traces" => match value(&mut i).parse() {
                Ok(n) if n >= 1 => config.traces = n,
                _ => usage(),
            },
            "--rounds" => config.rounds = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--txns" => config.txns_per_round = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--keyspace" => config.keyspace = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--no-tamper" => config.tamper = false,
            "--banks" => config.banks = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--jobs" => config.jobs = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--json" => json_path = Some(value(&mut i)),
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    if let Err(e) = check_geometry(config.keyspace, config.banks) {
        eprintln!("dolos-verify: {e}");
        return ExitCode::from(2);
    }

    let report = run_verify(&config);

    if !quiet {
        println!("{}", report.table().render());
        println!("{}", report.metamorphic_table().render());
        for violation in &report.metamorphic.violations {
            println!("METAMORPHIC VIOLATION: {violation}");
        }
        for scheme in &report.schemes {
            if let Some(failure) = &scheme.first_failure {
                println!(
                    "FAIL {}: {}\n  minimal reproducer: {}",
                    scheme.scheme, failure.message, failure.scenario
                );
            }
        }
        for failure in &report.cross_failures {
            println!(
                "CROSS-SCHEME DIVERGENCE: {}\n  minimal reproducer: {}",
                failure.message, failure.scenario
            );
        }
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("dolos-verify: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        if !quiet {
            println!("report written to {path}");
        }
    }

    if report.all_pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn replay(args: &[String]) -> ExitCode {
    let mut scenario_text: Option<String> = None;
    let mut scheme: Option<String> = None;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scheme" => scheme = Some(value(&mut i)),
            "--help" | "-h" => usage(),
            arg if scenario_text.is_none() && !arg.starts_with('-') => {
                scenario_text = Some(arg.to_string())
            }
            _ => usage(),
        }
        i += 1;
    }
    let Some(text) = scenario_text else { usage() };
    let scenario: Scenario = match text.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dolos-verify: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(name) = scheme {
        let Some(kind) = dolos_core::ControllerKind::from_name(&name) else {
            eprintln!("dolos-verify: unknown scheme {name:?}");
            return ExitCode::from(2);
        };
        let obs = dolos_verify::run_scheme(&kind.into(), &scenario);
        println!(
            "{}: commits={} reads={} lines={} detected={} cuts=[{}]",
            obs.scheme,
            obs.commits,
            obs.reads_checked,
            obs.lines_checked,
            obs.tamper_detected,
            obs.fired.join(",")
        );
        for divergence in &obs.divergences {
            println!("DIVERGENCE: {divergence}");
        }
        return if obs.pass() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let verdict = run_scenario(&scenario);
    for obs in &verdict.observations {
        println!(
            "{}: commits={} reads={} lines={} detected={} cuts=[{}]{}",
            obs.scheme,
            obs.commits,
            obs.reads_checked,
            obs.lines_checked,
            obs.tamper_detected,
            obs.fired.join(","),
            if obs.pass() { "" } else { " DIVERGED" }
        );
        for divergence in &obs.divergences {
            println!("  DIVERGENCE: {divergence}");
        }
    }
    for failure in &verdict.cross_failures {
        println!("CROSS-SCHEME DIVERGENCE: {failure}");
    }
    if verdict.pass() {
        println!("PASS {}", verdict.scenario);
        ExitCode::SUCCESS
    } else {
        println!("FAIL {}", verdict.scenario);
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // A command line that is not UTF-8 is malformed, not a crash.
    let Some(args) = std::env::args_os()
        .skip(1)
        .map(|arg| arg.into_string().ok())
        .collect::<Option<Vec<String>>>()
    else {
        usage();
    };
    match args.first().map(String::as_str) {
        Some("campaign") => campaign(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => usage(),
    }
}
