//! CLI for the trace subsystem: traced profiling sweeps, critical-path
//! reports, Chrome `trace_event` export, and persist-trace record/replay.
//!
//! `run` emits the deterministic profile JSON (byte-identical at any
//! `--jobs` value); `report` renders the human-readable critical-path
//! table; `export` writes one traced cell as Chrome `trace_event` JSON for
//! `chrome://tracing` / Perfetto. `record` writes one workload's persist
//! trace (recorded on Dolos-Partial over a 64 MiB region); `replay` prints
//! its cycles, persists and retries on each scheme (default: all six). Run
//! without arguments for the flags; an unused flag or a malformed trace
//! exits 2.

// Panic budget 0: a malformed command line or trace file exits 2, never panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::process::ExitCode;

use dolos_core::{ControllerConfig, ControllerKind, MiSuKind, TraceMode};
use dolos_sim::rng::XorShift;
use dolos_trace::{chrome_trace_json, parse_workload, run_profile, ProfileConfig};
use dolos_whisper::runner::run_workload;
use dolos_whisper::{PmEnv, Trace};

fn usage() -> ! {
    eprintln!(
        "usage: dolos-trace run    [--transactions N] [--txn-bytes N] [--warmup N]\n\
         \x20                      [--seed N] [--jobs N] [--banks N] [--scheme NAME ...]\n\
         \x20                      [--workload NAME ...] [--out PATH]\n\
         \x20      dolos-trace report [same flags as run]\n\
         \x20      dolos-trace export --scheme NAME --workload NAME\n\
         \x20                      [--transactions N] [--txn-bytes N] [--warmup N]\n\
         \x20                      [--seed N] [--out PATH]\n\
         \x20      dolos-trace record --workload NAME [--transactions N]\n\
         \x20                      [--txn-bytes N] [--seed N] [--out PATH]\n\
         \x20      dolos-trace replay FILE [--scheme NAME ...] [--out PATH]\n\
         \n\
         schemes: ideal deferred pre-wpq-secure dolos-full dolos-partial dolos-post\n\
         workloads: Hashmap Ctree Btree RBtree NStore:YCSB Redis Memcached Vacation"
    );
    std::process::exit(2);
}

struct Cli {
    config: ProfileConfig,
    out: Option<String>,
}

/// Flags of `run` and `report`; the other subcommands take subsets.
const PROFILE_FLAGS: &str =
    "--transactions --txn-bytes --warmup --seed --jobs --banks --scheme --workload --out";

/// Parses `args` over `config`; a flag missing from the space-separated
/// `allowed` list is a usage error.
fn parse_cli(args: &[String], allowed: &str, mut config: ProfileConfig) -> Cli {
    let mut schemes = Vec::new();
    let mut workloads = Vec::new();
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.split(' ').any(|f| f == flag) {
            usage();
        }
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--transactions" => {
                config.transactions = value().parse().unwrap_or_else(|_| usage());
            }
            "--txn-bytes" => config.txn_bytes = value().parse().unwrap_or_else(|_| usage()),
            "--warmup" => config.warmup = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => config.seed = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => config.jobs = value().parse().unwrap_or_else(|_| usage()),
            "--banks" => config.banks = value().parse().unwrap_or_else(|_| usage()),
            "--scheme" => schemes.push(named(value(), "scheme", ControllerKind::from_name)),
            "--workload" => workloads.push(named(value(), "workload", parse_workload)),
            "--out" => out = Some(value().clone()),
            _ => usage(),
        }
    }
    if !schemes.is_empty() {
        config.schemes = schemes;
    }
    if !workloads.is_empty() {
        config.workloads = workloads;
    }
    Cli { config, out }
}

/// Resolves `name` through `parse`, or reports it and exits 2.
fn named<T>(name: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> T {
    parse(name).unwrap_or_else(|| {
        eprintln!("unknown {what} {name:?}");
        usage()
    })
}

fn write_output(out: Option<&str>, content: &str) -> ExitCode {
    match out {
        Some(path) => {
            if let Err(err) = std::fs::write(path, content) {
                eprintln!("dolos-trace: cannot write {path}: {err}");
                return ExitCode::from(2);
            }
            println!("wrote {path}");
        }
        None => println!("{content}"),
    }
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    let cli = parse_cli(args, PROFILE_FLAGS, ProfileConfig::default());
    let json = run_profile(&cli.config).to_json() + "\n";
    write_output(cli.out.as_deref(), &json)
}

fn cmd_report(args: &[String]) -> ExitCode {
    let cli = parse_cli(args, PROFILE_FLAGS, ProfileConfig::default());
    let table = run_profile(&cli.config).render_table();
    write_output(cli.out.as_deref(), &table)
}

fn cmd_export(args: &[String]) -> ExitCode {
    let flags = "--scheme --workload --transactions --txn-bytes --warmup --seed --out";
    let cli = parse_cli(args, flags, ProfileConfig::default());
    let (Some(&kind), Some(&workload)) = (cli.config.schemes.first(), cli.config.workloads.first())
    else {
        usage();
    };
    if cli.config.schemes.len() != 1 || cli.config.workloads.len() != 1 {
        eprintln!("dolos-trace: export takes exactly one --scheme and one --workload");
        return ExitCode::from(2);
    }
    let config = ControllerConfig::from(kind).with_trace(TraceMode::Record);
    let result = run_workload(workload, config, &cli.config.run_config());
    let json = chrome_trace_json(&result.trace_events) + "\n";
    write_output(cli.out.as_deref(), &json)
}

fn cmd_record(args: &[String]) -> ExitCode {
    let flags = "--workload --transactions --txn-bytes --seed --out";
    let cli = parse_cli(args, flags, ProfileConfig::default());
    let [workload] = cli.config.workloads[..] else {
        eprintln!("dolos-trace: record takes exactly one --workload");
        return ExitCode::from(2);
    };
    let mut env =
        PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial).with_region_bytes(64 << 20));
    env.start_recording();
    let mut program = workload.build();
    program.setup(&mut env);
    let mut rng = XorShift::new(cli.config.seed);
    for _ in 0..cli.config.transactions {
        program.transaction(&mut env, cli.config.txn_bytes, &mut rng);
    }
    let Some(trace) = env.take_trace() else {
        eprintln!("dolos-trace: the environment recorded no trace");
        return ExitCode::FAILURE;
    };
    eprintln!(
        "recorded {}: {} ops, {} persisted lines",
        workload.name(),
        trace.len(),
        trace.persist_lines()
    );
    write_output(cli.out.as_deref(), &trace.serialize())
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let Some((path, flags)) = args.split_first().filter(|(p, _)| !p.starts_with('-')) else {
        usage();
    };
    let defaults = ProfileConfig {
        schemes: ControllerKind::ALL.to_vec(),
        ..ProfileConfig::default()
    };
    let cli = parse_cli(flags, "--scheme --out", defaults);
    let parsed = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read {path}: {err}"))
        .and_then(|text| Trace::parse(&text).map_err(|err| format!("{path}: {err}")));
    let trace = match parsed {
        Ok(trace) => trace,
        Err(msg) => {
            eprintln!("dolos-trace: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut table = format!(
        "{:<16} {:>14} {:>10} {:>10}",
        "controller", "cycles", "persists", "retries"
    );
    for kind in cli.config.schemes {
        let result = trace.replay(kind.into());
        table.push_str(&format!(
            "\n{:<16} {:>14} {:>10} {:>10}",
            kind.name(),
            result.cycles,
            result.persists,
            result.retries
        ));
    }
    write_output(cli.out.as_deref(), &table)
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
    let Some(command) = args.first() else {
        usage();
    };
    match command.as_str() {
        "run" => cmd_run(&args[1..]),
        "report" => cmd_report(&args[1..]),
        "export" => cmd_export(&args[1..]),
        "record" => cmd_record(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        _ => usage(),
    }
}
