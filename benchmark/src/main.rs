//! Host-throughput benchmark of the Dolos simulator.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! benchmark run <name> [--seed N] [--seconds S] [--traced] [--quick]
//! benchmark compare <parent-runs-dir> <change-runs-dir>
//! benchmark repro [--seed N]
//! ```
//!
//! A run prints `# workload ...`, one `name value unit` line per metric,
//! and as its last line a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Untraced runs report the end-to-end metrics;
//! traced runs report the per-layer metrics and write their spans to
//! `bench_spans/<workload>-seed<N>.tsv`. See README.md.

mod cells;
mod compare;
mod host;
mod ladder;
mod measure;
mod repro;
mod run;
mod spec;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cells::Workload;
use measure::Outcome;

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
  benchmark run <name> [--seed N] [--seconds S] [--traced] [--quick]
  benchmark compare <parent-runs-dir> <change-runs-dir>
  benchmark repro [--seed N]
workloads: paper-eager frontend-ideal drain-bound crash-recover";

/// The committed BENCH seed.
const DEFAULT_SEED: u64 = 24301;

#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workload: Workload,
        seed: u64,
        seconds: Option<f64>,
        traced: bool,
        quick: bool,
    },
    Compare(PathBuf, PathBuf),
    Repro(u64),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut args = args.iter().map(String::as_str);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut traced = false;
    let mut quick = false;
    let mut repro = false;
    fn value<'a>(flag: &str, v: Option<&'a str>) -> Result<&'a str, String> {
        v.ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(arg) = args.next() {
        match arg {
            "compare" => {
                let (Some(a), Some(b), None) = (args.next(), args.next(), args.next()) else {
                    return Err("compare takes two directories".into());
                };
                return Ok(Command::Compare(a.into(), b.into()));
            }
            "repro" => repro = true,
            "run" | "--workload" => {
                let name = value(arg, args.next())?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value(arg, args.next())?;
                seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value(arg, args.next())?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad --seconds {v:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value(arg, args.next())? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}, expected 0 or 1")),
                };
            }
            "--traced" => traced = true,
            "--quick" => quick = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    match (repro, workload) {
        (true, None) => Ok(Command::Repro(seed)),
        (false, Some(workload)) => Ok(Command::Run {
            workload,
            seed,
            seconds,
            traced,
            quick,
        }),
        _ => Err("name one workload, or use compare or repro".into()),
    }
}

/// A number as JSON: every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The human-readable metric lines and the final JSON line.
fn render(workload: Workload, seed: u64, traced: bool, out: &Outcome) -> String {
    let mut text = format!(
        "# workload {} seed {seed} rounds {} traced {}\n",
        workload.name(),
        out.rounds,
        u8::from(traced)
    );
    if !out.round_rates.is_empty() {
        let rates: Vec<String> = out.round_rates.iter().map(|r| format!("{r:.1}")).collect();
        let _ = writeln!(text, "# round ops_per_s {}", rates.join(" "));
    }
    let mut json = String::new();
    for (i, (m, v)) in out.metrics.iter().enumerate() {
        let _ = writeln!(text, "{} {v} {}", m.name, m.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(*v),
            m.unit
        );
    }
    let correct = out.failed == 0 && out.metrics.iter().all(|(_, v)| v.is_finite());
    let _ = writeln!(
        text,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted, out.failed
    );
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare(parent, change) => compare::main(&parent, &change),
        Command::Repro(seed) => repro::main(seed),
        Command::Run {
            workload,
            seed,
            seconds,
            traced,
            quick,
        } => {
            let outcome = if traced {
                let (outcome, spans, labels) = measure::traced(workload, seed, quick);
                let path =
                    Path::new("bench_spans").join(format!("{}-seed{seed}.tsv", workload.name()));
                if let Err(e) = spans.write(&labels, &path) {
                    eprintln!("benchmark: cannot write {}: {e}", path.display());
                }
                outcome
            } else {
                measure::end_to_end(workload, seed, seconds, quick)
            };
            // Failed ops are a result, reported in the JSON, not an error.
            print!("{}", render(workload, seed, traced, &outcome));
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_and_the_short_forms() {
        assert_eq!(
            parse(&args(
                "--workload drain-bound --seed 7 --seconds 10 --trace 1"
            )),
            Ok(Command::Run {
                workload: Workload::DrainBound,
                seed: 7,
                seconds: Some(10.0),
                traced: true,
                quick: false,
            })
        );
        assert_eq!(
            parse(&args("run crash-recover --traced --quick")),
            Ok(Command::Run {
                workload: Workload::CrashRecover,
                seed: DEFAULT_SEED,
                seconds: None,
                traced: true,
                quick: true,
            })
        );
        assert_eq!(parse(&args("repro")), Ok(Command::Repro(DEFAULT_SEED)));
        assert_eq!(
            parse(&args("compare a b")),
            Ok(Command::Compare("a".into(), "b".into()))
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "run paper-eager --seed x",
            "run paper-eager --trace 2",
            "run paper-eager --seconds -1",
            "run paper-eager --bogus",
            "compare a",
            "repro run paper-eager",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn the_last_line_is_the_result_object() {
        let out = Outcome {
            rounds: 2,
            round_rates: vec![3.0, 4.25],
            attempted: 10,
            failed: 0,
            metrics: vec![(&spec::END_TO_END[0], 1.25), (&spec::END_TO_END[3], 0.5)],
        };
        let text = render(Workload::PaperEager, 1, false, &out);
        let last = text.lines().last().unwrap_or_default();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1.25, \"unit\": \"op/s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(text.contains("\n# round ops_per_s 3.0 4.2\nops_per_s 1.25 op/s\n"));
    }
}
