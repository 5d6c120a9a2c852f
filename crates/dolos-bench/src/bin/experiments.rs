//! CLI driver regenerating the paper's tables and figures.
//!
//! ```text
//! experiments all
//! experiments fig12 fig15 --transactions 1000 --seed 7
//! experiments all --jobs 4
//! experiments bench --jobs 0
//! experiments bench --repeat 5
//! ```
//!
//! `bench` runs the selected experiments (default: all), suppresses the
//! tables, and writes machine-readable throughput numbers to
//! `BENCH_<YYYY-MM-DD>.json` in the working directory. Bench mode flattens
//! every selected experiment's sweep cells into ONE global list and runs it
//! longest-cell-first through the work-stealing pool, so slow figures'
//! stragglers overlap other figures' short cells; per-cell wall times and
//! the max/mean skew land in each JSON row. Tables and the bench JSON are
//! identical at any `--jobs` value apart from wall-clock fields: sweep
//! results are merged in cell order, never completion order.
//!
//! `bench --trace` additionally runs the `dolos-trace` mini-bench — every
//! report scheme × WHISPER workload with event recording on — and appends
//! per-cell persist-latency histogram columns (p50/p95/p99/max) to the
//! JSON. Those rows contain only simulated quantities, so they too are
//! byte-identical at any `--jobs` value.
//!
//! `bench --repeat N` runs the whole selection N times. Every run must
//! reproduce the first run's cells and `sim_cycles` exactly; each JSON row
//! then reports the median run's walls plus the min/max `cells_per_sec`
//! over all N runs. `cells_per_sec` is cells over the summed wall time of
//! the experiment's cells (a cell's wall is measured inside its worker).
//!
//! `bench --golden PATH` also writes a wall-free snapshot (per-experiment
//! `cells`/`sim_cycles` only) to PATH; CI `cmp`s it against the committed
//! `ci/bench_sim_cycles.golden.json` so simulated timing cannot drift
//! unnoticed under wall-clock optimizations.
//!
//! Exit status is 0 on success, 1 when a run fails (an output file cannot
//! be written, or a `--repeat` run diverges), and 2 for a malformed command
//! line, `--transactions 0` included.

use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use dolos_bench::emit::{civil_date_utc, BenchEntry, BenchReport, TraceRow};
use dolos_bench::{ExperimentConfig, ExperimentId};
use dolos_trace::ProfileConfig;

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <all|bench|{}> [--transactions N] [--warmup N] [--seed N] \
         [--jobs N] [--csv DIR] [--trace] [--golden PATH] [--repeat N]",
        ExperimentId::ALL
            .iter()
            .map(|e| e.name())
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ExperimentConfig::default();
    let mut selected: Vec<ExperimentId> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut golden_path: Option<String> = None;
    let mut bench = false;
    let mut trace = false;
    let mut repeat = 1usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "all" => selected.extend(ExperimentId::ALL),
            "bench" => bench = true,
            "--trace" => trace = true,
            // Zero transactions would turn every slowdown ratio into NaN.
            "--transactions" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.transactions = n,
                _ => return usage(),
            },
            "--warmup" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.warmup = n,
                None => return usage(),
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.seed = n,
                None => return usage(),
            },
            "--jobs" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.jobs = n,
                None => return usage(),
            },
            "--csv" => match iter.next() {
                Some(dir) => csv_dir = Some(dir.clone()),
                None => return usage(),
            },
            "--repeat" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => repeat = n,
                _ => return usage(),
            },
            "--golden" => match iter.next() {
                Some(path) => golden_path = Some(path.clone()),
                None => return usage(),
            },
            name => match ExperimentId::parse(name) {
                Some(id) => selected.push(id),
                None => return usage(),
            },
        }
    }
    if bench && selected.is_empty() {
        selected.extend(ExperimentId::ALL);
    }
    if selected.is_empty() {
        return usage();
    }
    println!(
        "# Dolos experiment harness ({} transactions per run, warmup {}, seed {:#x}, jobs {})\n",
        config.transactions,
        config.warmup,
        config.seed,
        if config.jobs == 0 {
            "auto".to_owned()
        } else {
            config.jobs.to_string()
        }
    );
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Per experiment: (id, cells, sim_cycles) of the first run, and every
    // run's (wall_ms, cell_wall_ms).
    let mut entries = Vec::new();
    if bench {
        // Flattened sweep: every selected experiment's cells run as one
        // global longest-hint-first list through the work-stealing pool, so
        // one figure's stragglers overlap another's short cells. Tables and
        // all simulated quantities are byte-identical to the sequential
        // path below; only wall-clock fields differ.
        for run in 0..repeat {
            for (i, outcome) in config.bench_flat(&selected).into_iter().enumerate() {
                if run == 0 {
                    if let Some(dir) = &csv_dir {
                        for (t, table) in outcome.tables.iter().enumerate() {
                            let path = format!("{dir}/{}_{t}.csv", outcome.id.name());
                            if let Err(e) = std::fs::write(&path, table.to_csv()) {
                                eprintln!("cannot write {path}: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                    entries.push((outcome.id, outcome.cells, outcome.sim_cycles, Vec::new()));
                }
                let entry = &mut entries[i];
                if (entry.0, entry.1, entry.2) != (outcome.id, outcome.cells, outcome.sim_cycles) {
                    eprintln!(
                        "run {} of {} changed simulated results (cells/sim_cycles)",
                        run + 1,
                        outcome.id.name()
                    );
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "[{} done in {:.1}ms, run {}/{repeat}]",
                    outcome.id.name(),
                    outcome.wall_ms,
                    run + 1
                );
                entry.3.push((outcome.wall_ms, outcome.cell_wall_ms));
            }
        }
    } else {
        for id in selected {
            let start = Instant::now();
            for (i, table) in config.run(id).into_iter().enumerate() {
                println!("{}", table.render());
                if let Some(dir) = &csv_dir {
                    let path = format!("{dir}/{}_{i}.csv", id.name());
                    if let Err(e) = std::fs::write(&path, table.to_csv()) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            eprintln!(
                "[{} done in {:.1}ms]",
                id.name(),
                start.elapsed().as_secs_f64() * 1000.0
            );
        }
    }
    if bench {
        let trace_rows = if trace {
            let profile = dolos_trace::run_profile(&ProfileConfig {
                transactions: config.transactions,
                warmup: config.warmup,
                seed: config.seed,
                jobs: config.jobs,
                ..ProfileConfig::default()
            });
            let rows: Vec<TraceRow> = profile
                .schemes
                .iter()
                .flat_map(|scheme| {
                    scheme.cells.iter().map(|cell| TraceRow {
                        scheme: cell.scheme.to_owned(),
                        workload: cell.workload.to_owned(),
                        persists: cell.persists,
                        p50: cell.latency.percentile(0.50),
                        p95: cell.latency.percentile(0.95),
                        p99: cell.latency.percentile(0.99),
                        max: cell.latency.max().unwrap_or(0),
                    })
                })
                .collect();
            eprintln!("[trace mini-bench: {} cells]", rows.len());
            rows
        } else {
            Vec::new()
        };
        let secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let entries = entries
            .into_iter()
            .map(|(id, cells, sim_cycles, runs)| {
                BenchEntry::from_runs(id.name().to_owned(), cells, sim_cycles, runs)
            })
            .collect();
        let report = BenchReport {
            date: civil_date_utc(secs),
            transactions: config.transactions,
            warmup: config.warmup,
            seed: config.seed,
            jobs: config.jobs,
            repeat,
            entries,
            trace: trace_rows,
        };
        let path = report.file_name();
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        // Wall-free sim-cycle snapshot for CI's golden cmp: any functional
        // change that moves simulated timing shows up as a byte diff here,
        // while wall-clock-only optimizations leave it untouched.
        if let Some(path) = &golden_path {
            if let Err(e) = std::fs::write(path, report.to_golden()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
    }
    ExitCode::SUCCESS
}
