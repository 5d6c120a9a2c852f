//! CLI driver regenerating the paper's tables and figures.
//!
//! ```text
//! experiments all
//! experiments fig12 fig15 --transactions 1000 --seed 7
//! experiments all --jobs 4
//! experiments bench --jobs 0
//! experiments bench --repeat 5
//! experiments bench --repeat 10 --against ../parent/target/release/experiments
//! ```
//!
//! Every run takes one path, `ExperimentConfig::run`: it flattens every
//! selected experiment's sweep cells into ONE global list and runs it
//! longest-cell-first through the work-stealing pool, so slow figures'
//! stragglers overlap other figures' short cells. `experiments <ids>`
//! prints the outcomes' tables. `bench` runs the selected experiments
//! (default: all), suppresses the tables, and writes machine-readable
//! throughput numbers to `BENCH_<YYYY-MM-DD>.json` in the working
//! directory (overwriting a file of the same date); per-cell wall times
//! and the max/mean skew land in each JSON row. Tables and the bench JSON
//! are identical at any `--jobs` value apart from wall-clock fields: sweep
//! results are merged in cell order, never completion order. `--csv DIR`
//! writes each table to `DIR/<id>_<n>.csv` in both modes.
//!
//! `bench --repeat N` runs the whole selection N times. Every run must
//! reproduce the first run's cells and `sim_cycles` exactly; each JSON row
//! then reports the median run's walls plus the min/max `cells_per_sec`
//! over all N runs. `cells_per_sec` is cells over the summed wall time of
//! the experiment's cells (a cell's wall is measured inside its worker).
//!
//! `bench --golden PATH` writes only a wall-free snapshot (per-experiment
//! `cells`/`sim_cycles`) to PATH, and no `BENCH_*.json`; CI `cmp`s it
//! against the committed `ci/bench_sim_cycles.golden.json` so simulated
//! timing cannot drift unnoticed under wall-clock optimizations.
//!
//! `bench --against PATH` pairs every run with one run of another
//! `experiments` binary at PATH, typically one built from a git worktree
//! or clone of the parent commit. The two alternate (this build first in
//! even runs, the parent first in odd ones), each parent run in a fresh
//! temporary directory, and both must simulate the same cells and
//! `sim_cycles`. The JSON's `against` row records the parent's median and
//! range, the ratio of median throughputs (above 1 means this build is
//! faster), the pairs this build won, and both git revisions.
//!
//! Exit status is 0 on success, 1 when a run fails (an output file cannot
//! be written, a `--repeat` run diverges, or the `--against` binary fails
//! or simulates different work), and 2 for a malformed command line,
//! `--transactions 0` included.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use dolos_bench::emit::{civil_date_utc, parse_total, Against, BenchEntry, BenchReport};
use dolos_bench::{ExperimentConfig, ExperimentId};

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <all|bench|{}> [--transactions N] [--warmup N] [--seed N] \
         [--jobs N] [--csv DIR] [--golden PATH] [--repeat N] [--against PATH]",
        ExperimentId::ALL
            .iter()
            .map(|e| e.name())
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

/// `git describe --always --dirty` of the checkout holding `dir`, or
/// `unknown` when there is none.
fn git_revision(dir: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs the `--against` binary once over the same selection and scale, in
/// a fresh temporary directory so its `BENCH_*.json` lands nowhere else,
/// and returns its total `(wall_ms, cells, sim_cycles)`.
fn run_parent(
    bin: &Path,
    selected: &[ExperimentId],
    config: &ExperimentConfig,
    run: usize,
) -> Result<(f64, u64, u64), String> {
    let dir =
        std::env::temp_dir().join(format!("experiments-against-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let total = (|| {
        let status = Command::new(bin)
            .current_dir(&dir)
            .arg("bench")
            .args(selected.iter().map(|id| id.name()))
            .args(["--transactions", &config.transactions.to_string()])
            .args(["--warmup", &config.warmup.to_string()])
            .args(["--seed", &config.seed.to_string()])
            .args(["--jobs", &config.jobs.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
        if !status.success() {
            return Err(format!("{} failed: {status}", bin.display()));
        }
        let written = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .find(|path| {
                path.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("BENCH_"))
            })
            .ok_or_else(|| format!("{} wrote no BENCH_*.json", bin.display()))?;
        let text = std::fs::read_to_string(&written)
            .map_err(|e| format!("cannot read {}: {e}", written.display()))?;
        parse_total(&text).ok_or_else(|| format!("{} has no total row", written.display()))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    total
}

fn main() -> ExitCode {
    // A command line that is not UTF-8 is malformed, not a crash.
    let Some(args) = std::env::args_os()
        .skip(1)
        .map(|arg| arg.into_string().ok())
        .collect::<Option<Vec<String>>>()
    else {
        return usage();
    };
    let mut config = ExperimentConfig::default();
    let mut selected: Vec<ExperimentId> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut golden_path: Option<String> = None;
    let mut bench = false;
    let mut repeat = 1usize;
    let mut against: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "all" => selected.extend(ExperimentId::ALL),
            "bench" => bench = true,
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
            // Absolute, because the parent runs in a temporary directory.
            "--against" => match iter.next().and_then(|p| std::fs::canonicalize(p).ok()) {
                Some(path) => against = Some(path),
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
    // A paired ratio needs the BENCH file, which `--golden` does not write.
    if selected.is_empty() || (against.is_some() && (!bench || golden_path.is_some())) {
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
    // `--repeat` applies to bench runs only; a table run runs once.
    let repeat = if bench { repeat } else { 1 };
    // Per experiment: (id, cells, sim_cycles) of the first run, and every
    // run's (wall_ms, cell_wall_ms).
    let mut entries = Vec::new();
    // The `--against` binary's total `(wall_ms, cells, sim_cycles)` per run.
    let mut parent_totals: Vec<(f64, u64, u64)> = Vec::new();
    let mut pair_with_parent = |run: usize| -> Result<(), ExitCode> {
        let Some(bin) = against.as_deref() else {
            return Ok(());
        };
        let total = run_parent(bin, &selected, &config, run).map_err(|e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        })?;
        parent_totals.push(total);
        Ok(())
    };
    for run in 0..repeat {
        // Alternate the order within each pair so neither build always
        // runs on the warmer host.
        let parent_first = run % 2 == 1;
        if parent_first {
            if let Err(code) = pair_with_parent(run) {
                return code;
            }
        }
        for (i, outcome) in config.run(&selected).into_iter().enumerate() {
            if run == 0 {
                for (t, table) in outcome.tables.iter().enumerate() {
                    if !bench {
                        println!("{}", table.render());
                    }
                    if let Some(dir) = &csv_dir {
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
        if !parent_first {
            if let Err(code) = pair_with_parent(run) {
                return code;
            }
        }
    }
    if bench {
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
        let mut report = BenchReport {
            date: civil_date_utc(secs),
            transactions: config.transactions,
            warmup: config.warmup,
            seed: config.seed,
            jobs: config.jobs,
            repeat,
            entries,
            against: None,
        };
        if let Some(bin) = &against {
            let totals = report.totals();
            if parent_totals.iter().any(|&(_, c, s)| (c, s) != totals) {
                eprintln!(
                    "{} simulated different cells/sim_cycles; a ratio would compare \
                     different work",
                    bin.display()
                );
                return ExitCode::FAILURE;
            }
            report.against = Some(Against {
                revision: git_revision(Path::new(env!("CARGO_MANIFEST_DIR"))),
                parent_revision: git_revision(bin.parent().unwrap_or(bin)),
                parent_runs_wall_ms: parent_totals.iter().map(|&(w, _, _)| w).collect(),
            });
        }
        // `--golden` writes only the wall-free sim-cycle snapshot for CI's
        // cmp: any functional change that moves simulated timing shows up
        // as a byte diff there, while wall-clock-only optimizations leave
        // it untouched. A committed `BENCH_*.json` of the same date is
        // never overwritten by such a run.
        let (path, text) = match &golden_path {
            Some(path) => (path.clone(), report.to_golden()),
            None => (report.file_name(), report.to_json()),
        };
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
