//! `benchmark compare <parent-runs> <change-runs>`: the paired-run verdict
//! of choosing-metrics §8 over saved benchmark outputs.
//!
//! Each directory holds one file per untraced run: that run's standard
//! output. Files pair up by sorted name within each workload (name them so
//! the i-th parent and the i-th change ran back to back, alternating which
//! went first). For every (metric, workload) the verdict is
//! * `gain` — the change wins at least 9 of every 10 pairs and its median
//!   beats the parent's by more than the parent's interquartile spread;
//! * `unresolved` — the parent's spread exceeds the metric's bound (unless
//!   every change run beats every parent run: `better`);
//! * `regression` — the change's median is worse by more than the bound;
//! * `ok` — otherwise;
//! * `too-few-pairs` — fewer than 10 pairs.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::process::ExitCode;

use crate::spec::{Better, Metric, END_TO_END};
use crate::stats::quartiles;

/// Minimum pairs for any verdict.
const MIN_PAIRS: usize = 10;

/// Runs of one side, grouped by workload, in file-name order.
type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// Parses one saved run: its workload (from the `# workload` header) and
/// its end-to-end metric lines (`name value unit`).
pub fn parse_run(text: &str) -> Option<(String, BTreeMap<String, f64>)> {
    let mut workload = None;
    let mut metrics = BTreeMap::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["#", "workload", name, ..] => workload = Some((*name).to_string()),
            [name, value, unit] => {
                let known = END_TO_END
                    .iter()
                    .any(|m| m.name == *name && m.unit == *unit);
                if let (true, Ok(v)) = (known, value.parse::<f64>()) {
                    metrics.insert((*name).to_string(), v);
                }
            }
            _ => {}
        }
    }
    Some((workload?, metrics))
}

fn load(dir: &Path) -> io::Result<Runs> {
    let mut paths: Vec<_> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    paths.sort();
    let mut runs = Runs::new();
    for path in paths.iter().filter(|p| p.is_file()) {
        if let Some((workload, metrics)) = parse_run(&fs::read_to_string(path)?) {
            runs.entry(workload).or_default().push(metrics);
        }
    }
    Ok(runs)
}

fn is_better(m: &Metric, a: f64, b: f64) -> bool {
    match m.better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    }
}

/// The verdict for one (metric, workload) over paired values.
pub fn verdict(m: &Metric, parent: &[f64], change: &[f64]) -> &'static str {
    let n = parent.len().min(change.len());
    let (Some(p), Some(c)) = (quartiles(&parent[..n]), quartiles(&change[..n])) else {
        return "too-few-pairs";
    };
    if n < MIN_PAIRS {
        return "too-few-pairs";
    }
    let spread = p[2] - p[0];
    let wins = parent[..n]
        .iter()
        .zip(&change[..n])
        .filter(|(p, c)| is_better(m, **c, **p))
        .count();
    if wins * 10 >= 9 * n && (c[1] - p[1]).abs() > spread && is_better(m, c[1], p[1]) {
        return "gain";
    }
    if spread > m.bound * p[1].abs() {
        let all_better = change[..n]
            .iter()
            .all(|c| parent[..n].iter().all(|p| is_better(m, *c, *p)));
        return if all_better { "better" } else { "unresolved" };
    }
    let worse = match m.better {
        Better::Higher => p[1] - c[1],
        Better::Lower => c[1] - p[1],
    };
    if worse > m.bound * p[1].abs() {
        "regression"
    } else {
        "ok"
    }
}

/// Prints one row per (metric, workload). Exit code 1 on any regression,
/// 2 when a directory cannot be read or a workload lacks pairs.
pub fn main(parent_dir: &Path, change_dir: &Path) -> ExitCode {
    let (parent, change) = match (load(parent_dir), load(change_dir)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<12} {:>3} {:>12} {:>12} {:>12} {:>12} {:>6} verdict",
        "workload", "metric", "n", "parent_med", "parent_iqr", "change_med", "change_iqr", "wins"
    );
    let (mut regressed, mut short) = (false, false);
    for (workload, parent_runs) in &parent {
        let change_runs = change.get(workload).map_or(&[][..], Vec::as_slice);
        for m in &END_TO_END {
            let pick = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(m.name).copied()).collect()
            };
            let (p, c) = (pick(parent_runs), pick(change_runs));
            let n = p.len().min(c.len());
            let verdict = verdict(m, &p, &c);
            regressed |= verdict == "regression";
            short |= verdict == "too-few-pairs";
            let summary = |v: &[f64]| {
                quartiles(&v[..n]).map_or((f64::NAN, f64::NAN), |q| (q[1], q[2] - q[0]))
            };
            let ((pm, pi), (cm, ci)) = (summary(&p), summary(&c));
            let wins = p
                .iter()
                .zip(&c)
                .filter(|(p, c)| is_better(m, **c, **p))
                .count();
            println!(
                "{workload:<15} {:<12} {n:>3} {pm:>12.4} {pi:>12.4} {cm:>12.4} {ci:>12.4} {:>6} {verdict}",
                m.name,
                format!("{wins}/{n}"),
            );
        }
    }
    if short {
        ExitCode::from(2)
    } else if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::metric;

    fn ops() -> &'static Metric {
        metric("ops_per_s").expect("ops_per_s")
    }

    #[test]
    fn parses_a_saved_run() {
        let text = "# workload drain-bound seed 1 rounds 5 traced 0\nops_per_s 100.5 op/s\n\
                    op_us_p50 3 us\nnoise line\n{\"correct\": true}\n";
        let (workload, metrics) = parse_run(text).expect("run");
        assert_eq!(workload, "drain-bound");
        assert_eq!(metrics.get("ops_per_s"), Some(&100.5));
        assert_eq!(metrics.get("op_us_p50"), Some(&3.0));
        assert_eq!(metrics.len(), 2);
        assert!(parse_run("ops_per_s 1 op/s\n").is_none());
    }

    #[test]
    fn verdicts_follow_the_paired_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(verdict(ops(), &parent, &faster), "gain");
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.7).collect();
        assert_eq!(verdict(ops(), &parent, &slower), "regression");
        let within: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
        assert_eq!(verdict(ops(), &parent, &within), "ok");
        assert_eq!(verdict(ops(), &parent, &parent), "ok");
        assert_eq!(verdict(ops(), &parent[..9], &faster[..9]), "too-few-pairs");
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(verdict(ops(), &noisy, &noisy), "unresolved");
    }
}
