//! Turns rounds into the reported metrics: the untraced end-to-end run and
//! the traced per-layer run.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::cells::{cells, Workload};
use crate::host::{self, HostClock};
use crate::ladder::{Ladder, Spans};
use crate::run::{self, CellRun, Mode, SetupTimes};
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, nearest_rank, sorted, tail_or_max};

/// Measured rounds of an untraced run given no `--seconds`.
pub const DEFAULT_ROUNDS: usize = 5;

/// A run's result: its metrics in report order plus the op tallies.
#[derive(Debug)]
pub struct Outcome {
    pub rounds: usize,
    /// Each measured round's throughput, for judging a run's noise.
    pub round_rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static Metric, f64)>,
}

fn ordered(
    list: &'static [Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static Metric, f64)> {
    list.iter()
        .map(|m| (m, values.get(m.name).copied().unwrap_or(f64::NAN)))
        .collect()
}

/// Ops of `cell` that count as failed: all of them when its exact counts
/// differ from the reference round's, else those its checks failed.
fn failed_ops(cell: &CellRun, reference: &CellRun) -> u64 {
    if cell.fingerprint != reference.fingerprint {
        cell.ops
    } else {
        cell.failed_ops
    }
}

/// The untraced run: one unreported warm-up round, then measured rounds
/// until `seconds` have passed (or [`DEFAULT_ROUNDS`] rounds; one when
/// `quick`).
///
/// Every round does bit-identical simulated work (the fingerprints check
/// it), so a difference between rounds is host interference, which only
/// ever adds time. Throughput and the latency percentiles therefore use
/// each cell's fastest round: on the shared host these spread 3-10% across
/// runs where medians over rounds spread 10-40%. Set-up time sums each
/// cell's median over rounds.
pub fn end_to_end(workload: Workload, seed: u64, seconds: Option<f64>, quick: bool) -> Outcome {
    let epoch = Instant::now();
    let cells = cells(workload, quick);
    let reference = run::round(&cells, seed, Mode::Plain, epoch);
    let start = Instant::now();
    // Per cell: its fastest window and that round's op latencies, and its
    // set-up time in every round (seconds).
    let mut best: Vec<Option<(u64, Vec<u64>)>> = vec![None; cells.len()];
    let mut setups = vec![Vec::new(); cells.len()];
    let mut rates = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    // Every round does identical work.
    let round_ops: u64 = reference.iter().map(|c| c.ops).sum();
    loop {
        let round = run::round(&cells, seed, Mode::Plain, epoch);
        let mut window = 0u64;
        for (i, (cell, reference)) in round.into_iter().zip(&reference).enumerate() {
            attempted += cell.ops;
            failed += failed_ops(&cell, reference);
            setups[i].push(cell.setup.total_ns() as f64 / 1e9);
            window += cell.window_ns;
            if best[i].as_ref().is_none_or(|(w, _)| cell.window_ns < *w) {
                best[i] = Some((cell.window_ns, cell.op_ns));
            }
        }
        rates.push(rate(round_ops, window as f64 / 1e9));
        let done = quick
            || match seconds {
                Some(s) => start.elapsed().as_secs_f64() >= s,
                None => rates.len() >= DEFAULT_ROUNDS,
            };
        if done {
            break;
        }
    }
    let best_window: u64 = best.iter().flatten().map(|(w, _)| w).sum();
    let latencies_us = sorted(
        best.iter()
            .flatten()
            .flat_map(|(_, ops)| ops.iter().map(|&ns| ns as f64 / 1e3))
            .collect(),
    );
    let values = BTreeMap::from([
        ("ops_per_s", rate(round_ops, best_window as f64 / 1e9)),
        ("op_us_p50", nearest_rank(&latencies_us, 0.5).unwrap_or(0.0)),
        ("op_us_p90", tail_or_max(&latencies_us, 0.9)),
        ("setup_s", setups.iter().map(|s| median(s)).sum()),
        ("peak_rss_mb", host::peak_rss_mib().unwrap_or(0.0)),
    ]);
    Outcome {
        rounds: rates.len(),
        round_rates: rates,
        attempted,
        failed,
        metrics: ordered(&END_TO_END, &values),
    }
}

fn rate(ops: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        ops as f64 / seconds
    } else {
        0.0
    }
}

/// The traced run: an unreported warm-up round, one untraced round (which
/// also times a crash and recovery at the end of each transaction cell),
/// then one recorded round whose traces feed the layer ladder. Returns the
/// spans for the caller to write and each cell's label.
pub fn traced(workload: Workload, seed: u64, quick: bool) -> (Outcome, Spans, Vec<String>) {
    let epoch = Instant::now();
    let host_start = HostClock::now();
    let cells = cells(workload, quick);
    run::round(&cells, seed, Mode::Plain, epoch);
    let plain = run::round(&cells, seed, Mode::Probe, epoch);
    let recorded = run::round(&cells, seed, Mode::Record, epoch);

    let mut ladder = Ladder::default();
    let mut spans = Spans::new(epoch);
    let (mut attempted, mut failed) = (0, 0);
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    for (untraced, traced) in plain.iter().zip(&recorded) {
        attempted += traced.ops;
        let diverged = ladder.add_cell(untraced, traced, &mut spans);
        failed += (failed_ops(traced, untraced) + diverged).min(traced.ops);
        untraced_ns += untraced.txn_ns.iter().sum::<u64>();
        traced_ns += traced.txn_ns.iter().sum::<u64>();
    }
    let host_end = HostClock::now();

    let mut values = BTreeMap::new();
    ladder.metrics(&mut values);

    let mut setup = SetupTimes::default();
    let (mut crash_ns, mut recover_ns, mut op_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut replayed, mut rebuilt, mut probed, mut failures) = (0u64, 0u64, 0u64, 0u64);
    for cell in &plain {
        setup.add(&cell.setup);
        let r = &cell.recoveries;
        crash_ns.extend(r.crash_ns.iter().map(|&ns| ns as f64 / 1e3));
        recover_ns.extend(r.recover_ns.iter().map(|&ns| ns as f64 / 1e3));
        replayed += r.replayed_entries;
        rebuilt += r.rebuilt_counter_blocks;
        probed += r.probed_lines;
        failures += r.failures;
        op_us.extend(cell.op_ns.iter().map(|&ns| ns as f64 / 1e3));
    }
    let (crash_us, recover_us, op_us) = (sorted(crash_ns), sorted(recover_ns), sorted(op_us));
    values.extend([
        (
            "core.crash.us_p50",
            nearest_rank(&crash_us, 0.5).unwrap_or(0.0),
        ),
        (
            "core.recover.us_p50",
            nearest_rank(&recover_us, 0.5).unwrap_or(0.0),
        ),
        ("core.recover.us_p99", tail_or_max(&recover_us, 0.99)),
        ("core.recover.replayed_entries", replayed as f64),
        ("core.recover.rebuilt_counter_blocks", rebuilt as f64),
        ("core.recover.probed_lines", probed as f64),
        ("core.recover.failures", failures as f64),
        ("setup.system_new_ms", setup.system_new_ns as f64 / 1e6),
        (
            "setup.workload_setup_ms",
            setup.workload_setup_ns as f64 / 1e6,
        ),
        ("setup.warmup_ms", setup.warmup_ns as f64 / 1e6),
        ("op.us_p99", tail_or_max(&op_us, 0.99)),
        ("op.us_max", op_us.last().copied().unwrap_or(0.0)),
        (
            "trace.overhead_frac",
            if untraced_ns == 0 {
                0.0
            } else {
                traced_ns as f64 / untraced_ns as f64 - 1.0
            },
        ),
        ("host.steal_frac", host_end.steal_frac_since(&host_start)),
        (
            "host.runq_wait_frac",
            host_end.runq_wait_frac_since(&host_start),
        ),
    ]);
    let labels = cells.iter().map(|c| c.label()).collect();
    let outcome = Outcome {
        rounds: 1,
        round_rates: Vec::new(),
        attempted,
        failed,
        metrics: ordered(&PER_LAYER, &values),
    };
    (outcome, spans, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_untraced_runs_report_every_end_to_end_metric_without_failures() {
        for workload in Workload::ALL {
            let out = end_to_end(workload, 24301, None, true);
            assert_eq!(out.rounds, 1);
            assert!(out.attempted > 0, "{}", workload.name());
            assert_eq!(out.failed, 0, "{}", workload.name());
            let names: Vec<&str> = out.metrics.iter().map(|(m, _)| m.name).collect();
            let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            for (m, v) in &out.metrics {
                assert!(
                    v.is_finite() && *v > 0.0,
                    "{} {} = {v}",
                    workload.name(),
                    m.name
                );
            }
        }
    }

    #[test]
    fn quick_traced_runs_report_every_layer_metric_and_replay_exactly() {
        for workload in Workload::ALL {
            let (out, _, labels) = traced(workload, 24301, true);
            assert_eq!(labels.len(), cells(workload, true).len());
            assert_eq!(out.failed, 0, "{}: a replay diverged", workload.name());
            assert_eq!(out.metrics.len(), PER_LAYER.len());
            for (m, v) in &out.metrics {
                assert!(v.is_finite(), "{} {} missing", workload.name(), m.name);
            }
            let value = |name: &str| {
                out.metrics
                    .iter()
                    .find(|(m, _)| m.name == name)
                    .map(|(_, v)| *v)
                    .unwrap_or(f64::NAN)
            };
            assert!(value("core.sim_cycles") > 0.0);
            assert!(value("core.calls") > 0.0);
            assert!(value("whisper.txns") > 0.0);
            let secure = workload != Workload::FrontendIdeal;
            assert_eq!(
                value("core.masu.writes") > 0.0,
                secure,
                "{}",
                workload.name()
            );
            assert_eq!(value("crypto.pads") > 0.0, secure, "{}", workload.name());
        }
    }
}
