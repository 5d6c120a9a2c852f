//! Machine-readable benchmark emission for `experiments bench`.
//!
//! Runs experiments through the normal harness, but instead of (only)
//! rendering tables, records per-experiment wall-clock time, sweep-cell
//! counts, and total simulated cycles, and serializes them as
//! `BENCH_<YYYY-MM-DD>.json`. The JSON is hand-rolled like the rest of the
//! workspace (no external crates); every field is numeric or a
//! machine-generated name, so no string escaping is required beyond what
//! [`ExperimentId::name`] already guarantees (lowercase ASCII).
//!
//! [`ExperimentId::name`]: crate::ExperimentId::name

/// Timing and work tallies for one experiment, over one or more repeated
/// runs of identical simulated work.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Experiment CLI name ("fig12", "table2", ...).
    pub name: String,
    /// Wall-clock milliseconds spent in this experiment in the median run
    /// (see [`BenchEntry::from_runs`]).
    pub wall_ms: f64,
    /// Sweep cells (independent workload × controller simulations) run.
    pub cells: u64,
    /// Total simulated cycles across those cells.
    pub sim_cycles: u64,
    /// Wall milliseconds per sweep cell of the median run, in cell order.
    /// Empty for direct experiments whose work never enters the job pool
    /// (their row reports `skew` 0).
    pub cell_wall_ms: Vec<f64>,
    /// `wall_ms` of every run, in run order (one entry without `--repeat`).
    pub runs_wall_ms: Vec<f64>,
}

/// Cells per wall-clock second (0 when no measurable time elapsed).
fn rate(cells: u64, wall_ms: f64) -> f64 {
    if wall_ms <= 0.0 {
        0.0
    } else {
        cells as f64 * 1000.0 / wall_ms
    }
}

/// Index of the nearest-rank median of `walls` (the lower middle for an
/// even count), so the reported run is one that actually happened.
fn median_index(walls: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..walls.len()).collect();
    order.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    order[(walls.len().saturating_sub(1)) / 2]
}

/// The nearest-rank median of `walls` (0 when there are none).
fn median_wall(walls: &[f64]) -> f64 {
    if walls.is_empty() {
        0.0
    } else {
        walls[median_index(walls)]
    }
}

/// `(min, max)` throughput over a set of run walls.
fn rate_range(cells: u64, walls: &[f64]) -> (f64, f64) {
    let rates = walls.iter().map(|&w| rate(cells, w));
    let min = rates.clone().fold(f64::INFINITY, f64::min);
    let max = rates.fold(0.0f64, f64::max);
    (if min.is_finite() { min } else { 0.0 }, max)
}

impl BenchEntry {
    /// Folds repeated runs of one experiment, each `(wall_ms,
    /// cell_wall_ms)`, into a row. The reported `wall_ms` and
    /// `cell_wall_ms` are the median run's, so `cells_per_sec` is the
    /// median throughput; every run's wall is kept for the min/max.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn from_runs(
        name: String,
        cells: u64,
        sim_cycles: u64,
        runs: Vec<(f64, Vec<f64>)>,
    ) -> Self {
        assert!(!runs.is_empty(), "an experiment row needs at least one run");
        let runs_wall_ms: Vec<f64> = runs.iter().map(|(w, _)| *w).collect();
        let (wall_ms, cell_wall_ms) = runs[median_index(&runs_wall_ms)].clone();
        Self {
            name,
            wall_ms,
            cells,
            sim_cycles,
            cell_wall_ms,
            runs_wall_ms,
        }
    }

    /// Simulation cells completed per wall-clock second in the median run
    /// (0 when no cells or no measurable time elapsed).
    pub fn cells_per_sec(&self) -> f64 {
        rate(self.cells, self.wall_ms)
    }

    /// Lowest and highest `cells_per_sec` over all runs.
    fn cells_per_sec_range(&self) -> (f64, f64) {
        rate_range(self.cells, &self.runs_wall_ms)
    }

    /// Scheduling skew across this experiment's cells: the longest cell's
    /// wall time over the mean (1.0 = perfectly uniform). This is the
    /// number the longest-cell-first flat sweep exists to absorb — a high
    /// skew experiment wastes pool tails under naive chunking. 0 when no
    /// per-cell samples exist.
    pub fn skew(&self) -> f64 {
        let n = self.cell_wall_ms.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.cell_wall_ms.iter().sum::<f64>() / n as f64;
        if mean <= 0.0 {
            return 0.0;
        }
        let max = self.cell_wall_ms.iter().copied().fold(0.0f64, f64::max);
        max / mean
    }
}

/// A paired comparison against a parent build (`bench --against PATH`):
/// run `r` of this build and run `r` of the parent ran back to back, so
/// host drift between pairs cancels in the ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct Against {
    /// `git describe --always --dirty` of this build's source tree.
    pub revision: String,
    /// The same for the parent binary's checkout.
    pub parent_revision: String,
    /// The parent's total wall per run, in run order; one per run of this
    /// build.
    pub parent_runs_wall_ms: Vec<f64>,
}

/// A full `experiments bench` run: configuration echo plus one entry per
/// experiment, in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// UTC date the run started, `YYYY-MM-DD`.
    pub date: String,
    /// Transactions per run (configuration echo).
    pub transactions: usize,
    /// Warm-up transactions per run.
    pub warmup: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads used for sweep cells.
    pub jobs: usize,
    /// Runs of the whole selection (`--repeat`); each entry holds this
    /// many walls.
    pub repeat: usize,
    /// Per-experiment tallies, in run order.
    pub entries: Vec<BenchEntry>,
    /// The paired parent runs (`bench --against`); `None` without one.
    pub against: Option<Against>,
}

impl BenchReport {
    /// The canonical output file name, `BENCH_<date>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.date)
    }

    /// Serializes the report. Stable key order, two-space indent, totals
    /// computed from the entries.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"date\": \"{}\",\n", self.date));
        out.push_str(&format!("  \"transactions\": {},\n", self.transactions));
        out.push_str(&format!("  \"warmup\": {},\n", self.warmup));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"repeat\": {},\n", self.repeat));
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let cell_walls = e
                .cell_wall_ms
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(", ");
            let (min, max) = e.cells_per_sec_range();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"cells\": {}, \
                 \"sim_cycles\": {}, \"cells_per_sec\": {:.3}, \"cells_per_sec_min\": {:.3}, \
                 \"cells_per_sec_max\": {:.3}, \"skew\": {:.3}, \"cell_wall_ms\": [{}]}}{}\n",
                e.name,
                e.wall_ms,
                e.cells,
                e.sim_cycles,
                e.cells_per_sec(),
                min,
                max,
                e.skew(),
                cell_walls,
                if i + 1 == self.entries.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        let run_walls = self.run_walls();
        let wall_ms = median_wall(&run_walls);
        let (cells, sim_cycles) = self.totals();
        let (min, max) = rate_range(cells, &run_walls);
        if let Some(a) = &self.against {
            let parent_wall = median_wall(&a.parent_runs_wall_ms);
            let (parent_min, parent_max) = rate_range(cells, &a.parent_runs_wall_ms);
            let ratio = if wall_ms > 0.0 {
                parent_wall / wall_ms
            } else {
                0.0
            };
            let faster = run_walls
                .iter()
                .zip(&a.parent_runs_wall_ms)
                .filter(|(this, parent)| this < parent)
                .count();
            out.push_str(&format!(
                "  \"against\": {{\"revision\": \"{}\", \"parent_revision\": \"{}\", \
                 \"parent_cells_per_sec\": {:.3}, \"parent_cells_per_sec_min\": {parent_min:.3}, \
                 \"parent_cells_per_sec_max\": {parent_max:.3}, \"ratio\": {ratio:.3}, \
                 \"pairs_faster\": {faster}}},\n",
                dolos_sim::json::escape(&a.revision),
                dolos_sim::json::escape(&a.parent_revision),
                rate(cells, parent_wall),
            ));
        } else {
            out.push_str("  \"against\": null,\n");
        }
        out.push_str(&format!(
            "  \"total\": {{\"wall_ms\": {wall_ms:.3}, \"cells\": {cells}, \
             \"sim_cycles\": {sim_cycles}, \"cells_per_sec\": {:.3}, \
             \"cells_per_sec_min\": {min:.3}, \"cells_per_sec_max\": {max:.3}}}\n",
            rate(cells, wall_ms)
        ));
        out.push('}');
        out
    }

    /// The total wall of each run, in run order: run `r` sums every
    /// experiment's run-`r` wall.
    fn run_walls(&self) -> Vec<f64> {
        (0..self.repeat)
            .map(|r| {
                self.entries
                    .iter()
                    .filter_map(|e| e.runs_wall_ms.get(r))
                    .sum()
            })
            .collect()
    }

    /// Total `(cells, sim_cycles)` over every experiment.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.entries.iter().map(|e| e.cells).sum(),
            self.entries.iter().map(|e| e.sim_cycles).sum(),
        )
    }

    /// Serializes only the simulated (machine-independent) fields: the
    /// workload configuration and each experiment's cell count and
    /// `sim_cycles`. Wall-clock fields, dates and job counts
    /// are all excluded, so two runs of the same experiments at the same
    /// scale produce byte-identical golden text on any machine at any
    /// `--jobs`. CI `cmp`s this against a committed golden to catch
    /// wall-clock optimizations that accidentally perturb simulated timing.
    pub fn to_golden(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"transactions\": {},\n", self.transactions));
        out.push_str(&format!("  \"warmup\": {},\n", self.warmup));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"cells\": {}, \"sim_cycles\": {}}}{}\n",
                e.name,
                e.cells,
                e.sim_cycles,
                if i + 1 == self.entries.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        let (cells, sim_cycles) = self.totals();
        out.push_str(&format!(
            "  \"total\": {{\"cells\": {cells}, \"sim_cycles\": {sim_cycles}}}\n"
        ));
        out.push_str("}\n");
        out
    }
}

/// Reads `(wall_ms, cells, sim_cycles)` back from the `total` row of a
/// [`BenchReport::to_json`] text, as `bench --against` does with the
/// parent's output. `None` when the row is missing or malformed.
pub fn parse_total(json: &str) -> Option<(f64, u64, u64)> {
    let row = &json[json.find("\"total\": {")?..];
    let field = |key: &str| {
        let start = row.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &row[start..];
        let end = rest.find([',', '}'])?;
        Some(&rest[..end])
    };
    Some((
        field("wall_ms")?.parse().ok()?,
        field("cells")?.parse().ok()?,
        field("sim_cycles")?.parse().ok()?,
    ))
}

/// Converts seconds since the Unix epoch to a `YYYY-MM-DD` UTC date string.
///
/// Standard days-to-civil conversion (proleptic Gregorian, era = 400-year
/// blocks) so the binary needs no clock crate.
pub fn civil_date_utc(secs_since_epoch: u64) -> String {
    let days = (secs_since_epoch / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_known_values() {
        assert_eq!(civil_date_utc(0), "1970-01-01");
        // 2000-02-29 00:00:00 UTC (leap day of a century leap year).
        assert_eq!(civil_date_utc(951_782_400), "2000-02-29");
        // 2026-08-06 00:00:00 UTC.
        assert_eq!(civil_date_utc(1_785_974_400), "2026-08-06");
        // End-of-year boundary: 2023-12-31 23:59:59.
        assert_eq!(civil_date_utc(1_704_067_199), "2023-12-31");
        assert_eq!(civil_date_utc(1_704_067_200), "2024-01-01");
    }

    #[test]
    fn report_json_has_totals_and_stable_shape() {
        let report = BenchReport {
            date: "2026-08-06".into(),
            transactions: 400,
            warmup: 48,
            seed: 0x5EED,
            jobs: 2,
            repeat: 1,
            entries: vec![
                BenchEntry {
                    name: "fig12".into(),
                    wall_ms: 2000.0,
                    cells: 20,
                    sim_cycles: 1_000_000,
                    cell_wall_ms: vec![1500.0, 500.0],
                    runs_wall_ms: vec![2000.0],
                },
                BenchEntry {
                    name: "table2".into(),
                    wall_ms: 500.0,
                    cells: 15,
                    sim_cycles: 600_000,
                    cell_wall_ms: vec![],
                    runs_wall_ms: vec![500.0],
                },
            ],
            against: None,
        };
        assert_eq!(report.file_name(), "BENCH_2026-08-06.json");
        let json = report.to_json();
        assert_eq!(dolos_sim::json::validate(&json), Ok(()));
        assert!(json.contains("\"cells\": 20"));
        assert!(json.contains("\"wall_ms\": 2500.000"));
        assert!(json.contains("\"sim_cycles\": 1600000"));
        assert!(json.contains("\"cells_per_sec\": 10.000"));
        assert!(json.contains("\"cells_per_sec\": 14.000"));
        // Per-cell walls and the max/mean skew (1500 / 1000 = 1.5); a row
        // with no per-cell samples pins skew 0 and an empty array.
        assert!(json.contains("\"skew\": 1.500, \"cell_wall_ms\": [1500.000, 500.000]"));
        assert!(json.contains("\"skew\": 0.000, \"cell_wall_ms\": []"));
        // Balanced braces/brackets and no trailing comma before a closer.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
        assert!(!json.contains(",]") && !json.contains(",}"));
    }

    #[test]
    fn golden_excludes_wall_clock_fields() {
        let report = BenchReport {
            date: "2026-08-08".into(),
            transactions: 10,
            warmup: 4,
            seed: 24301,
            jobs: 2,
            repeat: 1,
            entries: vec![
                BenchEntry {
                    name: "fig6".into(),
                    wall_ms: 123.456,
                    cells: 12,
                    sim_cycles: 5_704_848,
                    cell_wall_ms: vec![10.0, 20.0],
                    runs_wall_ms: vec![123.456],
                },
                BenchEntry {
                    name: "table3".into(),
                    wall_ms: 0.043,
                    cells: 0,
                    sim_cycles: 0,
                    cell_wall_ms: vec![],
                    runs_wall_ms: vec![0.043],
                },
            ],
            against: None,
        };
        let golden = report.to_golden();
        assert!(golden.contains("\"sim_cycles\": 5704848"));
        assert!(golden.contains("\"total\": {\"cells\": 12, \"sim_cycles\": 5704848}"));
        // Nothing machine- or time-dependent may appear.
        assert!(!golden.contains("wall"));
        assert!(!golden.contains("date"));
        assert!(!golden.contains("jobs"));
        assert!(!golden.contains("cells_per_sec"));
        // Wall-clock changes — totals, per-cell samples, jobs, date — must
        // not move the golden bytes.
        let mut faster = report.clone();
        faster.entries[0].wall_ms = 1.0;
        faster.entries[0].cell_wall_ms = vec![0.5, 0.5];
        faster.jobs = 7;
        faster.date = "2031-01-01".into();
        assert_eq!(faster.to_golden(), golden);
    }

    #[test]
    fn experiment_row_schema_is_pinned() {
        // The exact serialized row shape, pinned so downstream BENCH_* JSON
        // consumers (and the CI golden cmp) never see a silent key change.
        // `recovery`-style rows carry real cell counts — never zero — so
        // `cells_per_sec` is a meaningful throughput. Three runs: the
        // median (12.5 ms) supplies the walls, the others the range.
        let report = BenchReport {
            date: "2026-08-08".into(),
            transactions: 400,
            warmup: 48,
            seed: 24301,
            jobs: 2,
            repeat: 3,
            entries: vec![BenchEntry::from_runs(
                "recovery".into(),
                3,
                444_000,
                vec![
                    (12.5, vec![2.0, 4.0]),
                    (10.0, vec![1.0, 3.0]),
                    (25.0, vec![5.0, 5.0]),
                ],
            )],
            against: None,
        };
        let json = report.to_json();
        assert!(json.contains("  \"jobs\": 2,\n  \"repeat\": 3,\n"));
        assert!(json.contains(
            "{\"name\": \"recovery\", \"wall_ms\": 12.500, \"cells\": 3, \
             \"sim_cycles\": 444000, \"cells_per_sec\": 240.000, \"cells_per_sec_min\": 120.000, \
             \"cells_per_sec_max\": 300.000, \"skew\": 1.333, \"cell_wall_ms\": [2.000, 4.000]}"
        ));
        assert!(json.contains(
            "  \"against\": null,\n  \"total\": {\"wall_ms\": 12.500, \"cells\": 3, \
             \"sim_cycles\": 444000, \"cells_per_sec\": 240.000, \"cells_per_sec_min\": 120.000, \
             \"cells_per_sec_max\": 300.000}"
        ));
        assert_eq!(parse_total(&json), Some((12.5, 3, 444_000)));
        assert!(report
            .to_golden()
            .contains("{\"name\": \"recovery\", \"cells\": 3, \"sim_cycles\": 444000}"));
        // With `--against`: the parent's median and range, the ratio of
        // median throughputs (the parent's median wall 20 over this
        // build's 12.5) and the pairs this build won (12.5 < 25 and
        // 10 < 20, not 25 < 15).
        let paired = BenchReport {
            against: Some(Against {
                revision: "abc1234-dirty".into(),
                parent_revision: "ce30c0d".into(),
                parent_runs_wall_ms: vec![25.0, 20.0, 15.0],
            }),
            ..report.clone()
        };
        let json = paired.to_json();
        assert_eq!(dolos_sim::json::validate(&json), Ok(()));
        assert!(json.contains(
            "  \"against\": {\"revision\": \"abc1234-dirty\", \"parent_revision\": \"ce30c0d\", \
             \"parent_cells_per_sec\": 150.000, \"parent_cells_per_sec_min\": 120.000, \
             \"parent_cells_per_sec_max\": 200.000, \"ratio\": 1.600, \"pairs_faster\": 2},\n  \"total\""
        ));
        assert_eq!(paired.to_golden(), report.to_golden());
    }

    #[test]
    fn parse_total_rejects_malformed_rows() {
        assert_eq!(parse_total(""), None);
        assert_eq!(
            parse_total("\"total\": {\"wall_ms\": x, \"cells\": 1}"),
            None
        );
        assert_eq!(
            parse_total("\"total\": {\"wall_ms\": 2.5, \"cells\": 1}"),
            None,
            "sim_cycles missing"
        );
    }

    #[test]
    fn repeated_runs_report_an_actual_median_run() {
        // Even count: the lower-middle wall (the faster of the middle two)
        // is reported, never an average of two runs.
        let e = BenchEntry::from_runs(
            "fig12".into(),
            10,
            1,
            vec![
                (40.0, vec![40.0]),
                (10.0, vec![10.0]),
                (30.0, vec![30.0]),
                (20.0, vec![20.0]),
            ],
        );
        assert_eq!(e.wall_ms, 20.0);
        assert_eq!(e.cell_wall_ms, vec![20.0]);
        assert_eq!(e.runs_wall_ms, vec![40.0, 10.0, 30.0, 20.0]);
        assert_eq!(e.cells_per_sec(), 500.0);
        assert_eq!(e.cells_per_sec_range(), (250.0, 1000.0));
    }

    #[test]
    fn zero_time_throughput_is_zero_not_nan() {
        let e = BenchEntry {
            name: "fig6".into(),
            wall_ms: 0.0,
            cells: 10,
            sim_cycles: 5,
            cell_wall_ms: vec![],
            runs_wall_ms: vec![0.0],
        };
        assert_eq!(e.cells_per_sec(), 0.0);
        assert_eq!(e.skew(), 0.0);
    }

    #[test]
    fn skew_is_max_over_mean_and_degenerate_cases_are_zero() {
        let mut e = BenchEntry {
            name: "fig12".into(),
            wall_ms: 60.0,
            cells: 3,
            sim_cycles: 9,
            cell_wall_ms: vec![10.0, 20.0, 30.0],
            runs_wall_ms: vec![60.0],
        };
        // max 30 over mean 20.
        assert!((e.skew() - 1.5).abs() < 1e-12);
        // Uniform cells: skew exactly 1.
        e.cell_wall_ms = vec![7.0; 4];
        assert!((e.skew() - 1.0).abs() < 1e-12);
        // All-zero samples (clock too coarse): 0, never NaN.
        e.cell_wall_ms = vec![0.0; 4];
        assert_eq!(e.skew(), 0.0);
    }
}
