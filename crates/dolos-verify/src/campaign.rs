//! Conformance campaigns: the differential sweep plus the metamorphic
//! invariants, rendered as a matrix and a JSON report.
//!
//! A campaign runs `traces` generated scenarios — each one replayed on all
//! six designs against the shared oracle — and, independently of any
//! scenario, probes the metamorphic invariants the paper's design space
//! implies:
//!
//! * **latency ordering** — the minimum critical-path persist latency on a
//!   fresh system must order Post ≤ Partial ≤ Full ≤ eager baseline (and
//!   the non-secure reference below them all);
//! * **WPQ capacity** — a same-cycle distinct-address burst must accept
//!   exactly `usable_wpq_entries()` writes before the first retry
//!   (16/13/10 for the Dolos variants at 16 physical entries);
//! * **security transparency** — enabling protection never changes data
//!   semantics; this is the differential sweep itself (every secure scheme
//!   is held to the same plaintext oracle as the non-secure reference).
//!
//! Determinism: scenario seeds are pre-derived, cells are claimed from
//! [`dolos_sim::pool`]'s shared index queue into index-addressed result
//! slots, and the merge is canonical — the report
//! (and its JSON) is byte-identical at any `--jobs` value, whichever worker
//! steals which cell. The first failing scenario is shrunk in its worker to
//! a minimal replayable reproducer.

use dolos_core::{ControllerConfig, ControllerKind, SecureMemorySystem};
use dolos_sim::rng::XorShift;
use dolos_sim::table::Table;
use dolos_sim::Cycle;

use crate::engine::{run_scenario, verify_schemes, ScenarioVerdict};
use crate::scenario::{shrink_with, Scenario, ScenarioConfig};

/// Campaign geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Master seed; every scenario seed derives from it.
    pub seed: u64,
    /// Scenarios to sweep (each runs all six designs).
    pub traces: usize,
    /// Crash rounds per scenario.
    pub rounds: usize,
    /// Maximum transactions per round.
    pub txns_per_round: usize,
    /// Data keyspace in lines.
    pub keyspace: u64,
    /// Whether final rounds may tamper with NVM while crashed.
    pub tamper: bool,
    /// NVM bank count every scheme runs with (power of two). The default
    /// `1` reproduces the single-queue campaign byte for byte; higher
    /// counts additionally schedule per-bank torn-dump tampers.
    pub banks: usize,
    /// Worker threads (0 = auto). Any value produces the identical report,
    /// byte for byte.
    pub jobs: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            traces: 256,
            rounds: 2,
            txns_per_round: 6,
            keyspace: 32,
            tamper: true,
            banks: 1,
            jobs: 1,
        }
    }
}

impl VerifyConfig {
    fn scenario_config(&self) -> ScenarioConfig {
        ScenarioConfig {
            rounds: self.rounds,
            txns_per_round: self.txns_per_round,
            keyspace: self.keyspace,
            tamper: self.tamper,
            banks: self.banks,
        }
    }
}

/// A minimal replayable reproducer for a failed obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureCase {
    /// The shrunk failing scenario, rendered (feed to `dolos-verify replay`).
    pub scenario: String,
    /// The violated obligation.
    pub message: String,
}

/// One scheme's aggregate over the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeSummary {
    /// Scheme name.
    pub scheme: &'static str,
    /// Scenarios in which this scheme met every obligation.
    pub scenarios_passed: usize,
    /// Scenarios in which it diverged from the oracle.
    pub scenarios_failed: usize,
    /// Tamper rounds ending in detection.
    pub tampers_detected: usize,
    /// Tamper rounds that went undetected but verifiably hit dead state.
    pub tampers_harmless: usize,
    /// Non-secure reference only: absorbed (recorded) corruptions.
    pub tampers_absorbed: usize,
    /// Acknowledged persists across all scenarios.
    pub commits: u64,
    /// Reads checked against the oracle.
    pub reads_checked: u64,
    /// Recovered-state lines checked against the oracle.
    pub lines_checked: u64,
    /// First divergence, shrunk to a minimal reproducer.
    pub first_failure: Option<FailureCase>,
}

/// One scheme's row of the metamorphic probe matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetamorphicRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Minimum critical-path persist latency on a fresh system (cycles).
    pub latency_min: u64,
    /// Writes accepted by a same-cycle burst before the first retry.
    pub capacity: usize,
    /// The configuration's claimed usable WPQ entries.
    pub usable: usize,
}

impl MetamorphicRow {
    /// Whether the burst-capacity probe satisfies this scheme's invariant.
    ///
    /// For ideal and the Dolos variants the probe must equal the usable
    /// queue exactly. The eager baseline is only bounded from below: it
    /// secures every write *before* the WPQ on the multi-thousand-cycle
    /// Ma-SU pipeline while accepted entries drain at device speed, so
    /// its queue never backs up in a burst — the paper's motivating
    /// observation.
    pub fn capacity_holds(&self) -> bool {
        if self.scheme == "pre-wpq-secure" {
            self.capacity >= self.usable
        } else {
            self.capacity == self.usable
        }
    }
}

/// The metamorphic invariant checks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetamorphicReport {
    /// Per-scheme probe results, in [`verify_schemes`] order.
    pub rows: Vec<MetamorphicRow>,
    /// Violated invariants (empty when all hold).
    pub violations: Vec<String>,
}

impl MetamorphicReport {
    /// Whether every invariant held.
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Full campaign results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The master seed.
    pub seed: u64,
    /// Scenarios swept.
    pub traces: usize,
    /// Per-scheme aggregates, in [`verify_schemes`] order.
    pub schemes: Vec<SchemeSummary>,
    /// Cross-scheme divergences (schemes disagreeing with each other), with
    /// minimal reproducers.
    pub cross_failures: Vec<FailureCase>,
    /// The metamorphic invariant checks.
    pub metamorphic: MetamorphicReport,
}

impl VerifyReport {
    /// Whether every scheme conformed, all schemes agreed, and every
    /// metamorphic invariant held.
    pub fn all_pass(&self) -> bool {
        self.cross_failures.is_empty()
            && self.metamorphic.pass()
            && self.schemes.iter().all(|s| s.scenarios_failed == 0)
    }

    /// Renders the conformance matrix.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            &format!(
                "conformance matrix (seed {}, {} traces)",
                self.seed, self.traces
            ),
            &[
                "scheme",
                "scenarios",
                "detected",
                "harmless",
                "absorbed",
                "commits",
                "reads",
                "lines",
                "verdict",
            ],
        );
        for s in &self.schemes {
            table.row(vec![
                s.scheme.to_string(),
                format!(
                    "{}/{}",
                    s.scenarios_passed,
                    s.scenarios_passed + s.scenarios_failed
                ),
                s.tampers_detected.to_string(),
                s.tampers_harmless.to_string(),
                s.tampers_absorbed.to_string(),
                s.commits.to_string(),
                s.reads_checked.to_string(),
                s.lines_checked.to_string(),
                if s.scenarios_failed == 0 {
                    "PASS"
                } else {
                    "FAIL"
                }
                .to_string(),
            ]);
        }
        table
    }

    /// Renders the metamorphic probe matrix.
    pub fn metamorphic_table(&self) -> Table {
        let mut table = Table::new(
            "metamorphic invariants",
            &[
                "scheme",
                "min persist (cyc)",
                "burst capacity",
                "usable wpq",
                "verdict",
            ],
        );
        for row in &self.metamorphic.rows {
            table.row(vec![
                row.scheme.to_string(),
                row.latency_min.to_string(),
                row.capacity.to_string(),
                row.usable.to_string(),
                if row.capacity_holds() { "PASS" } else { "FAIL" }.to_string(),
            ]);
        }
        table
    }

    /// Serializes the report as JSON (hand-rolled: the workspace is
    /// dependency-free by design).
    pub fn to_json(&self) -> String {
        use dolos_sim::json::escape;
        fn failure_json(f: &FailureCase) -> String {
            format!(
                "{{\"scenario\": \"{}\", \"message\": \"{}\"}}",
                escape(&f.scenario),
                escape(&f.message)
            )
        }
        let mut json = String::new();
        json.push_str(&format!(
            "{{\n  \"seed\": {},\n  \"traces\": {},\n  \"all_pass\": {},\n  \"schemes\": [\n",
            self.seed,
            self.traces,
            self.all_pass()
        ));
        for (i, s) in self.schemes.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"scheme\": \"{}\", \"pass\": {}, \"scenarios_passed\": {}, \
                 \"scenarios_failed\": {}, \"tampers_detected\": {}, \"tampers_harmless\": {}, \
                 \"tampers_absorbed\": {}, \"commits\": {}, \"reads_checked\": {}, \
                 \"lines_checked\": {}",
                escape(s.scheme),
                s.scenarios_failed == 0,
                s.scenarios_passed,
                s.scenarios_failed,
                s.tampers_detected,
                s.tampers_harmless,
                s.tampers_absorbed,
                s.commits,
                s.reads_checked,
                s.lines_checked,
            ));
            if let Some(f) = &s.first_failure {
                json.push_str(&format!(", \"failure\": {}", failure_json(f)));
            }
            json.push('}');
            if i + 1 < self.schemes.len() {
                json.push(',');
            }
            json.push('\n');
        }
        json.push_str("  ],\n  \"cross_failures\": [");
        for (i, f) in self.cross_failures.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&failure_json(f));
        }
        json.push_str("],\n  \"metamorphic\": {\n    \"rows\": [\n");
        for (i, row) in self.metamorphic.rows.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"scheme\": \"{}\", \"latency_min\": {}, \"capacity\": {}, \"usable\": {}}}",
                escape(row.scheme),
                row.latency_min,
                row.capacity,
                row.usable
            ));
            if i + 1 < self.metamorphic.rows.len() {
                json.push(',');
            }
            json.push('\n');
        }
        json.push_str("    ],\n    \"violations\": [");
        for (i, v) in self.metamorphic.violations.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!("\"{}\"", escape(v)));
        }
        json.push_str("]\n  }\n}\n");
        json
    }
}

/// Minimum critical-path persist latency observed on a fresh system.
fn fresh_latency_probe(config: &ControllerConfig) -> u64 {
    let mut sys = SecureMemorySystem::new(config.clone());
    sys.persist_write(Cycle::ZERO, 0, &[0x5A; 64]);
    sys.persist_latency_min().unwrap_or(0)
}

/// Writes accepted by a same-cycle distinct-address burst before the first
/// WPQ-insertion retry.
///
/// The burst is issued at cycle zero, but each accepted insert still
/// advances the drain engine to its own completion time — with Table-1
/// MAC latencies a 16-write Full burst spans 5 120 cycles, long enough
/// for the first drains to finish and free slots. The probe therefore
/// bends the latency model at both ends: the MAC latency collapses to
/// one cycle so the insert window shrinks to two cycles per write, and
/// the Ma-SU AES latency inflates so no accepted drain can complete
/// inside any burst. Both are needed — banking multiplies the burst
/// length (`8 × 16` Full writes span ~258 cycles even at MAC = 1, past
/// the counter-hit drain path), so collapsing the insert side alone lets
/// slots free mid-burst and overcounts. The Mi-SU front end XORs
/// pregenerated pads and never reads the AES latency, so insert timing
/// is untouched. The one exemption is the eager baseline: it runs the
/// full Ma-SU pipeline *before* the WPQ, so AES sits on its insert path
/// and the override would distort exactly what the row reports — it
/// keeps the stock AES latency, which is sound because its capacity
/// invariant is only a lower bound. Queue capacity itself is structural
/// ([`ControllerConfig::usable_wpq_entries`] never reads the latency
/// model), so the overrides do not perturb what is measured.
///
/// Public so capacity pins elsewhere (the root `wpq_capacity` suite sweeps
/// it over bank counts) reuse this probe instead of duplicating it. The
/// burst bound scales with [`ControllerConfig::total_physical_wpq_entries`],
/// so banked configurations saturate every shard: the probe's distinct
/// line addresses stripe across all banks and the count converges to
/// `banks ×` the per-bank usable depth.
pub fn capacity_probe(config: &ControllerConfig) -> usize {
    let mut probe = config.clone().with_mac_latency(1);
    if !matches!(probe.kind, ControllerKind::PreWpqSecure) {
        probe = probe.with_aes_latency(1 << 30);
    }
    let mut sys = SecureMemorySystem::new(probe);
    let mut accepted = 0;
    for i in 0..(config.total_physical_wpq_entries() as u64 * 4) {
        sys.persist_write(Cycle::ZERO, i * 64, &[0xA5; 64]);
        if sys.retries() > 0 {
            break;
        }
        accepted += 1;
    }
    accepted
}

/// Runs the metamorphic probes over every scheme.
pub fn run_metamorphic() -> MetamorphicReport {
    let schemes = verify_schemes();
    let rows: Vec<MetamorphicRow> = schemes
        .iter()
        .map(|config| MetamorphicRow {
            scheme: config.kind.name(),
            latency_min: fresh_latency_probe(config),
            capacity: capacity_probe(config),
            usable: config.usable_wpq_entries(),
        })
        .collect();
    let mut violations = Vec::new();
    let get = |name: &str| rows.iter().find(|r| r.scheme == name);
    // Latency ordering: ideal ≤ post ≤ partial ≤ full ≤ baseline.
    let order = [
        "ideal",
        "dolos-post",
        "dolos-partial",
        "dolos-full",
        "pre-wpq-secure",
    ];
    for pair in order.windows(2) {
        if let (Some(a), Some(b)) = (get(pair[0]), get(pair[1])) {
            if a.latency_min > b.latency_min {
                violations.push(format!(
                    "latency ordering violated: {} ({} cyc) > {} ({} cyc)",
                    a.scheme, a.latency_min, b.scheme, b.latency_min
                ));
            }
        }
    }
    // Capacity: the behavioral probe must match the configured usable queue
    // (16/13/10 for the Dolos variants, 16 for ideal), with the eager
    // baseline only bounded from below — see
    // [`MetamorphicRow::capacity_holds`] for the rationale.
    for row in &rows {
        if !row.capacity_holds() {
            violations.push(format!(
                "{} burst capacity {} violates usable wpq entries {}",
                row.scheme, row.capacity, row.usable
            ));
        }
    }
    MetamorphicReport { rows, violations }
}

/// The outcome of one scenario cell, carrying everything the merge needs.
struct CellOutcome {
    verdict: ScenarioVerdict,
    /// Already-shrunk reproducer when the scenario failed (shrinking in the
    /// worker keeps the expensive part parallel).
    failure: Option<FailureCase>,
}

fn run_cell(scenario_config: &ScenarioConfig, seed: u64) -> CellOutcome {
    let scenario = Scenario::generate(seed, scenario_config);
    let verdict = run_scenario(&scenario);
    let failure = if verdict.pass() {
        None
    } else {
        let minimal = shrink_with(&scenario, |s| !run_scenario(s).pass());
        let message = run_scenario(&minimal)
            .first_failure()
            .unwrap_or_else(|| "unreproducible divergence".to_string());
        Some(FailureCase {
            scenario: minimal.to_string(),
            message,
        })
    };
    CellOutcome { verdict, failure }
}

/// Runs the full campaign. Deterministic: the same config always produces
/// the same report, byte for byte, at any `jobs` value.
pub fn run_verify(config: &VerifyConfig) -> VerifyReport {
    let scenario_config = config.scenario_config();
    let mut seeder = XorShift::new(config.seed ^ 0xD1FF_CA05);
    let seeds: Vec<u64> = (0..config.traces).map(|_| seeder.next_u64()).collect();

    let outcomes = dolos_sim::pool::run_indexed(config.jobs, &seeds, |_, &seed| {
        run_cell(&scenario_config, seed)
    });

    let schemes = verify_schemes();
    let mut summaries: Vec<SchemeSummary> = schemes
        .iter()
        .map(|c| SchemeSummary {
            scheme: c.kind.name(),
            scenarios_passed: 0,
            scenarios_failed: 0,
            tampers_detected: 0,
            tampers_harmless: 0,
            tampers_absorbed: 0,
            commits: 0,
            reads_checked: 0,
            lines_checked: 0,
            first_failure: None,
        })
        .collect();
    let mut cross_failures = Vec::new();

    for outcome in &outcomes {
        for (summary, obs) in summaries.iter_mut().zip(&outcome.verdict.observations) {
            if obs.pass() {
                summary.scenarios_passed += 1;
            } else {
                summary.scenarios_failed += 1;
                if summary.first_failure.is_none() {
                    summary.first_failure = outcome.failure.clone();
                }
            }
            summary.tampers_detected += usize::from(obs.tamper_detected);
            summary.tampers_harmless += usize::from(obs.tamper_harmless);
            summary.tampers_absorbed += usize::from(obs.tamper_absorbed);
            summary.commits += obs.commits;
            summary.reads_checked += obs.reads_checked;
            summary.lines_checked += obs.lines_checked;
        }
        if !outcome.verdict.cross_failures.is_empty() {
            if let Some(failure) = &outcome.failure {
                cross_failures.push(failure.clone());
            }
        }
    }

    VerifyReport {
        seed: config.seed,
        traces: config.traces,
        schemes: summaries,
        cross_failures,
        metamorphic: run_metamorphic(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> VerifyConfig {
        VerifyConfig {
            seed: 42,
            traces: 6,
            rounds: 2,
            txns_per_round: 4,
            keyspace: 24,
            tamper: true,
            banks: 1,
            jobs: 1,
        }
    }

    #[test]
    fn small_campaign_passes_everywhere() {
        let report = run_verify(&small());
        assert!(report.all_pass(), "{:?}", report);
        assert_eq!(report.schemes.len(), 6);
        for s in &report.schemes {
            assert_eq!(s.scenarios_failed, 0, "{}: {:?}", s.scheme, s.first_failure);
            assert!(s.commits > 0);
        }
    }

    #[test]
    fn campaigns_are_byte_for_byte_reproducible() {
        let a = run_verify(&small());
        let b = run_verify(&small());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn report_is_identical_at_any_job_count() {
        let serial = run_verify(&small());
        let serial_json = serial.to_json();
        for jobs in [0usize, 2, 3, 16] {
            let parallel = run_verify(&VerifyConfig { jobs, ..small() });
            assert_eq!(serial, parallel, "jobs={jobs} changed the report");
            assert_eq!(
                serial_json,
                parallel.to_json(),
                "jobs={jobs} changed the JSON bytes"
            );
        }
    }

    #[test]
    fn metamorphic_invariants_hold_and_pin_the_paper_numbers() {
        let report = run_metamorphic();
        assert!(report.pass(), "{:?}", report.violations);
        let get = |name: &str| {
            report
                .rows
                .iter()
                .find(|r| r.scheme == name)
                .unwrap_or_else(|| panic!("missing row {name}"))
        };
        assert_eq!(get("dolos-full").capacity, 16);
        assert_eq!(get("dolos-partial").capacity, 13);
        assert_eq!(get("dolos-post").capacity, 10);
        assert_eq!(get("ideal").capacity, 16);
        assert_eq!(get("deferred").capacity, 16);
        // The eager baseline's queue never backs up in a burst (security
        // serializes before the WPQ); the probe only bounds it from below.
        assert!(get("pre-wpq-secure").capacity >= 16);
        assert_eq!(get("dolos-full").latency_min, 320);
        assert_eq!(get("dolos-partial").latency_min, 160);
        assert_eq!(get("dolos-post").latency_min, 0);
        assert_eq!(get("ideal").latency_min, 0);
        assert!(get("pre-wpq-secure").latency_min >= 2890);
    }

    #[test]
    fn json_is_well_formed_and_spot_checkable() {
        let json = run_verify(&VerifyConfig {
            traces: 2,
            ..small()
        })
        .to_json();
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains("\"scheme\": \"dolos-partial\""));
        assert!(json.contains("\"metamorphic\""));
        assert!(json.ends_with("}\n"));
        assert_eq!(dolos_sim::json::validate(&json), Ok(()));
    }

    #[test]
    fn json_escapes_hostile_failure_text() {
        let report = VerifyReport {
            seed: 7,
            traces: 1,
            schemes: vec![SchemeSummary {
                scheme: "dolos-post",
                scenarios_passed: 0,
                scenarios_failed: 1,
                tampers_detected: 0,
                tampers_harmless: 0,
                tampers_absorbed: 0,
                commits: 3,
                reads_checked: 1,
                lines_checked: 9,
                first_failure: Some(FailureCase {
                    scenario: "seed=1;keys=8;[t1]".to_string(),
                    message: "mismatch \"x\" \\ \nline2\ttab\u{1}end".to_string(),
                }),
            }],
            cross_failures: vec![FailureCase {
                scenario: "seed=2;keys=8;[t1]".to_string(),
                message: "cut \"here\"\r".to_string(),
            }],
            metamorphic: MetamorphicReport::default(),
        };
        let json = report.to_json();
        assert_eq!(dolos_sim::json::validate(&json), Ok(()));
        assert!(json.contains("\\n"));
        assert!(json.contains("\\t"));
        assert!(json.contains("\\r"));
        assert!(json.contains("\\u0001"));
    }
}
