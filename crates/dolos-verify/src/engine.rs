//! The differential engine: one scenario, every scheme, one shared oracle.
//!
//! A scenario's operation stream is precomputed once — addresses from the
//! [`dolos_whisper::gen`] transaction generator, payloads baked from a
//! seeded stream — and then replayed against each scheme. Alongside every
//! replay the engine maintains a pure reference model (a plaintext map of
//! acknowledged writes): a persist call that returns `Ok` commits into the
//! model; a call interrupted at `wpq-insert` committed in hardware (the
//! ADR domain accepted the line) and commits too; a call interrupted at
//! `persist-start` or `misu-protect` never reached the persistence domain
//! and is lost. A call interrupted at `masu-drain` is the one *in-flight*
//! write: the drain engine fires before or after that write's WPQ insert,
//! so recovery may return its old or its new value, and whichever it
//! returns is folded into the model. Every read during the stream and
//! every line of post-crash recovered state is checked against the model,
//! so
//!
//! * **semantic conformance** is "zero divergences against the model", and
//! * **cross-scheme identity** reduces to every scheme acknowledging the
//!   same persist prefix — checked by comparing the rendered fault-firing
//!   positions and commit counts across schemes whenever every cut is
//!   scheme-independent.
//!
//! Tamper rounds are terminal and carry the detection obligations: a
//! secure scheme must detect the corruption or provably land in
//! un-diverged state; the non-secure reference has no detection duty —
//! absorbed corruption is recorded, not failed.

use std::collections::{BTreeMap, BTreeSet};

use dolos_core::inject::{FaultPlan, InjectionPoint};
use dolos_core::{ControllerConfig, ControllerKind, SecureMemorySystem, SecurityError};
use dolos_nvm::{Line, LineAddr, NvmDevice};
use dolos_secmem::layout::{MetaRegion, MetadataLayout};
use dolos_sim::rng::XorShift;
use dolos_sim::Cycle;
use dolos_whisper::gen::{self, TraceGenConfig};
use dolos_whisper::trace::TraceOp;

use crate::scenario::{is_scheme_independent, Scenario, TamperSpec, VerifyRound};

/// The six designs the conformance matrix sweeps, in report order
/// ([`ControllerKind::ALL`]): the non-secure reference, the infeasible
/// deferred-security machine, the eager-BMT baseline, then the three Mi-SU
/// design options.
pub fn verify_schemes() -> [ControllerConfig; 6] {
    ControllerKind::ALL.map(ControllerConfig::from)
}

/// One precomputed operation of the engine stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineOp {
    /// Advance simulated time.
    Advance(u64),
    /// Persist calls with baked payloads: one fence batch, or a single
    /// background writeback (same persist path).
    Batch(Vec<(u64, Line)>),
    /// A demand read, checked against the model.
    Read(u64),
}

fn round_seed(seed: u64, round: usize) -> u64 {
    seed ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn bake_line(rng: &mut XorShift) -> Line {
    let mut data = [0u8; 64];
    for chunk in data.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    data
}

/// Precomputes one round's operation stream: generator addresses plus a
/// deterministic payload per persist call. Every scheme replays exactly
/// this vector.
pub fn build_round_ops(scenario: &Scenario, round: usize, txns: usize) -> Vec<EngineOp> {
    let seed = round_seed(scenario.seed, round);
    let gen_config = TraceGenConfig {
        txns,
        keyspace: scenario.keyspace,
        ..TraceGenConfig::default()
    };
    let trace = gen::generate(seed, &gen_config);
    let mut pay = XorShift::new(seed ^ 0x0BAD_F00D);
    let mut bake = |addr: u64| (addr, bake_line(&mut pay));
    trace
        .iter()
        .map(|op| match op {
            TraceOp::Work(n) | TraceOp::Delay(n) => EngineOp::Advance(*n),
            TraceOp::PersistBatch(lines) => {
                EngineOp::Batch(lines.iter().map(|&a| bake(a)).collect())
            }
            TraceOp::Writeback(addr) => EngineOp::Batch(vec![bake(*addr)]),
            TraceOp::Read(addr) => EngineOp::Read(*addr),
        })
        .collect()
}

/// Everything one scheme's replay of a scenario observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemeObservation {
    /// Scheme name.
    pub scheme: &'static str,
    /// Divergences against the shared model (empty on a clean run).
    pub divergences: Vec<String>,
    /// Per-round fault firing, rendered as `point#persist-index` or `-`.
    /// Equal across schemes iff every scheme acknowledged the same persist
    /// prefix.
    pub fired: Vec<String>,
    /// Acknowledged (committed) persist calls.
    pub commits: u64,
    /// Reads checked against the model during the streams.
    pub reads_checked: u64,
    /// Recovered-state lines checked against the model after crashes.
    pub lines_checked: u64,
    /// A scheduled nested crash fired during recovery replay and the
    /// restarted boot came up.
    pub nested_fired: bool,
    /// `masu-drain` cuts whose in-flight write recovered its old value.
    pub inflight_old: u64,
    /// `masu-drain` cuts whose in-flight write recovered its new value.
    pub inflight_new: u64,
    /// A tamper round ended in detection (security property fired).
    pub tamper_detected: bool,
    /// A tamper was applied, went undetected, and the state still matched
    /// the model (corruption hit dead state).
    pub tamper_harmless: bool,
    /// Non-secure reference only: undetected corruption diverged the data
    /// and was absorbed. Recorded, never a failure for the reference.
    pub tamper_absorbed: bool,
}

impl SchemeObservation {
    /// Whether this scheme met every obligation.
    pub fn pass(&self) -> bool {
        self.divergences.is_empty()
    }
}

const ZERO_LINE: Line = [0u8; 64];

fn render_line_prefix(line: &Line) -> String {
    format!(
        "{:02x}{:02x}{:02x}{:02x}..",
        line[0], line[1], line[2], line[3]
    )
}

/// Applies a tamper while the system is crashed. Returns `false` if the
/// spec's target had no resident lines to corrupt.
///
/// `per_bank_slots` is the usable WPQ depth of one bank
/// ([`ControllerConfig::usable_wpq_entries`]): global dump slot `s` belongs
/// to bank `s / per_bank_slots`, which is how [`TamperSpec::TornBank`]
/// selects its victim shard.
fn apply_tamper(
    nvm: &mut NvmDevice,
    layout: &MetadataLayout,
    spec: TamperSpec,
    dump_snapshot: &[(LineAddr, Line)],
    per_bank_slots: usize,
) -> bool {
    let (drop, victim_bank) = match spec {
        TamperSpec::FlipBit { region, pick, bit } => {
            let (start, end) = layout.region_range(region);
            let resident = nvm.resident_lines_in(start, end);
            if resident.is_empty() {
                return false;
            }
            let addr = resident[(pick % resident.len() as u64) as usize];
            nvm.flip_bit(addr, bit);
            return true;
        }
        TamperSpec::TornDump { drop } => (drop, None),
        TamperSpec::TornBank { bank, drop } => (drop, Some(bank as u64)),
    };
    // A whole-dump tear reverts the tail of the entire burst; a per-bank
    // tear only the victim shard's payload slots (table lines and the other
    // shards persisted on their own reserve bursts).
    let (start, _) = layout.region_range(MetaRegion::WpqDump);
    let torn: Vec<(LineAddr, Line)> = dump_snapshot
        .iter()
        .copied()
        .filter(|(addr, _)| {
            victim_bank.is_none_or(|bank| {
                per_bank_slots > 0 && (addr.as_u64() - start) / 64 / per_bank_slots as u64 == bank
            })
        })
        .collect();
    if drop == 0 || torn.is_empty() {
        return false;
    }
    let n = drop.min(torn.len());
    // The last `n` lines of the burst never left the buffer: they still
    // hold the previous epoch's contents.
    // audit:allow(persistence-domain) -- torn-dump injection models reserve power dying mid-burst, a loss the WPQ cannot see, so it must bypass it
    nvm.restore_lines(&torn[torn.len() - n..]);
    true
}

/// Replays `scenario` on one scheme, checking every obligation against the
/// shared model. Deterministic: equal inputs give equal observations.
pub fn run_scheme(config: &ControllerConfig, scenario: &Scenario) -> SchemeObservation {
    replay_scheme(config, scenario, |index, round| {
        build_round_ops(scenario, index, round.txns)
    })
}

/// The one replay loop: [`run_scheme`] with each round's operation stream
/// taken from `round_ops(index, round)`. The [`mod@crate::enumerate`] checker
/// feeds it hand-built streams.
pub(crate) fn replay_scheme(
    config: &ControllerConfig,
    scenario: &Scenario,
    mut round_ops: impl FnMut(usize, &VerifyRound) -> Vec<EngineOp>,
) -> SchemeObservation {
    // The scenario's bank axis applies uniformly: every scheme replays the
    // stream on the same NVM geometry (banks=1 leaves the config untouched).
    let config = config.clone().with_banks(scenario.banks.max(1));
    let secure = !matches!(config.kind, ControllerKind::IdealNonSecure);
    let mut sys = SecureMemorySystem::new(config.clone());
    let layout = *sys.layout();
    let mut model: BTreeMap<u64, Line> = BTreeMap::new();
    let mut obs = SchemeObservation {
        scheme: config.kind.name(),
        ..SchemeObservation::default()
    };

    for (index, round) in scenario.rounds.iter().enumerate() {
        let ops = round_ops(index, round);

        // Stale-epoch snapshot for a scheduled torn dump, taken before this
        // round's crash overwrites the region.
        let dump_snapshot = if matches!(
            round.tamper,
            Some(TamperSpec::TornDump { .. } | TamperSpec::TornBank { .. })
        ) {
            let (start, end) = layout.region_range(MetaRegion::WpqDump);
            sys.nvm().snapshot_range(start, end)
        } else {
            Vec::new()
        };

        if let Some((point, nth)) = round.fault {
            sys.arm_fault(FaultPlan::new(point, nth));
        }
        let mut t = Cycle::ZERO;
        let mut persist_index: u64 = 0;
        let mut fired: Option<(InjectionPoint, u64)> = None;
        // The write a `masu-drain` cut left in flight: (address, new value).
        let mut inflight: Option<(u64, Line)> = None;

        // The stream stops when the armed fault fires or a persist call
        // fails outright.
        'stream: for op in &ops {
            match op {
                EngineOp::Advance(n) => t += *n,
                EngineOp::Batch(lines) => {
                    for &(addr, payload) in lines {
                        let point = match sys.try_persist_write(t, addr, &payload) {
                            Ok(done) => {
                                t = done;
                                model.insert(addr, payload);
                                obs.commits += 1;
                                persist_index += 1;
                                continue;
                            }
                            Err(SecurityError::PowerInterrupted { point }) => point,
                            Err(e) => {
                                obs.divergences
                                    .push(format!("round {index}: persist failed: {e}"));
                                break 'stream;
                            }
                        };
                        match point {
                            // The insert-point fault fires after the ADR
                            // domain accepted the line: that persist is
                            // committed.
                            InjectionPoint::WpqInsert => {
                                model.insert(addr, payload);
                                obs.commits += 1;
                            }
                            // The drain engine fired before or after this
                            // write's insert: old or new, decided at recovery.
                            InjectionPoint::MasuDrain => inflight = Some((addr, payload)),
                            // persist-start / misu-protect: the line never
                            // reached the persistence domain and is lost.
                            _ => {}
                        }
                        fired = Some((point, persist_index));
                        break 'stream;
                    }
                }
                EngineOp::Read(addr) => {
                    let (done, data) = sys.read(t, *addr);
                    t = done;
                    obs.reads_checked += 1;
                    let expect = model.get(addr).copied().unwrap_or(ZERO_LINE);
                    if data != expect {
                        obs.divergences.push(format!(
                            "round {index}: read {addr:#x} returned {} want {}",
                            render_line_prefix(&data),
                            render_line_prefix(&expect)
                        ));
                    }
                }
            }
        }
        sys.disarm_fault();
        if !obs.divergences.is_empty() {
            return obs;
        }
        obs.fired.push(match fired {
            Some((point, i)) => format!("{}#{i}", point.name()),
            None => "-".to_string(),
        });

        // A `masu-drain` cut that fired inside a read's drain step surfaces
        // here: the quiesce then crashes instead of draining.
        if round.quiesce && !sys.is_crashed() {
            if let Ok(done) = sys.try_quiesce(t) {
                t = done;
            }
        }
        if !sys.is_crashed() {
            sys.crash(t);
        }

        // --- adversarial window ---
        let tampered = round.tamper.is_some_and(|spec| {
            let per_bank_slots = config.usable_wpq_entries();
            apply_tamper(sys.nvm_mut(), &layout, spec, &dump_snapshot, per_bank_slots)
        });

        // --- boot, retrying once on a scheduled nested crash ---
        if let Some(nth) = round.nested {
            sys.arm_fault(FaultPlan::new(InjectionPoint::RecoveryReplay, nth));
        }
        let mut recovery = sys.recover();
        if matches!(
            recovery,
            Err(SecurityError::PowerInterrupted {
                point: InjectionPoint::RecoveryReplay,
            })
        ) {
            obs.nested_fired = true;
            recovery = sys.recover();
        }
        sys.disarm_fault();

        let detected = match recovery {
            Ok(_) => sys.audit().err(),
            Err(e) => Some(e),
        };
        if let Some(error) = detected {
            if tampered {
                obs.tamper_detected = true;
                return obs; // terminal: the machine refuses to come up
            }
            obs.divergences
                .push(format!("round {index}: spurious detection: {error}"));
            return obs;
        }

        // --- recovered state vs the model, line by line: every modelled
        // line plus every line the round's stream names, so a lost first
        // write to a fresh line must read back as zero ---
        let mut lines: BTreeSet<u64> = model.keys().copied().collect();
        for op in &ops {
            match op {
                EngineOp::Batch(batch) => lines.extend(batch.iter().map(|&(addr, _)| addr)),
                EngineOp::Read(addr) => lines.extend([*addr]),
                EngineOp::Advance(_) => {}
            }
        }
        let mut diverged = false;
        for addr in lines {
            let old = model.get(&addr).copied().unwrap_or(ZERO_LINE);
            let (_, data) = sys.read(Cycle::ZERO, addr);
            obs.lines_checked += 1;
            // The in-flight write may recover its old or its new value.
            let new = inflight.and_then(|(a, new)| (a == addr).then_some(new));
            if new == Some(data) {
                obs.inflight_new += 1;
                model.insert(addr, data);
                continue;
            }
            if data == old {
                obs.inflight_old += u64::from(new.is_some());
                continue;
            }
            let want = new.unwrap_or(old);
            diverged = true;
            // The non-secure reference absorbs tampering without failing.
            if secure || !tampered {
                obs.divergences.push(format!(
                    "round {index}: recovered {addr:#x} holds {} want {}{}",
                    render_line_prefix(&data),
                    render_line_prefix(&want),
                    if tampered { " (silent corruption)" } else { "" }
                ));
            }
        }
        if !obs.divergences.is_empty() {
            return obs;
        }
        if tampered {
            obs.tamper_absorbed = diverged;
            obs.tamper_harmless = !diverged;
            return obs; // tamper rounds are terminal
        }
    }
    obs
}

/// Verdict of one scenario across all schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioVerdict {
    /// The scenario, rendered (replayable).
    pub scenario: String,
    /// Per-scheme observations, in [`verify_schemes`] order.
    pub observations: Vec<SchemeObservation>,
    /// Cross-scheme divergences (fault cuts or commit counts that differ
    /// between schemes). Never populated for a scenario holding a
    /// scheme-dependent cut: its schemes legitimately disagree.
    pub cross_failures: Vec<String>,
}

impl ScenarioVerdict {
    /// Whether every scheme passed and all schemes agreed.
    pub fn pass(&self) -> bool {
        self.cross_failures.is_empty() && self.observations.iter().all(|o| o.pass())
    }

    /// The first failure message, if any.
    pub fn first_failure(&self) -> Option<String> {
        for obs in &self.observations {
            if let Some(d) = obs.divergences.first() {
                return Some(format!("{}: {d}", obs.scheme));
            }
        }
        self.cross_failures.first().cloned()
    }
}

/// Runs one scenario through every scheme and cross-checks the outcomes
/// (the cross-check only when every cut is scheme-independent).
pub fn run_scenario(scenario: &Scenario) -> ScenarioVerdict {
    let schemes = verify_schemes();
    let observations: Vec<SchemeObservation> = schemes
        .iter()
        .map(|config| run_scheme(config, scenario))
        .collect();
    let mut cross_failures = Vec::new();
    let comparable = scenario.rounds.iter().all(|r| {
        r.fault
            .is_none_or(|(point, _)| is_scheme_independent(point))
    });
    let reference = &observations[0];
    let compared = if comparable { &observations[1..] } else { &[] };
    for obs in compared {
        // A detected tamper ends the run before its round's state checks,
        // so commit totals are only comparable when both runs completed
        // the same rounds; the fired cut positions are always comparable
        // over the rounds both executed.
        let rounds = obs.fired.len().min(reference.fired.len());
        if obs.fired[..rounds] != reference.fired[..rounds] {
            cross_failures.push(format!(
                "{} cut at [{}] but {} cut at [{}]",
                reference.scheme,
                reference.fired[..rounds].join(","),
                obs.scheme,
                obs.fired[..rounds].join(",")
            ));
        }
        if obs.fired.len() == reference.fired.len()
            && !obs.tamper_detected
            && !reference.tamper_detected
            && obs.commits != reference.commits
        {
            cross_failures.push(format!(
                "{} acknowledged {} persists but {} acknowledged {}",
                reference.scheme, reference.commits, obs.scheme, obs.commits
            ));
        }
    }
    ScenarioVerdict {
        scenario: scenario.to_string(),
        observations,
        cross_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    #[test]
    fn clean_scenarios_pass_on_every_scheme() {
        let config = ScenarioConfig {
            tamper: false,
            ..ScenarioConfig::default()
        };
        for seed in 0..8 {
            let scenario = Scenario::generate(seed, &config);
            let verdict = run_scenario(&scenario);
            assert!(
                verdict.pass(),
                "{}: {:?}",
                verdict.scenario,
                verdict.first_failure()
            );
            for obs in &verdict.observations {
                assert!(obs.commits > 0, "{}", obs.scheme);
                assert!(obs.lines_checked > 0, "{}", obs.scheme);
            }
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let scenario = Scenario::generate(5, &ScenarioConfig::default());
        assert_eq!(run_scenario(&scenario), run_scenario(&scenario));
    }

    #[test]
    fn schemes_share_one_operation_stream() {
        let scenario = Scenario::generate(1, &ScenarioConfig::default());
        let a = build_round_ops(&scenario, 0, scenario.rounds[0].txns);
        let b = build_round_ops(&scenario, 0, scenario.rounds[0].txns);
        assert_eq!(a, b);
        assert!(a.iter().any(|op| matches!(op, EngineOp::Batch(_))));
    }

    #[test]
    fn persist_start_cut_loses_the_interrupted_write() {
        // Pin the cut semantics: a fault at persist-start#0 means zero
        // commits in that round, wpq-insert#0 means exactly one.
        for (point, expect) in [
            (InjectionPoint::PersistStart, 0),
            (InjectionPoint::WpqInsert, 1),
        ] {
            let scenario = Scenario {
                seed: 77,
                keyspace: 16,
                banks: 1,
                rounds: vec![VerifyRound {
                    txns: 3,
                    fault: Some((point, 0)),
                    ..VerifyRound::default()
                }],
            };
            let verdict = run_scenario(&scenario);
            assert!(verdict.pass(), "{:?}", verdict.first_failure());
            for obs in &verdict.observations {
                assert_eq!(obs.commits, expect, "{} at {}", obs.scheme, point.name());
                // The lost write's line is still checked after recovery:
                // it must read back zero, not the interrupted payload.
                assert!(obs.lines_checked > 0, "{}", obs.scheme);
                assert_eq!(obs.fired, vec![format!("{}#0", point.name())]);
            }
        }
    }

    #[test]
    fn conformance_holds_on_both_bank_axes() {
        // The acknowledged-write oracle and the cross-scheme cut-position
        // identity are geometry-independent claims: they must hold whether
        // the WPQ is one queue or four shards. Same seeds, both axes.
        for banks in [1, 4] {
            let config = ScenarioConfig {
                tamper: false,
                banks,
                ..ScenarioConfig::default()
            };
            for seed in 0..6 {
                let scenario = Scenario::generate(seed, &config);
                assert_eq!(scenario.banks, banks);
                let verdict = run_scenario(&scenario);
                assert!(
                    verdict.pass(),
                    "banks={banks} {}: {:?}",
                    verdict.scenario,
                    verdict.first_failure()
                );
                for obs in &verdict.observations {
                    assert!(obs.commits > 0, "banks={banks} {}", obs.scheme);
                }
            }
        }
    }

    #[test]
    fn bank_axis_preserves_commit_counts_per_seed() {
        // Banking changes *when* drains retire, never *which* persists are
        // acknowledged: with no mid-stream cut, a seed's commit total is
        // identical at banks=1 and banks=4 for every scheme.
        let base = ScenarioConfig {
            tamper: false,
            ..ScenarioConfig::default()
        };
        for seed in 0..4 {
            let single = run_scenario(&Scenario::generate(seed, &base));
            let banked = run_scenario(&Scenario::generate(
                seed,
                &ScenarioConfig { banks: 4, ..base },
            ));
            assert!(single.pass() && banked.pass(), "seed {seed}");
            for (a, b) in single.observations.iter().zip(&banked.observations) {
                assert_eq!(a.scheme, b.scheme);
                assert_eq!(a.commits, b.commits, "seed {seed} {}", a.scheme);
                assert_eq!(a.fired, b.fired, "seed {seed} {}", a.scheme);
            }
        }
    }

    #[test]
    fn torn_bank_tamper_is_detected_by_every_misu_scheme() {
        // Round 0 crashes with a loaded queue, so every Mi-SU scheme dumps
        // a first-epoch image; round 1 crashes again and the tamper rewinds
        // bank 1's entire shard to that stale image. The victim slots fail
        // MAC/root verification on every dolos scheme; the schemes without
        // a dump region have nothing to tear and skip the tamper.
        let cut = VerifyRound {
            txns: 6,
            fault: Some((InjectionPoint::WpqInsert, 7)),
            ..VerifyRound::default()
        };
        let scenario = Scenario {
            seed: 3,
            keyspace: 16,
            banks: 4,
            rounds: vec![
                cut.clone(),
                VerifyRound {
                    tamper: Some(TamperSpec::TornBank { bank: 1, drop: 13 }),
                    ..cut
                },
            ],
        };
        let verdict = run_scenario(&scenario);
        assert!(verdict.pass(), "{:?}", verdict.first_failure());
        for obs in &verdict.observations {
            if obs.scheme.starts_with("dolos-") {
                assert!(
                    obs.tamper_detected,
                    "{}: expected torn-bank detection, got {obs:?}",
                    obs.scheme
                );
            } else {
                assert!(
                    !obs.tamper_detected && !obs.tamper_absorbed,
                    "{}: {obs:?}",
                    obs.scheme
                );
            }
        }
    }

    #[test]
    fn dump_tamper_is_detected_by_every_misu_scheme() {
        // Cut at a WPQ insert so the queue is guaranteed non-empty at the
        // crash. Only the Mi-SU designs materialise a WpqDump region
        // (`crash()` replays ideal/pre-wpq-secure entries in place), so the
        // flip must be *detected* by every dolos-* scheme and *skipped* —
        // no resident line to corrupt — by ideal and the eager baseline.
        let scenario = Scenario {
            seed: 3,
            keyspace: 16,
            banks: 1,
            rounds: vec![VerifyRound {
                txns: 4,
                fault: Some((InjectionPoint::WpqInsert, 2)),
                tamper: Some(TamperSpec::FlipBit {
                    region: MetaRegion::WpqDump,
                    pick: 0,
                    bit: 9,
                }),
                ..VerifyRound::default()
            }],
        };
        let verdict = run_scenario(&scenario);
        assert!(verdict.pass(), "{:?}", verdict.first_failure());
        for obs in &verdict.observations {
            if obs.scheme.starts_with("dolos-") {
                assert!(
                    obs.tamper_detected,
                    "{}: expected dump tamper detection, got {obs:?}",
                    obs.scheme
                );
            } else {
                assert!(
                    !obs.tamper_detected && !obs.tamper_harmless && !obs.tamper_absorbed,
                    "{}: expected skipped tamper (no dump region), got {obs:?}",
                    obs.scheme
                );
            }
        }
    }
}
