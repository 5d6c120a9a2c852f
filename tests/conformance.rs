//! Cross-scheme conformance: the dolos-verify differential harness run as
//! an integration suite over the real workspace stack.
//!
//! These tests pin the three end-to-end obligations of the verify
//! subsystem: a seeded campaign agrees across every scheme, reports are
//! byte-identical at any parallelism, and a deliberately-tampered run is
//! caught and shrunk to a minimal replayable reproducer.

use dolos_verify::{
    run_scenario, run_verify, shrink_with, Scenario, ScenarioConfig, TamperSpec, VerifyConfig,
};

fn smoke_config() -> VerifyConfig {
    VerifyConfig {
        seed: 7,
        traces: 32,
        jobs: 1,
        ..VerifyConfig::default()
    }
}

#[test]
fn campaign_agrees_across_all_six_schemes() {
    let report = run_verify(&smoke_config());
    assert!(
        report.all_pass(),
        "cross={:?} metamorphic={:?} failures={:?}",
        report.cross_failures,
        report.metamorphic.violations,
        report
            .schemes
            .iter()
            .filter_map(|s| s.first_failure.as_ref())
            .collect::<Vec<_>>()
    );
    assert_eq!(report.schemes.len(), 6);
    for scheme in &report.schemes {
        assert_eq!(scheme.scenarios_failed, 0, "{}", scheme.scheme);
        assert_eq!(scheme.scenarios_passed, 32, "{}", scheme.scheme);
    }
    // Every scheme sees the same acknowledged-write totals: the semantic
    // oracle agreed line for line, so the merged counters must too.
    let commits: Vec<u64> = report.schemes.iter().map(|s| s.commits).collect();
    assert!(
        commits.iter().all(|&c| c == commits[0] && c > 0),
        "commit totals diverged: {commits:?}"
    );
    // The adversarial rounds must actually bite: each Mi-SU variant
    // refuses to come up at least once across the sweep.
    for scheme in &report.schemes {
        if scheme.scheme.starts_with("dolos-") {
            assert!(scheme.tampers_detected > 0, "{}", scheme.scheme);
        }
    }
}

#[test]
fn reports_are_byte_identical_at_any_jobs_value() {
    let sequential = run_verify(&smoke_config());
    let parallel = run_verify(&VerifyConfig {
        jobs: 2,
        ..smoke_config()
    });
    assert_eq!(sequential.to_json(), parallel.to_json());
    let wide = run_verify(&VerifyConfig {
        jobs: 7,
        ..smoke_config()
    });
    assert_eq!(sequential.to_json(), wide.to_json());
}

#[test]
fn tamper_is_caught_and_shrunk_to_a_pinned_replayable_repro() {
    // The scheduled flip must be detected by every Mi-SU variant while the
    // full verdict still passes (detection is the *correct* outcome).
    let caught = |s: &Scenario| {
        let verdict = run_scenario(s);
        verdict.pass()
            && verdict
                .observations
                .iter()
                .filter(|o| o.scheme.starts_with("dolos-"))
                .all(|o| o.tamper_detected)
    };

    let scenario = Scenario::generate(0, &ScenarioConfig::default());
    assert!(
        caught(&scenario),
        "seed 0 must schedule a detectable tamper"
    );

    let minimal = shrink_with(&scenario, caught);
    // Pinned minimal reproducer: one single-transaction round with nothing
    // left but the data-region flip itself.
    assert_eq!(
        minimal.to_string(),
        "seed=0;keys=32;[t1+flip(data,10683385982809475536,428)]"
    );

    // Replayable: the rendered form round-trips through the parser and
    // still reproduces the detection — exactly what `dolos-verify replay`
    // does with a failure report line.
    let replayed: Scenario = minimal
        .to_string()
        .parse()
        .expect("pinned reproducer must parse");
    assert_eq!(replayed, minimal);
    assert!(caught(&replayed));
}

#[test]
fn torn_bank_tamper_is_caught_and_shrunk_to_a_pinned_replayable_repro() {
    // Bank-axis sibling of the flip pin above: at four banks the generator
    // may tear a single bank's dump shard while the system is down. The
    // predicate keeps the shrinker inside the banked class — it must stay
    // multi-bank and keep a per-bank tear (otherwise the engine's
    // `tornb → torn` and `banks → 1` candidates would collapse the repro
    // into the whole-queue case the existing pin already covers).
    let torn_bank = |s: &Scenario| {
        s.rounds
            .iter()
            .any(|r| matches!(r.tamper, Some(TamperSpec::TornBank { .. })))
    };
    let caught = |s: &Scenario| {
        if s.banks <= 1 || !torn_bank(s) {
            return false;
        }
        let verdict = run_scenario(s);
        verdict.pass()
            && verdict
                .observations
                .iter()
                .filter(|o| o.scheme.starts_with("dolos-"))
                .all(|o| o.tamper_detected)
    };

    let config = ScenarioConfig {
        banks: 4,
        ..ScenarioConfig::default()
    };
    let scenario = Scenario::generate(212, &config);
    assert!(
        caught(&scenario),
        "seed 212 must schedule a detectable per-bank tear"
    );

    let minimal = shrink_with(&scenario, caught);
    // Pinned minimal reproducer: one priming round to leave a stale dump
    // epoch behind, then a single-transaction round whose only adversarial
    // act is tearing one payload line of bank 0's shard.
    assert_eq!(
        minimal.to_string(),
        "seed=212;keys=32;banks=4;[t1;t1+tornb(0,1)]"
    );

    let replayed: Scenario = minimal
        .to_string()
        .parse()
        .expect("pinned reproducer must parse");
    assert_eq!(replayed, minimal);
    assert!(caught(&replayed));
}

#[test]
fn pinned_repro_separates_secure_from_non_secure_schemes() {
    // On the shrunk reproducer the insecure reference absorbs the flip
    // (plaintext silently differs) while every secure scheme detects it —
    // the "security on/off never changes semantics" invariant seen from
    // the adversary's side.
    let scenario: Scenario = "seed=0;keys=32;[t1+flip(data,10683385982809475536,428)]"
        .parse()
        .expect("pinned reproducer must parse");
    let verdict = run_scenario(&scenario);
    assert!(verdict.pass(), "{:?}", verdict.first_failure());
    for obs in &verdict.observations {
        if obs.scheme == "ideal" {
            assert!(!obs.tamper_detected, "{}", obs.scheme);
            assert!(obs.tamper_absorbed || obs.tamper_harmless, "{obs:?}");
        } else {
            assert!(obs.tamper_detected, "{}: {obs:?}", obs.scheme);
        }
    }
}
