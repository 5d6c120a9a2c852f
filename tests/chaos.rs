//! Fault-injection obligations, run through the one falsifier
//! (`dolos-verify`): a power cut at every persist-pipeline instant fires and
//! recovers clean, a nested crash during recovery restarts, tampering with
//! settled state or with the ADR dump is detected, randomized
//! scheme-dependent cuts hold against each scheme's own model, and the
//! Post-WPQ reserved in-flight MAC finishes on reserve power.

use dolos::core::inject::{FaultPlan, InjectionPoint};
use dolos::core::{ControllerConfig, ControllerKind, MiSuKind, SecureMemorySystem, SecurityError};
use dolos::secmem::layout::MetaRegion;
use dolos::sim::Cycle;
use dolos_verify::{
    run_scheme, run_verify, shrink_with, verify_schemes, Scenario, ScenarioConfig, TamperSpec,
    VerifyConfig, VerifyRound,
};

fn round(txns: usize) -> VerifyRound {
    VerifyRound {
        txns,
        fault: None,
        quiesce: false,
        nested: None,
        tamper: None,
    }
}

fn scenario(seed: u64, keyspace: u64, banks: usize, rounds: Vec<VerifyRound>) -> Scenario {
    Scenario {
        seed,
        keyspace,
        banks,
        rounds,
    }
}

/// The five designs with a detection duty (every design but `ideal`).
fn secure_designs() -> Vec<ControllerConfig> {
    verify_schemes()
        .into_iter()
        .filter(|c| c.kind != ControllerKind::IdealNonSecure)
        .collect()
}

fn misu_designs() -> [ControllerConfig; 3] {
    MiSuKind::ALL.map(ControllerConfig::dolos)
}

/// A fixed-seed banked campaign replays bit for bit: identical reports and
/// identical JSON, at any worker count.
#[test]
fn fixed_seed_campaigns_replay_bit_for_bit() {
    let config = VerifyConfig {
        seed: 0xD0105,
        traces: 12,
        banks: 4,
        jobs: 1,
        ..VerifyConfig::default()
    };
    let first = run_verify(&config);
    let second = run_verify(&config);
    assert_eq!(first, second, "campaign must be deterministic");
    assert_eq!(first.to_json(), second.to_json());
    assert!(first.all_pass(), "{}", first.to_json());
    let parallel = run_verify(&VerifyConfig { jobs: 4, ..config });
    assert_eq!(first.to_json(), parallel.to_json());
}

/// Every design recovers model-exact from a power cut at each persist
/// pipeline instant it has — persist start, Mi-SU MAC (Mi-SU designs only),
/// WPQ insert, and the Ma-SU drain engine — at one and at four banks, and
/// the next round recovers too.
#[test]
fn every_pipeline_stage_crash_class_recovers_clean() {
    for point in [
        InjectionPoint::PersistStart,
        InjectionPoint::MisuProtect,
        InjectionPoint::WpqInsert,
        InjectionPoint::MasuDrain,
    ] {
        for banks in [1, 4] {
            let s = scenario(
                0xC4A5 ^ point as u64,
                32,
                banks,
                vec![
                    VerifyRound {
                        fault: Some((point, 2)),
                        ..round(3)
                    },
                    round(2),
                ],
            );
            for design in verify_schemes() {
                if point == InjectionPoint::MisuProtect
                    && !matches!(design.kind, ControllerKind::Dolos(_))
                {
                    continue;
                }
                let obs = run_scheme(&design, &s);
                assert!(
                    obs.pass(),
                    "{} @ {point} banks={banks}: {:?}",
                    obs.scheme,
                    obs.divergences
                );
                assert!(
                    obs.fired.len() == 2 && obs.fired[0].starts_with(point.name()),
                    "{} @ {point} banks={banks}: fault must fire, got {:?}",
                    obs.scheme,
                    obs.fired
                );
            }
        }
    }
}

/// A nested power failure during recovery replay leaves recovery
/// restartable: the second boot comes up and loses nothing. Replay (and so
/// a replay-time crash) exists only in the Mi-SU designs — the others
/// complete their writes inside `crash`.
#[test]
fn nested_crash_during_recovery_is_restartable_everywhere() {
    let s = scenario(
        0x9E57ED,
        24,
        1,
        vec![
            VerifyRound {
                nested: Some(0),
                ..round(3)
            },
            round(2),
        ],
    );
    for design in misu_designs() {
        let obs = run_scheme(&design, &s);
        assert!(obs.pass(), "{}: {:?}", obs.scheme, obs.divergences);
        assert!(obs.nested_fired, "{}: nested crash must fire", obs.scheme);
    }
}

/// Bit flips in settled ciphertext, counters or MACs are detected by every
/// secure design. Each target is live in a transaction-shaped stream: any
/// resident data line; the major counter (low byte) of a resident counter
/// block; and the MAC slot of the commit-marker line, which every
/// transaction rewrites (at keyspace 8 it is line 8: slot 0 of the second
/// MAC line). The round quiesces before the crash, so the flip lands on
/// settled state that recovery replay cannot legitimately rewrite.
#[test]
fn tampering_committed_state_is_always_detected() {
    for (region, pick, bit) in [
        (MetaRegion::Data, 0, 301),
        (MetaRegion::Counters, 0, 7),
        (MetaRegion::Macs, 1, 10),
    ] {
        let tamper = TamperSpec::FlipBit { region, pick, bit };
        let s = scenario(
            0x7A3A ^ region as u64,
            8,
            1,
            vec![VerifyRound {
                quiesce: true,
                tamper: Some(tamper),
                ..round(4)
            }],
        );
        for design in secure_designs() {
            let obs = run_scheme(&design, &s);
            assert!(
                obs.pass(),
                "{} / {tamper}: {:?}",
                obs.scheme,
                obs.divergences
            );
            assert!(
                obs.tamper_detected,
                "{} / {tamper}: flip must be detected, got {obs:?}",
                obs.scheme
            );
        }
    }
}

/// Corrupting the ADR dump itself — a flipped dump line or a torn
/// (partially stale) dump — is detected by every Mi-SU design at recovery.
#[test]
fn dump_corruption_is_detected_by_every_misu_variant() {
    for tamper in [
        TamperSpec::FlipBit {
            region: MetaRegion::WpqDump,
            pick: 1,
            bit: 77,
        },
        TamperSpec::TornDump { drop: 2 },
    ] {
        // The first round leaves a committed dump epoch behind, so a torn
        // second dump mixes epochs; the second round cuts at a WPQ insert,
        // so its queue is loaded when power fails.
        let s = scenario(
            0x70C4,
            16,
            1,
            vec![
                round(4),
                VerifyRound {
                    fault: Some((InjectionPoint::WpqInsert, 3)),
                    tamper: Some(tamper),
                    ..round(2)
                },
            ],
        );
        for design in misu_designs() {
            let obs = run_scheme(&design, &s);
            assert!(
                obs.pass(),
                "{} / {tamper}: {:?}",
                obs.scheme,
                obs.divergences
            );
            assert!(
                obs.tamper_detected,
                "{} / {tamper}: dump corruption must be detected, got {obs:?}",
                obs.scheme
            );
        }
    }
}

/// Generated scenarios with every cut swapped to its scheme-dependent
/// sibling (`persist-start` → `misu-protect`, `wpq-insert` → `masu-drain`)
/// hold on every design against that design's own model, and render and
/// parse back losslessly. Across the sweep the `masu-drain` in-flight write
/// must resolve both ways: old value and new value.
#[test]
fn scheme_dependent_cuts_hold_on_every_design() {
    let mut swapped = 0;
    let (mut old, mut new) = (0, 0);
    for banks in [1, 4] {
        let config = ScenarioConfig {
            banks,
            ..ScenarioConfig::default()
        };
        for seed in 0..200 {
            let mut s = Scenario::generate(seed, &config);
            for round in &mut s.rounds {
                if let Some((point, nth)) = round.fault {
                    let sibling = match point {
                        InjectionPoint::PersistStart => InjectionPoint::MisuProtect,
                        _ => InjectionPoint::MasuDrain,
                    };
                    round.fault = Some((sibling, nth));
                    swapped += 1;
                }
            }
            let text = s.to_string();
            assert_eq!(text.parse::<Scenario>().as_ref(), Ok(&s), "{text}");
            for design in verify_schemes() {
                let obs = run_scheme(&design, &s);
                assert!(obs.pass(), "{} {text}: {:?}", obs.scheme, obs.divergences);
                old += obs.inflight_old;
                new += obs.inflight_new;
            }
        }
    }
    assert!(swapped > 0);
    assert!(
        old > 0 && new > 0,
        "in-flight writes must resolve both ways: old={old} new={new}"
    );
}

/// A pinned `masu-drain` cut whose in-flight write recovers its old value
/// on some designs (the fault fired before that write's WPQ insert) and its
/// new value on others (after it). The second round's post-crash check
/// covers the same line, so it passes only if the first round's observed
/// outcome was folded into the model.
#[test]
fn masu_drain_cut_folds_the_in_flight_write() {
    let s: Scenario = PINNED_MASU_DRAIN.parse().expect("pinned scenario parses");
    let (mut old, mut new) = (0, 0);
    for design in verify_schemes() {
        let obs = run_scheme(&design, &s);
        assert!(obs.pass(), "{}: {:?}", obs.scheme, obs.divergences);
        assert!(
            obs.fired[0].starts_with("masu-drain#"),
            "{}: cut must fire, got {:?}",
            obs.scheme,
            obs.fired
        );
        old += obs.inflight_old;
        new += obs.inflight_new;
    }
    assert!(old > 0 && new > 0, "old={old} new={new}");
}

const PINNED_MASU_DRAIN: &str = "seed=25;keys=32;[t4@masu-drain#12;t2]";

/// Shrinking is deterministic for a fixed seed: under a synthetic predicate
/// ("some round still runs at least 4 transactions") the shrinker converges
/// to the same pinned minimum every time, and a passing scenario comes back
/// unchanged.
#[test]
fn generic_shrink_is_deterministic_for_a_fixed_seed() {
    let config = ScenarioConfig {
        rounds: 3,
        txns_per_round: 24,
        keyspace: 16,
        tamper: true,
        banks: 4,
    };
    let scenario = Scenario::generate(0xD015_5EED, &config);
    let fails = |s: &Scenario| s.rounds.iter().any(|r| r.txns >= 4);
    let a = shrink_with(&scenario, fails);
    let b = shrink_with(&scenario, fails);
    assert_eq!(a, b, "same seed must shrink to the same minimum");
    // Minimal under the predicate: one single-bank round whose transaction
    // count would drop below the threshold if halved once more.
    assert_eq!(a.rounds.len(), 1);
    assert_eq!(a.banks, 1);
    let r = &a.rounds[0];
    assert!(r.txns >= 4 && r.txns / 2 < 4);
    assert!(r.fault.is_none() && r.tamper.is_none() && r.nested.is_none() && !r.quiesce);
    // Fully pinned (guards candidate-order drift: reordering the candidates
    // would land on a different minimum).
    assert_eq!(a.to_string(), PINNED_SHRINK);
    assert_eq!(shrink_with(&scenario, |_| false), scenario);
}

const PINNED_SHRINK: &str = "seed=3491061485;keys=16;[t6]";

/// §5.3: the Post-WPQ design computes no MAC before insertion; instead the
/// ADR reserve energy finishes the one in-flight MAC during the dump. A
/// power failure at the insert instant must therefore still yield a
/// verifiable dump and a durable new value for the interrupted write.
#[test]
fn post_wpq_reserved_inflight_mac_finishes_on_reserve_power() {
    let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Post));
    sys.arm_fault(FaultPlan::new(InjectionPoint::WpqInsert, 4));
    let mut t = Cycle::ZERO;
    let mut interrupted = None;
    for i in 0..12u64 {
        let data = [i as u8 + 1; 64];
        match sys.try_persist_write(t, i * 64, &data) {
            Ok(done) => t = done,
            Err(SecurityError::PowerInterrupted { point }) => {
                assert_eq!(point, InjectionPoint::WpqInsert);
                interrupted = Some((i, data));
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let (addr_index, expected) = interrupted.expect("fault must fire");
    sys.disarm_fault();
    sys.recover()
        .expect("dump must verify: reserve power finished the MAC");
    sys.audit().expect("clean audit after recovery");
    // The inserted-but-unMAC'd write is durable with its *new* value: the
    // dump carried the line and the MAC the reserve energy completed.
    let (_, data) = sys.read(Cycle::ZERO, addr_index * 64);
    assert_eq!(data, expected, "in-flight write must be durable");
    for i in 0..addr_index {
        let (_, data) = sys.read(Cycle::ZERO, i * 64);
        assert_eq!(data, [i as u8 + 1; 64], "committed write {i} must survive");
    }
}

/// The obligations hold on the ideal design too: it has no detection duty,
/// but its crashes — at a WPQ insert, with a nested boot crash scheduled,
/// and mid-drain — must still be crash-consistent.
#[test]
fn ideal_design_is_crash_consistent_without_detection_duties() {
    let s = scenario(
        0x1DEA,
        32,
        1,
        vec![
            VerifyRound {
                fault: Some((InjectionPoint::WpqInsert, 3)),
                ..round(3)
            },
            VerifyRound {
                nested: Some(0),
                ..round(3)
            },
            VerifyRound {
                fault: Some((InjectionPoint::MasuDrain, 1)),
                ..round(3)
            },
        ],
    );
    let obs = run_scheme(&ControllerConfig::ideal(), &s);
    assert!(obs.pass(), "{:?}", obs.divergences);
    assert_eq!(obs.fired.len(), 3);
}
