//! End-to-end crash consistency: every workload, every controller, crash at
//! arbitrary points, recover, verify all committed state.

use dolos::core::{ControllerConfig, MiSuKind, UpdateScheme};
use dolos::sim::rng::XorShift;
use dolos::whisper::workloads::WorkloadKind;
use dolos::whisper::PmEnv;

fn all_controllers() -> Vec<ControllerConfig> {
    vec![
        ControllerConfig::ideal(),
        ControllerConfig::baseline(),
        ControllerConfig::deferred(),
        ControllerConfig::dolos(MiSuKind::Full),
        ControllerConfig::dolos(MiSuKind::Partial),
        ControllerConfig::dolos(MiSuKind::Post),
    ]
}

/// Runs a workload, crashes between transactions, recovers, verifies.
fn crash_between_transactions(kind: WorkloadKind, config: ControllerConfig) {
    let name = config.kind.name();
    let mut env = PmEnv::new(config);
    let mut workload = kind.build();
    workload.setup(&mut env);
    let mut rng = XorShift::new(0xC0FFEE);
    for _ in 0..12 {
        workload.transaction(&mut env, 512, &mut rng);
    }
    env.crash();
    env.recover()
        .unwrap_or_else(|e| panic!("{name}/{kind}: recovery failed: {e}"));
    workload.verify(&mut env);
}

#[test]
fn hashmap_crashes_cleanly_on_all_controllers() {
    for config in all_controllers() {
        crash_between_transactions(WorkloadKind::Hashmap, config);
    }
}

#[test]
fn ctree_crashes_cleanly_on_all_controllers() {
    for config in all_controllers() {
        crash_between_transactions(WorkloadKind::Ctree, config);
    }
}

#[test]
fn btree_crashes_cleanly_on_all_controllers() {
    for config in all_controllers() {
        crash_between_transactions(WorkloadKind::Btree, config);
    }
}

#[test]
fn rbtree_crashes_cleanly_on_all_controllers() {
    for config in all_controllers() {
        crash_between_transactions(WorkloadKind::Rbtree, config);
    }
}

#[test]
fn nstore_crashes_cleanly_on_all_controllers() {
    for config in all_controllers() {
        crash_between_transactions(WorkloadKind::NstoreYcsb, config);
    }
}

#[test]
fn redis_crashes_cleanly_on_all_controllers() {
    for config in all_controllers() {
        crash_between_transactions(WorkloadKind::Redis, config);
    }
}

#[test]
fn lazy_scheme_end_to_end() {
    for misu in MiSuKind::ALL {
        let config = ControllerConfig::dolos(misu).with_scheme(UpdateScheme::LazyToc);
        crash_between_transactions(WorkloadKind::Hashmap, config);
    }
}

#[test]
fn repeated_crash_recover_cycles() {
    let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
    let mut workload = WorkloadKind::Hashmap.build();
    workload.setup(&mut env);
    let mut rng = XorShift::new(3);
    for round in 0..4 {
        for _ in 0..5 {
            workload.transaction(&mut env, 256, &mut rng);
        }
        env.crash();
        env.recover()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        workload.verify(&mut env);
    }
}

#[test]
fn wpq_contents_survive_crash_via_adr() {
    // Persist without quiescing: entries are still in the WPQ when power
    // fails; ADR + Mi-SU recovery must preserve them.
    for misu in MiSuKind::ALL {
        let mut sys = dolos::core::SecureMemorySystem::new(ControllerConfig::dolos(misu));
        let mut t = dolos::sim::Cycle::ZERO;
        for i in 0..6u64 {
            t = sys.persist_write(t, i * 64, &[0xA0 + i as u8; 64]);
        }
        sys.crash(t); // no quiesce: WPQ still holds entries
        let report = sys.recover().expect("recovery");
        assert!(report.wpq_entries_replayed > 0, "{misu}: nothing replayed");
        for i in 0..6u64 {
            let (_, data) = sys.read(dolos::sim::Cycle::ZERO, i * 64);
            assert_eq!(data, [0xA0 + i as u8; 64], "{misu} line {i}");
        }
    }
}

#[test]
fn coalesced_writes_recover_to_freshest_value() {
    let mut sys = dolos::core::SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
    let mut t = dolos::sim::Cycle::ZERO;
    // Fill the queue, then rewrite one address repeatedly so versions
    // coalesce and/or occupy multiple ring slots.
    for i in 0..12u64 {
        t = sys.persist_write(t, i * 64, &[i as u8; 64]);
    }
    for v in 0..5u8 {
        t = sys.persist_write(t, 0, &[0xF0 + v; 64]);
    }
    sys.crash(t);
    sys.recover().expect("recovery");
    let (_, data) = sys.read(dolos::sim::Cycle::ZERO, 0);
    assert_eq!(data, [0xF4; 64], "must recover the freshest version");
}

#[test]
fn extension_workloads_crash_cleanly() {
    for kind in [WorkloadKind::Memcached, WorkloadKind::Vacation] {
        for config in [
            ControllerConfig::baseline(),
            ControllerConfig::dolos(MiSuKind::Partial),
        ] {
            crash_between_transactions(kind, config);
        }
    }
}

#[test]
fn full_image_audit_after_workload_storm() {
    // After a crash + recovery under every workload (paper six plus
    // extensions), the full NVM image must pass the global audit.
    for kind in WorkloadKind::EXTENDED {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut workload = kind.build();
        workload.setup(&mut env);
        let mut rng = XorShift::new(17);
        for _ in 0..8 {
            workload.transaction(&mut env, 512, &mut rng);
        }
        env.crash();
        env.recover().expect("recovery");
        let report = env
            .system_mut()
            .audit()
            .unwrap_or_else(|e| panic!("{kind}: audit failed: {e}"));
        assert!(report.root_verified, "{kind}");
        assert!(report.verified_lines > 0, "{kind}");
    }
}
