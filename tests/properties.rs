//! Randomized property tests over the core invariants: crypto round-trips,
//! counter-block serialization, WPQ-vs-model equivalence, and randomized
//! crash-point durability.
//!
//! Driven by the workspace's own deterministic [`XorShift`] generator (fixed
//! seeds, no external crates) so every failure reproduces bit-for-bit.

use dolos::core::{ControllerConfig, MiSuKind, SecureMemorySystem};
use dolos::crypto::aes::Aes128;
use dolos::crypto::ctr::{generate_pad, xor_in_place, IvBuilder};
use dolos::crypto::mac::MacEngine;
use dolos::nvm::wpq::{InsertOutcome, WriteQueue};
use dolos::nvm::LineAddr;
use dolos::secmem::counters::CounterBlock;
use dolos::sim::rng::XorShift;
use dolos::sim::Cycle;

fn random_bytes<const N: usize>(rng: &mut XorShift) -> [u8; N] {
    let mut out = [0u8; N];
    for b in out.iter_mut() {
        *b = rng.next_below(256) as u8;
    }
    out
}

#[test]
fn ctr_encryption_round_trips() {
    let mut rng = XorShift::new(0xC7_01);
    for _ in 0..64 {
        let key: [u8; 16] = random_bytes(&mut rng);
        let addr = rng.next_below(1 << 30) & !63;
        let counter = rng.next_u64();
        let data: [u8; 32] = random_bytes(&mut rng);

        let aes = Aes128::new(&key);
        let iv = IvBuilder::new().address(addr).counter(counter).build();
        let pad = generate_pad(&aes, &iv, 32);
        let mut buf = data;
        xor_in_place(&mut buf, &pad);
        xor_in_place(&mut buf, &pad);
        assert_eq!(buf, data);
    }
}

#[test]
fn mac_detects_any_single_bit_flip() {
    let mut rng = XorShift::new(0x3A_C0);
    for _ in 0..64 {
        let key: [u8; 16] = random_bytes(&mut rng);
        let len = 1 + rng.next_below(127) as usize;
        let mut data = vec![0u8; len];
        for b in data.iter_mut() {
            *b = rng.next_below(256) as u8;
        }
        let bit = rng.next_below(u16::MAX as u64 + 1) as u16;

        let mac = MacEngine::new(key);
        let tag = mac.tag(&data);
        let mut tampered = data.clone();
        let pos = (bit as usize / 8) % tampered.len();
        tampered[pos] ^= 1 << (bit % 8);
        assert!(!mac.verify(&tampered, &tag));
        assert!(mac.verify(&data, &tag));
    }
}

#[test]
fn counter_block_serialization_round_trips() {
    let mut rng = XorShift::new(0x5E_11A);
    for _ in 0..64 {
        let mut block = CounterBlock::new();
        let increments = rng.next_below(40) as usize;
        for _ in 0..increments {
            let line = rng.next_below(64) as usize;
            let n = 1 + rng.next_below(199) as u16;
            for _ in 0..n {
                block.increment(line);
            }
        }
        let line = block.to_line();
        assert_eq!(CounterBlock::from_line(&line), block);
    }
}

#[test]
fn counter_values_never_repeat() {
    let mut rng = XorShift::new(0xF00D);
    for _ in 0..64 {
        let mut block = CounterBlock::new();
        let mut seen = std::collections::HashSet::new();
        let ops = 1 + rng.next_below(299) as usize;
        for _ in 0..ops {
            let line = rng.next_below(8) as usize;
            let packed = block.increment(line).counter().packed();
            // Uniqueness per line: (line, packed) pairs never recur.
            assert!(seen.insert((line, packed)), "counter reuse on line {line}");
        }
    }
}

#[test]
fn wpq_matches_fifo_model() {
    // Reference model: ordered map addr -> freshest value plus FIFO of
    // pending (addr, value) respecting coalescing on live entries.
    let mut rng = XorShift::new(0x0F1F0);
    for _ in 0..64 {
        let mut wpq = WriteQueue::new(4);
        let mut model: Vec<(u64, u8)> = Vec::new(); // live entries in order
        let ops = 1 + rng.next_below(119) as usize;
        for _ in 0..ops {
            let addr_idx = rng.next_below(12);
            let value = rng.next_below(256) as u8;
            if rng.chance(0.5) {
                if let Some(e) = wpq.fetch_oldest() {
                    wpq.clear(e.slot);
                    let pos = model
                        .iter()
                        .position(|&(a, _)| a == e.addr.line_index())
                        .expect("model has the entry");
                    let (_, v) = model.remove(pos);
                    assert_eq!(e.payload[0], v, "drain order/value mismatch");
                }
                continue;
            }
            let addr = LineAddr::from_index(addr_idx);
            let mut payload = [0u8; 64];
            payload[0] = value;
            match wpq.try_insert(addr, payload, None) {
                InsertOutcome::Inserted { .. } => model.push((addr_idx, value)),
                InsertOutcome::Coalesced { .. } => {
                    let entry = model
                        .iter_mut()
                        .find(|(a, _)| *a == addr_idx)
                        .expect("coalesce implies live entry");
                    entry.1 = value;
                }
                InsertOutcome::Full => {
                    assert_eq!(model.len(), 4, "Full only when model is full");
                }
            }
            // Tag array always returns the freshest value.
            if let Some(&(_, v)) = model.iter().rev().find(|(a, _)| *a == addr_idx) {
                assert_eq!(wpq.lookup(addr).expect("tag hit").payload[0], v);
            }
        }
        assert_eq!(wpq.len(), model.len());
    }
}

#[test]
fn reads_always_return_last_write() {
    let mut rng = XorShift::new(0x9EAD);
    for _ in 0..64 {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut t = Cycle::ZERO;
        let mut shadow: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        let ops = 1 + rng.next_below(59) as usize;
        for _ in 0..ops {
            let line = rng.next_below(16);
            let value = rng.next_below(256) as u8;
            t = sys.persist_write(t, line * 64, &[value; 64]);
            shadow.insert(line, value);
            let (t2, data) = sys.read(t, line * 64);
            t = t2;
            assert_eq!(data, [value; 64]);
        }
        for (&line, &value) in &shadow {
            let (t2, data) = sys.read(t, line * 64);
            t = t2;
            assert_eq!(data, [value; 64]);
        }
    }
}

/// Any workload, crashed after a random number of transactions, recovers
/// with every committed transaction intact.
#[test]
fn workloads_are_crash_consistent_at_random_points() {
    use dolos::whisper::workloads::WorkloadKind;
    use dolos::whisper::PmEnv;

    let mut rng = XorShift::new(0x000D_0105);
    for case in 0..12 {
        let kind = WorkloadKind::EXTENDED[case % WorkloadKind::EXTENDED.len()];
        let txns = 1 + rng.next_below(9) as usize;
        let seed = rng.next_u64();

        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut workload = kind.build();
        workload.setup(&mut env);
        let mut wrng = XorShift::new(seed);
        for _ in 0..txns {
            workload.transaction(&mut env, 256, &mut wrng);
        }
        env.crash();
        env.recover().expect("clean recovery");
        workload.verify(&mut env);
    }
}

/// Recovery is a pure function of the crash state: two independently
/// constructed systems fed the identical write history produce identical
/// recovery reports and identical full statistics.
///
/// The two systems are built independently (not cloned) on purpose: every
/// internal `HashMap` then gets its own hasher seed, so any code path that
/// still iterates a hash map during recovery or audit — the bug class this
/// test pins — diverges between the two runs. The Ma-SU's metadata tables
/// are sorted structures and recovery replays the Anubis working set in
/// ascending page order precisely so this comparison holds.
#[test]
fn recovery_is_deterministic_across_independent_systems() {
    use dolos::core::UpdateScheme;

    for scheme in [UpdateScheme::EagerMerkle, UpdateScheme::LazyToc] {
        for misu in MiSuKind::ALL {
            let run = || {
                let config = ControllerConfig::dolos(misu).with_scheme(scheme);
                let mut sys = SecureMemorySystem::new(config);
                let mut rng = XorShift::new(0xDE7E_0401);
                let mut t = Cycle::ZERO;
                // Touch enough distinct pages to exercise counter-cache
                // evictions, shadow tracking, and Osiris-stale counters.
                for _ in 0..96 {
                    let line = rng.next_below(192);
                    let value = rng.next_below(256) as u8;
                    t = sys.persist_write(t, line * 64, &[value; 64]);
                }
                sys.crash(t);
                let report = sys.recover().expect("clean recovery");
                (report, sys.stats())
            };
            let (report_a, stats_a) = run();
            let (report_b, stats_b) = run();
            assert_eq!(report_a, report_b, "{misu}/{scheme:?} recovery diverged");
            assert_eq!(
                stats_a, stats_b,
                "{misu}/{scheme:?} post-recovery stats diverged"
            );
        }
    }
}

/// Traces replay to the exact cycle count of the live run for random
/// workloads and seeds.
#[test]
fn trace_replay_is_cycle_exact() {
    use dolos::whisper::workloads::WorkloadKind;
    use dolos::whisper::PmEnv;

    let mut rng = XorShift::new(0x7A_CE);
    for case in 0..6 {
        let kind = WorkloadKind::ALL[case % WorkloadKind::ALL.len()];
        let seed = rng.next_u64();

        let mut config = ControllerConfig::dolos(MiSuKind::Partial);
        config.region_bytes = 64 << 20;
        let mut env = PmEnv::new(config);
        env.start_recording();
        let mut workload = kind.build();
        workload.setup(&mut env);
        let mut wrng = XorShift::new(seed);
        for _ in 0..6 {
            workload.transaction(&mut env, 512, &mut wrng);
        }
        let live = env.now().as_u64();
        let trace = env.take_trace().expect("recording");
        let replayed = trace.replay(ControllerConfig::dolos(MiSuKind::Partial));
        assert_eq!(replayed.cycles, live);
    }
}
