//! Exhaustive small-state crash checking: random campaigns sample the
//! crash space, [`enumerate`] covers it completely at small depth through
//! the engine's one replay loop and its oracle — the acknowledged-write
//! model and `audit()` after `recover()`.

use dolos_core::inject::InjectionPoint;
use dolos_core::{ControllerConfig, UpdateScheme};

use crate::engine::{replay_scheme, verify_schemes, EngineOp};
use crate::scenario::{Scenario, VerifyRound, GRAMMAR_CUTS};

/// One letter of an enumerated operation sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Letter {
    /// One fresh-version persist to line slot `s` (address `s × 64`).
    Write(u8),
    /// Let the background drain run: advance 5000 cycles, then read slot 0
    /// (a read makes the controller catch up to the new time).
    Drain,
    /// 128 fresh-version persists to slot 2. A 7-bit minor counter
    /// overflows on a line's 128th write, so the page's major counter moves
    /// on while slots 0 and 1 of the same page sit at minor 0 unless the
    /// sequence wrote them.
    Hot,
}

/// The full alphabet: a write to each of three lines of one page, a drain
/// and a hot line.
pub const ALPHABET: [Letter; 5] = [
    Letter::Write(0),
    Letter::Write(1),
    Letter::Write(2),
    Letter::Drain,
    Letter::Hot,
];

/// The twelve enumerated designs: every [`verify_schemes`] design under
/// the eager BMT and the lazy ToC, each with a 4-entry physical WPQ.
fn enumerated_configs() -> Vec<ControllerConfig> {
    [UpdateScheme::EagerMerkle, UpdateScheme::LazyToc]
        .into_iter()
        .flat_map(|tree| verify_schemes().map(|c| c.with_scheme(tree).with_wpq_entries(4)))
        .collect()
}

/// The engine stream of one letter sequence. Every persist carries a
/// version no earlier persist used, so a stale line never passes for the
/// current one.
fn stream(letters: &[Letter]) -> Vec<EngineOp> {
    let mut version = 0u64;
    let mut persist = |slot: u8| {
        version += 1;
        let mut line = [0u8; 64];
        line[..8].copy_from_slice(&version.to_le_bytes());
        (u64::from(slot) * 64, line)
    };
    let mut ops = Vec::new();
    for &letter in letters {
        match letter {
            Letter::Write(slot) => ops.push(EngineOp::Batch(vec![persist(slot)])),
            Letter::Drain => ops.extend([EngineOp::Advance(5000), EngineOp::Read(0)]),
            Letter::Hot => ops.push(EngineOp::Batch((0..128).map(|_| persist(2)).collect())),
        }
    }
    ops
}

/// Runs every sequence of 1 to `max_len` letters over `alphabet` under
/// every power cut — none, or the `k`-th occurrence of any of the four
/// stream injection points for `k < cut_bound` — on the six
/// [`verify_schemes`] designs under both integrity trees, each with a
/// 4-entry physical WPQ so queue wraparound and coalescing happen within a
/// few letters.
///
/// Returns the cases run — `12 × (1 + 4 × cut_bound) × Σ_{n=1..max_len}
/// |alphabet|ⁿ` when clean — and the first failure. Lengths grow from 1,
/// so that failure is already of minimal length and needs no shrinking.
pub fn enumerate(alphabet: &[Letter], max_len: usize, cut_bound: u64) -> (u64, Option<String>) {
    let configs = enumerated_configs();
    let cut_at = |point| (0..cut_bound).map(move |k| Some((point, k)));
    let cuts: Vec<Option<(InjectionPoint, u64)>> = [None]
        .into_iter()
        .chain(GRAMMAR_CUTS.into_iter().flat_map(cut_at))
        .collect();
    let mut cases = 0;
    let mut level: Vec<Vec<Letter>> = vec![Vec::new()];
    for _ in 0..max_len {
        level = level
            .iter()
            .flat_map(|prefix| {
                alphabet
                    .iter()
                    .map(|&letter| [&prefix[..], &[letter]].concat())
            })
            .collect();
        for letters in &level {
            let ops = stream(letters);
            for &fault in &cuts {
                // The stream comes from the letters; only the cut is read.
                let scenario = Scenario {
                    seed: 0,
                    keyspace: 0,
                    banks: 1,
                    rounds: vec![VerifyRound {
                        fault,
                        ..VerifyRound::default()
                    }],
                };
                for config in &configs {
                    cases += 1;
                    let obs = replay_scheme(config, &scenario, |_, _| ops.clone());
                    if let Some(divergence) = obs.divergences.first() {
                        let cut = fault.map_or("none".to_string(), |(point, k)| {
                            format!("{}#{k}", point.name())
                        });
                        let tree = config.scheme.name();
                        let failure = format!(
                            "{letters:?} on {}/{tree}, cut {cut}: {divergence}",
                            obs.scheme
                        );
                        return (cases, Some(failure));
                    }
                }
            }
        }
    }
    (cases, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolos_core::{ControllerKind, SecureMemorySystem};
    use dolos_sim::Cycle;

    // Without a cut, every sequence the old exhaustive model checker ran,
    // in the same profile: lengths 4 over {W0, W1, W2, Drain} and 5 over
    // the writes alone (write storms wrap the 4-entry ring hardest) in
    // debug, 5 and 6 in release (`cargo test --release`, CI); each with its
    // case count, 12 × Σ kⁿ.
    #[cfg(debug_assertions)]
    const UNCUT: [(usize, usize, u64); 2] = [(4, 4, 4_080), (3, 5, 4_356)];
    #[cfg(not(debug_assertions))]
    const UNCUT: [(usize, usize, u64); 2] = [(4, 5, 16_368), (3, 6, 13_104)];

    #[test]
    fn every_uncut_write_drain_sequence_recovers_on_every_design() {
        for (letters, len, cases) in UNCUT {
            assert_eq!(enumerate(&ALPHABET[..letters], len, 0), (cases, None));
        }
    }

    #[test]
    fn every_cut_of_every_length_3_sequence_recovers() {
        // 155 sequences × 17 cuts (none, 4 points × k < 4) × 12 designs.
        assert_eq!(enumerate(&ALPHABET, 3, 4), (31_620, None));
    }

    #[test]
    fn hot_letter_overflows_a_minor_counter_on_every_secure_design() {
        let secure = enumerated_configs()
            .into_iter()
            .filter(|config| config.kind != ControllerKind::IdealNonSecure);
        for config in secure {
            let name = format!("{}/{}", config.kind.name(), config.scheme.name());
            let mut sys = SecureMemorySystem::new(config);
            let mut t = Cycle::ZERO;
            for op in stream(&[Letter::Write(2), Letter::Hot]) {
                let EngineOp::Batch(batch) = op else { continue };
                for (addr, line) in batch {
                    t = sys.persist_write(t, addr, &line);
                }
            }
            sys.quiesce(t);
            assert_eq!(sys.stats().get_or_zero("masu.overflows"), 1.0, "{name}");
        }
    }
}
