//! Conformance scenarios: seeded, replayable, shrinkable.
//!
//! A [`Scenario`] is the unit of differential testing: one deterministic
//! operation stream (transaction-shaped rounds from the
//! [`dolos_whisper::gen`] generator) plus the adversarial decorations —
//! a power-failure cut, an optional nested recovery crash, an optional
//! post-crash tamper — that every configured scheme must survive.
//! Scenarios render to a compact string
//! (`seed=7;keys=32;[t4@wpq-insert#9+q;t2+flip(data,0,9)]`) that parses
//! back losslessly, so a campaign failure is replayable from the report
//! alone.
//!
//! Generated scenarios cut only at the two *scheme-independent* injection
//! points ([`CUT_POINTS`]): [`InjectionPoint::PersistStart`] fires at the
//! head of every persist call (the interrupted write is lost in every
//! scheme) and [`InjectionPoint::WpqInsert`] fires exactly once per
//! accepted persist (the interrupted write is ADR-committed in every
//! scheme), so every scheme must acknowledge the same persist prefix. The
//! grammar also accepts the two *scheme-dependent* cuts, whose occurrence
//! count differs between schemes: `misu-protect` (Dolos only; the write is
//! lost) and `masu-drain` (fires inside the drain engine before or after
//! the interrupted write's WPQ insert, so that write may read old or new).
//! Those are checked per scheme against the model, never across schemes.

use core::fmt;
use core::str::FromStr;

use dolos_core::inject::InjectionPoint;
use dolos_core::ControllerConfig;
use dolos_secmem::layout::MetaRegion;
use dolos_sim::rng::XorShift;
use dolos_whisper::gen::TraceGenConfig;

/// Adversarial NVM corruption applied while the system is crashed (between
/// the ADR dump and the next boot — the window in which the threat model
/// gives the attacker the device). Renders in the scenario grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperSpec {
    /// Flip one bit of a resident line in a metadata region. `pick` selects
    /// among the region's resident lines (modulo their count at apply
    /// time); `bit` wraps within the 512-bit line.
    FlipBit {
        /// The region to corrupt.
        region: MetaRegion,
        /// Resident-line selector.
        pick: u64,
        /// Bit index within the chosen line.
        bit: u32,
    },
    /// Tear the ADR dump: restore the trailing `drop` lines of the WPQ dump
    /// region from the *previous* epoch's snapshot, modeling a reserve-power
    /// burst that did not finish.
    TornDump {
        /// Number of trailing dump lines that revert to the old epoch.
        drop: usize,
    },
    /// Tear the ADR dump of a single NVM bank: restore the trailing `drop`
    /// payload lines of that bank's WPQ shard (global slots
    /// `bank × per_bank .. (bank+1) × per_bank`) from the previous epoch's
    /// snapshot. Models one bank's reserve-power burst dying while the
    /// others complete — the failure mode banked drains introduce.
    TornBank {
        /// The bank whose dump burst is torn.
        bank: usize,
        /// Number of that bank's trailing dump lines reverting to the old
        /// epoch.
        drop: usize,
    },
}

impl fmt::Display for TamperSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamperSpec::FlipBit { region, pick, bit } => {
                write!(f, "flip({},{pick},{bit})", region.name())
            }
            TamperSpec::TornDump { drop } => write!(f, "torn({drop})"),
            TamperSpec::TornBank { bank, drop } => write!(f, "tornb({bank},{drop})"),
        }
    }
}

/// One crash round of a scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyRound {
    /// Transactions generated for the round's operation stream.
    pub txns: usize,
    /// Power failure at the nth occurrence of an injection point (see the
    /// module docs for the four accepted cuts); `None` crashes at the end
    /// of the stream.
    pub fault: Option<(InjectionPoint, u64)>,
    /// Drain the WPQ before crashing (the settled-state variant).
    pub quiesce: bool,
    /// Nested power failure at the nth recovery-replay step of this
    /// round's recovery; the boot is then retried once.
    pub nested: Option<u64>,
    /// NVM corruption applied while the machine is dark. Terminal: the
    /// round either ends in detection or must verify clean.
    pub tamper: Option<TamperSpec>,
}

/// A full conformance scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Seed for operation streams and payloads.
    pub seed: u64,
    /// Data lines addressable by the generated transactions.
    pub keyspace: u64,
    /// NVM bank count every scheme runs with (power of two). `1` is the
    /// paper's single-queue model; the rendered form only carries the
    /// token when it differs, so single-bank scenario strings (and the
    /// campaign reports built from them) are unchanged.
    pub banks: usize,
    /// Crash rounds, executed in order against one system instance.
    pub rounds: Vec<VerifyRound>,
}

/// Shape of generated scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// Rounds per scenario.
    pub rounds: usize,
    /// Maximum transactions per round (at least 1 is always generated).
    pub txns_per_round: usize,
    /// Data keyspace in lines.
    pub keyspace: u64,
    /// Whether the final round may tamper with NVM while crashed.
    pub tamper: bool,
    /// NVM bank count the generated scenarios run with. At `1` (the
    /// default) generation is bit-identical to the pre-bank generator; at
    /// higher counts tamper rounds may also tear a single bank's dump.
    pub banks: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            rounds: 2,
            txns_per_round: 6,
            keyspace: 32,
            tamper: true,
            banks: 1,
        }
    }
}

/// The two injection points whose occurrence index is the persist-call
/// index in *every* scheme (see the module docs). Generation draws only
/// these.
pub const CUT_POINTS: [InjectionPoint; 2] =
    [InjectionPoint::PersistStart, InjectionPoint::WpqInsert];

/// Every injection point the `@cut#n` grammar accepts: [`CUT_POINTS`] plus
/// the two scheme-dependent cuts. Recovery replay is the nested `+n#`
/// token, not a stream cut.
pub(crate) const GRAMMAR_CUTS: [InjectionPoint; 4] = [
    InjectionPoint::PersistStart,
    InjectionPoint::MisuProtect,
    InjectionPoint::WpqInsert,
    InjectionPoint::MasuDrain,
];

impl Scenario {
    /// Generates a scenario from a seed. Deterministic; tampering is
    /// confined to the final round because tamper rounds are terminal.
    pub fn generate(seed: u64, config: &ScenarioConfig) -> Self {
        let mut rng = XorShift::new(seed ^ 0xD1FF_5EED);
        let rounds = config.rounds.max(1);
        let mut out = Vec::with_capacity(rounds);
        for index in 0..rounds {
            let txns = 1 + rng.next_below(config.txns_per_round.max(1) as u64) as usize;
            // A transaction issues up to 2*batch+1 persist calls; aiming the
            // occurrence inside (and occasionally past) the stream exercises
            // both firing and non-firing cuts.
            let fault = if rng.chance(0.7) {
                let point = CUT_POINTS[rng.next_below(2) as usize];
                let nth = rng.next_below((txns as u64) * 8);
                Some((point, nth))
            } else {
                None
            };
            let quiesce = rng.chance(0.25);
            let nested = if rng.chance(0.3) {
                Some(rng.next_below(8))
            } else {
                None
            };
            let tamper = if config.tamper && index + 1 == rounds && rng.chance(0.6) {
                Some(if rng.chance(0.7) {
                    TamperSpec::FlipBit {
                        region: MetaRegion::ALL[rng.next_below(5) as usize],
                        pick: rng.next_u64(),
                        bit: rng.next_below(512) as u32,
                    }
                // Short-circuit keeps the banks=1 rng stream — and thus
                // every generated single-bank scenario — bit-identical.
                } else if config.banks > 1 && rng.chance(0.5) {
                    TamperSpec::TornBank {
                        bank: rng.next_below(config.banks as u64) as usize,
                        drop: 1 + rng.next_below(3) as usize,
                    }
                } else {
                    TamperSpec::TornDump {
                        drop: 1 + rng.next_below(3) as usize,
                    }
                })
            } else {
                None
            };
            out.push(VerifyRound {
                txns,
                fault,
                quiesce,
                nested,
                tamper,
            });
        }
        Self {
            seed,
            keyspace: config.keyspace.max(1),
            banks: config.banks.max(1),
            rounds: out,
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={};keys={}", self.seed, self.keyspace)?;
        if self.banks != 1 {
            write!(f, ";banks={}", self.banks)?;
        }
        f.write_str(";[")?;
        for (i, round) in self.rounds.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "t{}", round.txns)?;
            if let Some((point, nth)) = round.fault {
                write!(f, "@{}#{nth}", point.name())?;
            }
            if round.quiesce {
                f.write_str("+q")?;
            }
            if let Some(nth) = round.nested {
                write!(f, "+n#{nth}")?;
            }
            if let Some(tamper) = round.tamper {
                write!(f, "+{tamper}")?;
            }
        }
        f.write_str("]")
    }
}

/// Error parsing a rendered scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError {
    reason: String,
}

impl ParseScenarioError {
    fn new(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario parse error: {}", self.reason)
    }
}

impl std::error::Error for ParseScenarioError {}

/// Rejects a geometry no scheme can run: the bank count must be a power of
/// two, and the generator's data, marker and log lines must fit the
/// default protected region every verified scheme is built with.
///
/// # Errors
///
/// Returns a [`ParseScenarioError`] naming the offending value.
pub fn check_geometry(keyspace: u64, banks: usize) -> Result<(), ParseScenarioError> {
    if !banks.is_power_of_two() {
        return Err(ParseScenarioError::new(format!(
            "bank count must be a power of two, got {banks}"
        )));
    }
    let limit = ControllerConfig::DEFAULT_REGION_BYTES;
    // Bound the keyspace first so the byte arithmetic cannot overflow.
    let fits = keyspace <= limit / 64
        && TraceGenConfig {
            keyspace,
            ..TraceGenConfig::default()
        }
        .region_bytes()
            <= limit;
    if !fits {
        return Err(ParseScenarioError::new(format!(
            "keyspace {keyspace} does not fit the {limit}-byte protected region"
        )));
    }
    Ok(())
}

/// Whether `point` fires at the same persist index in every scheme.
pub(crate) fn is_scheme_independent(point: InjectionPoint) -> bool {
    CUT_POINTS.contains(&point)
}

fn parse_cut_point(name: &str) -> Result<InjectionPoint, ParseScenarioError> {
    GRAMMAR_CUTS
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| ParseScenarioError::new(format!("unknown cut point: {name}")))
}

fn parse_region(name: &str) -> Result<MetaRegion, ParseScenarioError> {
    MetaRegion::ALL
        .into_iter()
        .find(|r| r.name() == name)
        .ok_or_else(|| ParseScenarioError::new(format!("unknown region: {name}")))
}

fn parse_num<T: FromStr>(text: &str, what: &str) -> Result<T, ParseScenarioError> {
    text.parse()
        .map_err(|_| ParseScenarioError::new(format!("bad {what}: {text:?}")))
}

fn parse_round(text: &str) -> Result<VerifyRound, ParseScenarioError> {
    let mut tokens = text.split('+');
    let head = tokens
        .next()
        .ok_or_else(|| ParseScenarioError::new("empty round"))?;
    let head = head
        .strip_prefix('t')
        .ok_or_else(|| ParseScenarioError::new(format!("round must start with t<N>: {text:?}")))?;
    let (txns, fault) = match head.split_once('@') {
        Some((txns, cut)) => {
            let (point, nth) = cut
                .split_once('#')
                .ok_or_else(|| ParseScenarioError::new(format!("cut needs #nth: {cut:?}")))?;
            (
                parse_num(txns, "txns")?,
                Some((parse_cut_point(point)?, parse_num(nth, "occurrence")?)),
            )
        }
        None => (parse_num(head, "txns")?, None),
    };
    let mut round = VerifyRound {
        txns,
        fault,
        ..VerifyRound::default()
    };
    for token in tokens {
        if token == "q" {
            round.quiesce = true;
        } else if let Some(nth) = token.strip_prefix("n#") {
            round.nested = Some(parse_num(nth, "nested occurrence")?);
        } else if let Some(args) = token
            .strip_prefix("flip(")
            .and_then(|t| t.strip_suffix(')'))
        {
            let mut parts = args.split(',');
            let region = parse_region(parts.next().unwrap_or_default())?;
            let pick = parse_num(parts.next().unwrap_or_default(), "pick")?;
            let bit = parse_num(parts.next().unwrap_or_default(), "bit")?;
            if parts.next().is_some() {
                return Err(ParseScenarioError::new("flip takes three arguments"));
            }
            round.tamper = Some(TamperSpec::FlipBit { region, pick, bit });
        } else if let Some(args) = token
            .strip_prefix("tornb(")
            .and_then(|t| t.strip_suffix(')'))
        {
            let (bank, drop) = args
                .split_once(',')
                .ok_or_else(|| ParseScenarioError::new("tornb takes two arguments"))?;
            round.tamper = Some(TamperSpec::TornBank {
                bank: parse_num(bank, "tornb bank")?,
                drop: parse_num(drop, "tornb drop count")?,
            });
        } else if let Some(drop) = token
            .strip_prefix("torn(")
            .and_then(|t| t.strip_suffix(')'))
        {
            round.tamper = Some(TamperSpec::TornDump {
                drop: parse_num(drop, "torn drop count")?,
            });
        } else {
            return Err(ParseScenarioError::new(format!("unknown token: {token:?}")));
        }
    }
    Ok(round)
}

impl FromStr for Scenario {
    type Err = ParseScenarioError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let text = text.trim();
        let rest = text
            .strip_prefix("seed=")
            .ok_or_else(|| ParseScenarioError::new("expected seed=<N>"))?;
        let (seed, rest) = rest
            .split_once(";keys=")
            .ok_or_else(|| ParseScenarioError::new("expected ;keys=<N>"))?;
        let (head, rounds) = rest
            .split_once(";[")
            .ok_or_else(|| ParseScenarioError::new("expected ;[rounds]"))?;
        // Optional bank token between the keyspace and the round list; its
        // absence means the single-bank model.
        let (keys, banks) = match head.split_once(";banks=") {
            Some((keys, banks)) => (keys, parse_num(banks, "banks")?),
            None => (head, 1),
        };
        let rounds = rounds
            .strip_suffix(']')
            .ok_or_else(|| ParseScenarioError::new("unterminated round list"))?;
        let mut parsed = Vec::new();
        for part in rounds.split(';') {
            if part.is_empty() {
                continue;
            }
            parsed.push(parse_round(part)?);
        }
        if parsed.is_empty() {
            return Err(ParseScenarioError::new("scenario needs at least one round"));
        }
        let keyspace = parse_num(keys, "keyspace")?;
        check_geometry(keyspace, banks)?;
        Ok(Scenario {
            seed: parse_num(seed, "seed")?,
            keyspace,
            banks,
            rounds: parsed,
        })
    }
}

impl Scenario {
    /// One shrinking step: every structurally smaller variant, most
    /// aggressive first. Deterministic, and every candidate is strictly
    /// smaller, so [`shrink_with`] terminates.
    fn candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        // Bank-dependent failures should first prove they need the banking:
        // collapsing to the single-queue model is the most aggressive
        // simplification of all.
        if self.banks > 1 {
            let mut s = self.clone();
            s.banks = 1;
            out.push(s);
        }
        if self.rounds.len() > 1 {
            for i in 0..self.rounds.len() {
                let mut s = self.clone();
                s.rounds.remove(i);
                out.push(s);
            }
        }
        for i in 0..self.rounds.len() {
            let round = &self.rounds[i];
            if round.txns > 1 {
                let mut s = self.clone();
                s.rounds[i].txns = round.txns / 2;
                out.push(s);
            }
            if round.nested.is_some() {
                let mut s = self.clone();
                s.rounds[i].nested = None;
                out.push(s);
            }
            if round.quiesce {
                let mut s = self.clone();
                s.rounds[i].quiesce = false;
                out.push(s);
            }
            if round.tamper.is_some() {
                let mut s = self.clone();
                s.rounds[i].tamper = None;
                out.push(s);
            }
            // A per-bank tear degrades to the whole-dump tear (one fewer
            // coordinate), then toward bank 0 and fewer dropped lines.
            if let Some(TamperSpec::TornBank { bank, drop }) = round.tamper {
                let mut s = self.clone();
                s.rounds[i].tamper = Some(TamperSpec::TornDump { drop });
                out.push(s);
                if bank > 0 {
                    let mut s = self.clone();
                    s.rounds[i].tamper = Some(TamperSpec::TornBank { bank: 0, drop });
                    out.push(s);
                }
                if drop > 1 {
                    let mut s = self.clone();
                    s.rounds[i].tamper = Some(TamperSpec::TornBank {
                        bank,
                        drop: drop / 2,
                    });
                    out.push(s);
                }
            }
            if round.fault.is_some() {
                let mut s = self.clone();
                s.rounds[i].fault = None;
                out.push(s);
            }
        }
        out
    }
}

/// Greedily shrinks `scenario` while `fails` keeps returning `true`: take
/// the first candidate that still fails, repeat until none does.
///
/// A scenario that does not fail in the first place comes back unchanged.
/// Deterministic: the same scenario and predicate always give the same
/// minimum.
pub fn shrink_with(scenario: &Scenario, mut fails: impl FnMut(&Scenario) -> bool) -> Scenario {
    let mut current = scenario.clone();
    if !fails(&current) {
        return current;
    }
    while let Some(next) = current.candidates().into_iter().find(|c| fails(c)) {
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = ScenarioConfig::default();
        assert_eq!(
            Scenario::generate(9, &config),
            Scenario::generate(9, &config)
        );
        assert_ne!(
            Scenario::generate(9, &config),
            Scenario::generate(10, &config)
        );
    }

    #[test]
    fn generated_faults_use_only_scheme_independent_cuts() {
        let config = ScenarioConfig {
            rounds: 4,
            ..ScenarioConfig::default()
        };
        for seed in 0..200 {
            let scenario = Scenario::generate(seed, &config);
            for round in &scenario.rounds {
                if let Some((point, _)) = round.fault {
                    assert!(CUT_POINTS.contains(&point), "{point:?}");
                }
            }
            // Tamper only on the final round.
            for round in &scenario.rounds[..scenario.rounds.len() - 1] {
                assert!(round.tamper.is_none());
            }
        }
    }

    #[test]
    fn rendering_round_trips() {
        let config = ScenarioConfig {
            rounds: 3,
            ..ScenarioConfig::default()
        };
        for seed in 0..300 {
            let scenario = Scenario::generate(seed, &config);
            let text = scenario.to_string();
            let parsed: Scenario = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, scenario, "{text}");
        }
    }

    #[test]
    fn parser_accepts_every_stream_cut_and_rejects_garbage() {
        for text in [
            "seed=1;keys=8;[t4@misu-protect#0]",
            "seed=1;keys=8;[t4@masu-drain#2+q]",
        ] {
            let parsed: Scenario = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed.to_string(), text);
        }
        assert!("seed=1;keys=8;[t4@recovery-replay#0]"
            .parse::<Scenario>()
            .is_err());
        assert!("seed=1;keys=8;[t4@nowhere#0]".parse::<Scenario>().is_err());
        assert!("seed=1;keys=8;[]".parse::<Scenario>().is_err());
        assert!("seed=x;keys=8;[t4]".parse::<Scenario>().is_err());
        assert!("seed=1;keys=8;[w4]".parse::<Scenario>().is_err());
        assert!("seed=1;keys=8;[t4+flip(data,1)]"
            .parse::<Scenario>()
            .is_err());
        assert!("seed=1;keys=8;[t4".parse::<Scenario>().is_err());
    }

    #[test]
    fn fixed_rendering_is_pinned() {
        let scenario = Scenario {
            seed: 7,
            keyspace: 32,
            banks: 1,
            rounds: vec![
                VerifyRound {
                    txns: 4,
                    fault: Some((InjectionPoint::WpqInsert, 9)),
                    quiesce: true,
                    nested: Some(1),
                    tamper: None,
                },
                VerifyRound {
                    txns: 2,
                    fault: None,
                    quiesce: false,
                    nested: None,
                    tamper: Some(TamperSpec::FlipBit {
                        region: MetaRegion::Data,
                        pick: 0,
                        bit: 9,
                    }),
                },
            ],
        };
        let text = scenario.to_string();
        assert_eq!(
            text,
            "seed=7;keys=32;[t4@wpq-insert#9+q+n#1;t2+flip(data,0,9)]"
        );
        assert_eq!(text.parse::<Scenario>().ok(), Some(scenario));
    }

    #[test]
    fn banked_rendering_is_pinned_and_round_trips() {
        let scenario = Scenario {
            seed: 5,
            keyspace: 16,
            banks: 4,
            rounds: vec![VerifyRound {
                txns: 3,
                fault: Some((InjectionPoint::WpqInsert, 2)),
                quiesce: false,
                nested: None,
                tamper: Some(TamperSpec::TornBank { bank: 2, drop: 1 }),
            }],
        };
        let text = scenario.to_string();
        assert_eq!(text, "seed=5;keys=16;banks=4;[t3@wpq-insert#2+tornb(2,1)]");
        assert_eq!(text.parse::<Scenario>().ok(), Some(scenario));
    }

    #[test]
    fn banked_generation_round_trips_and_single_bank_is_unchanged() {
        let banked = ScenarioConfig {
            rounds: 3,
            banks: 4,
            ..ScenarioConfig::default()
        };
        let mut torn_banks = 0;
        for seed in 0..300 {
            let scenario = Scenario::generate(seed, &banked);
            assert_eq!(scenario.banks, 4);
            let text = scenario.to_string();
            let parsed: Scenario = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, scenario, "{text}");
            if let Some(TamperSpec::TornBank { bank, .. }) =
                scenario.rounds.last().and_then(|r| r.tamper)
            {
                assert!(bank < 4, "{text}");
                torn_banks += 1;
            }
        }
        assert!(torn_banks > 0, "banked sweeps must schedule per-bank tears");
        // Single-bank generation never schedules the banked tamper class
        // and renders without the banks token, so pre-bank scenario strings
        // and campaign reports are byte-for-byte reproducible.
        let single = ScenarioConfig {
            rounds: 3,
            ..ScenarioConfig::default()
        };
        for seed in 0..300 {
            let scenario = Scenario::generate(seed, &single);
            assert_eq!(scenario.banks, 1);
            assert!(!scenario.to_string().contains("banks="));
            for round in &scenario.rounds {
                assert!(!matches!(round.tamper, Some(TamperSpec::TornBank { .. })));
            }
        }
    }

    #[test]
    fn corrupted_scenarios_parse_or_fail_cleanly() {
        let valid: Vec<String> = (0..24)
            .map(|seed| {
                let config = ScenarioConfig {
                    rounds: 3,
                    banks: if seed % 2 == 0 { 1 } else { 4 },
                    ..ScenarioConfig::default()
                };
                Scenario::generate(seed, &config).to_string()
            })
            .collect();
        let mut rng = XorShift::new(0x5CE7_A210);
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..900 {
            let mut bytes = valid[case % valid.len()].clone().into_bytes();
            let at = rng.next_below(bytes.len() as u64) as usize;
            match case % 3 {
                0 => bytes.truncate(at),
                1 => bytes[at] ^= 1 << rng.next_below(8),
                _ => bytes[at] = rng.next_below(256) as u8,
            }
            let text = String::from_utf8_lossy(&bytes);
            match text.parse::<Scenario>() {
                // Whatever the parser accepts is a scenario the grammar can
                // express: it renders and parses back to itself.
                Ok(mutant) => {
                    let rendered = mutant.to_string();
                    assert_eq!(rendered.parse::<Scenario>().ok(), Some(mutant), "{text}");
                    accepted += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        // Both outcomes occur, so the sweep reaches past the first token.
        assert!(accepted * rejected > 0, "{accepted} ok, {rejected} err");
    }

    #[test]
    fn parser_rejects_malformed_bank_tokens() {
        assert!("seed=1;keys=8;banks=x;[t4]".parse::<Scenario>().is_err());
        assert!("seed=1;keys=8;[t4+tornb(1)]".parse::<Scenario>().is_err());
        assert!("seed=1;keys=8;[t4+tornb(a,1)]".parse::<Scenario>().is_err());
        // Geometry the controller cannot build or address: a bank count
        // that is not a power of two, and a keyspace past the region.
        for text in [
            "seed=1;keys=8;banks=3;[t1]",
            "seed=1;keys=8;banks=0;[t1]",
            "seed=1;keys=99999999999;[t2]",
            "seed=1;keys=18446744073709551615;[t1]",
        ] {
            assert!(text.parse::<Scenario>().is_err(), "{text}");
        }
        assert!(
            check_geometry(262_135, 8).is_ok(),
            "largest fitting keyspace"
        );
        assert!(check_geometry(262_136, 1).is_err());
    }

    #[test]
    fn shrink_collapses_banks_and_per_bank_tears_first() {
        let scenario = Scenario {
            seed: 1,
            keyspace: 8,
            banks: 4,
            rounds: vec![VerifyRound {
                txns: 2,
                fault: None,
                quiesce: false,
                nested: None,
                tamper: Some(TamperSpec::TornBank { bank: 3, drop: 2 }),
            }],
        };
        let candidates = scenario.candidates();
        assert_eq!(candidates[0].banks, 1, "banks collapse first");
        assert!(candidates
            .iter()
            .any(|c| matches!(c.rounds[0].tamper, Some(TamperSpec::TornDump { drop: 2 }))));
        assert!(candidates.iter().any(|c| matches!(
            c.rounds[0].tamper,
            Some(TamperSpec::TornBank { bank: 0, drop: 2 })
        )));
        assert!(candidates.iter().any(|c| matches!(
            c.rounds[0].tamper,
            Some(TamperSpec::TornBank { bank: 3, drop: 1 })
        )));
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller() {
        let scenario = Scenario::generate(3, &ScenarioConfig::default());
        let weight = |s: &Scenario| {
            s.rounds
                .iter()
                .map(|r| {
                    r.txns * 16
                        + usize::from(r.fault.is_some())
                        + usize::from(r.quiesce)
                        + usize::from(r.nested.is_some())
                        + usize::from(r.tamper.is_some())
                })
                .sum::<usize>()
        };
        for candidate in scenario.candidates() {
            assert!(weight(&candidate) < weight(&scenario));
        }
    }
}
