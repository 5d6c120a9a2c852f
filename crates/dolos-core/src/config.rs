//! Controller configuration (Table 1 plus the Dolos design-space knobs).

use dolos_crypto::latency::CryptoLatency;
use dolos_sim::trace::TraceMode;

/// Which Mi-SU design option protects the WPQ (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MiSuKind {
    /// Design option 1: per-slot CTR pads + 2-level MAC tree over the WPQ.
    /// Two MAC computations in the critical path; the full WPQ is usable
    /// because only entries are drained on ADR.
    Full,
    /// Design option 2: BMT-style single MAC per entry over
    /// (ciphertext, slot counter). One MAC in the critical path; 8/9 of the
    /// WPQ is usable because MACs drain too.
    Partial,
    /// Design option 3: like Partial but the MAC is computed *after* the
    /// write commits. Zero critical-path latency; the WPQ shrinks further to
    /// reserve ADR energy for one in-flight MAC.
    Post,
}

impl MiSuKind {
    /// All design options, in the paper's presentation order.
    pub const ALL: [MiSuKind; 3] = [MiSuKind::Full, MiSuKind::Partial, MiSuKind::Post];

    /// Short name used in reports ("full", "partial", "post").
    pub fn name(self) -> &'static str {
        match self {
            MiSuKind::Full => "full",
            MiSuKind::Partial => "partial",
            MiSuKind::Post => "post",
        }
    }

    /// Usable WPQ entries given a physical WPQ of `physical` entries,
    /// following §5.2.1 and §5.3: Full uses all 16, Partial roughly 8/9
    /// (the paper reports 13/28/57/113 for 16/32/64/128), Post additionally
    /// reserves ADR energy for one in-flight MAC (10 of 16).
    ///
    /// The paper's reported sizes are reproduced exactly; other physical
    /// sizes fall back to the ⌊8n/9⌋ approximation.
    pub fn usable_wpq_entries(self, physical: usize) -> usize {
        let partial = match physical {
            16 => 13,
            32 => 28,
            64 => 57,
            128 => 113,
            n => (n * 8 / 9).max(1),
        };
        match self {
            MiSuKind::Full => physical,
            MiSuKind::Partial => partial,
            // Post = Partial minus the entries whose ADR energy is
            // reassigned to one deferred MAC (13 -> 10 at 16 physical
            // entries); we scale that 3-of-16 ratio for other sizes.
            MiSuKind::Post => partial.saturating_sub((physical * 3 / 16).max(3)).max(1),
        }
    }

    /// MAC computations in the critical path of an insertion.
    pub fn critical_path_macs(self) -> u64 {
        match self {
            MiSuKind::Full => 2,
            MiSuKind::Partial => 1,
            MiSuKind::Post => 0,
        }
    }
}

impl core::fmt::Display for MiSuKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Integrity-tree organization and update policy of the Ma-SU (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UpdateScheme {
    /// 8-ary Merkle tree, eagerly updated root (AGIT / Anubis). Ten serial
    /// MACs per write (Table 1).
    #[default]
    EagerMerkle,
    /// 8-ary Tree of Counters, lazily updated with Phoenix shadow
    /// protection. Four serial MACs per write (Table 1).
    LazyToc,
}

impl UpdateScheme {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            UpdateScheme::EagerMerkle => "eager-mt",
            UpdateScheme::LazyToc => "lazy-toc",
        }
    }
}

/// Which controller architecture handles persist operations (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerKind {
    /// No security at all: writes persist on WPQ insertion (the non-secure
    /// upper bound, Figure 5 with no security unit).
    IdealNonSecure,
    /// The hypothetical Figure 5-c machine: full security deferred until
    /// after the WPQ with *no* Mi-SU cost and no WPQ shrinkage. Infeasible
    /// under the ADR budget, used only as the motivation comparison (Fig 6).
    DeferredSecure,
    /// The state-of-the-art baseline (Figure 5-b): the full security
    /// pipeline runs before WPQ insertion (Anubis/AGIT — "Pre-WPQ-Secure").
    PreWpqSecure,
    /// Dolos (Figure 5-d): the chosen Mi-SU design protects the WPQ; the
    /// Ma-SU secures entries after eviction.
    Dolos(MiSuKind),
}

impl ControllerKind {
    /// Every controller architecture, in the presentation order used by the
    /// reports (non-secure bound, infeasible comparison, baseline, then the
    /// three Dolos design options).
    pub const ALL: [ControllerKind; 6] = [
        ControllerKind::IdealNonSecure,
        ControllerKind::DeferredSecure,
        ControllerKind::PreWpqSecure,
        ControllerKind::Dolos(MiSuKind::Full),
        ControllerKind::Dolos(MiSuKind::Partial),
        ControllerKind::Dolos(MiSuKind::Post),
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ControllerKind::IdealNonSecure => "ideal",
            ControllerKind::DeferredSecure => "deferred",
            ControllerKind::PreWpqSecure => "pre-wpq-secure",
            ControllerKind::Dolos(MiSuKind::Full) => "dolos-full",
            ControllerKind::Dolos(MiSuKind::Partial) => "dolos-partial",
            ControllerKind::Dolos(MiSuKind::Post) => "dolos-post",
        }
    }

    /// Inverse of [`ControllerKind::name`]: resolves a stable report name
    /// back to the architecture, for CLI flags and replayable repro strings.
    /// Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

impl From<ControllerKind> for ControllerConfig {
    /// The default (Table 1) configuration of `kind`.
    fn from(kind: ControllerKind) -> Self {
        Self::with_kind(kind)
    }
}

/// Full configuration of a [`crate::SecureMemorySystem`].
///
/// # Examples
///
/// ```
/// use dolos_core::{ControllerConfig, ControllerKind, MiSuKind};
///
/// let baseline = ControllerConfig::baseline();
/// assert_eq!(baseline.usable_wpq_entries(), 16);
///
/// let dolos = ControllerConfig::dolos(MiSuKind::Partial);
/// assert_eq!(dolos.usable_wpq_entries(), 13);
///
/// let post = ControllerConfig::dolos(MiSuKind::Post);
/// assert_eq!(post.usable_wpq_entries(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Controller architecture.
    pub kind: ControllerKind,
    /// Integrity-tree organization and update policy.
    pub scheme: UpdateScheme,
    /// Physical WPQ entries **per bank** (baseline default 16).
    pub physical_wpq_entries: usize,
    /// NVM banks (power of two). Each bank gets its own WPQ shard and
    /// drain-serialization clock; `1` (the default) is the paper's
    /// single-queue model and is cycle-identical to the unbanked code.
    pub banks: usize,
    /// Protected data region size in bytes.
    pub region_bytes: u64,
    /// Crypto latencies (Table 1 defaults).
    pub latency: CryptoLatency,
    /// Counter cache capacity in bytes (Table 1: 128 KiB).
    pub counter_cache_bytes: usize,
    /// Counter cache associativity (Table 1: 4-way).
    pub counter_cache_ways: usize,
    /// Merkle-tree metadata cache capacity in bytes (Table 1: 256 KiB).
    pub mt_cache_bytes: usize,
    /// Merkle-tree metadata cache associativity (Table 1: 8-way).
    pub mt_cache_ways: usize,
    /// Osiris stop-loss: counter blocks persist every N updates.
    pub osiris_phase: u64,
    /// Whether the volatile WPQ tag array is present (enables write
    /// coalescing and read hits, §4.5). Disabled only by the ablation
    /// benches.
    pub coalescing: bool,
    /// Deterministic key material seed (keys derive from this).
    pub key_seed: u64,
    /// Event tracing mode. `Off` (the default) makes every trace hook a
    /// single branch; `Record` buffers cycle-stamped events in each
    /// component for `SecureMemorySystem::take_trace_events`. Tracing is
    /// observation-only and never changes simulated timing.
    pub trace: TraceMode,
}

impl ControllerConfig {
    /// Default protected region: 16 MiB (sized to the workloads' footprint;
    /// the paper's 16 GB device is sparse in practice).
    pub const DEFAULT_REGION_BYTES: u64 = 16 << 20;

    /// The Pre-WPQ-Secure baseline (Anubis/AGIT, 16-entry WPQ).
    pub fn baseline() -> Self {
        Self::with_kind(ControllerKind::PreWpqSecure)
    }

    /// A Dolos controller with the given Mi-SU design.
    pub fn dolos(misu: MiSuKind) -> Self {
        Self::with_kind(ControllerKind::Dolos(misu))
    }

    /// The non-secure upper bound.
    pub fn ideal() -> Self {
        Self::with_kind(ControllerKind::IdealNonSecure)
    }

    /// The infeasible deferred-security comparison point (Fig 5-c / Fig 6).
    pub fn deferred() -> Self {
        Self::with_kind(ControllerKind::DeferredSecure)
    }

    fn with_kind(kind: ControllerKind) -> Self {
        Self {
            kind,
            scheme: UpdateScheme::EagerMerkle,
            physical_wpq_entries: 16,
            banks: 1,
            region_bytes: Self::DEFAULT_REGION_BYTES,
            latency: CryptoLatency::default(),
            counter_cache_bytes: 128 * 1024,
            counter_cache_ways: 4,
            mt_cache_bytes: 256 * 1024,
            mt_cache_ways: 8,
            osiris_phase: 4,
            coalescing: true,
            key_seed: 0xD0105,
            trace: TraceMode::Off,
        }
    }

    /// Sets the update scheme (builder style).
    pub fn with_scheme(mut self, scheme: UpdateScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the physical per-bank WPQ size (builder style).
    pub fn with_wpq_entries(mut self, entries: usize) -> Self {
        self.physical_wpq_entries = entries;
        self
    }

    /// Sets the NVM bank count (builder style). Must be a power of two;
    /// enforced when the memory system is built.
    pub fn with_banks(mut self, banks: usize) -> Self {
        self.banks = banks;
        self
    }

    /// Sets the protected region size (builder style).
    pub fn with_region_bytes(mut self, bytes: u64) -> Self {
        self.region_bytes = bytes;
        self
    }

    /// Overrides the MAC latency in both security units (builder style).
    pub fn with_mac_latency(mut self, cycles: u64) -> Self {
        self.latency.mac = cycles;
        self
    }

    /// Overrides the AES latency in the Ma-SU pipeline (builder style).
    ///
    /// The Mi-SU front end XORs pregenerated pads, so this knob only moves
    /// the drain-side re-encryption stage — probes use it to hold drains
    /// in flight without perturbing insert timing.
    pub fn with_aes_latency(mut self, cycles: u64) -> Self {
        self.latency.aes = cycles;
        self
    }

    /// Disables the WPQ tag array (coalescing ablation, builder style).
    pub fn without_coalescing(mut self) -> Self {
        self.coalescing = false;
        self
    }

    /// Sets the counter-cache capacity (builder style).
    pub fn with_counter_cache_bytes(mut self, bytes: usize) -> Self {
        self.counter_cache_bytes = bytes;
        self
    }

    /// Sets the Osiris stop-loss phase (builder style).
    pub fn with_osiris_phase(mut self, phase: u64) -> Self {
        self.osiris_phase = phase;
        self
    }

    /// Sets the event-tracing mode (builder style).
    pub fn with_trace(mut self, trace: TraceMode) -> Self {
        self.trace = trace;
        self
    }

    /// WPQ entries usable for write buffering **per bank** under this
    /// configuration.
    ///
    /// Dolos designs shrink the usable queue per §5.2.1; every other
    /// controller uses the physical queue.
    pub fn usable_wpq_entries(&self) -> usize {
        match self.kind {
            ControllerKind::Dolos(misu) => misu.usable_wpq_entries(self.physical_wpq_entries),
            _ => self.physical_wpq_entries,
        }
    }

    /// Usable WPQ entries summed across all banks. The §5.2.1 shrinkage
    /// applies per bank (each shard reserves its own drain-MAC energy), so
    /// this is `banks ×` the per-bank figure — 4 × 13 = 52 for Partial at
    /// 4 banks, not `usable(4 × 16) = 57`.
    pub fn total_usable_wpq_entries(&self) -> usize {
        self.banks * self.usable_wpq_entries()
    }

    /// Physical WPQ entries summed across all banks.
    pub fn total_physical_wpq_entries(&self) -> usize {
        self.banks * self.physical_wpq_entries
    }

    /// Mi-SU critical-path cycles for this configuration (zero for
    /// non-Dolos controllers).
    pub fn misu_critical_cycles(&self) -> u64 {
        match self.kind {
            ControllerKind::Dolos(misu) => misu.critical_path_macs() * self.latency.mac,
            _ => 0,
        }
    }

    /// Ma-SU integrity-update cycles per write under the active scheme.
    pub fn masu_update_cycles(&self) -> u64 {
        match self.scheme {
            UpdateScheme::EagerMerkle => self.latency.eager_update_cycles(),
            UpdateScheme::LazyToc => self.latency.lazy_update_cycles(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wpq_sizing_matches_section_5_2_1() {
        assert_eq!(MiSuKind::Full.usable_wpq_entries(16), 16);
        assert_eq!(MiSuKind::Partial.usable_wpq_entries(16), 13); // 8/9 of WPQ
        assert_eq!(MiSuKind::Post.usable_wpq_entries(16), 10);
    }

    #[test]
    fn wpq_sizing_sensitivity_sweep() {
        // §5.3 compares a full-WPQ baseline with an 8/9 Partial queue:
        // 16 -> 13, 32 -> 28, 64 -> 57, 128 -> 113.
        assert_eq!(MiSuKind::Partial.usable_wpq_entries(32), 28);
        assert_eq!(MiSuKind::Partial.usable_wpq_entries(64), 57);
        assert_eq!(MiSuKind::Partial.usable_wpq_entries(128), 113);
    }

    #[test]
    fn critical_path_macs_per_design() {
        assert_eq!(MiSuKind::Full.critical_path_macs(), 2);
        assert_eq!(MiSuKind::Partial.critical_path_macs(), 1);
        assert_eq!(MiSuKind::Post.critical_path_macs(), 0);
    }

    #[test]
    fn misu_critical_cycles_follow_table_1() {
        assert_eq!(
            ControllerConfig::dolos(MiSuKind::Full).misu_critical_cycles(),
            320
        );
        assert_eq!(
            ControllerConfig::dolos(MiSuKind::Partial).misu_critical_cycles(),
            160
        );
        assert_eq!(
            ControllerConfig::dolos(MiSuKind::Post).misu_critical_cycles(),
            0
        );
        assert_eq!(ControllerConfig::baseline().misu_critical_cycles(), 0);
    }

    #[test]
    fn masu_update_cycles_per_scheme() {
        let eager = ControllerConfig::baseline();
        assert_eq!(eager.masu_update_cycles(), 1600);
        let lazy = ControllerConfig::baseline().with_scheme(UpdateScheme::LazyToc);
        assert_eq!(lazy.masu_update_cycles(), 640);
    }

    #[test]
    fn usable_entries_never_zero() {
        for kind in MiSuKind::ALL {
            assert!(kind.usable_wpq_entries(1) >= 1);
            assert!(kind.usable_wpq_entries(2) >= 1);
        }
    }

    #[test]
    fn scheme_factory_round_trips_every_name() {
        for kind in ControllerKind::ALL {
            assert_eq!(ControllerKind::from_name(kind.name()), Some(kind));
            assert_eq!(ControllerConfig::from(kind).kind, kind);
        }
        assert_eq!(ControllerKind::from_name("dolos"), None);
        assert_eq!(ControllerKind::from_name("no-such-scheme"), None);
    }

    #[test]
    fn bank_knobs_default_to_the_single_queue_model() {
        for kind in ControllerKind::ALL {
            let config = ControllerConfig::from(kind);
            assert_eq!(config.banks, 1);
            assert_eq!(
                config.total_usable_wpq_entries(),
                config.usable_wpq_entries()
            );
        }
    }

    #[test]
    fn total_capacity_scales_per_bank_not_per_pool() {
        // Shrinkage is per shard: 4 banks of 16 physical Partial entries
        // give 4 × 13 = 52 usable, not usable(64) = 57.
        let config = ControllerConfig::dolos(MiSuKind::Partial).with_banks(4);
        assert_eq!(config.usable_wpq_entries(), 13);
        assert_eq!(config.total_usable_wpq_entries(), 52);
        assert_eq!(config.total_physical_wpq_entries(), 64);
        let post = ControllerConfig::dolos(MiSuKind::Post).with_banks(8);
        assert_eq!(post.total_usable_wpq_entries(), 80);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ControllerKind::Dolos(MiSuKind::Post).name(), "dolos-post");
        assert_eq!(ControllerKind::PreWpqSecure.name(), "pre-wpq-secure");
        assert_eq!(UpdateScheme::LazyToc.name(), "lazy-toc");
        assert_eq!(MiSuKind::Full.to_string(), "full");
    }
}
