//! Deterministic fault-injection hooks for crash-consistency testing.
//!
//! The falsifier (crate `dolos-verify`) needs to cut power at *specific
//! microarchitectural instants* — between a Mi-SU `protect` and the WPQ
//! insertion, mid-Ma-SU drain, or in the middle of recovery itself — and to
//! do so reproducibly from a seed. These hooks give the controller that
//! capability without perturbing timing or behaviour when disarmed: a
//! [`FaultPlan`] is a pure occurrence counter, and with no plan armed every
//! check is a single branch on `None`.
//!
//! The taxonomy below names the instants at which a power failure is
//! architecturally distinguishable (they differ in which state has reached
//! the persistence domain):
//!
//! * **Before anything** ([`InjectionPoint::PersistStart`]) — the write is
//!   simply lost; the persist never completed, so losing it is legal.
//! * **After Mi-SU protect, before WPQ insert**
//!   ([`InjectionPoint::MisuProtect`]) — pad consumed, MAC computed, but the
//!   line never entered the persistence domain: also legal to lose, and the
//!   half-spent Mi-SU state must not poison the dump of the *other* entries.
//! * **After WPQ insert** ([`InjectionPoint::WpqInsert`]) — the persist
//!   completed: the ADR dump must carry the line through recovery.
//! * **Mid-Ma-SU drain** ([`InjectionPoint::MasuDrain`]) — the entry has
//!   (partially) reached its home address *and* still sits in the WPQ as an
//!   uncleared in-flight entry; recovery replays it on top of the partial
//!   application, which must be idempotent.
//! * **During recovery replay** ([`InjectionPoint::RecoveryReplay`]) — a
//!   nested crash: power fails again while the boot-time replay is running.
//!   Recovery must be restartable, which is why the Mi-SU's epoch advance is
//!   deferred to [`crate::misu::MinorSecurityUnit::finish_recovery`].

use core::fmt;

/// A microarchitectural instant at which an armed fault fires.
///
/// Each variant corresponds to one crash-point class of the pipeline; see
/// the [module docs](self) for which durability obligation each carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionPoint {
    /// At the head of `persist_write`, before any Mi-SU or WPQ work.
    PersistStart,
    /// After the Mi-SU protected (encrypted + MACed) the line but before
    /// the WPQ accepted it into the persistence domain.
    MisuProtect,
    /// Immediately after the WPQ accepted the line (persist completed).
    WpqInsert,
    /// While the Ma-SU background engine is draining an entry (the entry is
    /// applied to NVM but not yet cleared from the WPQ).
    MasuDrain,
    /// During boot-time recovery, between two replayed WPQ entries (a
    /// nested crash).
    RecoveryReplay,
}

impl InjectionPoint {
    /// All injection points, for exhaustive sweeps.
    pub const ALL: [InjectionPoint; 5] = [
        InjectionPoint::PersistStart,
        InjectionPoint::MisuProtect,
        InjectionPoint::WpqInsert,
        InjectionPoint::MasuDrain,
        InjectionPoint::RecoveryReplay,
    ];

    /// Whether a write interrupted at this point is allowed to be lost.
    ///
    /// Once the WPQ accepted the line the persist completed and the write
    /// must survive; before that the core never saw the persist complete, so
    /// either outcome is consistent.
    pub fn loss_is_legal(self) -> bool {
        matches!(
            self,
            InjectionPoint::PersistStart | InjectionPoint::MisuProtect
        )
    }

    /// Short stable name (used in reports and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            InjectionPoint::PersistStart => "persist-start",
            InjectionPoint::MisuProtect => "misu-protect",
            InjectionPoint::WpqInsert => "wpq-insert",
            InjectionPoint::MasuDrain => "masu-drain",
            InjectionPoint::RecoveryReplay => "recovery-replay",
        }
    }
}

impl fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An armed, one-shot power-failure plan: fire at the `nth` occurrence
/// (0-based) of `point`.
///
/// A plan is deliberately a concrete counter rather than a callback so the
/// controller stays `Debug + Clone` and campaigns stay replayable: the same
/// plan against the same operation sequence fires at exactly the same
/// instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    point: InjectionPoint,
    nth: u64,
    seen: u64,
    fired: bool,
}

impl FaultPlan {
    /// A plan that fires at the `nth` occurrence (0-based) of `point`.
    pub fn new(point: InjectionPoint, nth: u64) -> Self {
        Self {
            point,
            nth,
            seen: 0,
            fired: false,
        }
    }

    /// The injection point this plan targets.
    pub fn point(&self) -> InjectionPoint {
        self.point
    }

    /// Which occurrence (0-based) the plan fires on.
    pub fn nth(&self) -> u64 {
        self.nth
    }

    /// Occurrences of the target point observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Whether the plan has already fired (plans are one-shot).
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Records that `point` was reached; returns `true` exactly once, when
    /// the target occurrence of the target point is hit.
    pub fn observe(&mut self, point: InjectionPoint) -> bool {
        if self.fired || point != self.point {
            return false;
        }
        let hit = self.seen == self.nth;
        self.seen += 1;
        if hit {
            self.fired = true;
        }
        hit
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.point, self.nth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once_at_nth_occurrence() {
        let mut plan = FaultPlan::new(InjectionPoint::WpqInsert, 2);
        assert!(!plan.observe(InjectionPoint::WpqInsert)); // occurrence 0
        assert!(!plan.observe(InjectionPoint::MisuProtect)); // other point
        assert!(!plan.observe(InjectionPoint::WpqInsert)); // occurrence 1
        assert!(plan.observe(InjectionPoint::WpqInsert)); // occurrence 2: fire
        assert!(plan.fired());
        assert!(!plan.observe(InjectionPoint::WpqInsert)); // one-shot
    }

    #[test]
    fn loss_legality_follows_the_persistence_domain_boundary() {
        assert!(InjectionPoint::PersistStart.loss_is_legal());
        assert!(InjectionPoint::MisuProtect.loss_is_legal());
        assert!(!InjectionPoint::WpqInsert.loss_is_legal());
        assert!(!InjectionPoint::MasuDrain.loss_is_legal());
        assert!(!InjectionPoint::RecoveryReplay.loss_is_legal());
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let mut names: Vec<_> = InjectionPoint::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), InjectionPoint::ALL.len());
        assert_eq!(
            format!("{}", FaultPlan::new(InjectionPoint::MasuDrain, 7)),
            "masu-drain#7"
        );
    }
}
