//! Error types for recovery and integrity verification.

use core::fmt;

use dolos_nvm::addr::LineAddr;

use crate::inject::InjectionPoint;

/// An integrity or recovery failure detected by the secure memory system.
///
/// Every variant corresponds to an attack (or corruption) from the threat
/// model in §4.1 being *detected* — the security property the system must
/// provide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityError {
    /// A WPQ dump entry failed MAC verification during Mi-SU recovery
    /// (spoofed, relocated, or replayed dump content).
    WpqEntryTampered {
        /// The dump slot that failed verification.
        slot: usize,
    },
    /// The recovered WPQ tree root does not match the persistent root
    /// register (Full-WPQ design).
    WpqRootMismatch,
    /// The dump's address/MAC/drain-order tables do not match the
    /// persistent table register (spliced, torn, or stale-epoch tables).
    DumpTableMismatch,
    /// The recomputed counter-tree root does not match the persistent root
    /// register after Ma-SU recovery.
    TreeRootMismatch,
    /// A data line failed its Bonsai MAC check on read.
    DataMacMismatch {
        /// The offending line.
        addr: LineAddr,
    },
    /// Osiris probing could not find any counter matching the stored ECC.
    CounterUnrecoverable {
        /// The offending line.
        addr: LineAddr,
    },
    /// The Phoenix shadow region for the lazily-updated ToC failed
    /// verification.
    TocShadowTampered,
    /// [`recover`](crate::SecureMemorySystem::recover) was called on a
    /// system that has not crashed.
    NotCrashed,
    /// An armed [`FaultPlan`](crate::inject::FaultPlan) fired: power failed
    /// at the named injection point and the system is now crashed. Not an
    /// attack — the signal the fault-injection harness uses to know its
    /// scheduled fault actually landed.
    PowerInterrupted {
        /// The injection point at which power was cut.
        point: InjectionPoint,
    },
}

impl fmt::Display for SecurityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityError::WpqEntryTampered { slot } => {
                write!(f, "WPQ dump entry {slot} failed integrity verification")
            }
            SecurityError::WpqRootMismatch => {
                write!(
                    f,
                    "recovered WPQ root does not match the persistent register"
                )
            }
            SecurityError::DumpTableMismatch => {
                write!(
                    f,
                    "WPQ dump tables do not match the persistent table register"
                )
            }
            SecurityError::TreeRootMismatch => {
                write!(
                    f,
                    "recomputed integrity-tree root does not match the persistent register"
                )
            }
            SecurityError::DataMacMismatch { addr } => {
                write!(f, "data MAC mismatch at {addr}")
            }
            SecurityError::CounterUnrecoverable { addr } => {
                write!(f, "no counter candidate matches the stored ECC at {addr}")
            }
            SecurityError::TocShadowTampered => {
                write!(f, "tree-of-counters shadow region failed verification")
            }
            SecurityError::NotCrashed => {
                write!(f, "recover called on a system that has not crashed")
            }
            SecurityError::PowerInterrupted { point } => {
                write!(f, "injected power failure fired at {point}")
            }
        }
    }
}

impl std::error::Error for SecurityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SecurityError::DataMacMismatch {
            addr: LineAddr::from_index(4),
        };
        assert!(e.to_string().contains("0x100"));
        assert!(SecurityError::TreeRootMismatch.to_string().contains("root"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(SecurityError::WpqRootMismatch);
    }
}
