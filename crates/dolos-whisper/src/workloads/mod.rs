//! The six WHISPER-style persistent benchmarks.
//!
//! Each workload is a real data structure laid out in the simulated
//! persistent memory (nodes are PM allocations, pointers are PM addresses),
//! driven through the undo-log (or write-ahead-log) discipline the original
//! WHISPER applications use. What reaches the memory controller is therefore
//! a faithful reproduction of the suite's persist-traffic *shape*: ordered
//! log appends, scattered small node updates, and bursty value flushes at
//! commit.

mod btree;
mod ctree;
mod hashmap;
mod memcached;
mod nstore;
mod rbtree;
mod redis;
mod vacation;

pub use btree::BTreeWorkload;
pub use ctree::CtreeWorkload;
pub use hashmap::HashmapWorkload;
pub use memcached::MemcachedWorkload;
pub use nstore::NstoreYcsbWorkload;
pub use rbtree::RbtreeWorkload;
pub use redis::RedisWorkload;
pub use vacation::VacationWorkload;

use dolos_sim::rng::XorShift;

use crate::env::PmEnv;

/// Default number of distinct keys each workload touches. Bounds the PM
/// footprint so the default 16 MiB region comfortably fits keys, values,
/// logs, and structure nodes at the largest transaction size.
pub const DEFAULT_KEYSPACE: u64 = 256;

/// A runnable persistent benchmark.
pub trait Workload {
    /// The benchmark's name as it appears in the paper's figures.
    fn name(&self) -> &'static str;

    /// Allocates roots and fixed structures. Called once before any
    /// transaction.
    fn setup(&mut self, env: &mut PmEnv);

    /// Executes one transaction writing (about) `txn_bytes` of payload.
    fn transaction(&mut self, env: &mut PmEnv, txn_bytes: usize, rng: &mut XorShift);

    /// Verifies the workload's committed state against its volatile mirror,
    /// panicking on mismatch. Used by crash-consistency tests.
    fn verify(&mut self, env: &mut PmEnv);
}

/// Which benchmark to run (the paper's six).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// WHISPER `hashmap`: open-chaining persistent hash table.
    Hashmap,
    /// WHISPER `ctree`: crit-bit tree.
    Ctree,
    /// WHISPER `btree`: B+-tree.
    Btree,
    /// WHISPER `rbtree`: red-black tree (many scattered node writes).
    Rbtree,
    /// N-Store running a YCSB-style zipfian read/update mix with a
    /// write-ahead redo log.
    NstoreYcsb,
    /// Redis-like dict with an always-fsync append-only file.
    Redis,
    /// Memcached-like object cache with a persistent LRU (extension; part
    /// of the wider WHISPER suite, not in the paper's figures).
    Memcached,
    /// Vacation-like travel reservations: multi-table atomic transactions
    /// (extension; part of the wider WHISPER suite, not in the paper's
    /// figures).
    Vacation,
}

impl WorkloadKind {
    /// The paper's six benchmarks, in figure order.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::Hashmap,
        WorkloadKind::Ctree,
        WorkloadKind::Btree,
        WorkloadKind::Rbtree,
        WorkloadKind::NstoreYcsb,
        WorkloadKind::Redis,
    ];

    /// The paper's six plus the extension workloads.
    pub const EXTENDED: [WorkloadKind; 8] = [
        WorkloadKind::Hashmap,
        WorkloadKind::Ctree,
        WorkloadKind::Btree,
        WorkloadKind::Rbtree,
        WorkloadKind::NstoreYcsb,
        WorkloadKind::Redis,
        WorkloadKind::Memcached,
        WorkloadKind::Vacation,
    ];

    /// The display name used in figures ("Hashmap", "NStore:YCSB", ...).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Hashmap => "Hashmap",
            WorkloadKind::Ctree => "Ctree",
            WorkloadKind::Btree => "Btree",
            WorkloadKind::Rbtree => "RBtree",
            WorkloadKind::NstoreYcsb => "NStore:YCSB",
            WorkloadKind::Redis => "Redis",
            WorkloadKind::Memcached => "Memcached",
            WorkloadKind::Vacation => "Vacation",
        }
    }

    /// Instantiates the workload with a bounded keyspace.
    pub fn build(self) -> Box<dyn Workload> {
        match self {
            WorkloadKind::Hashmap => Box::new(HashmapWorkload::new(DEFAULT_KEYSPACE)),
            WorkloadKind::Ctree => Box::new(CtreeWorkload::new(DEFAULT_KEYSPACE)),
            WorkloadKind::Btree => Box::new(BTreeWorkload::new(DEFAULT_KEYSPACE)),
            WorkloadKind::Rbtree => Box::new(RbtreeWorkload::new(DEFAULT_KEYSPACE)),
            WorkloadKind::NstoreYcsb => Box::new(NstoreYcsbWorkload::new(DEFAULT_KEYSPACE)),
            WorkloadKind::Redis => Box::new(RedisWorkload::new(DEFAULT_KEYSPACE)),
            WorkloadKind::Memcached => Box::new(MemcachedWorkload::new(DEFAULT_KEYSPACE)),
            WorkloadKind::Vacation => Box::new(VacationWorkload::new(64)),
        }
    }
}

impl core::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Deterministic value bytes for `key` at `version`, sized `len`.
///
/// Workloads use this so the crash-consistency tests can reconstruct the
/// expected value of any (key, version) pair without storing payloads.
///
/// Byte `i` is bits 3..11 of `(seed + i) * 31`, with
/// `seed = key * 0x9E37_79B9_7F4A_7C15 ^ version`. Those bits depend only
/// on the low 16 bits of the operands, so the buffer is built in `u16`
/// lanes in one pass the compiler vectorizes.
pub fn value_pattern(key: u64, version: u64, len: usize) -> Vec<u8> {
    let seed = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version) as u16;
    (0..len)
        .map(|i| (seed.wrapping_add(i as u16).wrapping_mul(31) >> 3) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_pattern_is_deterministic_and_distinct() {
        assert_eq!(value_pattern(1, 2, 64), value_pattern(1, 2, 64));
        assert_ne!(value_pattern(1, 2, 64), value_pattern(1, 3, 64));
        assert_ne!(value_pattern(1, 2, 64), value_pattern(2, 2, 64));
        assert_eq!(value_pattern(9, 9, 100).len(), 100);
    }

    #[test]
    fn value_pattern_matches_its_per_byte_definition() {
        fn per_byte(key: u64, version: u64, len: usize) -> Vec<u8> {
            let mut out = Vec::with_capacity(len);
            let seed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version;
            for i in 0..len {
                out.push((seed.wrapping_add(i as u64).wrapping_mul(31) >> 3) as u8);
            }
            out
        }
        let mut rng = XorShift::new(3);
        for len in 0..=2100 {
            let (key, version) = (rng.next_u64(), rng.next_below(1 << 20));
            assert_eq!(
                value_pattern(key, version, len),
                per_byte(key, version, len),
                "key {key} version {version} len {len}"
            );
        }
        // Past 2^16 bytes the u16 index wraps with the arithmetic.
        assert_eq!(value_pattern(5, 6, 70_000), per_byte(5, 6, 70_000));
    }

    #[test]
    fn kind_names_match_the_paper() {
        let names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "Hashmap",
                "Ctree",
                "Btree",
                "RBtree",
                "NStore:YCSB",
                "Redis"
            ]
        );
    }
}
