//! PMDK-style undo-log transactions.
//!
//! The WHISPER applications keep their structures crash consistent with an
//! undo log: before a field is overwritten, its old contents are appended to
//! a per-thread log and *persisted*; only then may the new data be written.
//! At commit, the data lines are flushed, a commit marker is persisted, and
//! the log is truncated. This produces exactly the flush/fence pattern the
//! paper's motivation describes: small ordered log appends (serial fences)
//! plus a burst of data flushes at commit.
//!
//! Log layout (all offsets line-aligned):
//!
//! ```text
//! +0   status: u64 (0 = free, 1 = active, 2 = committed)
//! +64  record area: repeated [addr u64 | len u64 | old bytes...] (padded)
//! ```

use crate::env::PmEnv;

/// Log status: no transaction in flight.
const STATUS_FREE: u64 = 0;
/// Log status: transaction active, log records valid.
const STATUS_ACTIVE: u64 = 1;
/// Log status: transaction committed, log records obsolete.
const STATUS_COMMITTED: u64 = 2;

/// An undo log and the transaction protocol over it.
///
/// # Examples
///
/// ```
/// use dolos_core::{ControllerConfig, MiSuKind};
/// use dolos_whisper::{env::PmEnv, txn::UndoLog};
///
/// let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
/// let mut log = UndoLog::new(&mut env, 16 * 1024);
/// let p = env.alloc(64);
///
/// log.begin(&mut env);
/// log.set_u64(&mut env, p, 42);
/// log.commit(&mut env);
/// assert_eq!(env.read_u64(p), 42);
/// ```
#[derive(Debug)]
pub struct UndoLog {
    base: u64,
    capacity: u64,
    head: u64,
    active: bool,
    /// Data ranges written by the active transaction, flushed at commit.
    pending_data: Vec<(u64, u64)>,
    commits: u64,
}

impl UndoLog {
    /// Allocates a log of `capacity` bytes in persistent memory.
    pub fn new(env: &mut PmEnv, capacity: u64) -> Self {
        let base = env.alloc(capacity);
        env.write_u64(base, STATUS_FREE);
        env.persist(base, 8);
        Self {
            base,
            capacity,
            head: 64,
            active: false,
            pending_data: Vec::new(),
            commits: 0,
        }
    }

    /// Transactions committed so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Begins a transaction.
    ///
    /// # Panics
    ///
    /// Panics if one is already active.
    pub fn begin(&mut self, env: &mut PmEnv) {
        assert!(!self.active, "nested transactions are not supported");
        self.active = true;
        self.head = 64;
        self.pending_data.clear();
        env.write_u64(self.base, STATUS_ACTIVE);
        env.persist(self.base, 8);
    }

    /// Records the old contents of `[addr, addr+len)` in the log and
    /// persists the record — the ordering point that makes the following
    /// overwrite undoable.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active or the log is full.
    pub fn record(&mut self, env: &mut PmEnv, addr: u64, len: u64) {
        assert!(self.active, "record outside a transaction");
        let record_len = 16 + len;
        assert!(
            self.head + record_len <= self.capacity,
            "undo log full: {} + {record_len} > {}",
            self.head,
            self.capacity
        );
        let old = env.read_bytes(addr, len as usize);
        let rec = self.base + self.head;
        env.write_u64(rec, addr);
        env.write_u64(rec + 8, len);
        env.write_bytes(rec + 16, &old);
        // Terminate the log with a zero header so recovery's scan stops
        // before any stale records from earlier transactions.
        let next = self.head + record_len.div_ceil(64) * 64;
        let mut persist_len = record_len;
        if next + 16 <= self.capacity {
            env.write_u64(self.base + next, 0);
            env.write_u64(self.base + next + 8, 0);
            persist_len = next + 16 - self.head;
        }
        // The log record must be durable before the data is overwritten.
        env.persist(rec, persist_len);
        self.head = next;
    }

    /// Transactionally writes bytes: undo-record then update. The data
    /// flush is deferred to commit (the WHISPER pattern).
    pub fn set_bytes(&mut self, env: &mut PmEnv, addr: u64, bytes: &[u8]) {
        self.record(env, addr, bytes.len() as u64);
        env.write_bytes(addr, bytes);
        self.pending_data.push((addr, bytes.len() as u64));
    }

    /// Transactionally writes a u64.
    pub fn set_u64(&mut self, env: &mut PmEnv, addr: u64, value: u64) {
        self.set_bytes(env, addr, &value.to_le_bytes());
    }

    /// Commits: flush all data written by the transaction (one parallel
    /// burst), persist the commit marker, then truncate the log.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn commit(&mut self, env: &mut PmEnv) {
        assert!(self.active, "commit outside a transaction");
        for (addr, len) in std::mem::take(&mut self.pending_data) {
            env.clwb(addr, len);
        }
        env.sfence();
        env.write_u64(self.base, STATUS_COMMITTED);
        env.persist(self.base, 8);
        env.write_u64(self.base, STATUS_FREE);
        env.persist(self.base, 8);
        self.active = false;
        self.head = 64;
        self.commits += 1;
    }

    /// Recovery-time undo: if a crash interrupted an active transaction,
    /// roll its recorded old values back (in reverse order) and persist
    /// them. Returns the number of records undone.
    pub fn recover(&mut self, env: &mut PmEnv) -> usize {
        self.active = false;
        self.pending_data.clear();
        let status = env.read_u64(self.base);
        if status != STATUS_ACTIVE {
            // Free or committed: nothing to undo.
            self.head = 64;
            return 0;
        }
        // The in-memory head was lost with the crash; scan from the start
        // until the zero terminator.
        let mut records = Vec::new();
        let mut off = 64u64;
        loop {
            if off + 16 > self.capacity {
                break;
            }
            let addr = env.read_u64(self.base + off);
            let len = env.read_u64(self.base + off + 8);
            if len == 0 || addr == 0 || off + 16 + len > self.capacity {
                break;
            }
            records.push((off, addr, len));
            off += (16 + len).div_ceil(64) * 64;
        }
        let undone = records.len();
        for &(off, addr, len) in records.iter().rev() {
            let old = env.read_bytes(self.base + off + 16, len as usize);
            env.write_bytes(addr, &old);
            env.persist(addr, len);
        }
        // Truncate: zero the first record header and free the log.
        env.write_u64(self.base + 64, 0);
        env.write_u64(self.base + 64 + 8, 0);
        env.persist(self.base + 64, 16);
        env.write_u64(self.base, STATUS_FREE);
        env.persist(self.base, 8);
        self.head = 64;
        undone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolos_core::{ControllerConfig, MiSuKind};

    fn setup() -> (PmEnv, UndoLog) {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let log = UndoLog::new(&mut env, 64 * 1024);
        (env, log)
    }

    #[test]
    fn commit_applies_updates() {
        let (mut env, mut log) = setup();
        let p = env.alloc(128);
        log.begin(&mut env);
        log.set_u64(&mut env, p, 7);
        log.set_u64(&mut env, p + 64, 9);
        log.commit(&mut env);
        assert_eq!(env.read_u64(p), 7);
        assert_eq!(env.read_u64(p + 64), 9);
        assert_eq!(log.commits(), 1);
    }

    #[test]
    fn crash_mid_txn_rolls_back() {
        let (mut env, mut log) = setup();
        let p = env.alloc(128);
        // Committed baseline value.
        log.begin(&mut env);
        log.set_u64(&mut env, p, 100);
        log.commit(&mut env);

        // Partially-complete transaction: data overwritten and even flushed,
        // but no commit marker.
        log.begin(&mut env);
        log.set_u64(&mut env, p, 200);
        env.persist(p, 8); // the torn write reached NVM
        env.crash();
        env.recover().expect("clean recovery");
        let undone = log.recover(&mut env);
        assert_eq!(undone, 1);
        assert_eq!(env.read_u64(p), 100, "old value must be restored");
    }

    #[test]
    fn crash_after_commit_keeps_new_values() {
        let (mut env, mut log) = setup();
        let p = env.alloc(128);
        log.begin(&mut env);
        log.set_u64(&mut env, p, 55);
        log.commit(&mut env);
        env.crash();
        env.recover().expect("clean recovery");
        let undone = log.recover(&mut env);
        assert_eq!(undone, 0);
        assert_eq!(env.read_u64(p), 55);
    }

    #[test]
    fn multi_record_rollback_is_reverse_ordered() {
        let (mut env, mut log) = setup();
        let p = env.alloc(64);
        log.begin(&mut env);
        log.set_u64(&mut env, p, 1);
        log.commit(&mut env);

        log.begin(&mut env);
        log.set_u64(&mut env, p, 2);
        log.set_u64(&mut env, p, 3); // second undo record for same addr
        env.persist(p, 8);
        env.crash();
        env.recover().expect("clean recovery");
        log.recover(&mut env);
        // Reverse-order undo restores the value before the *first* record.
        assert_eq!(env.read_u64(p), 1);
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn nested_begin_panics() {
        let (mut env, mut log) = setup();
        log.begin(&mut env);
        log.begin(&mut env);
    }

    #[test]
    fn set_bytes_large_payload() {
        let (mut env, mut log) = setup();
        let p = env.alloc(2048);
        let payload: Vec<u8> = (0..2048u32).map(|i| i as u8).collect();
        log.begin(&mut env);
        log.set_bytes(&mut env, p, &payload);
        log.commit(&mut env);
        assert_eq!(env.read_bytes(p, 2048), payload);
    }
}
