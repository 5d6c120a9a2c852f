//! Vacation-like travel-reservation benchmark (extension beyond the paper's
//! six; WHISPER's full suite includes STAMP's vacation).
//!
//! Each transaction reserves one to three resources (car, room, flight) for
//! a customer: it decrements availability counters in three resource tables
//! and appends records to the customer's itinerary, all atomically under one
//! undo-log transaction. The persist pattern is many small scattered writes
//! across independent tables — quite different from the value-blob
//! workloads.
//!
//! Layout:
//!
//! ```text
//! table[r]:   [total u64 | reserved u64] x resources      (r in cars/rooms/flights)
//! customer:   [count u64 | records: (kind u64, id u64, note bytes)...]
//! ```

use std::collections::BTreeMap;

use dolos_sim::rng::XorShift;

use crate::env::PmEnv;
use crate::txn::UndoLog;
use crate::workloads::{value_pattern, Workload};

const RESOURCE_KINDS: usize = 3;
const RESOURCES_PER_KIND: u64 = 64;
const CUSTOMER_BYTES: u64 = 8 * 1024;
const MAX_RECORDS: u64 = 60;

/// The vacation-like benchmark.
#[derive(Debug)]
pub struct VacationWorkload {
    customers: u64,
    tables: [u64; RESOURCE_KINDS],
    customer_base: u64,
    log: Option<UndoLog>,
    /// Volatile mirror: reserved count per (kind, resource id).
    reserved: BTreeMap<(usize, u64), u64>,
    /// Volatile mirror: records per customer.
    itineraries: BTreeMap<u64, Vec<(u64, u64)>>,
}

impl VacationWorkload {
    /// Creates the workload over `customers` customers.
    pub fn new(customers: u64) -> Self {
        Self {
            customers,
            tables: [0; RESOURCE_KINDS],
            customer_base: 0,
            log: None,
            reserved: BTreeMap::new(),
            itineraries: BTreeMap::new(),
        }
    }

    fn resource_addr(&self, kind: usize, id: u64) -> u64 {
        self.tables[kind] + id * 16
    }

    fn customer_addr(&self, customer: u64) -> u64 {
        self.customer_base + customer * CUSTOMER_BYTES
    }

    fn reserve(&mut self, env: &mut PmEnv, customer: u64, picks: &[(usize, u64)], note: &[u8]) {
        #[expect(clippy::expect_used, reason = "setup runs before any transaction")]
        let mut log = self.log.take().expect("setup ran");
        log.begin(env);
        let cust = self.customer_addr(customer);
        let mut count = env.read_u64(cust);
        for &(kind, id) in picks {
            env.work(15); // availability search
            let res = self.resource_addr(kind, id);
            let reserved = env.read_u64(res + 8);
            log.set_u64(env, res + 8, reserved + 1);
            if count < MAX_RECORDS {
                let rec = cust + 8 + count * 16;
                log.set_u64(env, rec, kind as u64 + 1);
                log.set_u64(env, rec + 8, id);
                count += 1;
            }
            self.reserved
                .entry((kind, id))
                .and_modify(|r| *r += 1)
                .or_insert(1);
            self.itineraries
                .entry(customer)
                .or_default()
                .push((kind as u64 + 1, id));
        }
        log.set_u64(env, cust, count);
        // The payload: a free-text booking note (scales with txn size).
        let note_addr = cust + 8 + MAX_RECORDS * 16;
        log.set_bytes(env, note_addr, note);
        log.commit(env);
        self.log = Some(log);
        // Keep the mirror bounded like the persistent record area.
        if let Some(records) = self.itineraries.get_mut(&customer) {
            records.truncate(MAX_RECORDS as usize);
        }
    }
}

impl Workload for VacationWorkload {
    fn name(&self) -> &'static str {
        "Vacation"
    }

    fn setup(&mut self, env: &mut PmEnv) {
        for table in &mut self.tables {
            *table = env.alloc(RESOURCES_PER_KIND * 16);
        }
        for kind in 0..RESOURCE_KINDS {
            for id in 0..RESOURCES_PER_KIND {
                let res = self.tables[kind] + id * 16;
                env.write_u64(res, 100); // total capacity
                env.write_u64(res + 8, 0); // reserved
            }
            env.persist(self.tables[kind], RESOURCES_PER_KIND * 16);
        }
        self.customer_base = env.alloc(self.customers * CUSTOMER_BYTES);
        for c in 0..self.customers {
            env.write_u64(self.customer_addr(c), 0);
        }
        env.persist(self.customer_base, self.customers * CUSTOMER_BYTES);
        self.log = Some(UndoLog::new(env, 64 * 1024));
    }

    fn transaction(&mut self, env: &mut PmEnv, txn_bytes: usize, rng: &mut XorShift) {
        let note_len = (txn_bytes / 2).clamp(64, 4096);
        let customer = rng.next_below(self.customers);
        let n_picks = 1 + rng.next_below(RESOURCE_KINDS as u64) as usize;
        let mut picks = Vec::with_capacity(n_picks);
        for kind in 0..n_picks {
            picks.push((kind, rng.next_below(RESOURCES_PER_KIND)));
        }
        let note = value_pattern(customer, env.fences(), note_len);
        self.reserve(env, customer, &picks, &note);
    }

    fn verify(&mut self, env: &mut PmEnv) {
        // Resource counters match the mirror exactly.
        for (&(kind, id), &expected) in &self.reserved.clone() {
            let res = self.resource_addr(kind, id);
            assert_eq!(
                env.read_u64(res + 8),
                expected,
                "reserved mismatch for kind {kind} id {id}"
            );
            assert_eq!(env.read_u64(res), 100, "capacity clobbered");
        }
        // Itinerary records match, up to the bounded record area.
        for (&customer, records) in &self.itineraries.clone() {
            let cust = self.customer_addr(customer);
            let count = env.read_u64(cust);
            assert_eq!(count, records.len().min(MAX_RECORDS as usize) as u64);
            for (i, &(kind, id)) in records.iter().take(count as usize).enumerate() {
                let rec = cust + 8 + i as u64 * 16;
                assert_eq!(env.read_u64(rec), kind, "record kind mismatch");
                assert_eq!(env.read_u64(rec + 8), id, "record id mismatch");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolos_core::{ControllerConfig, MiSuKind};

    #[test]
    fn reservations_verify() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = VacationWorkload::new(16);
        w.setup(&mut env);
        let mut rng = XorShift::new(13);
        for _ in 0..50 {
            w.transaction(&mut env, 512, &mut rng);
        }
        w.verify(&mut env);
    }

    #[test]
    fn crash_mid_reservation_rolls_back_atomically() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = VacationWorkload::new(4);
        w.setup(&mut env);
        let mut rng = XorShift::new(14);
        for _ in 0..10 {
            w.transaction(&mut env, 256, &mut rng);
        }
        // Begin a reservation and crash before commit: counters must not
        // partially move.
        let mut log = w.log.take().unwrap();
        log.begin(&mut env);
        let res = w.resource_addr(0, 5);
        let before = env.read_u64(res + 8);
        log.set_u64(&mut env, res + 8, before + 1);
        env.persist(res + 8, 8); // torn write hits NVM
        env.crash();
        env.recover().expect("recovery");
        log.recover(&mut env);
        w.log = Some(log);
        assert_eq!(env.read_u64(res + 8), before, "partial reservation leaked");
        w.verify(&mut env);
    }

    #[test]
    fn itinerary_record_area_is_bounded() {
        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut w = VacationWorkload::new(1); // one customer, many bookings
        w.setup(&mut env);
        let mut rng = XorShift::new(21);
        for _ in 0..80 {
            w.transaction(&mut env, 128, &mut rng);
        }
        let count = env.read_u64(w.customer_addr(0));
        assert!(count <= MAX_RECORDS, "record area overflowed: {count}");
        w.verify(&mut env);
    }
}
