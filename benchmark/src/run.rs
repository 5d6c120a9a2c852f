//! Runs cells: the timed closed loop, the correctness checks, and (for the
//! traced round) the recording of every operation's controller-visible
//! trace.

use std::time::Instant;

use dolos_core::{ControllerConfig, SecurityError};
use dolos_sim::rng::XorShift;
use dolos_whisper::{PmEnv, Trace};

use crate::cells::{Cell, Crashes};
use crate::stats::Fingerprint;

/// What a round does besides the timed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Timed loop plus correctness checks.
    Plain,
    /// As `Plain`, and each transaction cell ends with one crash and
    /// recovery so the recovery layer is timed on every workload.
    Probe,
    /// As `Plain`, recording every operation's trace for the replays.
    Record,
}

/// Host time of a cell's set-up phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub system_new_ns: u64,
    pub workload_setup_ns: u64,
    pub warmup_ns: u64,
}

impl SetupTimes {
    pub fn total_ns(&self) -> u64 {
        self.system_new_ns + self.workload_setup_ns + self.warmup_ns
    }

    pub fn add(&mut self, other: &SetupTimes) {
        self.system_new_ns += other.system_new_ns;
        self.workload_setup_ns += other.workload_setup_ns;
        self.warmup_ns += other.warmup_ns;
    }
}

/// Crash and recovery observations.
#[derive(Debug, Clone, Default)]
pub struct Recoveries {
    pub crash_ns: Vec<u64>,
    pub recover_ns: Vec<u64>,
    pub replayed_entries: u64,
    pub rebuilt_counter_blocks: u64,
    pub probed_lines: u64,
    pub failures: u64,
}

impl Recoveries {
    /// Times one `crash()` + `recover()` on `env`, returning the recovery
    /// result and the op's host nanoseconds.
    fn crash_and_recover(&mut self, env: &mut PmEnv) -> (Result<(), SecurityError>, u64) {
        let t0 = Instant::now();
        env.crash();
        let t1 = Instant::now();
        let result = env.recover();
        let t2 = Instant::now();
        self.crash_ns.push(nanos(t0, t1));
        self.recover_ns.push(nanos(t1, t2));
        let result = match result {
            Ok(report) => {
                self.replayed_entries += report.wpq_entries_replayed as u64;
                if let Some(masu) = report.masu {
                    self.rebuilt_counter_blocks += masu.rebuilt_counter_blocks as u64;
                    self.probed_lines += masu.probed_lines as u64;
                }
                Ok(())
            }
            Err(e) => {
                self.failures += 1;
                Err(e)
            }
        };
        (result, nanos(t0, t2))
    }
}

/// One unit of the controller-visible trace: everything one measured
/// transaction did (`op` is its index among the cell's measured
/// transactions), or the set-up/warm-up prefix (`op` is `None`).
#[derive(Debug, Clone)]
pub struct Segment {
    pub trace: Trace,
    pub op: Option<usize>,
    /// The system crashed and recovered right after this segment.
    pub crash_after: bool,
}

/// The recorded trace of one simulated system, from construction on.
#[derive(Debug, Clone)]
pub struct Recording {
    pub config: ControllerConfig,
    pub segments: Vec<Segment>,
    /// Simulated cycles at the end of the recording.
    pub cycles: u64,
}

/// Everything one cell's run produced.
#[derive(Debug, Default)]
pub struct CellRun {
    /// End-to-end ops attempted and failed.
    pub ops: u64,
    pub failed_ops: u64,
    /// Host time of the measured window.
    pub window_ns: u64,
    /// Host latency of each end-to-end op.
    pub op_ns: Vec<u64>,
    /// Host latency and start (ns since the run's epoch) of each measured
    /// transaction; the root of the layer ladder.
    pub txn_ns: Vec<u64>,
    pub txn_start_ns: Vec<u64>,
    pub fences: u64,
    pub flushes: u64,
    pub setup: SetupTimes,
    pub recoveries: Recoveries,
    /// Digest of the cell's exact counts; must agree across rounds.
    pub fingerprint: u64,
    pub recordings: Vec<Recording>,
}

/// Runs one round of `cells`.
pub fn round(cells: &[Cell], seed: u64, mode: Mode, epoch: Instant) -> Vec<CellRun> {
    cells
        .iter()
        .map(|cell| match cell.crashes {
            Some(crashes) => crash_cell(cell, crashes, seed, mode, epoch),
            None => txn_cell(cell, seed, mode, epoch),
        })
        .collect()
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// A freshly set-up and warmed-up system and workload, with the set-up
/// phases timed.
fn build(
    cell: &Cell,
    record: bool,
    rng: &mut XorShift,
    setup: &mut SetupTimes,
) -> (PmEnv, Box<dyn dolos_whisper::Workload>) {
    let t0 = Instant::now();
    let mut env = PmEnv::new(cell.config.clone());
    let t1 = Instant::now();
    if record {
        env.start_recording();
    }
    let mut workload = cell.kind.build();
    workload.setup(&mut env);
    let t2 = Instant::now();
    for _ in 0..cell.warmup {
        transaction(&mut env, workload.as_mut(), cell, rng);
    }
    let t3 = Instant::now();
    setup.system_new_ns += nanos(t0, t1);
    setup.workload_setup_ns += nanos(t1, t2);
    setup.warmup_ns += nanos(t2, t3);
    (env, workload)
}

/// Ends the current trace segment and starts the next one.
fn cut(env: &mut PmEnv) -> Trace {
    let trace = env.take_trace().unwrap_or_default();
    env.start_recording();
    trace
}

/// Runs one transaction and its think time, returning host (start, end).
fn transaction(
    env: &mut PmEnv,
    workload: &mut dyn dolos_whisper::Workload,
    cell: &Cell,
    rng: &mut XorShift,
) -> (Instant, Instant) {
    let start = Instant::now();
    workload.transaction(env, cell.txn_bytes, rng);
    env.work(cell.think_ops);
    (start, Instant::now())
}

fn txn_cell(cell: &Cell, seed: u64, mode: Mode, epoch: Instant) -> CellRun {
    let record = mode == Mode::Record;
    let mut run = CellRun::default();
    let mut rng = XorShift::new(seed);
    let (mut env, mut workload) = build(cell, record, &mut rng, &mut run.setup);
    let mut segments = Vec::new();
    if record {
        segments.push(Segment {
            trace: cut(&mut env),
            op: None,
            crash_after: false,
        });
    }
    let (fences, flushes) = (env.fences(), env.flushes());
    let window = Instant::now();
    for i in 0..cell.txns {
        let (start, end) = transaction(&mut env, workload.as_mut(), cell, &mut rng);
        run.txn_start_ns.push(nanos(epoch, start));
        run.txn_ns.push(nanos(start, end));
        if record {
            segments.push(Segment {
                trace: cut(&mut env),
                op: Some(i),
                crash_after: false,
            });
        }
    }
    run.window_ns = nanos(window, Instant::now());
    run.op_ns = run.txn_ns.clone();
    run.ops = cell.txns as u64;
    run.fences = env.fences() - fences;
    run.flushes = env.flushes() - flushes;
    let _ = env.take_trace();
    if record {
        run.recordings.push(Recording {
            config: cell.config.clone(),
            segments,
            cycles: env.now().as_u64(),
        });
    }

    let mut print = Fingerprint::default();
    fingerprint_env(&mut print, &env);
    run.fingerprint = print.value();
    if !reads_verify(&mut env) {
        run.failed_ops = run.ops;
    }
    if mode == Mode::Probe {
        let _ = run.recoveries.crash_and_recover(&mut env);
    }
    run
}

fn crash_cell(cell: &Cell, crashes: Crashes, seed: u64, mode: Mode, epoch: Instant) -> CellRun {
    let record = mode == Mode::Record;
    let mut run = CellRun::default();
    let mut print = Fingerprint::default();
    let mut rng = XorShift::new(seed);
    let mut txn_index = 0usize;
    while (run.ops as usize) < crashes.episodes {
        // One lineage: a fresh system crashed every `crashes.every`
        // transactions until it has run `crashes.lineage` episodes.
        let (mut env, mut workload) = build(cell, record, &mut rng, &mut run.setup);
        let mut segments = Vec::new();
        if record {
            segments.push(Segment {
                trace: cut(&mut env),
                op: None,
                crash_after: false,
            });
        }
        let mut episodes = 0u64;
        let mut recovered = true;
        while episodes < crashes.lineage as u64 && (run.ops as usize) < crashes.episodes {
            let window = Instant::now();
            let (fences, flushes) = (env.fences(), env.flushes());
            for k in 0..crashes.every {
                let (start, end) = transaction(&mut env, workload.as_mut(), cell, &mut rng);
                run.txn_start_ns.push(nanos(epoch, start));
                run.txn_ns.push(nanos(start, end));
                if record {
                    segments.push(Segment {
                        trace: cut(&mut env),
                        op: Some(txn_index),
                        crash_after: k + 1 == crashes.every,
                    });
                }
                txn_index += 1;
            }
            run.fences += env.fences() - fences;
            run.flushes += env.flushes() - flushes;
            print.add(env.now().as_u64());
            let (result, op_ns) = run.recoveries.crash_and_recover(&mut env);
            run.window_ns += nanos(window, Instant::now());
            run.op_ns.push(op_ns);
            run.ops += 1;
            episodes += 1;
            if let Err(e) = result {
                // The episode failed; the lineage restarts on a fresh system.
                print.add_str(&e.to_string());
                run.failed_ops += 1;
                recovered = false;
                break;
            }
        }
        let _ = env.take_trace();
        if recovered {
            if record {
                run.recordings.push(Recording {
                    config: cell.config.clone(),
                    segments,
                    cycles: env.now().as_u64(),
                });
            }
            fingerprint_env(&mut print, &env);
            if !reads_verify(&mut env) {
                run.failed_ops += episodes;
            }
        }
    }
    let r = &run.recoveries;
    for v in [
        r.replayed_entries,
        r.rebuilt_counter_blocks,
        r.probed_lines,
        r.failures,
    ] {
        print.add(v);
    }
    run.fingerprint = print.value();
    run
}

/// Mixes the environment's exact counts into `print`: simulated time,
/// persists, retries, fences, flushes and every statistic.
fn fingerprint_env(print: &mut Fingerprint, env: &PmEnv) {
    let sys = env.system();
    for v in [
        env.now().as_u64(),
        env.instructions(),
        env.fences(),
        env.flushes(),
        sys.persists(),
        sys.retries(),
    ] {
        print.add(v);
    }
    for (name, value) in sys.stats().iter() {
        print.add_str(name);
        print.add(value.to_bits());
    }
}

/// Drains the WPQ, then reads back every resident data line through the
/// integrity checks. `false` on the first `SecurityError`.
pub fn reads_verify(env: &mut PmEnv) -> bool {
    let now = env.now();
    let sys = env.system_mut();
    let at = sys.quiesce(now);
    let data_bytes = sys.layout().data_bytes();
    let lines = sys.nvm().resident_lines_in(0, data_bytes);
    lines
        .iter()
        .all(|line| sys.try_read(at, line.as_u64()).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{cells, Workload};

    #[test]
    fn a_flipped_bit_in_a_persisted_line_fails_the_check() {
        let cell = &cells(Workload::PaperEager, true)[2];
        let mut rng = XorShift::new(7);
        let (mut env, mut workload) = build(cell, false, &mut rng, &mut SetupTimes::default());
        for _ in 0..4 {
            transaction(&mut env, workload.as_mut(), cell, &mut rng);
        }
        assert!(reads_verify(&mut env), "an untouched system verifies");
        let data_bytes = env.system().layout().data_bytes();
        let lines = env.system().nvm().resident_lines_in(0, data_bytes);
        let victim = lines[lines.len() / 2];
        env.system_mut().nvm_mut().flip_bit(victim, 13);
        assert!(
            !reads_verify(&mut env),
            "the flipped line must fail its MAC"
        );
    }

    #[test]
    fn rounds_repeat_their_exact_counts() {
        let epoch = Instant::now();
        for workload in Workload::ALL {
            let list = cells(workload, true);
            let a = round(&list, 3, Mode::Plain, epoch);
            let b = round(&list, 3, Mode::Record, epoch);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.fingerprint, y.fingerprint, "{}", workload.name());
                assert_eq!(x.failed_ops, 0, "{}", workload.name());
            }
        }
    }
}
