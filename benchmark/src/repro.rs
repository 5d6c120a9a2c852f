//! `benchmark repro`: the eager-BMT recovery bug the `crash-recover`
//! workload stays clear of (see the README).
//!
//! After the first minor-counter page overflow, `recover()` on an eager
//! (Bonsai Merkle tree) system can fail with a false `TreeRootMismatch`;
//! lazy Tree-of-Counters systems recover. This prints the single-crash
//! reproducer and, per scheme, how many of 400 crash-every-4-transactions
//! episodes fail when lineages run until they fail instead of restarting
//! every eight episodes.

use std::process::ExitCode;
use std::time::Instant;

use dolos_core::UpdateScheme;
use dolos_sim::rng::XorShift;
use dolos_whisper::PmEnv;

use crate::cells::{cells, Cell, Workload};
use crate::run::{self, Mode};

/// Runs `txns` transactions of `cell` on a fresh system, crashes and
/// recovers; returns the minor-counter overflows seen and the outcome.
fn crash_after(cell: &Cell, txns: usize, seed: u64) -> (f64, String) {
    let mut env = PmEnv::new(cell.config.clone());
    let mut workload = cell.kind.build();
    workload.setup(&mut env);
    let mut rng = XorShift::new(seed);
    for _ in 0..txns {
        workload.transaction(&mut env, cell.txn_bytes, &mut rng);
        env.work(cell.think_ops);
    }
    let overflows = env.system().stats().get_or_zero("masu.overflows");
    env.crash();
    let outcome = match env.recover() {
        Ok(_) => "Ok".to_string(),
        Err(e) => format!("Err({e:?})"),
    };
    (overflows, outcome)
}

pub fn main(seed: u64) -> ExitCode {
    let crash_cells = cells(Workload::CrashRecover, false);
    println!("# single crash after N Hashmap txns (1 KiB, think 0, seed {seed}), eager BMT");
    for (scheme, txns) in [
        ("dolos-partial", 100),
        ("dolos-partial", 150),
        ("pre-wpq-secure", 100),
    ] {
        let eager = crash_cells.iter().find(|c| {
            c.config.kind.name() == scheme && c.config.scheme == UpdateScheme::EagerMerkle
        });
        if let Some(cell) = eager {
            let (overflows, outcome) = crash_after(cell, txns, seed);
            println!("{scheme} eager txns {txns} overflows {overflows} recover {outcome}");
        }
    }
    println!("# unbounded lineages: crash every 4 txns, 400 episodes, restart only on failure");
    let unbounded: Vec<Cell> = crash_cells
        .into_iter()
        .map(|mut cell| {
            if let Some(crashes) = cell.crashes.as_mut() {
                crashes.lineage = crashes.episodes;
            }
            cell
        })
        .collect();
    let runs = run::round(&unbounded, seed, Mode::Plain, Instant::now());
    for (cell, run) in unbounded.iter().zip(&runs) {
        println!(
            "{} {} failed {}/{} failed_frac {:.4}",
            cell.config.kind.name(),
            cell.config.scheme.name(),
            run.recoveries.failures,
            run.ops,
            run.recoveries.failures as f64 / run.ops.max(1) as f64
        );
    }
    ExitCode::SUCCESS
}
