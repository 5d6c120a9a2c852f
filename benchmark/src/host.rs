//! Host-side readings from `/proc`: memory high-water mark and the two
//! noise diagnostics (hypervisor steal, run-queue wait). Each reader
//! returns `None` where the file is missing, so the benchmark still runs
//! off Linux; the report then prints zero for the diagnostic.

use std::fs;

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cumulative CPU time counters for the steal and run-queue diagnostics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostClock {
    /// All-CPU jiffies: (total, steal), from `/proc/stat`.
    cpu: Option<(u64, u64)>,
    /// This thread's (on-CPU ns, run-queue wait ns), from schedstat.
    sched: Option<(u64, u64)>,
}

impl HostClock {
    /// Reads the counters now.
    pub fn now() -> Self {
        HostClock {
            cpu: read_cpu(),
            sched: read_schedstat(),
        }
    }

    /// Share of all CPU time the hypervisor stole since `earlier`.
    pub fn steal_frac_since(&self, earlier: &HostClock) -> f64 {
        match (earlier.cpu, self.cpu) {
            (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }

    /// Share of this thread's runnable time spent waiting for a CPU since
    /// `earlier`.
    pub fn runq_wait_frac_since(&self, earlier: &HostClock) -> f64 {
        match (earlier.sched, self.sched) {
            (Some((r0, w0)), Some((r1, w1))) => {
                let run = r1.saturating_sub(r0);
                let wait = w1.saturating_sub(w0);
                if run + wait == 0 {
                    0.0
                } else {
                    wait as f64 / (run + wait) as f64
                }
            }
            _ => 0.0,
        }
    }
}

fn read_cpu() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so sum only the first eight.
    let total = fields.iter().take(8).sum();
    Some((total, *fields.get(7)?))
}

fn read_schedstat() -> Option<(u64, u64)> {
    let text = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}
