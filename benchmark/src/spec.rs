//! The benchmark's fixed vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root must list exactly these (a unit test checks it).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Workload names with the one-line reason each exists, indexed by
/// `cells::Workload` discriminant.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper-eager",
        "Figure 12 cells (6 WHISPER x 4 secure schemes, eager BMT): Ma-SU pads and MACs and Mi-SU MACs dominate host time",
    ),
    (
        "frontend-ideal",
        "8 workloads on the non-secure controller: front end only, so crypto and tree changes must not move it",
    ),
    (
        "drain-bound",
        "lazy-ToC Full at 1 and 4 banks with no think time: the WPQ stays full, so retries and multi-bank drains show",
    ),
    (
        "crash-recover",
        "crash and recover every 4 Hashmap txns with cold caches: ADR dump, dump replay and Ma-SU recovery",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run.
///
/// The timing bounds sit at the contract's 0.25 cap because the shared host
/// drifts: ten runs of one workload spread up to 9.5% (interquartile range
/// over median) even with best-of-rounds estimators, and the host has been
/// seen 1.8x slower for minutes at a time.
pub const END_TO_END: [Metric; 5] = [
    e2e("ops_per_s", "op/s", Higher, 0.25),
    e2e("op_us_p50", "us", Lower, 0.25),
    e2e("op_us_p90", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [Metric; 67] = [
    layer("whisper.self_ms", "ms", Lower),
    layer("whisper.self_frac", "ratio", Lower),
    layer("whisper.txns", "count", Higher),
    layer("whisper.fences", "count", Lower),
    layer("whisper.flushes", "count", Lower),
    layer("core.calls", "count", Lower),
    layer("core.busy_ms", "ms", Lower),
    layer("core.busy_frac", "ratio", Lower),
    layer("core.call_ns_p50", "ns", Lower),
    layer("core.call_ns_p99", "ns", Lower),
    layer("core.persists", "count", Lower),
    layer("core.reads", "count", Lower),
    layer("core.read_wpq_hits", "count", Higher),
    layer("core.retries", "count", Lower),
    layer("core.retries_per_kwr", "1/kwr", Lower),
    layer("core.ns_per_persist", "ns", Lower),
    layer("core.sim_cycles", "cycles", Lower),
    layer("core.ctrl.self_ms", "ms", Lower),
    layer("core.ctrl.self_frac", "ratio", Lower),
    layer("core.misu.protects", "count", Lower),
    layer("core.misu.busy_ms", "ms", Lower),
    layer("core.misu.ns_per_protect", "ns", Lower),
    layer("core.misu.busy_rejections", "count", Lower),
    layer("core.masu.writes", "count", Lower),
    layer("core.masu.reads", "count", Lower),
    layer("core.masu.busy_ms", "ms", Lower),
    layer("core.masu.self_ms", "ms", Lower),
    layer("core.masu.ns_per_write", "ns", Lower),
    layer("core.masu.overflows", "count", Lower),
    layer("crypto.pads", "count", Lower),
    layer("crypto.macs", "count", Lower),
    layer("crypto.busy_ms", "ms", Lower),
    layer("crypto.ns_per_pad", "ns", Lower),
    layer("crypto.ns_per_mac", "ns", Lower),
    layer("secmem.tree.updates", "count", Lower),
    layer("secmem.tree.busy_ms", "ms", Lower),
    layer("secmem.tree.ns_per_update", "ns", Lower),
    layer("secmem.cache.ctr_hits", "count", Higher),
    layer("secmem.cache.ctr_misses", "count", Lower),
    layer("secmem.cache.ctr_hit_ratio", "ratio", Higher),
    layer("secmem.cache.mt_hits", "count", Higher),
    layer("secmem.cache.mt_misses", "count", Lower),
    layer("secmem.cache.busy_ms", "ms", Lower),
    layer("nvm.wpq.inserts", "count", Lower),
    layer("nvm.wpq.coalesces", "count", Higher),
    layer("nvm.wpq.full_events", "count", Lower),
    layer("nvm.wpq.coalesce_ratio", "ratio", Higher),
    layer("nvm.wpq.busy_ms", "ms", Lower),
    layer("nvm.device.reads", "count", Lower),
    layer("nvm.device.writes", "count", Lower),
    layer("nvm.device.resident_lines", "count", Lower),
    layer("nvm.device.read_busy_ms", "ms", Lower),
    layer("core.crash.us_p50", "us", Lower),
    layer("core.recover.us_p50", "us", Lower),
    layer("core.recover.us_p99", "us", Lower),
    layer("core.recover.replayed_entries", "count", Lower),
    layer("core.recover.rebuilt_counter_blocks", "count", Lower),
    layer("core.recover.probed_lines", "count", Lower),
    layer("core.recover.failures", "count", Lower),
    layer("setup.system_new_ms", "ms", Lower),
    layer("setup.workload_setup_ms", "ms", Lower),
    layer("setup.warmup_ms", "ms", Lower),
    layer("op.us_p99", "us", Lower),
    layer("op.us_max", "us", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("host.steal_frac", "ratio", Lower),
    layer("host.runq_wait_frac", "ratio", Lower),
];

/// Looks up a metric (end-to-end or per-layer) by name.
#[cfg(test)]
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_name_matches_the_allowed_alphabet_and_is_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "bad metric or workload name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn bounds_are_within_the_contract_and_setup_has_the_largest() {
        let setup = metric("setup_s").expect("setup_s is an end-to-end metric");
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "{} exceeds setup_s's bound", m.name);
        }
    }

    /// Pulls every `"key": "value"` string pair out of one top-level array
    /// of `BENCHMARK.json`, in order. The file is flat enough that a scan
    /// for the array's brackets is a faithful parse.
    fn section_pairs<'a>(json: &'a str, section: &str, key: &str) -> Vec<&'a str> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"));
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        let body = &json[open..close];
        let needle = format!("\"{key}\": \"");
        body.match_indices(&needle)
            .map(|(at, _)| {
                let value = &body[at + needle.len()..];
                &value[..value.find('"').expect("string closes")]
            })
            .collect()
    }

    #[test]
    fn lists_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(section_pairs(&json, "workloads", "name"), workloads);
        let whys: Vec<&str> = WORKLOADS.iter().map(|(_, w)| *w).collect();
        assert_eq!(section_pairs(&json, "workloads", "why"), whys);
        for (section, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = list.iter().map(|m| m.name).collect();
            let units: Vec<&str> = list.iter().map(|m| m.unit).collect();
            let betters: Vec<&str> = list.iter().map(|m| m.better.name()).collect();
            assert_eq!(section_pairs(&json, section, "name"), names, "{section}");
            assert_eq!(section_pairs(&json, section, "unit"), units, "{section}");
            assert_eq!(
                section_pairs(&json, section, "better"),
                betters,
                "{section}"
            );
        }
        for m in END_TO_END {
            let needle = format!("\"name\": \"{}\"", m.name);
            let at = json.find(&needle).expect("metric listed");
            let rest = &json[at..];
            let bound = rest[rest.find("\"bound\": ").expect("bound") + 9..]
                .split(['}', ','])
                .next()
                .expect("bound value")
                .trim()
                .parse::<f64>()
                .expect("numeric bound");
            assert_eq!(bound, m.bound, "{} bound", m.name);
        }
    }
}
