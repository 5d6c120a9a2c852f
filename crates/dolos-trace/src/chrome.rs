//! Chrome `trace_event` export.
//!
//! Converts a merged event stream into the JSON array format understood by
//! `chrome://tracing` and Perfetto: one process ("dolos"), one thread per
//! pipeline lane (controller / wpq / misu / masu / nvm), spans as `"X"`
//! complete events and instants as `"i"` events. Timestamps are raw
//! simulated cycles in the `ts` microsecond field — absolute wall time is
//! meaningless in the simulator, so one displayed microsecond is one cycle.

use dolos_sim::trace::TraceEvent;

/// The lane → thread-id mapping, in display order.
const LANES: [&str; 5] = ["controller", "wpq", "misu", "masu", "nvm"];

fn lane_tid(lane: &str) -> usize {
    LANES.iter().position(|&l| l == lane).unwrap_or(LANES.len())
}

/// Serializes events as a Chrome `trace_event` JSON document.
///
/// The output is a pure function of the event stream: metadata records
/// first (process and thread names), then one record per event in input
/// order. Feed it a [`dolos_sim::trace::sort_events`]-ordered stream for a
/// canonical document.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut records = Vec::with_capacity(events.len() + LANES.len() + 1);
    records.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"dolos\"}}"
            .to_string(),
    );
    for (tid, lane) in LANES.iter().enumerate() {
        records.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{lane:?}}}}}"
        ));
    }
    for e in events {
        let tid = lane_tid(e.kind.lane());
        let common = format!(
            "\"name\":{:?},\"cat\":{:?},\"pid\":1,\"tid\":{},\"ts\":{},\
             \"args\":{{\"addr\":{},\"value\":{}}}",
            e.kind.name(),
            e.kind.lane(),
            tid,
            e.begin.as_u64(),
            e.addr,
            e.value,
        );
        if e.end > e.begin {
            records.push(format!(
                "{{\"ph\":\"X\",\"dur\":{},{common}}}",
                e.span_cycles()
            ));
        } else {
            records.push(format!("{{\"ph\":\"i\",\"s\":\"t\",{common}}}"));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        records.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolos_sim::trace::EventKind;
    use dolos_sim::Cycle;

    #[test]
    fn export_contains_metadata_spans_and_instants() {
        let events = vec![
            TraceEvent {
                kind: EventKind::MisuMac,
                begin: Cycle::new(10),
                end: Cycle::new(170),
                addr: 0x80,
                value: 1,
            },
            TraceEvent {
                kind: EventKind::PersistStart,
                begin: Cycle::new(10),
                end: Cycle::new(10),
                addr: 0x80,
                value: 0,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\",\"dur\":160"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"misu_mac\""));
        assert_eq!(dolos_sim::json::validate(&json), Ok(()));
    }
}
