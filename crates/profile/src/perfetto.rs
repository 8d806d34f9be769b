//! Chrome-trace / Perfetto JSON export of a flight recording.
//!
//! The output is the venerable Chrome "JSON trace event" format, which
//! ui.perfetto.dev (and `chrome://tracing`) opens directly: one process,
//! one named thread lane per trace [`Track`] (compute nodes, I/O nodes,
//! spindles, mesh nodes, the service node), duration slices (`"ph":"X"`)
//! for paired start/done events, instants for everything else, flow
//! arrows stitching a request's legs across lanes, and counter tracks
//! (`"ph":"C"`) from the telemetry sampler's series.
//!
//! Hand-rolled like every other serializer in the workspace (hermetic —
//! no serde), and deliberately byte-stable: lanes are sorted by the
//! `Track` ordering, events are emitted in trace order, floats never
//! enter timestamps (`ts`/`dur` are integer-nanosecond values printed as
//! fixed-point microseconds), so equal recordings yield equal files.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use paragon_metrics::MetricsSnapshot;
use paragon_sim::{EventKind, ReqId, TraceEvent, Track};

/// Slice name for a paired start kind, or `None` if `kind` is an
/// instant. Done kinds map to the same name as their start.
fn pair_name(kind: EventKind) -> Option<(&'static str, bool)> {
    // (name, is_start)
    match kind {
        EventKind::ReadStart => Some(("read", true)),
        EventKind::ReadDone => Some(("read", false)),
        EventKind::WriteStart => Some(("write", true)),
        EventKind::WriteDone => Some(("write", false)),
        EventKind::ArtStart => Some(("art", true)),
        EventKind::ArtDone => Some(("art", false)),
        EventKind::ServeStart => Some(("serve", true)),
        EventKind::ServeDone => Some(("serve", false)),
        EventKind::DiskStart => Some(("disk", true)),
        EventKind::DiskDone => Some(("disk", false)),
        _ => None,
    }
}

/// Integer nanoseconds as fixed-point microseconds (the format's `ts`
/// unit), e.g. `1234567 → "1234.567"`. Exact; no float ever rounds.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Export `events` (plus optional telemetry `counters`) as Chrome-trace
/// JSON. The result opens directly in ui.perfetto.dev.
pub fn export_perfetto(events: &[TraceEvent], counters: Option<&MetricsSnapshot>) -> String {
    let mut lanes: Vec<Track> = Vec::new();
    for e in events {
        if let Err(i) = lanes.binary_search(&e.track) {
            lanes.insert(i, e.track);
        }
    }
    let tid = |t: Track| lanes.binary_search(&t).map(|i| i + 1).unwrap_or(0);

    let mut body: Vec<String> = Vec::new();
    body.push(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"paragon\"}}"
            .to_string(),
    );
    for (i, lane) in lanes.iter().enumerate() {
        body.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{lane}\"}}}}",
            i + 1
        ));
        body.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{0},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{0}}}}}",
            i + 1
        ));
    }

    // FIFO-pair start/done events per (track, request, slice name); a
    // done without an open start (trace-cap truncation) degrades to an
    // instant rather than being dropped.
    let mut open: BTreeMap<(Track, ReqId, &'static str), VecDeque<u64>> = BTreeMap::new();
    // Flow stitching: how many net legs each request has in total, and
    // how many we have emitted so far — the first is a flow start, the
    // last a flow end, the rest steps.
    let mut net_total: BTreeMap<ReqId, u32> = BTreeMap::new();
    for e in events {
        if e.req != 0 && matches!(e.kind, EventKind::NetTx | EventKind::NetRx) {
            *net_total.entry(e.req).or_insert(0) += 1;
        }
    }
    let mut net_seen: BTreeMap<ReqId, u32> = BTreeMap::new();

    for e in events {
        let t = tid(e.track);
        let ns = e.time.as_nanos();
        match pair_name(e.kind) {
            Some((name, true)) => {
                open.entry((e.track, e.req, name)).or_default().push_back(ns);
            }
            Some((name, false)) => {
                let started = open
                    .get_mut(&(e.track, e.req, name))
                    .and_then(VecDeque::pop_front);
                match started {
                    Some(s) => body.push(format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{t},\"ts\":{},\"dur\":{},\"name\":\"{name}\",\"cat\":\"pfs\",\"args\":{{\"req\":{},\"a\":{},\"b\":{}}}}}",
                        us(s),
                        us(ns - s),
                        e.req,
                        e.a,
                        e.b
                    )),
                    None => body.push(format!(
                        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{t},\"ts\":{},\"name\":\"{}\",\"cat\":\"pfs\",\"s\":\"t\",\"args\":{{\"req\":{},\"a\":{},\"b\":{}}}}}",
                        us(ns),
                        e.kind.as_str(),
                        e.req,
                        e.a,
                        e.b
                    )),
                }
            }
            None => body.push(format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{t},\"ts\":{},\"name\":\"{}\",\"cat\":\"pfs\",\"s\":\"t\",\"args\":{{\"req\":{},\"a\":{},\"b\":{}}}}}",
                us(ns),
                e.kind.as_str(),
                e.req,
                e.a,
                e.b
            )),
        }
        // One flow arrow per request, threaded through its mesh legs.
        if e.req != 0 && matches!(e.kind, EventKind::NetTx | EventKind::NetRx) {
            let total = net_total.get(&e.req).copied().unwrap_or(0);
            let seen = net_seen.entry(e.req).or_insert(0);
            *seen += 1;
            let ph = if *seen == 1 {
                "s"
            } else if *seen == total {
                "f"
            } else {
                "t"
            };
            let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
            body.push(format!(
                "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{t},\"ts\":{},\"id\":{},\"name\":\"req\",\"cat\":\"flow\"{bp}}}",
                us(ns),
                e.req
            ));
        }
    }

    // Counter tracks from the telemetry sampler, one per gauge series,
    // in BTreeMap (name) order.
    if let Some(snap) = counters {
        for (name, vals) in &snap.series {
            for (i, &v) in vals.iter().enumerate() {
                let Some(&ts) = snap.times_ns.get(i) else {
                    break;
                };
                body.push(format!(
                    "{{\"ph\":\"C\",\"pid\":1,\"ts\":{},\"name\":\"{name}\",\"args\":{{\"value\":{v}}}}}",
                    us(ts)
                ));
            }
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, line) in body.iter().enumerate() {
        out.push_str(line);
        if i + 1 < body.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let _ = writeln!(out, "]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::{ev, EventBody, SimDuration, SimTime};

    fn mk(t_us: u64, body: EventBody) -> TraceEvent {
        TraceEvent {
            time: SimTime::ZERO + SimDuration::from_micros(t_us),
            track: body.track,
            kind: body.kind,
            req: body.req,
            a: body.a,
            b: body.b,
        }
    }

    fn sample() -> Vec<TraceEvent> {
        vec![
            mk(1, ev(Track::Cn(0), EventKind::ReadStart, 1, 0, 4096)),
            mk(2, ev(Track::Node(0), EventKind::NetTx, 1, 100, 4)),
            mk(9, ev(Track::Node(4), EventKind::NetRx, 1, 100, 0)),
            mk(10, ev(Track::Ion(0), EventKind::ServeStart, 1, 0, 4096)),
            mk(12, ev(Track::Disk(0), EventKind::DiskStart, 1, 0, 4096)),
            mk(30, ev(Track::Disk(0), EventKind::DiskDone, 1, 0, 4096)),
            mk(31, ev(Track::Ion(0), EventKind::ServeDone, 1, 0, 4096)),
            mk(40, ev(Track::Cn(0), EventKind::ReadDone, 1, 0, 4096)),
        ]
    }

    #[test]
    fn export_is_valid_json_and_byte_stable() {
        let evs = sample();
        let a = export_perfetto(&evs, None);
        let b = export_perfetto(&evs, None);
        assert_eq!(a, b);
        paragon_metrics::Json::parse(&a).expect("export must be valid JSON");
    }

    #[test]
    fn paired_events_become_duration_slices() {
        let out = export_perfetto(&sample(), None);
        assert!(out.contains("\"ph\":\"X\""), "no duration slices: {out}");
        assert!(out.contains("\"name\":\"disk\""));
        // The disk slice: 12 µs start, 18 µs duration.
        assert!(out.contains("\"ts\":12.000,\"dur\":18.000"), "{out}");
    }

    #[test]
    fn flows_stitch_request_legs() {
        let out = export_perfetto(&sample(), None);
        assert!(out.contains("\"ph\":\"s\""), "missing flow start");
        assert!(out.contains("\"ph\":\"f\""), "missing flow end");
    }

    #[test]
    fn every_lane_gets_a_thread_name() {
        let out = export_perfetto(&sample(), None);
        for lane in ["cn0", "node0", "node4", "ion0", "disk0"] {
            assert!(
                out.contains(&format!("\"args\":{{\"name\":\"{lane}\"}}")),
                "missing lane {lane}"
            );
        }
    }

    #[test]
    fn counter_series_become_counter_events() {
        let mut snap = MetricsSnapshot {
            phase_start_ns: 0,
            phase_end_ns: 2_000,
            times_ns: vec![1_000, 2_000],
            series: Default::default(),
            counters: Default::default(),
            hists: Default::default(),
        };
        snap.series.insert("disk.queue".to_string(), vec![1.0, 2.5]);
        let out = export_perfetto(&sample(), Some(&snap));
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.contains("\"name\":\"disk.queue\",\"args\":{\"value\":2.5}"));
    }

    #[test]
    fn unpaired_done_degrades_to_instant() {
        // Trace-cap truncation: a done with no recorded start.
        let evs = vec![mk(5, ev(Track::Disk(0), EventKind::DiskDone, 3, 0, 512))];
        let out = export_perfetto(&evs, None);
        assert!(!out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"name\":\"disk-done\""));
    }
}
