//! Span reconstruction: from a flat flight-recorder trace to the life of
//! each read.
//!
//! Every PFS transfer carries a request id from the compute node through
//! the ART, the mesh, the server, and the disks (see
//! `paragon_sim::trace`). This module groups a recording by request id
//! and decomposes each `read-start … read-done` interval into four
//! consecutive phases:
//!
//! * **request** — client-side setup, ART queueing, and the request
//!   message's mesh transit, up to the last request leg's arrival at an
//!   I/O node;
//! * **service** — server thread and protocol overheads before the first
//!   disk command starts moving;
//! * **disk** — first disk command start to last disk command
//!   completion (seek + rotation + media transfer across the RAID);
//! * **reply** — reply mesh transit plus the client's scatter copy, up
//!   to `read-done`.
//!
//! Phase boundaries are clamped to be monotone inside the span, so the
//! four phases **sum exactly** to the end-to-end latency by
//! construction — the paper's Table 2 access-time decomposition, derived
//! from the trace instead of from hand-placed timers. Reads that never
//! touch a disk (server cache hits) get a zero disk phase.

use std::collections::BTreeMap;

use paragon_metrics::{Histogram, Table};
use paragon_sim::{EventKind, ReqId, SimDuration, SimTime, TraceEvent, Track};

/// How a transfer entered the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Plain demand read (no prefetch engine, or engine bypass).
    Demand,
    /// Demand read that missed the prefetch list and went to the PFS.
    DemandMiss,
    /// Asynchronous prefetch transfer issued by the engine.
    Prefetch,
}

/// One reconstructed read: a request id's `read-start → read-done`
/// interval, decomposed into consecutive phases.
#[derive(Debug, Clone)]
pub struct ReadSpan {
    /// Request id (correlates with the raw trace).
    pub req: ReqId,
    /// File offset requested.
    pub offset: u64,
    /// Bytes requested.
    pub len: u64,
    /// Demand read, prefetch miss, or prefetch transfer.
    pub kind: SpanKind,
    /// Time the read entered the client.
    pub start: SimTime,
    /// Time the read returned to the caller.
    pub end: SimTime,
    /// Client + ART + request mesh transit.
    pub request: SimDuration,
    /// Server-side overheads before the first disk command.
    pub service: SimDuration,
    /// Disk busy interval (first command start → last completion).
    pub disk: SimDuration,
    /// Reply transit + scatter copy.
    pub reply: SimDuration,
}

impl ReadSpan {
    /// End-to-end latency; always equals the sum of the four phases.
    pub fn total(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// Coarse layer classification of a flight-recorder event kind; the
/// analyzer-side inventory of the trace vocabulary.
///
/// [`kind_class`] matches every [`EventKind`] by name and without a
/// wildcard arm, so adding a kind to the recorder without deciding where
/// the span analyzer files it is a compile error here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KindClass {
    /// Client-side transfer lifecycle and buffer copies.
    Client,
    /// Asynchronous-request-thread (ART) lifecycle.
    Art,
    /// Mesh/NIC transit.
    Transport,
    /// I/O-node server handling.
    Server,
    /// Disk device commands.
    Disk,
    /// Prefetch-engine decisions on the demand path.
    Prefetch,
    /// Shared-pointer service-node operations.
    Pointer,
    /// Harness markers and free-form annotations.
    Meta,
    /// Fault injections and the recovery actions they triggered.
    Fault,
}

/// Classify `kind` into the layer the span analyzer files it under.
pub fn kind_class(kind: EventKind) -> KindClass {
    match kind {
        EventKind::ReadStart
        | EventKind::ReadDone
        | EventKind::WriteStart
        | EventKind::WriteDone
        | EventKind::Copy => KindClass::Client,
        EventKind::ArtSubmit | EventKind::ArtStart | EventKind::ArtDone => KindClass::Art,
        EventKind::NetTx | EventKind::NetRx => KindClass::Transport,
        EventKind::ServeStart | EventKind::ServeDone => KindClass::Server,
        EventKind::DiskStart | EventKind::DiskDone => KindClass::Disk,
        EventKind::PrefetchIssue
        | EventKind::PrefetchHitReady
        | EventKind::PrefetchHitInflight
        | EventKind::PrefetchMiss
        | EventKind::PrefetchCancel
        | EventKind::PrefetchEvict => KindClass::Prefetch,
        EventKind::PtrOp => KindClass::Pointer,
        EventKind::Mark => KindClass::Meta,
        EventKind::FaultDiskError
        | EventKind::FaultDiskDown
        | EventKind::MeshDrop
        | EventKind::MeshDup
        | EventKind::MeshDelay
        | EventKind::FaultNodeDown
        | EventKind::FaultNodeUp
        | EventKind::RpcRetry
        | EventKind::RpcGiveUp
        | EventKind::RaidReconstruct
        | EventKind::PrefetchFault
        | EventKind::PrefetchThrottle
        | EventKind::PrefetchResume
        | EventKind::ReplicaFailover
        | EventKind::RebuildStart
        | EventKind::RebuildCopy
        | EventKind::RebuildDone
        | EventKind::FaultNodeRecovered => KindClass::Fault,
    }
}

/// Degraded windows of a recording: for each `fault-node-down` marker,
/// the interval to the matching explicit `fault-node-recovered` event on
/// the same node, measured *directly from the trace* rather than
/// inferred from the fault plan's configured window bound. Nodes still
/// down when recording stopped yield `None` ends.
pub fn degraded_windows(events: &[TraceEvent]) -> Vec<(u64, SimTime, Option<SimTime>)> {
    let mut open: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut out = Vec::new();
    for e in events {
        match e.kind {
            EventKind::FaultNodeDown => {
                open.entry(e.a).or_insert(e.time);
            }
            EventKind::FaultNodeRecovered => {
                if let Some(from) = open.remove(&e.a) {
                    out.push((e.a, from, Some(e.time)));
                }
            }
            _ => {}
        }
    }
    out.extend(open.into_iter().map(|(node, from)| (node, from, None)));
    out.sort_by_key(|&(node, from, _)| (from, node));
    out
}

/// Fault-related events of a recording, in time order: plan injections
/// (disk errors, mesh drop/dup/delay, crash-window edges) and the
/// recovery actions they triggered (RPC retries/give-ups, RAID
/// reconstructions, prefetch quarantine transitions).
pub fn fault_events(events: &[TraceEvent]) -> Vec<&TraceEvent> {
    events
        .iter()
        .filter(|e| kind_class(e.kind) == KindClass::Fault)
        .collect()
}

/// Reconstruct every completed read span in `events`.
///
/// A span needs a `read-start` and a matching `read-done` under the same
/// request id; transfers still in flight when recording stopped (or cut
/// off by the trace cap) are skipped.
pub fn read_spans(events: &[TraceEvent]) -> Vec<ReadSpan> {
    // Group this request's events; traces are time-ordered already.
    let mut by_req: BTreeMap<ReqId, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        if e.req != 0 {
            by_req.entry(e.req).or_default().push(e);
        }
    }
    let mut spans = Vec::new();
    for (req, evs) in by_req {
        let Some(start_ev) = evs.iter().find(|e| e.kind == EventKind::ReadStart) else {
            continue;
        };
        let Some(end_ev) = evs.iter().rev().find(|e| e.kind == EventKind::ReadDone) else {
            continue;
        };
        let (start, end) = (start_ev.time, end_ev.time);
        // The client's mesh node id: source of the first request NetTx.
        let client_node = evs.iter().find_map(|e| match (e.kind, e.track) {
            (EventKind::NetTx, Track::Node(n)) if e.time >= start => Some(n),
            _ => None,
        });
        let clamp = |t: SimTime| t.max(start).min(end);
        // Last request-leg arrival at a non-client node. Reply NetRx
        // events land back on the client's node and are excluded.
        let b1 = evs
            .iter()
            .filter(|e| {
                e.kind == EventKind::NetRx
                    && match (e.track, client_node) {
                        (Track::Node(n), Some(c)) => n != c,
                        _ => true,
                    }
            })
            .map(|e| e.time)
            .max()
            .map(clamp)
            .unwrap_or(start);
        let first_disk = evs
            .iter()
            .filter(|e| e.kind == EventKind::DiskStart)
            .map(|e| e.time)
            .min()
            .map(clamp);
        let last_disk = evs
            .iter()
            .filter(|e| e.kind == EventKind::DiskDone)
            .map(|e| e.time)
            .max()
            .map(clamp);
        let b2 = first_disk.unwrap_or(b1).max(b1);
        let b3 = last_disk.unwrap_or(b2).max(b2);
        let kind = if evs.iter().any(|e| e.kind == EventKind::PrefetchIssue) {
            SpanKind::Prefetch
        } else if evs.iter().any(|e| e.kind == EventKind::PrefetchMiss) {
            SpanKind::DemandMiss
        } else {
            SpanKind::Demand
        };
        spans.push(ReadSpan {
            req,
            offset: start_ev.a,
            len: start_ev.b,
            kind,
            start,
            end,
            request: b1.since(start),
            service: b2.since(b1),
            disk: b3.since(b2),
            reply: end.since(b3),
        });
    }
    spans
}

/// Per-phase aggregate over a set of spans: one [`Histogram`] per phase
/// plus one for the end-to-end latency.
#[derive(Debug, Default)]
pub struct SpanBreakdown {
    pub request: Histogram,
    pub service: Histogram,
    pub disk: Histogram,
    pub reply: Histogram,
    pub total: Histogram,
    /// Spans folded in.
    pub count: usize,
}

impl SpanBreakdown {
    /// Aggregate `spans` (typically pre-filtered by [`SpanKind`]).
    pub fn of(spans: &[ReadSpan]) -> SpanBreakdown {
        let mut b = SpanBreakdown::default();
        for s in spans {
            b.request.record(s.request.as_secs_f64());
            b.service.record(s.service.as_secs_f64());
            b.disk.record(s.disk.as_secs_f64());
            b.reply.record(s.reply.as_secs_f64());
            b.total.record(s.total().as_secs_f64());
            b.count += 1;
        }
        b
    }

    /// Render the Table-2-style access-time decomposition: one row per
    /// phase with mean/p50/max in milliseconds, plus the end-to-end row.
    pub fn render(&mut self) -> String {
        let mut t = Table::new(
            "access-time decomposition",
            &["phase", "mean ms", "p50 ms", "max ms"],
        );
        let ms = |v: Option<f64>| format!("{:.3}", v.unwrap_or(0.0) * 1e3);
        {
            let mut row = |name: &str, h: &mut Histogram| {
                let mean = ms(h.mean());
                let p50 = ms(h.quantile(0.5));
                let max = ms(h.max());
                t.row(&[name, &mean, &p50, &max]);
            };
            row("request", &mut self.request);
            row("service", &mut self.service);
            row("disk", &mut self.disk);
            row("reply", &mut self.reply);
            row("end-to-end", &mut self.total);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::{ev, EventBody, Track};

    fn mk(t_us: u64, body: EventBody) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(t_us * 1000),
            track: body.track,
            kind: body.kind,
            req: body.req,
            a: body.a,
            b: body.b,
        }
    }

    fn demand_read(req: ReqId, base_us: u64) -> Vec<TraceEvent> {
        vec![
            mk(
                base_us,
                ev(Track::Cn(0), EventKind::ReadStart, req, 0, 4096),
            ),
            mk(
                base_us + 10,
                ev(Track::Node(0), EventKind::NetTx, req, 64, 3),
            ),
            mk(
                base_us + 20,
                ev(Track::Node(3), EventKind::NetRx, req, 64, 0),
            ),
            mk(
                base_us + 25,
                ev(Track::Ion(1), EventKind::ServeStart, req, 0, 4096),
            ),
            mk(
                base_us + 30,
                ev(Track::Disk(2), EventKind::DiskStart, req, 0, 4096),
            ),
            mk(
                base_us + 70,
                ev(Track::Disk(2), EventKind::DiskDone, req, 0, 4096),
            ),
            mk(
                base_us + 75,
                ev(Track::Ion(1), EventKind::ServeDone, req, 0, 4096),
            ),
            mk(
                base_us + 80,
                ev(Track::Node(3), EventKind::NetTx, req, 4160, 0),
            ),
            mk(
                base_us + 90,
                ev(Track::Node(0), EventKind::NetRx, req, 4160, 3),
            ),
            mk(
                base_us + 95,
                ev(Track::Cn(0), EventKind::Copy, req, 0, 4096),
            ),
            mk(
                base_us + 100,
                ev(Track::Cn(0), EventKind::ReadDone, req, 0, 4096),
            ),
        ]
    }

    #[test]
    fn phases_sum_exactly_to_end_to_end() {
        let events = demand_read(1, 100);
        let spans = read_spans(&events);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.kind, SpanKind::Demand);
        assert_eq!(s.request + s.service + s.disk + s.reply, s.total());
        assert_eq!(s.request, SimDuration::from_micros(20));
        assert_eq!(s.service, SimDuration::from_micros(10));
        assert_eq!(s.disk, SimDuration::from_micros(40));
        assert_eq!(s.reply, SimDuration::from_micros(30));
    }

    #[test]
    fn diskless_read_gets_zero_disk_phase() {
        let req = 7;
        let events = vec![
            mk(0, ev(Track::Cn(0), EventKind::ReadStart, req, 0, 64)),
            mk(5, ev(Track::Node(0), EventKind::NetTx, req, 96, 2)),
            mk(9, ev(Track::Node(2), EventKind::NetRx, req, 96, 0)),
            mk(15, ev(Track::Node(2), EventKind::NetTx, req, 128, 0)),
            mk(19, ev(Track::Node(0), EventKind::NetRx, req, 128, 2)),
            mk(20, ev(Track::Cn(0), EventKind::ReadDone, req, 0, 64)),
        ];
        let spans = read_spans(&events);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].disk, SimDuration::ZERO);
        assert_eq!(spans[0].request, SimDuration::from_micros(9));
        assert_eq!(spans[0].reply, SimDuration::from_micros(11));
    }

    #[test]
    fn unfinished_and_contextless_events_are_skipped() {
        let mut events = demand_read(1, 0);
        events.pop(); // drop read-done
        events.push(mk(500, ev(Track::Sys, EventKind::Mark, 0, 0, 0)));
        assert!(read_spans(&events).is_empty());
    }

    #[test]
    fn kinds_follow_prefetch_markers() {
        let mut miss = demand_read(2, 0);
        miss.insert(
            0,
            mk(0, ev(Track::Cn(0), EventKind::PrefetchMiss, 2, 0, 4096)),
        );
        let mut pf = demand_read(3, 1000);
        pf.insert(
            0,
            mk(1000, ev(Track::Cn(0), EventKind::PrefetchIssue, 3, 0, 4096)),
        );
        let mut events = miss;
        events.extend(pf);
        let spans = read_spans(&events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::DemandMiss);
        assert_eq!(spans[1].kind, SpanKind::Prefetch);
    }

    #[test]
    fn every_kind_is_classified_and_fault_filter_matches_its_class() {
        use std::collections::BTreeMap;
        let mut per_class: BTreeMap<&str, usize> = BTreeMap::new();
        for &k in &EventKind::ALL {
            *per_class
                .entry(match kind_class(k) {
                    KindClass::Client => "client",
                    KindClass::Art => "art",
                    KindClass::Transport => "transport",
                    KindClass::Server => "server",
                    KindClass::Disk => "disk",
                    KindClass::Prefetch => "prefetch",
                    KindClass::Pointer => "pointer",
                    KindClass::Meta => "meta",
                    KindClass::Fault => "fault",
                })
                .or_default() += 1;
        }
        assert_eq!(per_class.values().sum::<usize>(), EventKind::ALL.len());
        assert_eq!(per_class["fault"], 18);
        // fault_events agrees with the classifier.
        let events: Vec<TraceEvent> = EventKind::ALL
            .iter()
            .map(|&k| mk(0, ev(Track::Sys, k, 0, 0, 0)))
            .collect();
        assert_eq!(fault_events(&events).len(), 18);
    }

    #[test]
    fn degraded_windows_pair_down_with_explicit_recovery() {
        let events = vec![
            mk(10, ev(Track::Sys, EventKind::FaultNodeDown, 0, 5, 0)),
            mk(15, ev(Track::Sys, EventKind::FaultNodeDown, 0, 9, 0)),
            mk(
                40,
                ev(Track::Sys, EventKind::FaultNodeRecovered, 0, 5, 30_000),
            ),
            // Node 9 never recovers before the recording stops.
        ];
        let w = degraded_windows(&events);
        assert_eq!(w.len(), 2);
        assert_eq!(
            w[0],
            (
                5,
                SimTime::from_nanos(10_000),
                Some(SimTime::from_nanos(40_000))
            )
        );
        assert_eq!(w[1], (9, SimTime::from_nanos(15_000), None));
    }

    #[test]
    fn breakdown_aggregates_and_renders() {
        let mut events = demand_read(1, 0);
        events.extend(demand_read(2, 1000));
        let spans = read_spans(&events);
        let mut b = SpanBreakdown::of(&spans);
        assert_eq!(b.count, 2);
        assert_eq!(b.total.mean(), Some(100e-6));
        let table = b.render();
        assert!(table.contains("end-to-end"));
        assert!(table.contains("disk"));
    }
}
