//! Per-request critical-path analysis: the repo's one span model.
//!
//! Every PFS transfer carries a request id from the compute node through
//! the ART, the mesh, the server, and the disks (see
//! `paragon_sim::trace`). This module groups a recording by request id
//! and charges each read's `read-start → read-done` interval to the
//! component chain its critical path walks:
//!
//! ```text
//! client → art-queue → mesh-request → server-queue → service → disk
//!        → server-reply → mesh-reply → client-finish
//! ```
//!
//! Each component's blame is the distance between two *milestones* —
//! trace instants chain-clamped to be monotone inside the span — so the
//! nine legs always sum **exactly** (integer nanoseconds, no float
//! drift) to the end-to-end latency. A missing milestone (a cache hit
//! never touches a disk; a replicated read may skip the ART) collapses
//! its leg to zero rather than orphaning the DAG, which is also what
//! makes retried and failed-over requests well-formed: the *last*
//! arrival/completion wins, earlier dead legs are absorbed into the
//! component that covered them in wall-clock terms.
//!
//! The paper's Table 2 access-time decomposition is a fixed projection
//! of the nine legs ([`CriticalPath::phases`]):
//!
//! * **request** = client + art-queue + mesh-request;
//! * **service** = server-queue + service;
//! * **disk** = disk;
//! * **reply** = server-reply + mesh-reply + client-finish.
//!
//! The four phases therefore sum exactly to the end-to-end latency as
//! well; [`PhaseBreakdown`] aggregates and renders them per [`SpanKind`].
//!
//! Overlap accounting: the `disk` leg is the wall-clock envelope from
//! the first member command start to the last completion. Striped and
//! mirrored reads keep several spindles busy inside that envelope; the
//! *hidden* time — summed member busy minus the envelope — is reported
//! separately and deliberately kept out of the blame sum, because it
//! was bought, not waited for.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use paragon_metrics::{Histogram, Table};
use paragon_sim::{EventKind, ReqId, SimDuration, SimTime, TraceEvent, Track};

/// Component labels, in pipeline order; index-aligned with
/// [`CriticalPath::legs`].
pub(crate) const COMPONENTS: [&str; 9] = [
    "client",
    "art-queue",
    "mesh-request",
    "server-queue",
    "service",
    "disk",
    "server-reply",
    "mesh-reply",
    "client-finish",
];

/// The paper's Table-2 phases, in order, each with the range of
/// [`CriticalPath::legs`] it sums.
const PHASES: [(&str, Range<usize>); 4] = [
    ("request", 0..3),
    ("service", 3..5),
    ("disk", 5..6),
    ("reply", 6..9),
];

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

/// One request's critical path: its end-to-end interval charged, to the
/// nanosecond, across the nine pipeline components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
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
    /// Nanoseconds charged to each component, in pipeline order
    /// (client, art-queue, mesh-request, server-queue, service, disk,
    /// server-reply, mesh-reply, client-finish); sums exactly to
    /// `end - start`.
    pub legs: [u64; 9],
    /// Disk member busy time hidden inside the `disk` envelope by RAID
    /// parallelism. Reported, never added to the sum.
    pub overlap_hidden_ns: u64,
    /// Fault-recovery events (retries, failovers, reconstructions)
    /// observed under this request id.
    pub faults: u32,
}

impl CriticalPath {
    /// End-to-end latency in nanoseconds; equals the sum of `legs`.
    pub fn total_ns(&self) -> u64 {
        self.end.since(self.start).as_nanos()
    }

    /// Nanoseconds per Table-2 phase (request, service, disk, reply);
    /// sums exactly to [`total_ns`](Self::total_ns).
    pub fn phases(&self) -> [u64; 4] {
        PHASES.map(|(_, legs)| self.legs[legs].iter().sum())
    }
}

/// Did this kind mark fault recovery work on the request's path?
fn is_fault_recovery(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::FaultDiskError
            | EventKind::MeshDrop
            | EventKind::MeshDup
            | EventKind::MeshDelay
            | EventKind::RpcRetry
            | EventKind::RpcGiveUp
            | EventKind::RaidReconstruct
            | EventKind::ReplicaFailover
    )
}

/// Reconstruct the critical path of every completed read in `events`.
///
/// A request needs a `read-start` and a matching `read-done`; transfers
/// cut off by the trace cap are skipped. Returned in request-id order.
pub fn critical_paths(events: &[TraceEvent]) -> Vec<CriticalPath> {
    let mut by_req: BTreeMap<ReqId, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        if e.req != 0 {
            by_req.entry(e.req).or_default().push(e);
        }
    }
    let mut out = Vec::new();
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
        let at_client = |e: &TraceEvent| match (e.track, client_node) {
            (Track::Node(n), Some(c)) => n == c,
            _ => false,
        };
        let first = |pred: &dyn Fn(&TraceEvent) -> bool| {
            evs.iter().filter(|e| pred(e)).map(|e| e.time).min()
        };
        let last = |pred: &dyn Fn(&TraceEvent) -> bool| {
            evs.iter().filter(|e| pred(e)).map(|e| e.time).max()
        };
        // Milestones, in pipeline order. Raw trace instants; the clamp
        // chain below makes them monotone and confines them to the span.
        let raw: [Option<SimTime>; 8] = [
            first(&|e| e.kind == EventKind::ArtSubmit),
            first(&|e| e.kind == EventKind::ArtStart),
            last(&|e| e.kind == EventKind::NetRx && !at_client(e)),
            first(&|e| e.kind == EventKind::ServeStart),
            first(&|e| e.kind == EventKind::DiskStart),
            last(&|e| e.kind == EventKind::DiskDone),
            last(&|e| e.kind == EventKind::ServeDone),
            last(&|e| e.kind == EventKind::NetRx && at_client(e)),
        ];
        let mut legs = [0u64; 9];
        let mut prev = start;
        for (i, r) in raw.iter().enumerate() {
            // Missing milestone → stay at `prev`: a zero leg, never a
            // negative one, never an orphaned chain.
            let m = r.map(|t| t.max(start).min(end)).unwrap_or(prev).max(prev);
            legs[i] = m.since(prev).as_nanos();
            prev = m;
        }
        legs[8] = end.since(prev).as_nanos();

        // Overlap accounting: FIFO-pair each spindle's start/done
        // commands, sum the member busy time, subtract the wall-clock
        // envelope the `disk` leg already charged.
        let mut open: BTreeMap<Track, VecDeque<SimTime>> = BTreeMap::new();
        let mut member_busy = 0u64;
        let (mut first_disk, mut last_disk) = (None::<SimTime>, None::<SimTime>);
        for e in &evs {
            match e.kind {
                EventKind::DiskStart => {
                    open.entry(e.track).or_default().push_back(e.time);
                    first_disk = Some(first_disk.map_or(e.time, |t: SimTime| t.min(e.time)));
                }
                EventKind::DiskDone => {
                    if let Some(s) = open.get_mut(&e.track).and_then(VecDeque::pop_front) {
                        member_busy += e.time.since(s).as_nanos();
                    }
                    last_disk = Some(last_disk.map_or(e.time, |t: SimTime| t.max(e.time)));
                }
                _ => {}
            }
        }
        let envelope = match (first_disk, last_disk) {
            (Some(f), Some(l)) if l > f => l.since(f).as_nanos(),
            _ => 0,
        };
        let overlap_hidden_ns = member_busy.saturating_sub(envelope);
        let faults = evs.iter().filter(|e| is_fault_recovery(e.kind)).count() as u32;
        let kind = if evs.iter().any(|e| e.kind == EventKind::PrefetchIssue) {
            SpanKind::Prefetch
        } else if evs.iter().any(|e| e.kind == EventKind::PrefetchMiss) {
            SpanKind::DemandMiss
        } else {
            SpanKind::Demand
        };
        out.push(CriticalPath {
            req,
            offset: start_ev.a,
            len: start_ev.b,
            kind,
            start,
            end,
            legs,
            overlap_hidden_ns,
            faults,
        });
    }
    out
}

/// Nearest-rank percentile of an ascending `sorted` sample, `q` in
/// percent. Pure integer rank selection — no interpolation, no floats.
fn pct(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as u64).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

fn ms(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

/// Render the blame breakdown: per-component p50/p95/p99/max plus share
/// of total charged time, then the `top` slowest requests with their
/// full paths. Deterministic and byte-stable: every figure is integer
/// nanoseconds formatted as fixed-point milliseconds.
pub fn render_critical_path(events: &[TraceEvent], top: usize) -> String {
    let paths = critical_paths(events);
    let mut out = String::new();
    out.push_str(&format!(
        "critical-path blame over {} completed reads\n\n",
        paths.len()
    ));
    if paths.is_empty() {
        return out;
    }

    let mut grand_total = 0u64;
    let mut per_comp: Vec<Vec<u64>> = vec![Vec::with_capacity(paths.len()); COMPONENTS.len()];
    let mut comp_sum = [0u64; 9];
    let mut hidden: Vec<u64> = Vec::with_capacity(paths.len());
    let mut totals: Vec<u64> = Vec::with_capacity(paths.len());
    for p in &paths {
        grand_total += p.total_ns();
        for (i, &ns) in p.legs.iter().enumerate() {
            per_comp[i].push(ns);
            comp_sum[i] += ns;
        }
        hidden.push(p.overlap_hidden_ns);
        totals.push(p.total_ns());
    }
    for v in per_comp.iter_mut() {
        v.sort_unstable();
    }
    hidden.sort_unstable();
    totals.sort_unstable();

    out.push_str(&format!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>8}\n",
        "component", "p50 ms", "p95 ms", "p99 ms", "max ms", "share %"
    ));
    for (i, name) in COMPONENTS.iter().enumerate() {
        let v = &per_comp[i];
        // Tenths of a percent in integer arithmetic: byte-stable.
        let share = (comp_sum[i] * 1000).checked_div(grand_total).unwrap_or(0);
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>7}.{}\n",
            name,
            ms(pct(v, 50)),
            ms(pct(v, 95)),
            ms(pct(v, 99)),
            ms(*v.last().unwrap_or(&0)),
            share / 10,
            share % 10,
        ));
    }
    out.push_str(&format!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>8}\n",
        "total",
        ms(pct(&totals, 50)),
        ms(pct(&totals, 95)),
        ms(pct(&totals, 99)),
        ms(*totals.last().unwrap_or(&0)),
        "100.0",
    ));
    out.push_str(&format!(
        "\noverlap-hidden disk time (bought by RAID parallelism, not in the sum): p50 {} ms  max {} ms\n",
        ms(pct(&hidden, 50)),
        ms(*hidden.last().unwrap_or(&0)),
    ));

    // Top-K exemplars: slowest first, request id breaking ties so the
    // listing is a total order.
    let mut slowest: Vec<&CriticalPath> = paths.iter().collect();
    slowest.sort_by_key(|p| (std::cmp::Reverse(p.total_ns()), p.req));
    out.push_str(&format!(
        "\ntop {} slowest requests:\n",
        top.min(slowest.len())
    ));
    for p in slowest.iter().take(top) {
        out.push_str(&format!(
            "req {:<6} total {} ms  offset={} len={} faults={} hidden={} ms\n",
            p.req,
            ms(p.total_ns()),
            p.offset,
            p.len,
            p.faults,
            ms(p.overlap_hidden_ns),
        ));
        let path: Vec<String> = COMPONENTS
            .iter()
            .zip(p.legs.iter())
            .map(|(name, &ns)| format!("{name} {}", ms(ns)))
            .collect();
        out.push_str(&format!("  {}\n", path.join(" | ")));
    }
    out
}

/// Per-phase aggregate over a set of critical paths: one [`Histogram`]
/// of seconds per Table-2 phase plus one for the end-to-end latency.
#[derive(Debug, Default)]
pub struct PhaseBreakdown {
    pub phases: [Histogram; 4],
    pub total: Histogram,
}

impl PhaseBreakdown {
    /// Aggregate `paths` (typically pre-filtered by [`SpanKind`]).
    pub fn of<'a>(paths: impl IntoIterator<Item = &'a CriticalPath>) -> PhaseBreakdown {
        let secs = |ns: u64| SimDuration::from_nanos(ns).as_secs_f64();
        let mut b = PhaseBreakdown::default();
        for p in paths {
            for (h, ns) in b.phases.iter_mut().zip(p.phases()) {
                h.record(secs(ns));
            }
            b.total.record(secs(p.total_ns()));
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
        let rows = PHASES.iter().map(|(name, _)| *name).chain(["end-to-end"]);
        for (name, h) in rows.zip(self.phases.iter_mut().chain([&mut self.total])) {
            let (mean, p50, max) = (ms(h.mean()), ms(h.quantile(0.5)), ms(h.max()));
            t.row(&[name, &mean, &p50, &max]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::{ev, EventBody, SimDuration};

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

    /// A full demand-read event chain for `req`, offset 0, 64 KiB.
    fn demand_read(req: ReqId, base_us: u64) -> Vec<TraceEvent> {
        vec![
            mk(
                base_us,
                ev(Track::Cn(0), EventKind::ReadStart, req, 0, 65536),
            ),
            mk(
                base_us + 1,
                ev(Track::Cn(0), EventKind::ArtSubmit, req, 0, 0),
            ),
            mk(
                base_us + 3,
                ev(Track::Cn(0), EventKind::ArtStart, req, 0, 0),
            ),
            mk(
                base_us + 4,
                ev(Track::Node(0), EventKind::NetTx, req, 100, 4),
            ),
            mk(
                base_us + 10,
                ev(Track::Node(4), EventKind::NetRx, req, 100, 0),
            ),
            mk(
                base_us + 12,
                ev(Track::Ion(0), EventKind::ServeStart, req, 0, 65536),
            ),
            mk(
                base_us + 15,
                ev(Track::Disk(0), EventKind::DiskStart, req, 0, 32768),
            ),
            mk(
                base_us + 16,
                ev(Track::Disk(1), EventKind::DiskStart, req, 32768, 32768),
            ),
            mk(
                base_us + 40,
                ev(Track::Disk(0), EventKind::DiskDone, req, 0, 32768),
            ),
            mk(
                base_us + 45,
                ev(Track::Disk(1), EventKind::DiskDone, req, 32768, 32768),
            ),
            mk(
                base_us + 47,
                ev(Track::Ion(0), EventKind::ServeDone, req, 0, 65536),
            ),
            mk(
                base_us + 48,
                ev(Track::Node(4), EventKind::NetTx, req, 65636, 0),
            ),
            mk(
                base_us + 60,
                ev(Track::Node(0), EventKind::NetRx, req, 65636, 4),
            ),
            mk(
                base_us + 62,
                ev(Track::Cn(0), EventKind::ReadDone, req, 0, 65536),
            ),
        ]
    }

    #[test]
    fn legs_sum_exactly_to_total() {
        let evs = demand_read(1, 100);
        let paths = critical_paths(&evs);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.legs.iter().sum::<u64>(), p.total_ns());
        assert_eq!(p.total_ns(), 62_000);
        // Spot-check the chain: client 1 µs, art-queue 2 µs, mesh 7 µs.
        assert_eq!(p.legs[0], 1_000);
        assert_eq!(p.legs[1], 2_000);
        assert_eq!(p.legs[2], 7_000);
    }

    #[test]
    fn phases_project_the_legs_onto_table_2() {
        let p = &critical_paths(&demand_read(1, 100))[0];
        assert_eq!(p.kind, SpanKind::Demand);
        // request 0→10, service 10→15, disk 15→45, reply 45→62 µs.
        assert_eq!(p.phases(), [10_000, 5_000, 30_000, 17_000]);
        assert_eq!(p.phases().iter().sum::<u64>(), p.total_ns());
    }

    #[test]
    fn diskless_read_charges_a_lagging_serve_start_to_service() {
        // A server-cache hit whose ServeStart lags the request arrival:
        // the gap is server time, so it lands in `service`, not `reply`.
        let req = 7;
        let evs = vec![
            mk(0, ev(Track::Cn(0), EventKind::ReadStart, req, 0, 64)),
            mk(5, ev(Track::Node(0), EventKind::NetTx, req, 96, 2)),
            mk(9, ev(Track::Node(2), EventKind::NetRx, req, 96, 0)),
            mk(12, ev(Track::Ion(1), EventKind::ServeStart, req, 0, 64)),
            mk(14, ev(Track::Ion(1), EventKind::ServeDone, req, 0, 64)),
            mk(15, ev(Track::Node(2), EventKind::NetTx, req, 128, 0)),
            mk(19, ev(Track::Node(0), EventKind::NetRx, req, 128, 2)),
            mk(20, ev(Track::Cn(0), EventKind::ReadDone, req, 0, 64)),
        ];
        let paths = critical_paths(&evs);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].phases(), [9_000, 3_000, 0, 8_000]);
    }

    #[test]
    fn unfinished_and_contextless_events_are_skipped() {
        let mut evs = demand_read(1, 0);
        evs.pop(); // drop read-done
        evs.push(mk(500, ev(Track::Sys, EventKind::Mark, 0, 0, 0)));
        assert!(critical_paths(&evs).is_empty());
    }

    #[test]
    fn kinds_follow_prefetch_markers() {
        let mut evs = demand_read(2, 0);
        evs.insert(
            0,
            mk(0, ev(Track::Cn(0), EventKind::PrefetchMiss, 2, 0, 65536)),
        );
        let mut pf = demand_read(3, 1000);
        pf.insert(
            0,
            mk(
                1000,
                ev(Track::Cn(0), EventKind::PrefetchIssue, 3, 0, 65536),
            ),
        );
        evs.extend(pf);
        let paths = critical_paths(&evs);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].kind, SpanKind::DemandMiss);
        assert_eq!(paths[1].kind, SpanKind::Prefetch);
    }

    #[test]
    fn breakdown_aggregates_and_renders() {
        let mut evs = demand_read(1, 0);
        evs.extend(demand_read(2, 1000));
        let paths = critical_paths(&evs);
        let mut b = PhaseBreakdown::of(&paths);
        assert_eq!(b.total.len(), 2);
        assert_eq!(b.total.mean(), Some(62e-6));
        let table = b.render();
        assert!(table.contains("end-to-end"));
        assert!(table.contains("disk"));
    }

    #[test]
    fn overlap_hidden_counts_member_parallelism() {
        let paths = critical_paths(&demand_read(1, 0));
        // Envelope 15→45 µs = 30 µs; member busy 25 + 29 = 54 µs.
        assert_eq!(paths[0].overlap_hidden_ns, 54_000 - 30_000);
    }

    #[test]
    fn missing_milestones_collapse_to_zero_legs() {
        // A cache-hit read that never leaves the client.
        let evs = vec![
            mk(0, ev(Track::Cn(0), EventKind::ReadStart, 9, 0, 4096)),
            mk(5, ev(Track::Cn(0), EventKind::ReadDone, 9, 0, 4096)),
        ];
        let paths = critical_paths(&evs);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.legs.iter().sum::<u64>(), 5_000);
        // Everything lands on client-finish; interior legs are zero.
        assert_eq!(p.legs[8], 5_000);
        assert_eq!(p.legs[..8].iter().sum::<u64>(), 0);
    }

    #[test]
    fn retried_request_yields_one_well_formed_path() {
        // A failover mid-read: a first server leg dies, a retry lands on
        // a second I/O node. The path must stay monotone and exact.
        let mut evs = vec![
            mk(0, ev(Track::Cn(0), EventKind::ReadStart, 5, 0, 65536)),
            mk(1, ev(Track::Cn(0), EventKind::ArtSubmit, 5, 0, 0)),
            mk(2, ev(Track::Cn(0), EventKind::ArtStart, 5, 0, 0)),
            mk(3, ev(Track::Node(0), EventKind::NetTx, 5, 100, 4)),
            mk(9, ev(Track::Node(4), EventKind::NetRx, 5, 100, 0)),
            // First attempt dies; a retry goes out.
            mk(200, ev(Track::Cn(0), EventKind::RpcRetry, 5, 1, 4)),
            mk(201, ev(Track::Sys, EventKind::ReplicaFailover, 5, 0, 1)),
            mk(202, ev(Track::Node(0), EventKind::NetTx, 5, 100, 5)),
            mk(210, ev(Track::Node(5), EventKind::NetRx, 5, 100, 0)),
            mk(212, ev(Track::Ion(1), EventKind::ServeStart, 5, 0, 65536)),
            mk(215, ev(Track::Disk(4), EventKind::DiskStart, 5, 0, 65536)),
            mk(240, ev(Track::Disk(4), EventKind::DiskDone, 5, 0, 65536)),
            mk(242, ev(Track::Ion(1), EventKind::ServeDone, 5, 0, 65536)),
            mk(243, ev(Track::Node(5), EventKind::NetTx, 5, 65636, 0)),
            mk(250, ev(Track::Node(0), EventKind::NetRx, 5, 65636, 5)),
            mk(252, ev(Track::Cn(0), EventKind::ReadDone, 5, 0, 65536)),
        ];
        evs.sort_by_key(|e| e.time);
        let paths = critical_paths(&evs);
        assert_eq!(paths.len(), 1, "retried request must yield one path");
        let p = &paths[0];
        assert_eq!(p.legs.iter().sum::<u64>(), p.total_ns());
        assert_eq!(p.faults, 2, "retry + failover must be counted");
        // The *last* request-leg arrival (the retry's) bounds the
        // mesh-request leg: dead first legs are absorbed, not orphaned.
        assert_eq!(p.legs[..3].iter().sum::<u64>(), 210_000);
    }

    #[test]
    fn render_is_deterministic() {
        let mut evs = demand_read(1, 0);
        evs.extend(demand_read(2, 500));
        evs.extend(demand_read(3, 900));
        let a = render_critical_path(&evs, 2);
        let b = render_critical_path(&evs, 2);
        assert_eq!(a, b);
        assert!(a.contains("critical-path blame over 3 completed reads"));
        assert!(a.contains("top 2 slowest requests:"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(pct(&v, 50), 50);
        assert_eq!(pct(&v, 95), 95);
        assert_eq!(pct(&v, 99), 99);
        assert_eq!(pct(&[7], 99), 7);
        assert_eq!(pct(&[], 50), 0);
    }
}
