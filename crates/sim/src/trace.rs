//! The structured flight recorder.
//!
//! Off by default and free when off: call sites pass a closure, so no
//! event is even constructed unless a trace is armed, and an armed
//! recording appends one `Copy` struct — no per-event allocation either
//! way. Components across the stack record typed [`TraceEvent`]s keyed by
//! a request id minted at the PFS client, which lets the harness
//! reconstruct the life of one read as it crosses the client, the ART,
//! the mesh, the server, and the disks. Bounded: recording stops at the
//! cap rather than growing without limit.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::time::SimTime;

/// Request id threaded through every layer a PFS operation touches.
/// Minted by [`crate::Sim::mint_req`]; `0` means "no request context".
pub type ReqId = u64;

/// Where an event happened — one timeline lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Compute node, by application rank.
    Cn(u16),
    /// I/O node, by index.
    Ion(u16),
    /// A mesh node by raw id (used by layers that only know topology).
    Node(u16),
    /// One spindle of an I/O node's RAID array.
    Disk(u16),
    /// The service node (shared-pointer server).
    Svc,
    /// No specific place (harness, setup, untagged subsystems).
    Sys,
}

impl std::fmt::Display for Track {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Track::Cn(i) => write!(f, "cn{i}"),
            Track::Ion(i) => write!(f, "ion{i}"),
            Track::Node(i) => write!(f, "node{i}"),
            Track::Disk(i) => write!(f, "disk{i}"),
            Track::Svc => write!(f, "svc"),
            Track::Sys => write!(f, "sys"),
        }
    }
}

impl Track {
    /// Parse the `Display` form back (for trace-file import).
    pub(crate) fn parse(s: &str) -> Option<Track> {
        let num = |prefix: &str| s.strip_prefix(prefix).and_then(|n| n.parse::<u16>().ok());
        if let Some(i) = num("cn") {
            return Some(Track::Cn(i));
        }
        if let Some(i) = num("ion") {
            return Some(Track::Ion(i));
        }
        if let Some(i) = num("node") {
            return Some(Track::Node(i));
        }
        if let Some(i) = num("disk") {
            return Some(Track::Disk(i));
        }
        match s {
            "svc" => Some(Track::Svc),
            "sys" => Some(Track::Sys),
            _ => None,
        }
    }

    /// Stable small integer for hashing (variant tag, then index).
    fn code(&self) -> (u64, u64) {
        match *self {
            Track::Cn(i) => (0, i as u64),
            Track::Ion(i) => (1, i as u64),
            Track::Node(i) => (2, i as u64),
            Track::Disk(i) => (3, i as u64),
            Track::Svc => (4, 0),
            Track::Sys => (5, 0),
        }
    }
}

/// Declares [`EventKind`] with its `ALL` table, wire names and hash codes
/// from one list, so a kind cannot miss its wire name or its place in
/// `ALL`. Declaration order is the hash code: new kinds are appended,
/// never inserted, to keep old trace hashes stable.
macro_rules! event_kinds {
    ($($(#[$doc:meta])* $kind:ident => $name:literal,)*) => {
        /// What happened. The `a`/`b` detail fields of [`TraceEvent`] carry
        /// the kind-specific payload noted on each variant (usually
        /// offset/length).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum EventKind {
            $($(#[$doc])* $kind,)*
        }

        impl EventKind {
            /// Every kind, in declaration (hash/serialization) order.
            pub const ALL: [EventKind; [$($name),*].len()] = [$(EventKind::$kind),*];

            /// Stable wire name.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(EventKind::$kind => $name,)*
                }
            }

            /// Parse a wire name back.
            pub(crate) fn parse(s: &str) -> Option<EventKind> {
                EventKind::ALL.iter().copied().find(|k| k.as_str() == s)
            }

            /// Stable small integer for hashing: the declaration index.
            fn code(&self) -> u64 {
                *self as u64
            }
        }
    };
}

event_kinds! {
    /// Demand read entered the client (`a`=offset, `b`=len).
    ReadStart => "read-start",
    /// Demand read returned to the application (`a`=offset, `b`=len).
    ReadDone => "read-done",
    /// Write entered the client (`a`=offset, `b`=len).
    WriteStart => "write-start",
    /// Write acknowledged (`a`=offset, `b`=len).
    WriteDone => "write-done",
    /// Operation handed to an asynchronous request thread (`a`=queue pos).
    ArtSubmit => "art-submit",
    /// ART began running the operation after its dispatch latency.
    ArtStart => "art-start",
    /// ART finished the operation.
    ArtDone => "art-done",
    /// Message entered the mesh at its source NIC (`a`=wire bytes,
    /// `b`=destination node id).
    NetTx => "net-tx",
    /// Message delivered at its destination (`a`=wire bytes, `b`=source
    /// node id).
    NetRx => "net-rx",
    /// PFS server began handling a request (`a`=offset, `b`=len).
    ServeStart => "serve-start",
    /// PFS server finished a request (`a`=offset, `b`=len).
    ServeDone => "serve-done",
    /// Disk service of one device command began (`a`=offset, `b`=len).
    DiskStart => "disk-start",
    /// Disk service of one device command completed (`a`=offset, `b`=len).
    DiskDone => "disk-done",
    /// Prefetch issued for a predicted read (`a`=offset, `b`=len).
    PrefetchIssue => "pf-issue",
    /// Demand read matched a completed prefetch buffer (`a`=offset,
    /// `b`=len).
    PrefetchHitReady => "pf-hit-ready",
    /// Demand read matched a prefetch still in flight (`a`=offset,
    /// `b`=len).
    PrefetchHitInflight => "pf-hit-inflight",
    /// Demand read found no matching buffer (`a`=offset, `b`=len).
    PrefetchMiss => "pf-miss",
    /// Prefetch entry discarded at close while still in flight
    /// (`a`=offset, `b`=len).
    PrefetchCancel => "pf-cancel",
    /// Prefetch entry evicted to make room (`a`=offset, `b`=len).
    PrefetchEvict => "pf-evict",
    /// Buffer-to-buffer copy charged (`a`=bytes, `b`=unused).
    Copy => "copy",
    /// Shared-pointer operation at the service node (`a`=resulting
    /// offset).
    PtrOp => "ptr-op",
    /// Anything else (`a`/`b` free-form).
    Mark => "mark",
    /// Injected disk read error (`a`=offset, `b`=len). Transient unless a
    /// `FaultDiskDown` for the same track precedes it.
    FaultDiskError => "fault-disk-error",
    /// A disk (RAID member) died per the fault plan (`a`/`b` unused).
    FaultDiskDown => "fault-disk-down",
    /// Mesh message dropped — injected fault or dead receiver (`a`=wire
    /// bytes, `b`=destination node id).
    MeshDrop => "mesh-drop",
    /// Mesh message duplicated by the fault plan (`a`=wire bytes,
    /// `b`=destination node id).
    MeshDup => "mesh-dup",
    /// Mesh message delayed by the fault plan (`a`=extra nanoseconds,
    /// `b`=destination node id).
    MeshDelay => "mesh-delay",
    /// A node entered a crash window (`a`=node id, `b`=until-nanos).
    FaultNodeDown => "fault-node-down",
    /// A crashed node restarted (`a`=node id).
    FaultNodeUp => "fault-node-up",
    /// RPC attempt timed out; the client is retrying (`a`=attempt number,
    /// `b`=destination node id).
    RpcRetry => "rpc-retry",
    /// RPC gave up after exhausting its retry budget (`a`=attempts,
    /// `b`=destination node id).
    RpcGiveUp => "rpc-give-up",
    /// RAID read reconstructed a dead member from parity (`a`=member
    /// offset, `b`=len).
    RaidReconstruct => "raid-reconstruct",
    /// A prefetch came back with an error and was quarantined
    /// (`a`=offset, `b`=len).
    PrefetchFault => "pf-fault",
    /// The prefetch engine disabled itself after repeated faults
    /// (`a`=consecutive fault count).
    PrefetchThrottle => "pf-throttle",
    /// The prefetch engine re-enabled after a clean demand read.
    PrefetchResume => "pf-resume",
    /// Replicated read fell over to another copy of the slot
    /// (`a`=slot, `b`=replica index served next).
    ReplicaFailover => "replica-failover",
    /// Recovery coordinator began re-replicating after an I/O-node crash
    /// (`a`=under-replicated stripe slots, `b`=crashed node id).
    RebuildStart => "rebuild-start",
    /// One stripe slot's lost copy was re-replicated to a surviving
    /// I/O node (`a`=slot, `b`=bytes copied).
    RebuildCopy => "rebuild-copy",
    /// Recovery coordinator drained its queue — full redundancy restored
    /// (`a`=slots copied, `b`=bytes copied).
    RebuildDone => "rebuild-done",
    /// A crash window was explicitly closed and the node rejoined
    /// (`a`=node id, `b`=degraded nanoseconds).
    FaultNodeRecovered => "fault-node-recovered",
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Timeline lane.
    pub track: Track,
    /// What happened.
    pub kind: EventKind,
    /// Request context (`0` = none).
    pub req: ReqId,
    /// Kind-specific detail (usually a byte offset).
    pub a: u64,
    /// Kind-specific detail (usually a length).
    pub b: u64,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<7} {:<16} req={} a={} b={}",
            self.track.to_string(),
            self.kind.as_str(),
            self.req,
            self.a,
            self.b
        )
    }
}

/// Shorthand constructor used at recording sites:
/// `sim.emit(|| ev(Track::Cn(0), EventKind::ReadStart, req, off, len))`.
/// The event's time is zero until the recorder stamps it.
pub fn ev(track: Track, kind: EventKind, req: ReqId, a: u64, b: u64) -> TraceEvent {
    TraceEvent {
        time: SimTime::ZERO,
        track,
        kind,
        req,
        a,
        b,
    }
}

#[derive(Default)]
pub(crate) struct TraceState {
    events: RefCell<Vec<TraceEvent>>,
    cap: Cell<usize>,
    /// Count of ids minted so far (not the last id — see `mint_req`).
    minted: Cell<u64>,
}

/// Handle to a simulation's flight recorder (cloned out of `Sim`).
#[derive(Clone, Default)]
pub struct Trace {
    pub(crate) state: Rc<TraceState>,
}

impl Trace {
    /// Arm recording with space for `cap` events (0 disarms).
    pub fn arm(&self, cap: usize) {
        self.state.cap.set(cap);
        self.state.events.borrow_mut().clear();
    }

    /// True when events are being recorded (armed and not yet full).
    pub(crate) fn armed(&self) -> bool {
        self.state.cap.get() > self.state.events.borrow().len()
    }

    /// Record an event at the instant `now` reads; `now` and `body` are
    /// only evaluated while armed, so a disarmed recorder costs one
    /// capacity check and nothing more.
    pub(crate) fn record(&self, now: impl FnOnce() -> SimTime, body: impl FnOnce() -> TraceEvent) {
        if self.armed() {
            let mut event = body();
            event.time = now();
            self.state.events.borrow_mut().push(event);
        }
    }

    /// Mint the next request id (monotone; never 0). Minting is
    /// independent of arming so request ids — and therefore event traces —
    /// are identical whether or not a recorder is attached.
    pub(crate) fn mint_req(&self) -> ReqId {
        let n = self.state.minted.get();
        self.state.minted.set(n + 1);
        1 + n
    }

    /// Events recorded so far (time order — recording order is already
    /// monotone in virtual time).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state.events.borrow().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.state.events.borrow().len()
    }

    /// FNV-1a hash over every recorded event's full contents. Two runs
    /// with equal hashes took byte-identical traces.
    pub fn hash(&self) -> u64 {
        hash_events(&self.state.events.borrow())
    }
}

/// FNV-1a folded over every field of every event, in order.
pub fn hash_events(events: &[TraceEvent]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in events {
        fold(e.time.as_nanos());
        let (t, i) = e.track.code();
        fold(t);
        fold(i);
        fold(e.kind.code());
        fold(e.req);
        fold(e.a);
        fold(e.b);
    }
    h
}

/// Serialize events to the trace-file JSON format:
/// `{"hash":"0x…","events":[{"t":…,"track":"cn0","kind":"read-start",
/// "req":1,"a":0,"b":65536}, …]}`. Written by hand (no serde) so the
/// build stays hermetic; the format is fixed and versionless.
pub fn export_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 64);
    out.push_str(&format!(
        "{{\"hash\":\"{:#018x}\",\n\"events\":[\n",
        hash_events(events)
    ));
    for (i, e) in events.iter().enumerate() {
        out.push_str(&format!(
            "{{\"t\":{},\"track\":\"{}\",\"kind\":\"{}\",\"req\":{},\"a\":{},\"b\":{}}}{}\n",
            e.time.as_nanos(),
            e.track,
            e.kind.as_str(),
            e.req,
            e.a,
            e.b,
            if i + 1 == events.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

/// Parse a trace file produced by [`export_json`] back into events.
/// Strict: accepts exactly that shape (any whitespace), nothing more, and
/// rejects a file whose header hash is not the hash of its events.
pub fn parse_json(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.expect('{')?;
    p.expect_key("hash")?;
    let header = p.string()?;
    let stored = header
        .strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("malformed trace hash {header:?}"))?;
    p.expect(',')?;
    p.expect_key("events")?;
    p.expect('[')?;
    let mut events = Vec::new();
    p.skip_ws();
    if !p.eat(']') {
        loop {
            events.push(p.event()?);
            if !p.eat(',') {
                break;
            }
        }
        p.expect(']')?;
    }
    p.expect('}')?;
    let actual = hash_events(&events);
    if stored != actual {
        return Err(format!(
            "trace hash mismatch: header says {stored:#018x}, events hash to {actual:#018x}"
        ));
    }
    Ok(events)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&(c as u8)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected '{c}' at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| e.to_string())?
                    .to_owned();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err("unterminated string".into())
    }

    fn expect_key(&mut self, key: &str) -> Result<(), String> {
        let k = self.string()?;
        if k != key {
            return Err(format!("expected key {key:?}, found {k:?}"));
        }
        self.expect(':')
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("expected number at byte {start}"))
    }

    fn event(&mut self) -> Result<TraceEvent, String> {
        self.expect('{')?;
        self.expect_key("t")?;
        let t = self.number()?;
        self.expect(',')?;
        self.expect_key("track")?;
        let track = self.string()?;
        let track = Track::parse(&track).ok_or_else(|| format!("bad track {track:?}"))?;
        self.expect(',')?;
        self.expect_key("kind")?;
        let kind = self.string()?;
        let kind = EventKind::parse(&kind).ok_or_else(|| format!("bad kind {kind:?}"))?;
        self.expect(',')?;
        self.expect_key("req")?;
        let req = self.number()?;
        self.expect(',')?;
        self.expect_key("a")?;
        let a = self.number()?;
        self.expect(',')?;
        self.expect_key("b")?;
        let b = self.number()?;
        self.expect('}')?;
        Ok(TraceEvent {
            time: SimTime::from_nanos(t),
            track,
            kind,
            req,
            a,
            b,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64, track: Track, kind: EventKind, req: ReqId) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(t),
            track,
            kind,
            req,
            a: 64,
            b: 128,
        }
    }

    #[test]
    fn disarmed_trace_records_nothing_and_skips_construction() {
        let t = Trace::default();
        let mut evaluated = false;
        t.record(
            || SimTime::ZERO,
            || {
                evaluated = true;
                ev(Track::Sys, EventKind::Mark, 0, 0, 0)
            },
        );
        assert!(!evaluated, "body must not be built while disarmed");
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn armed_trace_records_until_cap() {
        let t = Trace::default();
        t.arm(2);
        for i in 0..5u64 {
            t.record(
                || SimTime::from_nanos(i),
                || ev(Track::Cn(0), EventKind::Mark, i, i, 0),
            );
        }
        assert_eq!(t.len(), 2);
        let events = t.events();
        assert_eq!(events[0].req, 0);
        assert_eq!(events[1].req, 1);
        assert!(!t.armed());
    }

    #[test]
    fn rearming_clears_old_events() {
        let t = Trace::default();
        t.arm(4);
        t.record(
            || SimTime::ZERO,
            || ev(Track::Sys, EventKind::Mark, 0, 0, 0),
        );
        t.arm(4);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn mint_req_is_monotone_and_never_zero() {
        let t = Trace::default();
        assert_eq!(t.mint_req(), 1);
        assert_eq!(t.mint_req(), 2);
        // Minting works whether or not recording is armed.
        t.arm(8);
        assert_eq!(t.mint_req(), 3);
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        let a = vec![
            sample(1, Track::Cn(0), EventKind::ReadStart, 1),
            sample(2, Track::Ion(0), EventKind::ServeStart, 1),
        ];
        let mut b = a.clone();
        assert_eq!(hash_events(&a), hash_events(&b));
        b[1].req = 2;
        assert_ne!(hash_events(&a), hash_events(&b));
        let mut c = a.clone();
        c.swap(0, 1);
        assert_ne!(hash_events(&a), hash_events(&c), "order must matter");
    }

    #[test]
    fn json_roundtrips_exactly() {
        let events = vec![
            sample(10, Track::Cn(3), EventKind::ReadStart, 7),
            sample(20, Track::Node(5), EventKind::NetTx, 7),
            sample(30, Track::Disk(2), EventKind::DiskStart, 7),
            sample(40, Track::Svc, EventKind::PtrOp, 0),
        ];
        let text = export_json(&events);
        let back = parse_json(&text).expect("parse");
        assert_eq!(events, back);
        assert_eq!(hash_events(&events), hash_events(&back));
    }

    #[test]
    fn json_handles_empty_trace() {
        let text = export_json(&[]);
        assert_eq!(parse_json(&text).unwrap(), Vec::new());
    }

    #[test]
    fn every_kind_roundtrips_its_name() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::parse(k.as_str()), Some(k));
        }
        for track in [
            Track::Cn(0),
            Track::Ion(12),
            Track::Node(300),
            Track::Disk(9),
            Track::Svc,
            Track::Sys,
        ] {
            assert_eq!(Track::parse(&track.to_string()), Some(track));
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"hash\":\"x\",\"events\":[{\"t\":1}]}").is_err());
        let events = vec![sample(1, Track::Cn(0), EventKind::Mark, 0)];
        let good = export_json(&events);
        assert!(parse_json(&good.replace("mark", "not-a-kind")).is_err());
        assert!(parse_json(&good.replace("\"hash\":\"0x", "\"hash\":\"")).is_err());
        // An edited event no longer matches the header hash; the error
        // names both hashes.
        let mut edited = events.clone();
        edited[0].b += 1;
        let err = parse_json(&good.replace("\"b\":128", "\"b\":129")).unwrap_err();
        for e in [&events, &edited] {
            let hash = format!("{:#018x}", hash_events(e));
            assert!(err.contains(&hash), "{err}");
        }
    }
}
