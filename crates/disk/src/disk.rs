//! One simulated spindle: a server task draining a request queue in
//! N-step SCAN elevator order and charging the timing model per request.
//! The order is the RAID controller's: near-offset requests arriving out
//! of order (adjacent records from different compute nodes) are served in
//! disk order, not arrival order.
//! A member disk is a service-time model only: the RAID layer keeps the
//! array's bytes in one logical store.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use paragon_sim::sync::{channel, Receiver, ReplyTable, Sender};
use paragon_sim::{ev, DiskFault, EventKind, ReqId, Rng, Sim, SimDuration, Track};

use crate::params::DiskParams;

/// Why a disk request failed. Injected by the simulation's
/// [`FaultPlan`](paragon_sim::FaultPlan); never produced on a healthy run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// One-shot media error; a retry of the same request may succeed.
    Transient,
    /// The member is dead: every request fails until the plan revives it.
    Dead,
    /// The disk's server task is gone (simulated controller crash).
    Down,
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Transient => write!(f, "transient media error"),
            DiskError::Dead => write!(f, "disk dead"),
            DiskError::Down => write!(f, "disk server down"),
        }
    }
}

impl std::error::Error for DiskError {}

/// The direction of one disk command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DiskOp {
    Read,
    Write,
}

struct DiskRequest {
    op: DiskOp,
    offset: u64,
    len: u64,
    req: ReqId,
    /// The key of the request's entry in the disk's reply table.
    id: u64,
}

/// Cumulative per-disk counters, readable while the simulation runs.
#[derive(Debug, Default, Clone)]
pub struct DiskStats {
    /// Requests completed.
    pub requests: u64,
    /// Bytes read from media.
    pub bytes_read: u64,
    /// Bytes written to media.
    pub bytes_written: u64,
    /// Virtual time the disk spent servicing requests.
    pub busy: SimDuration,
    /// Requests that hit the sequential window (no positioning cost).
    pub sequential_hits: u64,
    /// Track-to-track seeks.
    pub near_seeks: u64,
    /// Full-stroke (average) seeks.
    pub far_seeks: u64,
    /// Deepest queue observed.
    pub max_queue_depth: usize,
    /// Requests failed by fault injection.
    pub faulted: u64,
}

impl DiskStats {
    /// Add `other`'s counters into these (sums; max for queue depth).
    pub fn merge(&mut self, other: &DiskStats) {
        self.requests += other.requests;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.busy += other.busy;
        self.sequential_hits += other.sequential_hits;
        self.near_seeks += other.near_seeks;
        self.far_seeks += other.far_seeks;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.faulted += other.faulted;
    }
}

/// What a [`Disk`] handle shares with its server task.
struct Shared {
    stats: RefCell<DiskStats>,
    /// Service-time multiplier (failure injection: hot spots, degraded mode).
    slowdown: Cell<f64>,
    /// Flight-recorder lane for this spindle's DiskStart/DiskDone events.
    track: Cell<Track>,
    /// Live queue depth for telemetry gauges: requests sent and not yet
    /// taken by the server loop (the one in service is not counted).
    queue: Rc<Cell<usize>>,
    /// Requests awaiting their outcome, keyed by `next_id`. The server
    /// loop closes it when it ends, failing them with [`DiskError::Down`].
    replies: ReplyTable<Result<(), DiskError>>,
    next_id: Cell<u64>,
}

/// Handle to a simulated disk. Clone freely; all clones enqueue to the same
/// server task.
#[derive(Clone)]
pub(crate) struct Disk {
    tx: Sender<DiskRequest>,
    shared: Rc<Shared>,
}

impl Disk {
    /// Create a disk and spawn its server task on `sim`.
    ///
    /// `label` names the RNG stream for seek jitter, so two disks with the
    /// same parameters still jitter independently but deterministically.
    pub(crate) fn new(sim: &Sim, params: DiskParams, label: &str) -> Disk {
        let (tx, rx) = channel::<DiskRequest>();
        let shared = Rc::new(Shared {
            stats: RefCell::new(DiskStats::default()),
            slowdown: Cell::new(1.0),
            track: Cell::new(Track::Sys),
            queue: Rc::new(Cell::new(0)),
            replies: ReplyTable::new(),
            next_id: Cell::new(0),
        });
        let rng = sim.rng(&format!("disk.{label}"));
        sim.spawn_named(
            "disk-server",
            server_loop(sim.clone(), rx, params, shared.clone(), rng),
        );
        Disk { tx, shared }
    }

    /// Assign the flight-recorder lane this spindle's events appear on
    /// (the machine wires a globally unique `Track::Disk` index).
    pub(crate) fn set_track(&self, track: Track) {
        self.shared.track.set(track);
    }

    /// Serve one `op` of `len` bytes at `offset` under flight-recorder
    /// request context `req`; resolves when the media transfer ends. Fails
    /// only under fault injection (a crashed server task or an injected
    /// media error).
    pub(crate) async fn access(
        &self,
        op: DiskOp,
        offset: u64,
        len: u32,
        req: ReqId,
    ) -> Result<(), DiskError> {
        let id = self.shared.next_id.get();
        self.shared.next_id.set(id + 1);
        let done = self.shared.replies.expect(id);
        let request = DiskRequest {
            op,
            offset,
            len: len as u64,
            req,
            id,
        };
        if self.tx.send(request).is_err() {
            return Err(DiskError::Down);
        }
        let queue = &self.shared.queue;
        queue.set(queue.get() + 1);
        done.await.unwrap_or(Err(DiskError::Down))
    }

    /// Snapshot of the disk's counters.
    pub(crate) fn stats(&self) -> DiskStats {
        self.shared.stats.borrow().clone()
    }

    /// The live queue-depth cell: [`Disk::access`] counts a request in
    /// when it sends it and the server loop counts it out when it takes
    /// it. Telemetry gauges read it while the simulation runs.
    pub(crate) fn queue_cell(&self) -> Rc<Cell<usize>> {
        self.shared.queue.clone()
    }

    /// Multiply all future service times by `factor` (1.0 = nominal).
    /// Used by failure-injection experiments to create a hot spot.
    pub(crate) fn set_slowdown(&self, factor: f64) {
        assert!(factor > 0.0, "slowdown factor must be positive");
        self.shared.slowdown.set(factor);
    }
}

async fn server_loop(
    sim: Sim,
    mut rx: Receiver<DiskRequest>,
    params: DiskParams,
    shared: Rc<Shared>,
    mut rng: Rng,
) {
    let faults = sim.faults();
    let Shared {
        stats,
        slowdown,
        track,
        queue,
        replies,
        next_id: _,
    } = &*shared;
    // However the loop ends, requests still waiting fail with `Down`.
    let _close = replies.close_on_drop();
    // Head position: byte offset just past the last serviced request.
    let mut head: u64 = 0;
    // Tracks the dead/alive edge so FaultDiskDown is emitted once per death,
    // letting trace consumers distinguish a dead member's errors from
    // transient media errors (see EventKind::FaultDiskError).
    let mut was_dead = false;
    // Segmented read cache: the streams the drive is tracking.
    let mut segments = Segments::new(params.cache_segments.max(1));
    // N-step SCAN: requests that arrived since the current sweep was
    // taken, in arrival order, and the sweep itself, sorted so that
    // popping from the back serves it by (offset, arrival). Requests that
    // arrive mid-sweep wait for the next snapshot, which makes the
    // elevator starvation-free. The drained sweep's `Vec` becomes the
    // next arrival list, so neither is reallocated in a steady state.
    let mut arrivals: Vec<DiskRequest> = Vec::new();
    let mut sweep: Vec<DiskRequest> = Vec::new();

    loop {
        // Collect arrivals without blocking.
        while let Some(req) = rx.try_recv() {
            arrivals.push(req);
        }
        let DiskRequest {
            op,
            offset,
            len,
            req,
            id,
        } = match sweep.pop() {
            Some(next) => next,
            None if arrivals.is_empty() => {
                match rx.recv().await {
                    Some(req) => arrivals.push(req),
                    None => return, // all handles dropped
                }
                continue; // re-collect to batch simultaneous arrivals
            }
            None => {
                // The sweep drained: snapshot the arrivals. The stable
                // sort keeps arrival order among equal offsets; reversing
                // puts the next request to serve at the back.
                std::mem::swap(&mut sweep, &mut arrivals);
                sweep.sort_by_key(|r| r.offset);
                sweep.reverse();
                continue;
            }
        };
        {
            let mut st = stats.borrow_mut();
            let depth = sweep.len() + arrivals.len() + 1;
            st.max_queue_depth = st.max_queue_depth.max(depth);
        }
        queue.set(queue.get() - 1);

        // Consult the fault plan. A dead member fails fast (the controller
        // knows the device is gone); a transient media error is discovered
        // only after the service attempt, so it still charges full time.
        let fault = match (track.get(), op) {
            (Track::Disk(i), DiskOp::Read) => faults.disk_read_fault(i),
            (Track::Disk(i), DiskOp::Write) => faults.disk_write_fault(i),
            _ => None,
        };
        if fault == Some(DiskFault::Dead) {
            if !was_dead {
                was_dead = true;
                sim.emit(|| ev(track.get(), EventKind::FaultDiskDown, req, 0, 0));
            }
            sim.emit(|| ev(track.get(), EventKind::FaultDiskError, req, offset, len));
            stats.borrow_mut().faulted += 1;
            // `Err`: the requester is gone; nobody is left to tell.
            let _ = replies.reply(id, Err(DiskError::Dead));
            continue;
        }
        was_dead = false;

        let service = service_time(&params, &mut segments, head, offset, len, &mut rng, stats);
        let service = scale(service, slowdown.get());
        sim.emit(|| ev(track.get(), EventKind::DiskStart, req, offset, len));
        sim.sleep(service).await;
        sim.emit(|| ev(track.get(), EventKind::DiskDone, req, offset, len));
        head = offset + len;

        let mut st = stats.borrow_mut();
        st.requests += 1;
        st.busy += service;
        if fault == Some(DiskFault::Transient) {
            sim.emit(|| ev(track.get(), EventKind::FaultDiskError, req, offset, len));
            st.faulted += 1;
            let _ = replies.reply(id, Err(DiskError::Transient));
            continue;
        }
        match op {
            DiskOp::Read => st.bytes_read += len,
            DiskOp::Write => st.bytes_written += len,
        }
        let _ = replies.reply(id, Ok(()));
    }
}

/// The drive's segmented read cache: stream positions with LRU stamps.
struct Segments {
    slots: Vec<(u64, u64)>, // (position just past the stream's last byte, stamp)
    cap: usize,
    clock: u64,
}

impl Segments {
    fn new(cap: usize) -> Self {
        Segments {
            slots: Vec::with_capacity(cap),
            cap,
            clock: 0,
        }
    }

    /// Distance from `offset` to the nearest tracked stream.
    fn nearest_gap(&self, offset: u64) -> u64 {
        self.slots
            .iter()
            .map(|&(pos, _)| offset.abs_diff(pos))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Record that a stream now ends at `end`: refresh the matching
    /// segment (within `window`) or evict the LRU one.
    fn advance(&mut self, offset: u64, end: u64, window: u64) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(slot) = self
            .slots
            .iter_mut()
            .find(|(pos, _)| offset.abs_diff(*pos) <= window)
        {
            *slot = (end, clock);
            return;
        }
        if self.slots.len() < self.cap {
            self.slots.push((end, clock));
        } else if let Some(lru) = self.slots.iter_mut().min_by_key(|(_, stamp)| *stamp) {
            // cap >= 1, so a full slot list always has an LRU entry.
            *lru = (end, clock);
        }
    }
}

fn service_time(
    params: &DiskParams,
    segments: &mut Segments,
    head: u64,
    offset: u64,
    len: u64,
    rng: &mut Rng,
    stats: &RefCell<DiskStats>,
) -> SimDuration {
    // A request adjacent (either direction) to any tracked stream is
    // served from / primed by the segment cache: free positioning.
    let gap = segments.nearest_gap(offset).min(offset.abs_diff(head));
    let positioning = match gap {
        gap if gap <= params.sequential_window => {
            stats.borrow_mut().sequential_hits += 1;
            SimDuration::ZERO
        }
        dist if dist <= params.near_threshold => {
            // Track-class seek: the head barely moves and full-track
            // buffering hides most of the rotational delay.
            stats.borrow_mut().near_seeks += 1;
            jitter(params.track_seek, params.seek_jitter, rng)
        }
        _ => {
            stats.borrow_mut().far_seeks += 1;
            let rotational = params.rotation / 2;
            jitter(params.avg_seek, params.seek_jitter, rng) + rotational
        }
    };
    segments.advance(offset, offset + len, params.sequential_window);
    params.controller_overhead + positioning + params.transfer_time(len)
}

fn jitter(base: SimDuration, rel: f64, rng: &mut Rng) -> SimDuration {
    if rel == 0.0 || base.is_zero() {
        return base;
    }
    let f = 1.0 + rng.range_f64(-rel..rel);
    SimDuration::from_nanos((base.as_nanos() as f64 * f).round() as u64)
}

fn scale(d: SimDuration, factor: f64) -> SimDuration {
    if factor == 1.0 {
        d
    } else {
        SimDuration::from_nanos((d.as_nanos() as f64 * factor).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::SimTime;

    fn fixed_disk(sim: &Sim, bw: f64) -> Disk {
        Disk::new(sim, DiskParams::ideal(bw), "t0")
    }

    impl Disk {
        async fn read(&self, offset: u64, len: u32) -> Result<(), DiskError> {
            self.access(DiskOp::Read, offset, len, 0).await
        }
    }

    #[test]
    fn ideal_disk_charges_pure_bandwidth() {
        let sim = Sim::new(1);
        let disk = fixed_disk(&sim, 1_000_000.0);
        let d2 = disk.clone();
        let h = sim.spawn(async move {
            d2.read(0, 500_000).await.unwrap();
        });
        sim.run();
        drop(h);
        // 500 KB at 1 MB/s = 0.5 s.
        assert_eq!(disk.stats().busy, SimDuration::from_millis(500));
        sim.shutdown();
    }

    #[test]
    fn sequential_reads_skip_positioning() {
        let sim = Sim::new(1);
        let mut params = DiskParams::scsi_1995();
        params.seek_jitter = 0.0;
        let disk = Disk::new(&sim, params, "seq");
        let d = disk.clone();
        sim.spawn(async move {
            for i in 0..8u64 {
                d.read(i * 64 * 1024, 64 * 1024).await.unwrap();
            }
        });
        sim.run();
        let st = disk.stats();
        // First request seeks (head at 0, request at 0 counts as sequential
        // because the forward gap is zero), rest are sequential.
        assert_eq!(st.sequential_hits, 8);
        assert_eq!(st.far_seeks + st.near_seeks, 0);
        sim.shutdown();
    }

    #[test]
    fn random_reads_pay_seeks() {
        let sim = Sim::new(1);
        let params = DiskParams::scsi_1995();
        let disk = Disk::new(&sim, params, "rnd");
        let d = disk.clone();
        sim.spawn(async move {
            // Touch ten scattered regions: each first touch is a fresh
            // stream the segment cache has never seen.
            for i in 1..=10u64 {
                d.read(i * 512 * 1024 * 1024, 8 * 1024).await.unwrap();
            }
        });
        sim.run();
        let st = disk.stats();
        assert!(st.far_seeks >= 9, "expected far seeks, got {st:?}");
        sim.shutdown();
    }

    #[test]
    fn segment_cache_tracks_interleaved_streams() {
        // Two interleaved sequential streams: a single-head model would
        // seek on every request; a segmented cache serves both freely
        // after the first touch of each.
        let sim = Sim::new(1);
        let mut params = DiskParams::scsi_1995();
        params.seek_jitter = 0.0;
        let disk = Disk::new(&sim, params, "seg");
        let d = disk.clone();
        sim.spawn(async move {
            for i in 0..6u64 {
                d.read(i * 64 * 1024, 64 * 1024).await.unwrap(); // stream A
                d.read(1 << 30 | (i * 64 * 1024), 64 * 1024).await.unwrap(); // stream B
            }
        });
        sim.run();
        let st = disk.stats();
        assert_eq!(st.far_seeks, 1, "only stream B's first touch seeks: {st:?}");
        assert_eq!(st.sequential_hits, 11);
        sim.shutdown();
    }

    #[test]
    fn slowdown_scales_service_time() {
        let sim = Sim::new(1);
        let disk = fixed_disk(&sim, 1e6);
        disk.set_slowdown(3.0);
        let d = disk.clone();
        let h = sim.spawn(async move {
            d.read(0, 100_000).await.unwrap();
        });
        let report = sim.run();
        drop(h);
        // 100 KB at 1 MB/s = 0.1 s, tripled = 0.3 s.
        assert_eq!(
            report.end_time,
            SimTime::ZERO + SimDuration::from_millis(300)
        );
        sim.shutdown();
    }

    #[test]
    fn queue_depth_high_water_is_tracked() {
        let sim = Sim::new(1);
        let disk = fixed_disk(&sim, 1e6);
        for i in 0..5u64 {
            let d = disk.clone();
            sim.spawn(async move {
                d.read(i * 1000, 1000).await.unwrap();
            });
        }
        sim.run();
        assert!(disk.stats().max_queue_depth >= 4);
        sim.shutdown();
    }

    #[test]
    fn queue_gauge_counts_arrivals_during_a_service() {
        // A 100 ms read, and a second request sent 10 ms into its
        // service: at 20 ms the second one waits, and the gauge says so.
        let sim = Sim::new(1);
        let disk = fixed_disk(&sim, 1e6);
        let queue = disk.queue_cell();
        for (at_ms, offset) in [(0, 0), (10, 100_000)] {
            let (d, s) = (disk.clone(), sim.clone());
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(at_ms)).await;
                d.read(offset, 100_000).await.unwrap();
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(20));
        assert_eq!(queue.get(), 1);
        sim.run();
        assert_eq!(queue.get(), 0);
        sim.shutdown();
    }

    #[test]
    fn injected_transient_error_fails_once_then_recovers() {
        let sim = Sim::new(1);
        let disk = fixed_disk(&sim, 1e6);
        disk.set_track(Track::Disk(0));
        let faults = sim.faults();
        faults.set_disk_error_rate(1000);
        faults.arm();
        let d = disk.clone();
        let h = sim.spawn(async move {
            d.access(DiskOp::Write, 0, 64, 0).await.unwrap();
            let first = d.read(0, 64).await;
            faults.set_disk_error_rate(0);
            let second = d.read(0, 64).await;
            (first, second)
        });
        sim.run();
        let (first, second) = h.try_take().unwrap();
        assert_eq!(first, Err(DiskError::Transient));
        assert_eq!(second, Ok(()));
        assert_eq!(disk.stats().faulted, 1);
        sim.shutdown();
    }

    #[test]
    fn dead_disk_fails_fast_without_charging_service() {
        let sim = Sim::new(1);
        let disk = fixed_disk(&sim, 1e6);
        disk.set_track(Track::Disk(4));
        sim.faults().kill_disk(4);
        sim.faults().arm();
        let d = disk.clone();
        let h = sim.spawn(async move { d.read(0, 500_000).await });
        let report = sim.run();
        assert_eq!(h.try_take(), Some(Err(DiskError::Dead)));
        assert_eq!(report.end_time, SimTime::ZERO, "no media time charged");
        assert_eq!(disk.stats().busy, SimDuration::ZERO);
        sim.shutdown();
    }

    #[test]
    fn requests_to_a_crashed_server_return_down() {
        let sim = Sim::new(1);
        let disk = fixed_disk(&sim, 1e6);
        // Tear down the world (drops the server task), then submit.
        sim.run();
        sim.shutdown();
        let d = disk.clone();
        let sim2 = Sim::new(2);
        let h = sim2.spawn(async move { d.read(0, 64).await });
        sim2.run();
        assert_eq!(h.try_take(), Some(Err(DiskError::Down)));
    }

    #[test]
    fn a_request_in_service_when_the_server_goes_returns_down() {
        // The requester runs in a world of its own, so tearing down the
        // disk's world drops the server task and nothing else.
        let sim = Sim::new(1);
        let disk = fixed_disk(&sim, 1e6);
        let requester = Sim::new(2);
        let d = disk.clone();
        let h = requester.spawn(async move { d.read(0, 64_000).await });
        requester.run();
        // 64 KB at 1 MB/s: 64 ms of service, 10 ms of it done.
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(disk.queue_cell().get(), 0, "the request is in service");
        assert!(!h.is_finished());
        sim.shutdown();
        requester.run();
        assert_eq!(h.try_take(), Some(Err(DiskError::Down)));
        assert_eq!(disk.stats().requests, 0);
    }
}
