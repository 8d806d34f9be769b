//! One simulated spindle: a server task draining a request queue with FIFO
//! or C-SCAN elevator order, charging the timing model per request, and
//! reading/writing real bytes in a sparse store.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use paragon_sim::sync::{channel, oneshot, OneshotSender, Receiver, Sender};
use paragon_sim::{ev, DiskFault, EventKind, FaultPlan, ReqId, Rng, Sim, SimDuration, Track};

use crate::params::{DiskParams, SchedPolicy};
use crate::store::BlockStore;

/// Why a disk request failed. Injected by the simulation's
/// [`FaultPlan`]; never produced on a healthy run.
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

/// A disk operation.
#[derive(Debug, Clone)]
pub(crate) enum DiskOp {
    /// Read `len` bytes at byte offset `offset`.
    Read { offset: u64, len: u32 },
    /// Write the payload at byte offset `offset`.
    Write { offset: u64, data: Bytes },
    /// Timing-only read: charged and scheduled exactly like
    /// [`DiskOp::Read`], but no payload is produced. Used by the RAID
    /// layer, which keeps the array's bytes in one logical store and uses
    /// member disks purely as service-time models.
    ReadTiming { offset: u64, len: u32 },
    /// Timing-only write: charged like [`DiskOp::Write`] with `len`
    /// payload bytes, but nothing is stored.
    WriteTiming { offset: u64, len: u32 },
}

impl DiskOp {
    fn offset(&self) -> u64 {
        match self {
            DiskOp::Read { offset, .. }
            | DiskOp::Write { offset, .. }
            | DiskOp::ReadTiming { offset, .. }
            | DiskOp::WriteTiming { offset, .. } => *offset,
        }
    }

    fn len(&self) -> u64 {
        match self {
            DiskOp::Read { len, .. } | DiskOp::ReadTiming { len, .. } => *len as u64,
            DiskOp::Write { data, .. } => data.len() as u64,
            DiskOp::WriteTiming { len, .. } => *len as u64,
        }
    }
}

struct DiskRequest {
    op: DiskOp,
    req: ReqId,
    reply: OneshotSender<Result<Bytes, DiskError>>,
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

/// Handle to a simulated disk. Clone freely; all clones enqueue to the same
/// server task.
#[derive(Clone)]
pub struct Disk {
    tx: Sender<DiskRequest>,
    stats: Rc<RefCell<DiskStats>>,
    /// Service-time multiplier (failure injection: hot spots, degraded mode).
    slowdown: Rc<Cell<f64>>,
    /// Flight-recorder lane for this spindle's DiskStart/DiskDone events.
    track: Rc<Cell<Track>>,
    /// Live queue depth (requests waiting, not counting the one in
    /// service), maintained by the server loop for telemetry gauges.
    queue: Rc<Cell<usize>>,
}

impl Disk {
    /// Create a disk and spawn its server task on `sim`.
    ///
    /// `label` names the RNG stream for seek jitter, so two disks with the
    /// same parameters still jitter independently but deterministically.
    pub fn new(sim: &Sim, params: DiskParams, policy: SchedPolicy, label: &str) -> Disk {
        let (tx, rx) = channel::<DiskRequest>();
        let stats = Rc::new(RefCell::new(DiskStats::default()));
        let slowdown = Rc::new(Cell::new(1.0));
        let track = Rc::new(Cell::new(Track::Sys));
        let queue = Rc::new(Cell::new(0usize));
        let disk = Disk {
            tx,
            stats: stats.clone(),
            slowdown: slowdown.clone(),
            track: track.clone(),
            queue: queue.clone(),
        };
        let rng = sim.rng(&format!("disk.{label}"));
        let sim2 = sim.clone();
        let faults = sim.faults();
        sim.spawn_named(
            "disk-server",
            server_loop(
                sim2, rx, params, policy, stats, slowdown, rng, track, faults, queue,
            ),
        );
        disk
    }

    /// Assign the flight-recorder lane this spindle's events appear on
    /// (the machine wires a globally unique `Track::Disk` index).
    pub(crate) fn set_track(&self, track: Track) {
        self.track.set(track);
    }

    /// Read `len` bytes at `offset`; resolves when the media transfer ends.
    /// Fails only under fault injection (a crashed server task or an
    /// injected media error).
    pub async fn read(&self, offset: u64, len: u32) -> Result<Bytes, DiskError> {
        self.read_req(offset, len, 0).await
    }

    /// [`Disk::read`] under flight-recorder request context `req`.
    pub(crate) async fn read_req(
        &self,
        offset: u64,
        len: u32,
        req: ReqId,
    ) -> Result<Bytes, DiskError> {
        let (otx, orx) = oneshot();
        if self
            .tx
            .send(DiskRequest {
                op: DiskOp::Read { offset, len },
                req,
                reply: otx,
            })
            .is_err()
        {
            return Err(DiskError::Down);
        }
        orx.await.unwrap_or(Err(DiskError::Down))
    }

    /// Write `data` at `offset`; resolves when the media transfer ends.
    pub async fn write(&self, offset: u64, data: Bytes) -> Result<(), DiskError> {
        self.write_req(offset, data, 0).await
    }

    /// [`Disk::write`] under flight-recorder request context `req`.
    pub(crate) async fn write_req(
        &self,
        offset: u64,
        data: Bytes,
        req: ReqId,
    ) -> Result<(), DiskError> {
        let (otx, orx) = oneshot();
        if self
            .tx
            .send(DiskRequest {
                op: DiskOp::Write { offset, data },
                req,
                reply: otx,
            })
            .is_err()
        {
            return Err(DiskError::Down);
        }
        orx.await.unwrap_or(Err(DiskError::Down)).map(|_| ())
    }

    /// Timing-only read: identical queueing, service time, events, fault
    /// behaviour, and counters to [`Disk::read_req`], but no bytes move.
    pub(crate) async fn read_timing_req(
        &self,
        offset: u64,
        len: u32,
        req: ReqId,
    ) -> Result<(), DiskError> {
        let (otx, orx) = oneshot();
        if self
            .tx
            .send(DiskRequest {
                op: DiskOp::ReadTiming { offset, len },
                req,
                reply: otx,
            })
            .is_err()
        {
            return Err(DiskError::Down);
        }
        orx.await.unwrap_or(Err(DiskError::Down)).map(|_| ())
    }

    /// Timing-only write: identical to [`Disk::write_req`] with a `len`-byte
    /// payload, but no bytes move.
    pub(crate) async fn write_timing_req(
        &self,
        offset: u64,
        len: u32,
        req: ReqId,
    ) -> Result<(), DiskError> {
        let (otx, orx) = oneshot();
        if self
            .tx
            .send(DiskRequest {
                op: DiskOp::WriteTiming { offset, len },
                req,
                reply: otx,
            })
            .is_err()
        {
            return Err(DiskError::Down);
        }
        orx.await.unwrap_or(Err(DiskError::Down)).map(|_| ())
    }

    /// Snapshot of the disk's counters.
    pub(crate) fn stats(&self) -> DiskStats {
        self.stats.borrow().clone()
    }

    /// The live queue-depth cell this spindle's server loop maintains;
    /// telemetry gauges read it while the simulation runs.
    pub(crate) fn queue_cell(&self) -> Rc<Cell<usize>> {
        self.queue.clone()
    }

    /// Multiply all future service times by `factor` (1.0 = nominal).
    /// Used by failure-injection experiments to create a hot spot.
    pub(crate) fn set_slowdown(&self, factor: f64) {
        assert!(factor > 0.0, "slowdown factor must be positive");
        self.slowdown.set(factor);
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "the disk task owns one handle per shared Disk field"
)]
async fn server_loop(
    sim: Sim,
    mut rx: Receiver<DiskRequest>,
    params: DiskParams,
    policy: SchedPolicy,
    stats: Rc<RefCell<DiskStats>>,
    slowdown: Rc<Cell<f64>>,
    mut rng: Rng,
    track: Rc<Cell<Track>>,
    faults: FaultPlan,
    queue: Rc<Cell<usize>>,
) {
    let mut store = BlockStore::new();
    // Head position: byte offset just past the last serviced request.
    let mut head: u64 = 0;
    // Tracks the dead/alive edge so FaultDiskDown is emitted once per death,
    // letting trace consumers distinguish a dead member's errors from
    // transient media errors (see EventKind::FaultDiskError).
    let mut was_dead = false;
    // Segmented read cache: the streams the drive is tracking.
    let mut segments = Segments::new(params.cache_segments.max(1));
    // Elevator state: pending requests keyed by (offset, arrival seq).
    let mut pending: BTreeMap<(u64, u64), DiskRequest> = BTreeMap::new();
    let mut arrival_seq: u64 = 0;
    // N-step SCAN: the sweep currently being served, in offset order.
    // Requests that arrive mid-sweep wait for the next snapshot, which
    // makes the elevator starvation-free.
    let mut sweep: Vec<(u64, u64)> = Vec::new();

    loop {
        // Refill the pending set without blocking.
        while let Some(req) = rx.try_recv() {
            pending.insert((req.op.offset(), arrival_seq), req);
            arrival_seq += 1;
        }
        if pending.is_empty() {
            queue.set(0);
            match rx.recv().await {
                Some(req) => {
                    pending.insert((req.op.offset(), arrival_seq), req);
                    arrival_seq += 1;
                }
                None => return, // all handles dropped
            }
            continue; // re-run refill to batch simultaneous arrivals
        }
        {
            let mut st = stats.borrow_mut();
            let depth = pending.len() + rx.queued();
            st.max_queue_depth = st.max_queue_depth.max(depth);
        }
        queue.set(pending.len().saturating_sub(1) + rx.queued());

        let key = match policy {
            SchedPolicy::Fifo => {
                // Earliest arrival (pending is nonempty here).
                match pending.iter().min_by_key(|((_, seq), _)| *seq) {
                    Some((k, _)) => *k,
                    None => continue,
                }
            }
            SchedPolicy::Elevator => {
                // N-step SCAN: snapshot the queue, serve it in offset
                // order, re-snapshot when drained.
                sweep.retain(|k| pending.contains_key(k));
                if sweep.is_empty() {
                    sweep = pending.keys().copied().collect();
                    // BTreeMap keys are already (offset, seq)-sorted;
                    // serve descending from the back for O(1) pops.
                    sweep.reverse();
                }
                match sweep.pop() {
                    Some(k) => k,
                    None => continue,
                }
            }
        };
        let Some(req) = pending.remove(&key) else {
            continue;
        };

        let offset = req.op.offset();
        let len = req.op.len();

        // Consult the fault plan. A dead member fails fast (the controller
        // knows the device is gone); a transient media error is discovered
        // only after the service attempt, so it still charges full time.
        let fault = match (track.get(), &req.op) {
            (Track::Disk(i), DiskOp::Read { .. } | DiskOp::ReadTiming { .. }) => {
                faults.disk_read_fault(i)
            }
            (Track::Disk(i), DiskOp::Write { .. } | DiskOp::WriteTiming { .. }) => {
                faults.disk_write_fault(i)
            }
            _ => None,
        };
        if fault == Some(DiskFault::Dead) {
            if !was_dead {
                was_dead = true;
                sim.emit(|| ev(track.get(), EventKind::FaultDiskDown, req.req, 0, 0));
            }
            sim.emit(|| ev(track.get(), EventKind::FaultDiskError, req.req, offset, len));
            stats.borrow_mut().faulted += 1;
            req.reply.send(Err(DiskError::Dead));
            continue;
        }
        was_dead = false;

        let service = service_time(&params, &mut segments, head, offset, len, &mut rng, &stats);
        let service = scale(service, slowdown.get());
        sim.emit(|| ev(track.get(), EventKind::DiskStart, req.req, offset, len));
        sim.sleep(service).await;
        sim.emit(|| ev(track.get(), EventKind::DiskDone, req.req, offset, len));
        head = offset + len;

        {
            let mut st = stats.borrow_mut();
            st.requests += 1;
            st.busy += service;
        }
        if fault == Some(DiskFault::Transient) {
            sim.emit(|| ev(track.get(), EventKind::FaultDiskError, req.req, offset, len));
            stats.borrow_mut().faulted += 1;
            req.reply.send(Err(DiskError::Transient));
            continue;
        }
        match req.op {
            DiskOp::Read { offset, len } => {
                stats.borrow_mut().bytes_read += len as u64;
                let data = store.read(offset, len as usize);
                req.reply.send(Ok(data));
            }
            DiskOp::Write { offset, data } => {
                stats.borrow_mut().bytes_written += data.len() as u64;
                store.write(offset, &data);
                req.reply.send(Ok(Bytes::new()));
            }
            DiskOp::ReadTiming { len, .. } => {
                stats.borrow_mut().bytes_read += len as u64;
                req.reply.send(Ok(Bytes::new()));
            }
            DiskOp::WriteTiming { len, .. } => {
                stats.borrow_mut().bytes_written += len as u64;
                req.reply.send(Ok(Bytes::new()));
            }
        }
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
    stats: &Rc<RefCell<DiskStats>>,
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
        Disk::new(sim, DiskParams::ideal(bw), SchedPolicy::Fifo, "t0")
    }

    #[test]
    fn write_then_read_roundtrips_data() {
        let sim = Sim::new(1);
        let disk = fixed_disk(&sim, 1e6);
        let d2 = disk.clone();
        let h = sim.spawn(async move {
            let payload = Bytes::from(vec![0xabu8; 4096]);
            d2.write(1000, payload.clone()).await.unwrap();
            let back = d2.read(1000, 4096).await.unwrap();
            back == payload
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
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
    }

    #[test]
    fn fifo_services_in_arrival_order() {
        let sim = Sim::new(1);
        let disk = Disk::new(&sim, DiskParams::ideal(1e6), SchedPolicy::Fifo, "fifo");
        let order: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        // Enqueue far-apart offsets in a scrambled order; FIFO must keep it.
        for off in [900_000u64, 100_000, 500_000] {
            let d = disk.clone();
            let o = order.clone();
            sim.spawn(async move {
                d.read(off, 1000).await.unwrap();
                o.borrow_mut().push(off);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![900_000, 100_000, 500_000]);
    }

    #[test]
    fn elevator_services_in_scan_order() {
        let sim = Sim::new(1);
        let disk = Disk::new(&sim, DiskParams::ideal(1e6), SchedPolicy::Elevator, "elev");
        let order: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let d0 = disk.clone();
        let o0 = order.clone();
        let s0 = sim.clone();
        // Occupy the disk so the following three requests queue up together.
        sim.spawn(async move {
            d0.read(0, 100_000).await.unwrap();
            o0.borrow_mut().push(0);
        });
        for off in [900_000u64, 200_000, 500_000] {
            let d = disk.clone();
            let o = order.clone();
            let s = s0.clone();
            sim.spawn(async move {
                // Arrive while the first request is being serviced.
                s.sleep(SimDuration::from_millis(10)).await;
                d.read(off, 1000).await.unwrap();
                o.borrow_mut().push(off);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 200_000, 500_000, 900_000]);
    }

    #[test]
    fn sequential_reads_skip_positioning() {
        let sim = Sim::new(1);
        let mut params = DiskParams::scsi_1995();
        params.seek_jitter = 0.0;
        let disk = Disk::new(&sim, params, SchedPolicy::Fifo, "seq");
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
    }

    #[test]
    fn random_reads_pay_seeks() {
        let sim = Sim::new(1);
        let params = DiskParams::scsi_1995();
        let disk = Disk::new(&sim, params, SchedPolicy::Fifo, "rnd");
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
    }

    #[test]
    fn segment_cache_tracks_interleaved_streams() {
        // Two interleaved sequential streams: a single-head model would
        // seek on every request; a segmented cache serves both freely
        // after the first touch of each.
        let sim = Sim::new(1);
        let mut params = DiskParams::scsi_1995();
        params.seek_jitter = 0.0;
        let disk = Disk::new(&sim, params, SchedPolicy::Fifo, "seg");
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
    }

    #[test]
    fn injected_transient_error_fails_once_then_recovers() {
        let sim = Sim::new(1);
        let disk = fixed_disk(&sim, 1e6);
        disk.set_track(Track::Disk(0));
        sim.faults().schedule_disk_transients(0, 1);
        sim.faults().arm();
        let d = disk.clone();
        let h = sim.spawn(async move {
            d.write(0, Bytes::from(vec![7u8; 64])).await.unwrap();
            let first = d.read(0, 64).await;
            let second = d.read(0, 64).await;
            (first, second)
        });
        sim.run();
        let (first, second) = h.try_take().unwrap();
        assert_eq!(first, Err(DiskError::Transient));
        assert_eq!(second.unwrap(), Bytes::from(vec![7u8; 64]));
        assert_eq!(disk.stats().faulted, 1);
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
}
