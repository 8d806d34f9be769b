//! The PFS server process of one I/O node.
//!
//! Each I/O node runs one server that owns the node's UFS. Per request it
//! charges the calibrated per-request processing cost (plus the partial-
//! block penalty for requests that are not block-aligned, and the shared-
//! file consistency check for shared opens), then services the transfer
//! over the Fast Path or the buffer cache. M_GLOBAL reads are deduplicated
//! so one physical I/O feeds every node of a collective call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use paragon_sim::sync::{Semaphore, Signal};
use paragon_sim::{ev, EventKind, ReqId, Rng, Sim, SimDuration, SimTime, Track};
use paragon_ufs::Ufs;

use crate::meta::Registry;
use crate::proto::{PfsError, PfsFileId, PfsRequest, PfsResponse};

/// Server timing knobs (from the machine calibration).
#[derive(Debug, Clone)]
pub(crate) struct ServerParams {
    /// Per-request processing cost (jittered ±25 % per request: OS
    /// service times vary, which is also what staggers the initially
    /// phase-locked SPMD nodes into a pipeline, as on real machines).
    pub request_overhead: SimDuration,
    /// Extra cost for requests not aligned to the fs block size.
    pub partial_block_penalty: SimDuration,
    /// Extra cost per request on files opened shared.
    pub shared_file_check: SimDuration,
    /// File-system block size (alignment reference).
    pub fs_block: u64,
    /// Server thread pool size: requests beyond this queue FIFO. This is
    /// what aggregates per-piece overheads when a stripe unit is small
    /// enough that one client read fans out into many server requests.
    pub threads: usize,
}

/// Per-server counters.
#[derive(Debug, Default, Clone)]
pub struct ServerStats {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Requests that paid the partial-block penalty.
    pub partial_block_requests: u64,
    /// M_GLOBAL reads satisfied from another node's physical I/O.
    pub global_shares: u64,
}

/// Shared result slot of one in-progress M_GLOBAL read.
type GlobalResult = Rc<RefCell<Option<Result<Bytes, PfsError>>>>;

/// Dedup key of an M_GLOBAL read: (file, slot, offset, len).
type GlobalKey = (PfsFileId, u16, u64, u32);

struct GlobalEntry {
    done: Signal,
    data: GlobalResult,
    remaining: Rc<std::cell::Cell<u16>>,
}

/// One I/O node's PFS server.
#[derive(Clone)]
pub(crate) struct IonServer {
    sim: Sim,
    ufs: Ufs,
    ion_index: usize,
    params: Rc<ServerParams>,
    registry: Rc<RefCell<Registry>>,
    global: Rc<RefCell<BTreeMap<GlobalKey, GlobalEntry>>>,
    stats: Rc<RefCell<ServerStats>>,
    rng: Rc<RefCell<Rng>>,
    /// FIFO server thread pool.
    threads: Semaphore,
    /// Requests currently inside [`IonServer::handle`] (queued for a
    /// thread or being serviced); polled live by telemetry gauges.
    inflight: Rc<Cell<usize>>,
    /// Cumulative nanoseconds any server thread was held.
    busy_ns: Rc<Cell<u64>>,
}

impl IonServer {
    /// Create the server for I/O node `ion_index`.
    pub(crate) fn new(
        sim: &Sim,
        ufs: Ufs,
        ion_index: usize,
        params: ServerParams,
        registry: Rc<RefCell<Registry>>,
    ) -> Self {
        let rng = sim.rng(&format!("pfs-server.{ion_index}"));
        let threads = Semaphore::new(params.threads.max(1));
        IonServer {
            sim: sim.clone(),
            ufs,
            ion_index,
            params: Rc::new(params),
            registry,
            global: Rc::new(RefCell::new(BTreeMap::new())),
            stats: Rc::new(RefCell::new(ServerStats::default())),
            rng: Rc::new(RefCell::new(rng)),
            threads,
            inflight: Rc::new(Cell::new(0)),
            busy_ns: Rc::new(Cell::new(0)),
        }
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> ServerStats {
        self.stats.borrow().clone()
    }

    /// Live request-queue-depth cell (requests inside `handle`), for
    /// telemetry gauges.
    pub(crate) fn inflight_cell(&self) -> Rc<Cell<usize>> {
        self.inflight.clone()
    }

    /// Cumulative nanoseconds server threads were held so far.
    pub(crate) fn busy_ns(&self) -> u64 {
        self.busy_ns.get()
    }

    fn note_busy(&self, since: SimTime) {
        self.busy_ns
            .set(self.busy_ns.get() + (self.sim.now() - since).as_nanos());
    }

    /// Service one request. Installed as this node's RPC handler.
    pub(crate) async fn handle(&self, request: PfsRequest) -> PfsResponse {
        self.inflight.set(self.inflight.get() + 1);
        let resp = self.handle_inner(request).await;
        self.inflight.set(self.inflight.get() - 1);
        resp
    }

    async fn handle_inner(&self, request: PfsRequest) -> PfsResponse {
        let ion = Track::Ion(self.ion_index as u16);
        match request {
            PfsRequest::Read {
                req,
                file,
                slot,
                offset,
                len,
                fast_path,
                shared,
                global_parties,
            } => {
                self.sim
                    .emit(|| ev(ion, EventKind::ServeStart, req, offset, len as u64));
                let result = self
                    .read(
                        file,
                        slot,
                        offset,
                        len,
                        fast_path,
                        shared,
                        global_parties,
                        req,
                    )
                    .await;
                self.sim
                    .emit(|| ev(ion, EventKind::ServeDone, req, offset, len as u64));
                PfsResponse::Data(result)
            }
            PfsRequest::Write {
                req,
                file,
                slot,
                offset,
                data,
                fast_path,
                shared,
            } => {
                let len = data.len() as u64;
                self.sim
                    .emit(|| ev(ion, EventKind::ServeStart, req, offset, len));
                let result = self
                    .write(file, slot, offset, data, fast_path, shared, req)
                    .await;
                self.sim
                    .emit(|| ev(ion, EventKind::ServeDone, req, offset, len));
                PfsResponse::WriteAck(result)
            }
            PfsRequest::Ptr(_) => {
                // Pointer operations belong on the service node; answer a
                // misrouted one with an error instead of crashing the node.
                PfsResponse::Ptr(Err(PfsError::BadRequest))
            }
        }
    }

    async fn charge_overheads(&self, offset: u64, len: u64, shared: bool) {
        let mut cost = self.params.request_overhead;
        if shared {
            cost += self.params.shared_file_check;
        }
        if !offset.is_multiple_of(self.params.fs_block) || !len.is_multiple_of(self.params.fs_block)
        {
            cost += self.params.partial_block_penalty;
            self.stats.borrow_mut().partial_block_requests += 1;
        }
        if !cost.is_zero() {
            // ±25 % service-time variability (deterministic per seed).
            let f = 1.0 + self.rng.borrow_mut().range_f64(-0.25..0.25);
            cost = SimDuration::from_nanos((cost.as_nanos() as f64 * f).round() as u64);
        }
        self.sim.sleep(cost).await;
    }

    fn resolve(&self, file: PfsFileId, slot: u16) -> Result<paragon_ufs::InodeId, PfsError> {
        let registry = self.registry.borrow();
        let meta = registry.get(file)?;
        // Replica-aware: serve whichever copy of the slot lives here
        // (staging copies included, so rebuild writes land). A request
        // routed to a node holding no copy is a `BadSlot` error reply,
        // not a crash.
        meta.inode_on(slot, self.ion_index)
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the decoded fields of PfsRequest::Read"
    )]
    async fn read(
        &self,
        file: PfsFileId,
        slot: u16,
        offset: u64,
        len: u32,
        fast_path: bool,
        shared: bool,
        global_parties: u16,
        req: ReqId,
    ) -> Result<Bytes, PfsError> {
        self.stats.borrow_mut().reads += 1;
        if global_parties > 1 {
            return self
                .global_read(
                    file,
                    slot,
                    offset,
                    len,
                    fast_path,
                    shared,
                    global_parties,
                    req,
                )
                .await;
        }
        // Occupy a server thread for the request's processing + transfer.
        let _thread = self.threads.acquire().await;
        let held = self.sim.now();
        self.charge_overheads(offset, len as u64, shared).await;
        let result = self
            .physical_read(file, slot, offset, len, fast_path, req)
            .await;
        self.note_busy(held);
        let data = result?;
        self.stats.borrow_mut().bytes_read += len as u64;
        Ok(data)
    }

    /// M_GLOBAL: the first arrival does the physical I/O; the other
    /// `parties - 1` arrivals wait on it and share the result.
    #[expect(
        clippy::too_many_arguments,
        reason = "the decoded fields of PfsRequest::Read"
    )]
    async fn global_read(
        &self,
        file: PfsFileId,
        slot: u16,
        offset: u64,
        len: u32,
        fast_path: bool,
        shared: bool,
        parties: u16,
        req: ReqId,
    ) -> Result<Bytes, PfsError> {
        // Every arrival pays its processing on a thread, but *waiting*
        // for another node's physical read must not hold one (a full
        // pool of waiters would deadlock the initiator).
        {
            let _thread = self.threads.acquire().await;
            let held = self.sim.now();
            self.charge_overheads(offset, len as u64, shared).await;
            self.note_busy(held);
        }
        let key = (file, slot, offset, len);
        let existing = {
            let map = self.global.borrow();
            map.get(&key)
                .map(|e| (e.done.clone(), e.data.clone(), e.remaining.clone()))
        };
        match existing {
            Some((done, data, remaining)) => {
                done.wait().await;
                // The initiator stores the result before setting the
                // signal; a missing result means the reply path broke.
                let result = data.borrow().clone().unwrap_or(Err(PfsError::BadReply));
                self.consume_global(key, &remaining);
                self.stats.borrow_mut().global_shares += 1;
                if result.is_ok() {
                    self.stats.borrow_mut().bytes_read += len as u64;
                }
                result
            }
            None => {
                let entry = GlobalEntry {
                    done: Signal::new(),
                    data: Rc::new(RefCell::new(None)),
                    remaining: Rc::new(std::cell::Cell::new(parties)),
                };
                let done = entry.done.clone();
                let data = entry.data.clone();
                let remaining = entry.remaining.clone();
                self.global.borrow_mut().insert(key, entry);
                let _thread = self.threads.acquire().await;
                let held = self.sim.now();
                let result = self
                    .physical_read(file, slot, offset, len, fast_path, req)
                    .await;
                self.note_busy(held);
                *data.borrow_mut() = Some(result.clone());
                done.set();
                self.consume_global(key, &remaining);
                if result.is_ok() {
                    self.stats.borrow_mut().bytes_read += len as u64;
                }
                result
            }
        }
    }

    fn consume_global(&self, key: GlobalKey, remaining: &Rc<std::cell::Cell<u16>>) {
        // Saturating: a retried or mesh-duplicated M_GLOBAL read can
        // consume the same party slot twice; never underflow the count.
        let left = remaining.get().saturating_sub(1);
        remaining.set(left);
        if left == 0 {
            self.global.borrow_mut().remove(&key);
        }
    }

    async fn physical_read(
        &self,
        file: PfsFileId,
        slot: u16,
        offset: u64,
        len: u32,
        fast_path: bool,
        req: ReqId,
    ) -> Result<Bytes, PfsError> {
        let inode = self.resolve(file, slot)?;
        let data = if fast_path {
            self.ufs.read_direct_req(inode, offset, len, req).await?
        } else {
            self.ufs.read_cached_req(inode, offset, len, req).await?
        };
        Ok(data)
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the decoded fields of PfsRequest::Write"
    )]
    async fn write(
        &self,
        file: PfsFileId,
        slot: u16,
        offset: u64,
        data: Bytes,
        fast_path: bool,
        shared: bool,
        _req: ReqId,
    ) -> Result<u32, PfsError> {
        let _thread = self.threads.acquire().await;
        let held = self.sim.now();
        self.charge_overheads(offset, data.len() as u64, shared)
            .await;
        let len = data.len() as u32;
        let result: Result<(), PfsError> = match self.resolve(file, slot) {
            Ok(inode) => {
                let w = if fast_path {
                    self.ufs.write(inode, offset, data).await
                } else {
                    self.ufs.write_cached(inode, offset, data).await
                };
                w.map(|_| ()).map_err(PfsError::from)
            }
            Err(e) => Err(e),
        };
        self.note_busy(held);
        result?;
        let mut st = self.stats.borrow_mut();
        st.writes += 1;
        st.bytes_written += len as u64;
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::Replica;
    use crate::stripe::StripeAttrs;
    use paragon_disk::{DiskParams, RaidArray, SchedPolicy};
    use paragon_ufs::UfsParams;

    fn setup(sim: &Sim) -> (IonServer, PfsFileId) {
        let raid = RaidArray::new(
            sim,
            DiskParams::ideal(1e8),
            SchedPolicy::Fifo,
            1,
            64 * 1024,
            "s",
        );
        let mut up = UfsParams::paragon();
        up.metadata_op = SimDuration::ZERO;
        let ufs = Ufs::new(sim, raid, up);
        let registry = Rc::new(RefCell::new(Registry::new()));
        let params = ServerParams {
            request_overhead: SimDuration::from_micros(100),
            partial_block_penalty: SimDuration::from_micros(500),
            shared_file_check: SimDuration::from_micros(50),
            fs_block: 64 * 1024,
            threads: 4,
        };
        let server = IonServer::new(sim, ufs.clone(), 0, params, registry.clone());
        // Create the stripe file and register it.
        let ufs2 = ufs.clone();
        let reg2 = registry.clone();
        let h = sim.spawn(async move {
            let inode = ufs2.create("/pfs/f.0").await.unwrap();
            let primary = Replica {
                ion: 0,
                inode,
                ready: true,
            };
            reg2.borrow_mut().insert_replicated(
                "/pfs/f",
                StripeAttrs::across(1, 64 * 1024),
                vec![(0, inode)],
                vec![vec![primary]],
            )
        });
        sim.run();
        (server, h.try_take().unwrap())
    }

    #[test]
    fn write_then_read_roundtrips() {
        let sim = Sim::new(1);
        let (server, file) = setup(&sim);
        let s2 = server.clone();
        let h = sim.spawn(async move {
            let payload = Bytes::from(vec![0x5au8; 128 * 1024]);
            let req = PfsRequest::Write {
                req: 0,
                file,
                slot: 0,
                offset: 0,
                data: payload.clone(),
                fast_path: true,
                shared: false,
            };
            let PfsResponse::WriteAck(Ok(n)) = s2.handle(req).await else {
                panic!("write failed")
            };
            let req = PfsRequest::Read {
                req: 0,
                file,
                slot: 0,
                offset: 0,
                len: 128 * 1024,
                fast_path: true,
                shared: false,
                global_parties: 0,
            };
            let PfsResponse::Data(Ok(data)) = s2.handle(req).await else {
                panic!("read failed")
            };
            (n, data == payload)
        });
        sim.run();
        assert_eq!(h.try_take(), Some((128 * 1024, true)));
        let st = server.stats();
        assert_eq!((st.reads, st.writes), (1, 1));
    }

    #[test]
    fn unaligned_requests_pay_the_partial_penalty() {
        let sim = Sim::new(1);
        let (server, file) = setup(&sim);
        let s2 = server.clone();
        sim.spawn(async move {
            let data = Bytes::from(vec![1u8; 128 * 1024]);
            s2.handle(PfsRequest::Write {
                req: 0,
                file,
                slot: 0,
                offset: 0,
                data,
                fast_path: true,
                shared: false,
            })
            .await;
            // 1000-byte read at offset 13: doubly unaligned.
            s2.handle(PfsRequest::Read {
                req: 0,
                file,
                slot: 0,
                offset: 13,
                len: 1000,
                fast_path: true,
                shared: false,
                global_parties: 0,
            })
            .await;
        });
        sim.run();
        assert_eq!(server.stats().partial_block_requests, 1);
    }

    #[test]
    fn global_read_does_one_physical_io() {
        let sim = Sim::new(1);
        let (server, file) = setup(&sim);
        let writer = server.clone();
        sim.spawn(async move {
            writer
                .handle(PfsRequest::Write {
                    req: 0,
                    file,
                    slot: 0,
                    offset: 0,
                    data: Bytes::from(vec![9u8; 64 * 1024]),
                    fast_path: true,
                    shared: false,
                })
                .await;
        });
        sim.run();
        let before = server.ufs.stats().direct_reads;
        // Four "nodes" issue the identical global read.
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s2 = server.clone();
            handles.push(sim.spawn(async move {
                let PfsResponse::Data(Ok(data)) = s2
                    .handle(PfsRequest::Read {
                        req: 0,
                        file,
                        slot: 0,
                        offset: 0,
                        len: 64 * 1024,
                        fast_path: true,
                        shared: true,
                        global_parties: 4,
                    })
                    .await
                else {
                    panic!("global read failed")
                };
                data.len()
            }));
        }
        sim.run();
        for h in handles {
            assert_eq!(h.try_take(), Some(64 * 1024));
        }
        assert_eq!(server.ufs.stats().direct_reads - before, 1);
        assert_eq!(server.stats().global_shares, 3);
        // The dedup entry must be cleaned up for the next collective.
        assert!(server.global.borrow().is_empty());
    }

    #[test]
    fn read_past_eof_surfaces_as_pfs_error() {
        let sim = Sim::new(1);
        let (server, file) = setup(&sim);
        let s2 = server.clone();
        let h = sim.spawn(async move {
            let PfsResponse::Data(result) = s2
                .handle(PfsRequest::Read {
                    req: 0,
                    file,
                    slot: 0,
                    offset: 0,
                    len: 4096,
                    fast_path: true,
                    shared: false,
                    global_parties: 0,
                })
                .await
            else {
                panic!("wrong response kind")
            };
            result.is_err()
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }
}
