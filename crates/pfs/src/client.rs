//! The client half of the PFS: one [`PfsFile`] per (node, open file).
//!
//! A read takes the mode-specific pointer step (a token/range RPC to the
//! pointer server for shared-pointer modes; a local record computation for
//! per-node-pointer modes), declusters the byte range over the stripe
//! group, sends one coalesced request per I/O node concurrently, and
//! scatters the replies into the user buffer. Blocking and asynchronous
//! (`aread`, via the ART machinery) variants are provided; the prefetch
//! engine in `paragon-core` is built on [`PfsFile::transfer_read`] +
//! [`PfsFile::advance_pointer`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use paragon_mesh::NodeId;
use paragon_os::{ArtPool, AsyncHandle, RpcClient, RpcError, RpcPolicy};
use paragon_sim::{ev, EventKind, ReqId, Sim, SimDuration, Track};

use crate::meta::FileMeta;
use crate::modes::IoMode;
use crate::proto::{PfsError, PfsRequest, PfsResponse, PtrRequest};

/// Open-time options.
#[derive(Debug, Clone, Copy)]
pub struct OpenOptions {
    /// Use Fast Path I/O (bypass the I/O nodes' buffer caches). This is
    /// the PFS default for large transfers; disable to model buffered
    /// mounts.
    pub fast_path: bool,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions { fast_path: true }
    }
}

/// Client-side timing knobs (from the machine calibration).
#[derive(Debug, Clone)]
pub(crate) struct ClientParams {
    /// Per-call system-call overhead.
    pub syscall: SimDuration,
    /// M_RECORD node-ordered record bookkeeping per call.
    pub record_bookkeeping: SimDuration,
    /// Deadline/retry discipline for data-transfer legs. Positioned
    /// reads and writes are idempotent, so a timed-out leg is re-sent;
    /// pointer operations are NOT retried (they move shared state).
    pub data_policy: RpcPolicy,
    /// Mount-wide count of read legs that failed over to another
    /// replica (replicated mounts; stays 0 otherwise).
    pub replica_failovers: Rc<Cell<u64>>,
    /// Mount-wide count of read legs served by a non-primary replica.
    pub replica_reads: Rc<Cell<u64>>,
}

struct FileState {
    /// Collective round counter (M_RECORD / M_GLOBAL).
    round: u64,
    /// Local byte pointer (M_ASYNC).
    local_offset: u64,
}

/// One node's handle on an open PFS file. Clone freely; clones share the
/// file pointer state (they are the same open).
#[derive(Clone)]
pub struct PfsFile {
    sim: Sim,
    rpc: RpcClient<PfsRequest, PfsResponse>,
    arts: ArtPool,
    params: Rc<ClientParams>,
    meta: Rc<FileMeta>,
    /// Mesh id of each machine I/O node, indexed by I/O-node index.
    io_node_ids: Rc<Vec<NodeId>>,
    service_node: NodeId,
    rank: u16,
    nprocs: u16,
    mode: IoMode,
    fast_path: bool,
    size_at_open: u64,
    state: Rc<RefCell<FileState>>,
    /// I/O nodes a replicated read leg of this handle saw fail. They are
    /// deprioritized (not skipped — a recovered node serves again) so
    /// only the first read through a dead node pays the full timeout.
    suspects: Rc<RefCell<BTreeSet<usize>>>,
}

impl PfsFile {
    /// Assemble a handle. Library users go through `ParallelFs::open`.
    #[expect(
        clippy::too_many_arguments,
        reason = "one field per argument; the only caller is ParallelFs::open"
    )]
    pub(crate) fn new(
        sim: Sim,
        rpc: RpcClient<PfsRequest, PfsResponse>,
        arts: ArtPool,
        params: ClientParams,
        meta: FileMeta,
        io_node_ids: Rc<Vec<NodeId>>,
        service_node: NodeId,
        rank: u16,
        nprocs: u16,
        mode: IoMode,
        opts: OpenOptions,
        size_at_open: u64,
    ) -> Self {
        assert!(rank < nprocs, "rank {rank} out of range for {nprocs} procs");
        PfsFile {
            sim,
            rpc,
            arts,
            params: Rc::new(params),
            meta: Rc::new(meta),
            io_node_ids,
            service_node,
            rank,
            nprocs,
            mode,
            fast_path: opts.fast_path,
            size_at_open,
            state: Rc::new(RefCell::new(FileState {
                round: 0,
                local_offset: 0,
            })),
            suspects: Rc::new(RefCell::new(BTreeSet::new())),
        }
    }

    /// The mode this handle was opened with.
    pub fn mode(&self) -> IoMode {
        self.mode
    }

    /// This node's rank in the application.
    pub fn rank(&self) -> u16 {
        self.rank
    }

    /// Number of application processes sharing the file.
    pub fn nprocs(&self) -> u16 {
        self.nprocs
    }

    /// File size when the handle was opened.
    pub fn size(&self) -> u64 {
        self.size_at_open
    }

    /// The node's ART pool (the prefetch engine issues through it).
    pub fn art_pool(&self) -> &ArtPool {
        &self.arts
    }

    /// The simulation world (for timing instrumentation in layers above).
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Charge one client system call (the prefetch engine wraps `read`
    /// and pays this itself).
    pub async fn syscall(&self) {
        self.sim.sleep(self.params.syscall).await;
    }

    /// One shared-pointer operation. Deliberately NO deadline and NO
    /// retry: pointer operations move shared state, so re-sending one
    /// could double-advance the pointer. The machinery instead protects
    /// the service node from injected faults.
    async fn ptr(&self, req: PtrRequest) -> Result<u64, PfsError> {
        match self.rpc.call(self.service_node, PfsRequest::Ptr(req)).await {
            Ok(PfsResponse::Ptr(res)) => res,
            Ok(_) => Err(PfsError::BadReply),
            Err(e) => Err(e.into()),
        }
    }

    /// Advance this node's pointer by `len` under the open mode's
    /// *individual-pointer* semantics and return the byte offset the next
    /// access covers. Panics for shared-pointer modes — their pointer
    /// motion is inseparable from the access (the paper's prototype
    /// likewise targets the individual-pointer modes).
    #[expect(
        clippy::panic,
        reason = "documented caller contract: the prefetch engine drives individual-pointer modes only"
    )]
    pub async fn advance_pointer(&self, len: u32) -> u64 {
        match self.mode {
            IoMode::MRecord => {
                self.sim.sleep(self.params.record_bookkeeping).await;
                let mut st = self.state.borrow_mut();
                let round = st.round;
                st.round += 1;
                (round * self.nprocs as u64 + self.rank as u64) * len as u64
            }
            IoMode::MGlobal => {
                let mut st = self.state.borrow_mut();
                let round = st.round;
                st.round += 1;
                round * len as u64
            }
            IoMode::MAsync => {
                let mut st = self.state.borrow_mut();
                let at = st.local_offset;
                st.local_offset += len as u64;
                at
            }
            m => panic!("advance_pointer on shared-pointer mode {m}"),
        }
    }

    /// Offset the *next* `len`-byte access of this node would cover, for
    /// individual-pointer modes, without advancing anything. Used by
    /// sequential predictors.
    #[expect(
        clippy::panic,
        reason = "documented caller contract: the predictors drive individual-pointer modes only"
    )]
    pub fn peek_pointer(&self, len: u32) -> u64 {
        let st = self.state.borrow();
        match self.mode {
            IoMode::MRecord => (st.round * self.nprocs as u64 + self.rank as u64) * len as u64,
            IoMode::MGlobal => st.round * len as u64,
            IoMode::MAsync => st.local_offset,
            m => panic!("peek_pointer on shared-pointer mode {m}"),
        }
    }

    /// Reposition this node's individual pointer (M_ASYNC only — the
    /// M_RECORD and M_GLOBAL pointers are round-structured, and shared
    /// pointers belong to the pointer server).
    pub fn seek(&self, offset: u64) {
        assert_eq!(
            self.mode,
            IoMode::MAsync,
            "seek is only meaningful for M_ASYNC handles"
        );
        self.state.borrow_mut().local_offset = offset;
    }

    /// Blocking read of the next `len` bytes under the open mode.
    pub async fn read(&self, len: u32) -> Result<Bytes, PfsError> {
        self.syscall().await;
        match self.mode {
            IoMode::MUnix => {
                let at = self
                    .ptr(PtrRequest::UnixAcquire { file: self.meta.id })
                    .await?;
                // Atomicity: the token is held across the transfer.
                let result = self.transfer_read(at, len).await;
                self.ptr(PtrRequest::UnixRelease {
                    file: self.meta.id,
                    advance: len as u64,
                })
                .await?;
                result
            }
            IoMode::MLog => {
                let at = self
                    .ptr(PtrRequest::LogFetchAdd {
                        file: self.meta.id,
                        len: len as u64,
                    })
                    .await?;
                self.transfer_read(at, len).await
            }
            IoMode::MSync => {
                let at = self
                    .ptr(PtrRequest::SyncArrive {
                        file: self.meta.id,
                        rank: self.rank,
                        nprocs: self.nprocs,
                        len: len as u64,
                    })
                    .await?;
                self.transfer_read(at, len).await
            }
            IoMode::MRecord | IoMode::MAsync => {
                let at = self.advance_pointer(len).await;
                self.transfer_read(at, len).await
            }
            IoMode::MGlobal => {
                let at = self.advance_pointer(len).await;
                self.transfer_read_global(at, len, self.nprocs).await
            }
        }
    }

    /// Asynchronous read: the pointer step happens now (setup), the
    /// transfer runs on an ART. `iowait` = [`AsyncHandle::join`].
    pub async fn aread(&self, len: u32) -> AsyncHandle<Result<Bytes, PfsError>> {
        self.syscall().await;
        match self.mode {
            IoMode::MRecord | IoMode::MAsync => {
                let at = self.advance_pointer(len).await;
                let this = self.clone();
                self.arts
                    .submit(async move { this.transfer_read(at, len).await })
                    .await
            }
            IoMode::MGlobal => {
                let at = self.advance_pointer(len).await;
                let this = self.clone();
                let parties = self.nprocs;
                self.arts
                    .submit(async move { this.transfer_read_global(at, len, parties).await })
                    .await
            }
            IoMode::MUnix => {
                let this = self.clone();
                self.arts
                    .submit(async move {
                        let at = this
                            .ptr(PtrRequest::UnixAcquire { file: this.meta.id })
                            .await?;
                        let result = this.transfer_read(at, len).await;
                        this.ptr(PtrRequest::UnixRelease {
                            file: this.meta.id,
                            advance: len as u64,
                        })
                        .await?;
                        result
                    })
                    .await
            }
            IoMode::MLog => {
                let this = self.clone();
                self.arts
                    .submit(async move {
                        let at = this
                            .ptr(PtrRequest::LogFetchAdd {
                                file: this.meta.id,
                                len: len as u64,
                            })
                            .await?;
                        this.transfer_read(at, len).await
                    })
                    .await
            }
            IoMode::MSync => {
                let this = self.clone();
                self.arts
                    .submit(async move {
                        let at = this
                            .ptr(PtrRequest::SyncArrive {
                                file: this.meta.id,
                                rank: this.rank,
                                nprocs: this.nprocs,
                                len: len as u64,
                            })
                            .await?;
                        this.transfer_read(at, len).await
                    })
                    .await
            }
        }
    }

    /// Positioned read with no pointer interaction and no syscall charge:
    /// the raw striped transfer. This is what a prefetch issues ("the file
    /// pointer is not changed in the process of prefetching").
    pub async fn transfer_read(&self, offset: u64, len: u32) -> Result<Bytes, PfsError> {
        let req = self.sim.mint_req();
        self.transfer_read_inner(offset, len, 0, req).await
    }

    /// [`PfsFile::transfer_read`] under a caller-minted flight-recorder
    /// request id (the prefetch engine mints one id per issue so the
    /// prefetch's whole lifetime shares one correlation key).
    pub async fn transfer_read_tagged(
        &self,
        offset: u64,
        len: u32,
        req: ReqId,
    ) -> Result<Bytes, PfsError> {
        self.transfer_read_inner(offset, len, 0, req).await
    }

    async fn transfer_read_global(
        &self,
        offset: u64,
        len: u32,
        global_parties: u16,
    ) -> Result<Bytes, PfsError> {
        let req = self.sim.mint_req();
        self.transfer_read_inner(offset, len, global_parties, req)
            .await
    }

    async fn transfer_read_inner(
        &self,
        offset: u64,
        len: u32,
        global_parties: u16,
        req: ReqId,
    ) -> Result<Bytes, PfsError> {
        assert!(len > 0, "zero-length read");
        let cn = Track::Cn(self.rank);
        self.sim
            .emit(|| ev(cn, EventKind::ReadStart, req, offset, len as u64));
        let plan = self.meta.attrs.plan(offset, len as u64);
        let shared = self.nprocs > 1;
        let policy = self.params.data_policy;
        let mut handles = Vec::with_capacity(plan.len());
        for sreq in plan {
            let (primary, _) = self.meta.slot(sreq.slot as u16)?;
            let copies = self.meta.readable_replicas(sreq.slot as u16)?;
            let rpc = self.rpc.clone();
            let msg = PfsRequest::Read {
                req,
                file: self.meta.id,
                slot: sreq.slot as u16,
                offset: sreq.slot_offset,
                len: sreq.len as u32,
                fast_path: self.fast_path,
                shared,
                global_parties,
            };
            if copies.len() <= 1 {
                let dst = *self.io_node_ids.get(primary).ok_or(PfsError::BadSlot {
                    slot: sreq.slot as u16,
                    factor: self.io_node_ids.len(),
                })?;
                // Positioned reads are idempotent: re-sending one under the
                // retry policy is safe.
                handles.push((
                    sreq,
                    self.sim.spawn_named("pfs-read-leg", async move {
                        rpc.call_policy(dst, msg, policy).await
                    }),
                ));
                continue;
            }
            // Replicated: deterministic read-from-any. Candidate order is
            // primary first, then the other copies in placement order,
            // with this handle's suspect nodes demoted to the back (kept,
            // not skipped — a recovered node serves again). Non-final
            // candidates get a single attempt so a dead node costs one
            // timeout; the final candidate keeps the full retry budget.
            let mut order: Vec<(usize, NodeId)> = Vec::with_capacity(copies.len());
            {
                let suspects = self.suspects.borrow();
                for pass in [false, true] {
                    for c in copies.iter().filter(|c| suspects.contains(&c.ion) == pass) {
                        let dst = *self.io_node_ids.get(c.ion).ok_or(PfsError::BadSlot {
                            slot: sreq.slot as u16,
                            factor: self.io_node_ids.len(),
                        })?;
                        order.push((c.ion, dst));
                    }
                }
            }
            let sim = self.sim.clone();
            let suspects = self.suspects.clone();
            let params = self.params.clone();
            let slot = sreq.slot as u64;
            handles.push((
                sreq,
                self.sim.spawn_named("pfs-read-leg", async move {
                    let single = RpcPolicy {
                        retries: 0,
                        ..policy
                    };
                    let last = order.len().saturating_sub(1);
                    for (k, &(ion, dst)) in order.iter().enumerate() {
                        let attempt = if k == last { policy } else { single };
                        let res = rpc.call_policy(dst, msg.clone(), attempt).await;
                        if matches!(res, Ok(PfsResponse::Data(Ok(_)))) {
                            if ion != primary {
                                params.replica_reads.set(params.replica_reads.get() + 1);
                            }
                            return res;
                        }
                        if k < last && failover_worthy(&res) {
                            suspects.borrow_mut().insert(ion);
                            params
                                .replica_failovers
                                .set(params.replica_failovers.get() + 1);
                            if let Some(&(next, _)) = order.get(k + 1) {
                                sim.emit(|| {
                                    ev(cn, EventKind::ReplicaFailover, req, slot, next as u64)
                                });
                            }
                            continue;
                        }
                        return res;
                    }
                    // Unreachable (the final candidate always returns),
                    // kept for totality.
                    Err(RpcError::Dropped)
                }),
            ));
        }
        // Zero-copy fast path: one slot leg whose pieces land at identical
        // offsets (src == dst) is the whole extent — the reply buffer is
        // the result, no reassembly needed. The leg still runs in its own
        // spawned task so event interleaving matches the general path.
        let direct = match handles.as_slice() {
            [(sreq, _)] => sreq
                .pieces
                .iter()
                .all(|p| p.slot_offset - sreq.slot_offset == p.logical_offset),
            _ => false,
        };
        let mut out = if direct {
            BytesMut::new()
        } else {
            BytesMut::zeroed(len as usize)
        };
        let mut direct_data = None;
        let mut first_err = None;
        for (sreq, h) in handles {
            // Join every leg before reporting an error (deterministic
            // completion; no legs left writing into a dropped buffer).
            match h.await {
                Ok(PfsResponse::Data(Ok(data))) => {
                    debug_assert_eq!(data.len() as u64, sreq.len);
                    if direct {
                        direct_data = Some(data);
                        continue;
                    }
                    for p in &sreq.pieces {
                        let src = (p.slot_offset - sreq.slot_offset) as usize;
                        let dst = p.logical_offset as usize;
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "hot copy-out: the plan keeps every piece inside the \
                                      request and inside its slot reply"
                        )]
                        out[dst..dst + p.len as usize]
                            .copy_from_slice(&data[src..src + p.len as usize]);
                    }
                }
                Ok(PfsResponse::Data(Err(e))) => {
                    first_err.get_or_insert(e);
                }
                Ok(_) => {
                    first_err.get_or_insert(PfsError::BadReply);
                }
                Err(e) => {
                    first_err.get_or_insert(e.into());
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        self.sim
            .emit(|| ev(cn, EventKind::Copy, req, offset, len as u64));
        self.sim
            .emit(|| ev(cn, EventKind::ReadDone, req, offset, len as u64));
        Ok(match direct_data {
            Some(data) => data,
            None => out.freeze(),
        })
    }

    /// Write the next `data.len()` bytes under the open mode — the write
    /// mirror of [`PfsFile::read`]. M_UNIX holds the pointer token across
    /// the transfer (atomic appends); M_LOG reserves its range with a
    /// fetch-and-add and transfers concurrently (the mode's eponymous
    /// log-append use); M_SYNC assigns node-ordered ranges once every
    /// rank arrives; M_RECORD/M_ASYNC use their local pointers. Returns
    /// the offset the data landed at.
    pub async fn write(&self, data: Bytes) -> Result<u64, PfsError> {
        self.syscall().await;
        let len = data.len() as u64;
        match self.mode {
            IoMode::MUnix => {
                let at = self
                    .ptr(PtrRequest::UnixAcquire { file: self.meta.id })
                    .await?;
                let result = self.transfer_write(at, data).await;
                self.ptr(PtrRequest::UnixRelease {
                    file: self.meta.id,
                    advance: len,
                })
                .await?;
                result.map(|()| at)
            }
            IoMode::MLog => {
                let at = self
                    .ptr(PtrRequest::LogFetchAdd {
                        file: self.meta.id,
                        len,
                    })
                    .await?;
                self.transfer_write(at, data).await.map(|()| at)
            }
            IoMode::MSync => {
                let at = self
                    .ptr(PtrRequest::SyncArrive {
                        file: self.meta.id,
                        rank: self.rank,
                        nprocs: self.nprocs,
                        len,
                    })
                    .await?;
                self.transfer_write(at, data).await.map(|()| at)
            }
            IoMode::MRecord | IoMode::MAsync => {
                let at = self.advance_pointer(data.len() as u32).await;
                self.transfer_write(at, data).await.map(|()| at)
            }
            IoMode::MGlobal => {
                // Every node writes the same data to the same place; the
                // round advances once. Last writer wins (they are equal).
                let at = self.advance_pointer(data.len() as u32).await;
                self.transfer_write(at, data).await.map(|()| at)
            }
        }
    }

    /// Positioned write (used to lay files out and by write workloads).
    pub async fn write_at(&self, offset: u64, data: Bytes) -> Result<(), PfsError> {
        self.syscall().await;
        self.transfer_write(offset, data).await
    }

    /// Raw striped write, no syscall charge.
    pub async fn transfer_write(&self, offset: u64, data: Bytes) -> Result<(), PfsError> {
        assert!(!data.is_empty(), "zero-length write");
        let req = self.sim.mint_req();
        let cn = Track::Cn(self.rank);
        let wlen = data.len() as u64;
        self.sim
            .emit(|| ev(cn, EventKind::WriteStart, req, offset, wlen));
        let plan = self.meta.attrs.plan(offset, data.len() as u64);
        let shared = self.nprocs > 1;
        let policy = self.params.data_policy;
        let mut handles = Vec::with_capacity(plan.len());
        for sreq in plan {
            let copies = self.meta.readable_replicas(sreq.slot as u16)?;
            // Gather the logical pieces into one contiguous slot buffer.
            // A single piece is already contiguous — share the slice.
            let single = if sreq.pieces.len() == 1 {
                sreq.pieces.first()
            } else {
                None
            };
            let payload = if let Some(p) = single {
                data.slice(p.logical_offset as usize..(p.logical_offset + p.len) as usize)
            } else {
                let mut buf = BytesMut::zeroed(sreq.len as usize);
                for p in &sreq.pieces {
                    let dst_at = (p.slot_offset - sreq.slot_offset) as usize;
                    let src_at = p.logical_offset as usize;
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "hot gather: the plan keeps every piece inside the \
                                  request and inside its slot buffer"
                    )]
                    buf[dst_at..dst_at + p.len as usize]
                        .copy_from_slice(&data[src_at..src_at + p.len as usize]);
                }
                buf.freeze()
            };
            // One leg per readable copy (a single-copy slot is exactly the
            // old path). Positioned writes are idempotent (same bytes,
            // same offset), so re-sending one under the retry policy is
            // safe — and so is fanning the same payload to every copy.
            let mut legs = Vec::with_capacity(copies.len());
            for copy in &copies {
                let dst = *self.io_node_ids.get(copy.ion).ok_or(PfsError::BadSlot {
                    slot: sreq.slot as u16,
                    factor: self.io_node_ids.len(),
                })?;
                let rpc = self.rpc.clone();
                let msg = PfsRequest::Write {
                    req,
                    file: self.meta.id,
                    slot: sreq.slot as u16,
                    offset: sreq.slot_offset,
                    data: payload.clone(),
                    fast_path: self.fast_path,
                    shared,
                };
                legs.push(self.sim.spawn_named("pfs-write-leg", async move {
                    rpc.call_policy(dst, msg, policy).await
                }));
            }
            handles.push(legs);
        }
        let mut first_err = None;
        for legs in handles {
            // A replicated slot write succeeds when its primary copy acks
            // or a majority of copies ack; every leg is still joined so no
            // task is left writing after an early error. A single-copy
            // slot needs its one leg — exactly the old semantics.
            let quorum = legs.len() / 2 + 1;
            let mut acked = 0usize;
            let mut primary_acked = false;
            let mut leg_err = None;
            for (k, h) in legs.into_iter().enumerate() {
                match h.await {
                    Ok(PfsResponse::WriteAck(Ok(_))) => {
                        acked += 1;
                        if k == 0 {
                            primary_acked = true;
                        }
                    }
                    Ok(PfsResponse::WriteAck(Err(e))) => {
                        leg_err.get_or_insert(e);
                    }
                    Ok(_) => {
                        leg_err.get_or_insert(PfsError::BadReply);
                    }
                    Err(e) => {
                        leg_err.get_or_insert(e.into());
                    }
                }
            }
            if acked < quorum && !primary_acked {
                first_err.get_or_insert(leg_err.unwrap_or(PfsError::BadReply));
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        self.sim
            .emit(|| ev(cn, EventKind::WriteDone, req, offset, wlen));
        Ok(())
    }

    /// Rewind this handle's pointer state (and, for shared-pointer modes,
    /// the shared pointer itself — callers coordinate so only one node of
    /// a shared open rewinds).
    pub async fn rewind(&self) -> Result<(), PfsError> {
        {
            let mut st = self.state.borrow_mut();
            st.round = 0;
            st.local_offset = 0;
        }
        if self.mode.shared_pointer() {
            self.ptr(PtrRequest::Rewind { file: self.meta.id }).await?;
        }
        Ok(())
    }
}

/// Should a failed replicated read leg try the next copy? Transport
/// failures and node/device unavailability are what replication covers;
/// logical errors (bad slot, unknown file, protocol violations) would
/// fail identically everywhere, so they are reported as-is.
fn failover_worthy(res: &Result<PfsResponse, RpcError>) -> bool {
    match res {
        Err(_) => true,
        Ok(PfsResponse::Data(Err(e))) => matches!(
            e,
            PfsError::Timeout
                | PfsError::IoNodeDown
                | PfsError::DiskError(_)
                | PfsError::TooManyRetries { .. }
        ),
        Ok(_) => false,
    }
}
