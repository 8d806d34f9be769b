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
use std::future::Future;
use std::ops::Deref;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use paragon_mesh::NodeId;
use paragon_os::{ArtPool, AsyncHandle, RpcClient, RpcError, RpcPolicy};
use paragon_sim::{ev, EventKind, JoinHandle, ReqId, Sim, SimDuration, Track, VecPool};

use crate::meta::FileMeta;
use crate::modes::IoMode;
use crate::proto::{PfsError, PfsRequest, PfsResponse, PtrRequest, SlotRead, SlotWrite};
use crate::stripe::SlotRequest;

/// Open-time options.
#[derive(Debug, Clone, Copy)]
pub struct OpenOptions {
    /// Read with Fast Path I/O (bypass the I/O nodes' buffer caches).
    /// This is the PFS default for large transfers; disable to model
    /// buffered reads. It governs reads only: every write goes to the I/O
    /// node's disk and purges the cached blocks it overwrote.
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
    /// Mount-wide pools of the transfers' join-handle lists.
    pub legs: Rc<LegPools>,
}

struct FileState {
    /// Collective round counter (M_RECORD / M_GLOBAL).
    round: u64,
    /// Local byte pointer (M_ASYNC).
    local_offset: u64,
}

/// One node's handle on an open PFS file. Clone freely; clones share the
/// file pointer state (they are the same open), and a clone is one `Rc`
/// count bump.
#[derive(Clone)]
pub struct PfsFile(Rc<Open>);

/// What every clone of a [`PfsFile`] shares, reached through its
/// `Deref`; the fields stay private to this module.
pub struct Open {
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

impl Deref for PfsFile {
    type Target = Open;
    fn deref(&self) -> &Open {
        &self.0
    }
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
        PfsFile(Rc::new(Open {
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
        }))
    }

    /// Mesh id of I/O node `ion`, which serves a copy of `slot`.
    fn io_node(&self, ion: usize, slot: u16) -> Result<NodeId, PfsError> {
        self.io_node_ids.get(ion).copied().ok_or(PfsError::BadSlot {
            slot,
            factor: self.io_node_ids.len(),
        })
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
    /// access covers. A zero-length access moves nothing and costs no
    /// bookkeeping. Panics for shared-pointer modes — their pointer
    /// motion is inseparable from the access (the paper's prototype
    /// likewise targets the individual-pointer modes).
    pub async fn advance_pointer(&self, len: u32) -> u64 {
        assert!(
            !self.mode.shared_pointer(),
            "advance_pointer on shared-pointer mode {}",
            self.mode
        );
        if len == 0 {
            return self.peek_pointer(0);
        }
        if self.mode == IoMode::MRecord {
            self.sim.sleep(self.params.record_bookkeeping).await;
        }
        let at = self.peek_pointer(len);
        // Each mode's formula reads only its own field; bump both.
        let mut st = self.state.borrow_mut();
        st.round += 1;
        // Saturates after a seek near the end of the offset space; the
        // transfer at `at` then fails with a typed overflow error.
        st.local_offset = st.local_offset.saturating_add(len as u64);
        at
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

    /// Run `transfer` at the offset the open mode assigns this node's next
    /// `len`-byte access: the one place the six modes' pointer steps
    /// differ. M_UNIX holds the pointer token across the transfer
    /// (atomicity) and releases it before returning the transfer's
    /// result; M_LOG reserves its range with a fetch-and-add and M_SYNC
    /// waits for every rank's arrival, both before the transfer; the
    /// individual-pointer modes advance their local pointer.
    async fn at_next_offset<T, F>(
        &self,
        len: u32,
        transfer: impl FnOnce(u64) -> F,
    ) -> Result<T, PfsError>
    where
        F: Future<Output = Result<T, PfsError>>,
    {
        let file = self.meta.id;
        let at = match self.mode {
            IoMode::MUnix => {
                let at = self.ptr(PtrRequest::UnixAcquire { file }).await?;
                let result = transfer(at).await;
                self.ptr(PtrRequest::UnixRelease {
                    file,
                    advance: len as u64,
                })
                .await?;
                return result;
            }
            IoMode::MLog => {
                self.ptr(PtrRequest::LogFetchAdd {
                    file,
                    len: len as u64,
                })
                .await?
            }
            IoMode::MSync => {
                self.ptr(PtrRequest::SyncArrive {
                    file,
                    rank: self.rank,
                    nprocs: self.nprocs,
                    len: len as u64,
                })
                .await?
            }
            IoMode::MRecord | IoMode::MGlobal | IoMode::MAsync => self.advance_pointer(len).await,
        };
        transfer(at).await
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
        self.at_next_offset(len, |at| self.mode_read(at, len)).await
    }

    /// Asynchronous read: the pointer step happens now (setup), the
    /// transfer runs on an ART. `iowait` = [`AsyncHandle::join`]. A
    /// shared pointer is coordinated inside the ART, as part of the
    /// asynchronous operation.
    pub async fn aread(&self, len: u32) -> AsyncHandle<Result<Bytes, PfsError>> {
        self.syscall().await;
        let this = self.clone();
        if self.mode.shared_pointer() {
            return self
                .arts
                .submit(0, Track::Sys, move || async move {
                    this.at_next_offset(len, |at| this.mode_read(at, len)).await
                })
                .await;
        }
        let at = self.advance_pointer(len).await;
        self.arts
            .submit(0, Track::Sys, move || async move {
                this.mode_read(at, len).await
            })
            .await
    }

    /// The transfer of a mode read at `at`. Under M_GLOBAL every node of
    /// the collective call reads the same range, and the I/O nodes serve
    /// all `nprocs` parties with one physical read.
    async fn mode_read(&self, at: u64, len: u32) -> Result<Bytes, PfsError> {
        let parties = if self.mode == IoMode::MGlobal {
            self.nprocs
        } else {
            0
        };
        let req = self.sim.mint_req();
        self.transfer_read_inner(at, len, parties, req).await
    }

    /// Positioned read with no pointer interaction and no syscall charge:
    /// the raw striped transfer. This is what a prefetch issues ("the file
    /// pointer is not changed in the process of prefetching"). `req` is
    /// the caller-minted flight-recorder request id (the prefetch engine
    /// mints one id per issue so the prefetch's whole lifetime shares one
    /// correlation key; other callers mint one just before the call).
    pub async fn transfer_read(
        &self,
        offset: u64,
        len: u32,
        req: ReqId,
    ) -> Result<Bytes, PfsError> {
        self.transfer_read_inner(offset, len, 0, req).await
    }

    async fn transfer_read_inner(
        &self,
        offset: u64,
        len: u32,
        global_parties: u16,
        req: ReqId,
    ) -> Result<Bytes, PfsError> {
        // POSIX `read(fd, buf, 0)`: nothing to move, nothing to trace.
        if len == 0 {
            return Ok(Bytes::new());
        }
        check_extent(offset, len as u64)?;
        let cn = Track::Cn(self.rank);
        self.sim
            .emit(|| ev(cn, EventKind::ReadStart, req, offset, len as u64));
        let shared = self.nprocs > 1;
        let policy = self.params.data_policy;
        let mut legs = self.params.legs.reads.take();
        for sreq in self.meta.attrs.requests(offset, len as u64) {
            let slot = sreq.slot as u16;
            let (primary, _) = self.meta.slot(slot)?;
            let copies = self
                .meta
                .with_replicas(slot, |copies| copies.iter().filter(|c| c.ready).count())?;
            let msg = PfsRequest::Read(SlotRead {
                req,
                file: self.meta.id,
                slot,
                offset: sreq.slot_offset,
                len: sreq.len as u32,
                fast_path: self.fast_path,
                shared,
                global_parties,
            });
            if copies <= 1 {
                let dst = self.io_node(primary, slot)?;
                // Positioned reads are idempotent: re-sending one under the
                // retry policy is safe.
                let leg = self.rpc.call_policy(dst, msg, policy);
                legs.push((sreq, self.sim.spawn_named("pfs-read-leg", leg)));
                continue;
            }
            // Replicated: deterministic read-from-any. Candidate order is
            // primary first, then the other copies in placement order,
            // with this handle's suspect nodes demoted to the back (kept,
            // not skipped — a recovered node serves again). Non-final
            // candidates get a single attempt so a dead node costs one
            // timeout; the final candidate keeps the full retry budget.
            let order = self.meta.with_replicas(slot, |copies| {
                let suspects = self.suspects.borrow();
                let mut order: Vec<(usize, NodeId)> = Vec::with_capacity(copies.len());
                for pass in [false, true] {
                    for c in copies
                        .iter()
                        .filter(|c| c.ready && suspects.contains(&c.ion) == pass)
                    {
                        order.push((c.ion, self.io_node(c.ion, slot)?));
                    }
                }
                Ok::<_, PfsError>(order)
            })??;
            let rpc = self.rpc.clone();
            let sim = self.sim.clone();
            let suspects = self.suspects.clone();
            let params = self.params.clone();
            let slot = sreq.slot as u64;
            legs.push((
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
        // Zero-copy fast path: an extent on one slot only is a single run
        // whose pieces sit in the reply exactly where they sit in the
        // extent, so the reply buffer is the result, no reassembly needed.
        // The leg still runs in its own spawned task so event interleaving
        // matches the general path.
        let direct = legs.len() == 1;
        let mut out = if direct {
            BytesMut::new()
        } else {
            BytesMut::zeroed(len as usize)
        };
        let mut direct_data = None;
        let mut first_err = None;
        for (sreq, h) in legs.drain(..) {
            // Join every leg before reporting an error (deterministic
            // completion; no legs left writing into a dropped buffer).
            match h.await {
                Ok(PfsResponse::Data(Ok(data))) => {
                    debug_assert_eq!(data.len() as u64, sreq.len);
                    if direct {
                        direct_data = Some(data);
                        continue;
                    }
                    for p in self.meta.attrs.pieces(sreq) {
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
        self.params.legs.reads.give(legs);
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
    /// rank arrives; M_RECORD/M_ASYNC use their local pointers, and
    /// M_GLOBAL nodes all write the same data to the same place. Returns
    /// the offset the data landed at.
    pub async fn write(&self, data: Bytes) -> Result<u64, PfsError> {
        self.syscall().await;
        self.at_next_offset(data.len() as u32, |at| async move {
            self.transfer_write(at, data).await.map(|()| at)
        })
        .await
    }

    /// Positioned write (used to lay files out and by write workloads).
    pub async fn write_at(&self, offset: u64, data: Bytes) -> Result<(), PfsError> {
        self.syscall().await;
        self.transfer_write(offset, data).await
    }

    /// Raw striped write, no syscall charge; an empty write does nothing.
    pub async fn transfer_write(&self, offset: u64, data: Bytes) -> Result<(), PfsError> {
        if data.is_empty() {
            return Ok(());
        }
        check_extent(offset, data.len() as u64)?;
        let req = self.sim.mint_req();
        let cn = Track::Cn(self.rank);
        let wlen = data.len() as u64;
        self.sim
            .emit(|| ev(cn, EventKind::WriteStart, req, offset, wlen));
        let shared = self.nprocs > 1;
        let policy = self.params.data_policy;
        let mut legs = self.params.legs.writes.take();
        for sreq in self.meta.attrs.requests(offset, wlen) {
            let slot = sreq.slot as u16;
            // Gather the logical pieces into one contiguous slot buffer.
            // A single piece is already contiguous — share the slice.
            let su = self.meta.attrs.stripe_unit;
            let payload = if sreq.slot_offset % su + sreq.len <= su {
                let at = sreq.logical_offset as usize;
                data.slice(at..at + sreq.len as usize)
            } else {
                let mut buf = BytesMut::zeroed(sreq.len as usize);
                for p in self.meta.attrs.pieces(sreq) {
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
            // The replica table always keeps a readable copy; a slot
            // without one fails the write.
            self.meta.with_replicas(slot, |copies| {
                let copies = copies.iter().filter(|c| c.ready);
                let n = copies.clone().count();
                if n == 0 {
                    return Err(PfsError::BadReply);
                }
                for (k, copy) in copies.enumerate() {
                    let dst = self.io_node(copy.ion, slot)?;
                    let msg = PfsRequest::Write(SlotWrite {
                        req,
                        file: self.meta.id,
                        slot,
                        offset: sreq.slot_offset,
                        data: payload.clone(),
                        shared,
                    });
                    let leg = self.rpc.call_policy(dst, msg, policy);
                    legs.push((k, n, self.sim.spawn_named("pfs-write-leg", leg)));
                }
                Ok::<_, PfsError>(())
            })??;
        }
        let mut first_err = None;
        let (mut acked, mut primary_acked, mut leg_err) = (0usize, false, None);
        for (k, n, h) in legs.drain(..) {
            // A replicated slot write succeeds when its primary copy acks
            // or a majority of copies ack; every leg is still joined so no
            // task is left writing after an early error. A single-copy
            // slot needs its one leg — exactly the old semantics.
            if k == 0 {
                (acked, primary_acked, leg_err) = (0, false, None);
            }
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
            if k + 1 == n && acked < n / 2 + 1 && !primary_acked {
                first_err.get_or_insert(leg_err.take().unwrap_or(PfsError::BadReply));
            }
        }
        self.params.legs.writes.give(legs);
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

/// The result of one read or write leg's RPC.
type LegResult = Result<PfsResponse, RpcError>;

/// Join-handle lists of the transfers in flight, shared by a mount's
/// handles: a transfer takes one, fills it with its legs, joins them in
/// order and gives it back, so a transfer allocates no list.
#[derive(Debug, Default)]
pub(crate) struct LegPools {
    /// A read's legs: the slot request each serves, and its task.
    reads: VecPool<(SlotRequest, JoinHandle<LegResult>)>,
    /// A write's legs, slot by slot: the leg's index among its slot's
    /// copies, the slot's number of copies, and the leg's task.
    writes: VecPool<(usize, usize, JoinHandle<LegResult>)>,
}

/// The end of an extent, which must lie inside the 64-bit offset space.
fn check_extent(offset: u64, len: u64) -> Result<u64, PfsError> {
    offset
        .checked_add(len)
        .ok_or(PfsError::OffsetOverflow { offset, len })
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
