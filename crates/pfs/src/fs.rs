//! The mounted parallel file system.
//!
//! [`ParallelFs::new`] wires a machine up: one PFS server per I/O node,
//! the pointer server on the service node, and the RPC fabric between
//! them. Files are created with explicit stripe attributes, populated
//! through [`ParallelFs::populate_with`] (experiment setup — writes land
//! directly on the UFS instances without charging client time), and
//! opened per node with [`ParallelFs::open`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use paragon_machine::Machine;
use paragon_mesh::NodeId;
use paragon_os::{ArtConfig, ArtPool, ArtStats, RpcClient, RpcNet, RpcPolicy};
use paragon_sim::Sim;

use crate::client::{ClientParams, OpenOptions, PfsFile};
use crate::meta::{Registry, Replica};
use crate::modes::IoMode;
use crate::pointer::PointerServer;
use crate::proto::{PfsError, PfsFileId, PfsRequest, PfsResponse};
use crate::redundancy::Redundancy;
use crate::server::{IonServer, ServerParams, ServerStats};
use crate::stripe::StripeAttrs;

/// One compute node's RPC endpoint and ART pool.
pub(crate) type NodeEndpoint = (RpcClient<PfsRequest, PfsResponse>, ArtPool);

/// A mounted PFS. One per machine.
pub struct ParallelFs {
    sim: Sim,
    machine: Rc<Machine>,
    rpc: RpcNet<PfsRequest, PfsResponse>,
    registry: Rc<RefCell<Registry>>,
    servers: Vec<IonServer>,
    io_node_ids: Rc<Vec<NodeId>>,
    /// Lazily-created per-rank client endpoints and ART pools (one mailbox
    /// and one active list per compute node).
    clients: RefCell<BTreeMap<usize, NodeEndpoint>>,
    /// Mount-level redundancy policy (`Replicated` places extra copies).
    redundancy: Redundancy,
    /// Stripe slots awaiting re-replication; polled live by telemetry.
    rebuild_pending: Rc<Cell<u64>>,
    /// Cumulative bytes copied by recovery coordinators.
    rebuild_bytes: Rc<Cell<u64>>,
    /// Cumulative reads that failed over to a non-primary replica.
    replica_failovers: Rc<Cell<u64>>,
    /// Cumulative reads served by a non-primary replica.
    replica_reads: Rc<Cell<u64>>,
}

impl ParallelFs {
    /// Mount a PFS on `machine` with single-copy striping (the paper's
    /// layout): starts the I/O-node servers and the pointer server.
    pub fn new(machine: Rc<Machine>) -> Rc<Self> {
        Self::new_with_redundancy(machine, Redundancy::None)
    }

    /// Mount with an explicit redundancy policy. `Replicated { rf }`
    /// places `rf` copies of every stripe slot on `rf` distinct I/O
    /// nodes; `None`/`ParityRaid` behave exactly like [`ParallelFs::new`]
    /// (parity membership is a machine-calibration matter).
    pub fn new_with_redundancy(machine: Rc<Machine>, redundancy: Redundancy) -> Rc<Self> {
        let sim = machine.sim().clone();
        let calib = machine.calib().clone();
        let rpc: RpcNet<PfsRequest, PfsResponse> =
            RpcNet::new(&sim, machine.topology(), calib.mesh.clone());
        let registry = Rc::new(RefCell::new(Registry::new()));

        let server_params = ServerParams {
            request_overhead: calib.server_request,
            partial_block_penalty: calib.partial_block_penalty,
            shared_file_check: calib.shared_file_check,
            fs_block: calib.fs_block,
            threads: calib.server_threads,
        };
        let mut servers = Vec::with_capacity(machine.io_nodes());
        for i in 0..machine.io_nodes() {
            let server = IonServer::new(
                &sim,
                machine.ufs(i).clone(),
                i,
                server_params.clone(),
                registry.clone(),
            );
            servers.push(server.clone());
            rpc.serve(machine.io_node(i), move |_src, req| {
                let server = server.clone();
                Box::pin(async move { server.handle(req).await })
            });
        }

        let ptr = PointerServer::new(&sim, calib.pointer_op);
        rpc.serve(machine.service_node(), move |_src, req| {
            let ptr = ptr.clone();
            Box::pin(async move {
                match req {
                    PfsRequest::Ptr(p) => PfsResponse::Ptr(ptr.handle(p).await),
                    // Data requests belong on an I/O node; a misrouted one
                    // gets a matching-kind error reply, not a crash.
                    PfsRequest::Read { .. } => PfsResponse::Data(Err(PfsError::BadRequest)),
                    PfsRequest::Write { .. } => PfsResponse::WriteAck(Err(PfsError::BadRequest)),
                }
            })
        });

        let io_node_ids = Rc::new(
            (0..machine.io_nodes())
                .map(|i| machine.io_node(i))
                .collect(),
        );
        assert!(
            redundancy.replication_factor() <= machine.io_nodes(),
            "replication factor exceeds the I/O-node count"
        );
        Rc::new(ParallelFs {
            sim,
            machine,
            rpc,
            registry,
            servers,
            io_node_ids,
            clients: RefCell::new(BTreeMap::new()),
            redundancy,
            rebuild_pending: Rc::new(Cell::new(0)),
            rebuild_bytes: Rc::new(Cell::new(0)),
            replica_failovers: Rc::new(Cell::new(0)),
            replica_reads: Rc::new(Cell::new(0)),
        })
    }

    /// Live count of stripe slots awaiting re-replication (telemetry
    /// gauge; zero whenever no rebuild is in progress).
    pub fn rebuild_pending_cell(&self) -> Rc<Cell<u64>> {
        self.rebuild_pending.clone()
    }

    /// Cumulative bytes copied by recovery coordinators.
    pub fn rebuild_bytes_cell(&self) -> Rc<Cell<u64>> {
        self.rebuild_bytes.clone()
    }

    /// Cumulative reads that failed over to a non-primary replica.
    pub fn replica_failovers_cell(&self) -> Rc<Cell<u64>> {
        self.replica_failovers.clone()
    }

    /// Cumulative reads served by a non-primary replica.
    pub fn replica_reads_cell(&self) -> Rc<Cell<u64>> {
        self.replica_reads.clone()
    }

    pub(crate) fn sim(&self) -> &Sim {
        &self.sim
    }

    pub(crate) fn registry(&self) -> &Rc<RefCell<Registry>> {
        &self.registry
    }

    /// The extra replica I/O nodes of one stripe slot whose primary is
    /// `primary`: `rf - 1` distinct I/O nodes, preferring nodes *outside*
    /// the stripe group — they serve no primary slot, so when a group
    /// member crashes its failover traffic lands on spare capacity
    /// instead of doubling a neighbour's load. Spares are rotated per
    /// primary so consecutive slots spread over different spares; when
    /// the group covers the whole machine the placement degrades to the
    /// next distinct nodes cyclically. Deterministic either way.
    fn replica_ions(&self, primary: usize, group: &[usize]) -> Vec<usize> {
        let ions = self.machine.io_nodes();
        let rf = self.redundancy.replication_factor();
        let (mut spare, loaded): (Vec<usize>, Vec<usize>) = (1..ions)
            .map(|d| (primary + d) % ions)
            .partition(|ion| !group.contains(ion));
        if !spare.is_empty() {
            let rot = primary % spare.len();
            spare.rotate_left(rot);
        }
        spare
            .into_iter()
            .chain(loaded)
            .take(rf.saturating_sub(1))
            .collect()
    }

    /// The machine this PFS is mounted on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Create a PFS file with explicit stripe attributes.
    pub async fn create(&self, name: &str, attrs: StripeAttrs) -> Result<PfsFileId, PfsError> {
        assert!(
            attrs.group.iter().all(|&ion| ion < self.machine.io_nodes()),
            "stripe group references a nonexistent I/O node"
        );
        let mut slots = Vec::with_capacity(attrs.factor());
        let mut replicas = Vec::with_capacity(attrs.factor());
        for (slot, &ion) in attrs.group.iter().enumerate() {
            let inode = self
                .machine
                .ufs(ion)
                .create(&format!("{name}.{slot}"))
                .await
                .map_err(PfsError::from)?;
            slots.push((ion, inode));
            let mut copies = vec![Replica {
                ion,
                inode,
                ready: true,
            }];
            for (k, rion) in self.replica_ions(ion, &attrs.group).into_iter().enumerate() {
                let rinode = self
                    .machine
                    .ufs(rion)
                    .create(&format!("{name}.{slot}.r{}", k + 1))
                    .await
                    .map_err(PfsError::from)?;
                copies.push(Replica {
                    ion: rion,
                    inode: rinode,
                    ready: true,
                });
            }
            replicas.push(copies);
        }
        Ok(self
            .registry
            .borrow_mut()
            .insert_replicated(name, attrs, slots, replicas))
    }

    /// Lay `size` bytes of content into `file`, byte `i` = `fill(i)`.
    ///
    /// Experiment setup: the data lands directly on the per-slot UFS
    /// files (the simulated disks still charge their write time, but no
    /// client/mesh time is consumed — populate before starting the clock).
    pub async fn populate_with(
        &self,
        file: PfsFileId,
        size: u64,
        fill: impl Fn(u64) -> u8,
    ) -> Result<(), PfsError> {
        if size == 0 {
            return Ok(());
        }
        let meta = self.registry.borrow().get(file)?.clone();
        let su = meta.attrs.stripe_unit;
        let g = meta.attrs.factor() as u64;
        // Build each slot's stripe file content in one pass.
        let mut slot_bufs: Vec<BytesMut> = (0..g)
            .map(|slot| {
                // Slot length: full rows plus the clipped final row.
                let units = size.div_ceil(su);
                let full = units / g + u64::from(units % g > slot);
                let mut len = full * su;
                // The very last unit may be clipped by the file size.
                if units > 0 && (units - 1) % g == slot && !size.is_multiple_of(su) {
                    len -= su - size % su;
                }
                BytesMut::zeroed(len as usize)
            })
            .collect();
        // Row `row` of slot `slot` holds stripe unit `row * g + slot`.
        for (slot, buf) in slot_bufs.iter_mut().enumerate() {
            for (row, unit_buf) in buf.chunks_mut(su as usize).enumerate() {
                fill_from(unit_buf, (row as u64 * g + slot as u64) * su, &fill);
            }
        }
        let mut handles = Vec::new();
        for (slot, buf) in slot_bufs.into_iter().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let data = buf.freeze();
            // Every copy of the slot gets the identical content (the
            // primary first, extra replicas after — one write task per
            // copy, so replicated populates still overlap across nodes).
            for copy in meta.slot_replicas(slot as u16)? {
                let ufs = self.machine.ufs(copy.ion).clone();
                let data = data.clone();
                handles.push(self.sim.spawn_named("populate-slot", async move {
                    ufs.write(copy.inode, 0, data).await
                }));
            }
        }
        for h in handles {
            h.await.map_err(PfsError::from)?;
        }
        Ok(())
    }

    /// Logical size of `file` implied by its slot files' current sizes.
    pub(crate) fn logical_size(&self, file: PfsFileId) -> Result<u64, PfsError> {
        let registry = self.registry.borrow();
        let meta = registry.get(file)?;
        let sizes: Vec<u64> = meta
            .slots
            .iter()
            .map(|&(ion, inode)| self.machine.ufs(ion).size(inode).unwrap_or(0))
            .collect();
        Ok(meta.attrs.logical_end(&sizes))
    }

    /// Open `file` on compute node `rank` (of `nprocs`) in `mode`.
    pub fn open(
        &self,
        rank: usize,
        nprocs: usize,
        file: PfsFileId,
        mode: IoMode,
        opts: OpenOptions,
    ) -> Result<PfsFile, PfsError> {
        self.open_on(rank, rank, nprocs, file, mode, opts)
    }

    /// Open `file` from compute node `node`, participating as `rank` of
    /// `nprocs`. The separate-files workloads use this: each physical
    /// node opens its private file as rank 0 of 1.
    pub fn open_on(
        &self,
        node: usize,
        rank: usize,
        nprocs: usize,
        file: PfsFileId,
        mode: IoMode,
        opts: OpenOptions,
    ) -> Result<PfsFile, PfsError> {
        let meta = self.registry.borrow().get(file)?.clone();
        let calib = self.machine.calib();
        let (rpc, arts) = self.node_endpoint(node);
        let size = self.logical_size(file)?;
        Ok(PfsFile::new(
            self.sim.clone(),
            rpc,
            arts,
            ClientParams {
                syscall: calib.syscall,
                record_bookkeeping: calib.record_bookkeeping,
                data_policy: RpcPolicy::with_retries(
                    calib.rpc_attempt_timeout,
                    calib.rpc_retries,
                    calib.rpc_backoff,
                ),
                replica_failovers: self.replica_failovers.clone(),
                replica_reads: self.replica_reads.clone(),
            },
            meta,
            self.io_node_ids.clone(),
            self.machine.service_node(),
            rank as u16,
            nprocs as u16,
            mode,
            opts,
            size,
        ))
    }

    /// The RPC endpoint + ART pool of compute node `rank`, created on
    /// first use (one mailbox per node).
    pub(crate) fn node_endpoint(&self, rank: usize) -> NodeEndpoint {
        let mut clients = self.clients.borrow_mut();
        let calib = self.machine.calib();
        clients
            .entry(rank)
            .or_insert_with(|| {
                let client = self.rpc.client(self.machine.compute_node(rank));
                let arts = ArtPool::new(
                    &self.sim,
                    ArtConfig {
                        setup: calib.art_setup,
                        dispatch: calib.art_dispatch,
                        max_arts: calib.max_arts,
                    },
                );
                (client, arts)
            })
            .clone()
    }

    /// Counters of I/O node `index`'s server. Returns empty counters for
    /// an index outside the machine's I/O-node range.
    pub fn server_stats(&self, index: usize) -> ServerStats {
        self.servers
            .get(index)
            .map(|s| s.stats())
            .unwrap_or_default()
    }

    /// Aggregate bytes read across all I/O-node servers.
    pub fn total_bytes_served(&self) -> u64 {
        self.servers.iter().map(|s| s.stats().bytes_read).sum()
    }

    /// Live request-queue-depth cells of every I/O-node server, in
    /// I/O-node order, for telemetry gauges.
    pub fn server_inflight_cells(&self) -> Vec<Rc<Cell<usize>>> {
        self.servers.iter().map(|s| s.inflight_cell()).collect()
    }

    /// Cumulative server-thread-held nanoseconds per I/O node.
    pub fn server_busy_ns(&self) -> Vec<u64> {
        self.servers.iter().map(|s| s.busy_ns()).collect()
    }

    /// Requests currently on any compute node's ART active list (the
    /// paper's active FIFO), summed over nodes. Counts only endpoints
    /// created so far — which is all of them once the workload opened
    /// its files.
    pub fn art_active(&self) -> usize {
        self.clients
            .borrow()
            .values()
            .map(|(_, arts)| arts.active())
            .sum()
    }

    /// ART counters aggregated over all compute-node pools: summed
    /// submissions/completions, per-node max of the active-list peak.
    pub fn art_stats(&self) -> ArtStats {
        let mut total = ArtStats::default();
        for (_, arts) in self.clients.borrow().values() {
            let st = arts.stats();
            total.submitted += st.submitted;
            total.completed += st.completed;
            total.max_active = total.max_active.max(st.max_active);
        }
        total
    }

    /// The RPC fabric, for transport-layer telemetry.
    pub fn rpc_net(&self) -> &RpcNet<PfsRequest, PfsResponse> {
        &self.rpc
    }
}

/// Write `fill(start + i)` into `buf[i]`, calling `fill` once per byte
/// in index order.
///
/// The bytes go in 16-byte batches and then the tail one at a time. A
/// batch lets LLVM compute a closure like [`pattern_byte`]'s multiply
/// once and make every lane that base plus a constant; the per-byte loop
/// vectorizes into emulated 64-bit multiplies at about twice the cost
/// (DESIGN.md section 7.2).
fn fill_from(buf: &mut [u8], start: u64, fill: &impl Fn(u64) -> u8) {
    let mut batches = buf.chunks_exact_mut(16);
    let mut at = start;
    for batch in &mut batches {
        let bytes: [u8; 16] = std::array::from_fn(|k| fill(at + k as u64));
        batch.copy_from_slice(&bytes);
        at += 16;
    }
    for (i, b) in batches.into_remainder().iter_mut().enumerate() {
        *b = fill(at + i as u64);
    }
}

/// Deterministic file content used throughout tests and experiments:
/// byte `i` of a file with `seed` is `pattern_byte(seed, i)`.
#[inline]
pub fn pattern_byte(seed: u64, offset: u64) -> u8 {
    let x = offset
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seed.wrapping_mul(0xd134_2543_de82_ef95));
    ((x >> 32) ^ x) as u8
}

/// Materialize `[offset, offset + len)` of the pattern file (what a read
/// should return).
pub fn pattern_slice(seed: u64, offset: u64, len: usize) -> Bytes {
    let mut buf = BytesMut::zeroed(len);
    fill_from(&mut buf, offset, &|i| pattern_byte(seed, i));
    buf.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_machine::MachineConfig;

    const KB: u64 = 1024;

    fn mount(sim: &Sim, cn: usize, ion: usize) -> Rc<ParallelFs> {
        let machine = Rc::new(Machine::new(sim, MachineConfig::tiny_instant(cn, ion)));
        ParallelFs::new(machine)
    }

    /// Build a populated file and return its id.
    async fn make_file(
        pfs: &ParallelFs,
        name: &str,
        attrs: StripeAttrs,
        size: u64,
        seed: u64,
    ) -> PfsFileId {
        let id = pfs.create(name, attrs).await.unwrap();
        pfs.populate_with(id, size, |i| pattern_byte(seed, i))
            .await
            .unwrap();
        id
    }

    #[test]
    fn populate_then_read_at_roundtrips() {
        let sim = Sim::new(3);
        let pfs = mount(&sim, 2, 3);
        let p2 = pfs.clone();
        let h = sim.spawn(async move {
            let attrs = StripeAttrs::across(3, 16 * KB);
            let id = make_file(&p2, "/pfs/a", attrs, 300 * KB, 7).await;
            assert_eq!(p2.logical_size(id).unwrap(), 300 * KB);
            let f = p2
                .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
                .unwrap();
            // An unaligned range spanning several stripe units.
            let data = f.transfer_read(10_000, 100_000).await.unwrap();
            data == pattern_slice(7, 10_000, 100_000)
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }

    #[test]
    fn m_record_partitions_the_file_by_rank() {
        let sim = Sim::new(4);
        let pfs = mount(&sim, 4, 2);
        let p2 = pfs.clone();
        let h = sim.spawn(async move {
            let attrs = StripeAttrs::across(2, 64 * KB);
            let id = make_file(&p2, "/pfs/r", attrs, 4 * 64 * KB * 2, 1).await;
            let mut ok = true;
            for rank in 0..4usize {
                let f = p2
                    .open(rank, 4, id, IoMode::MRecord, OpenOptions::default())
                    .unwrap();
                for round in 0..2u64 {
                    let data = f.read(64 * 1024).await.unwrap();
                    let expect_at = (round * 4 + rank as u64) * 64 * KB;
                    ok &= data == pattern_slice(1, expect_at, 64 * 1024);
                }
            }
            ok
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }

    #[test]
    fn m_unix_reads_are_disjoint_and_cover_the_prefix() {
        let sim = Sim::new(5);
        let pfs = mount(&sim, 3, 2);
        let p2 = pfs.clone();
        let done: Rc<RefCell<Vec<Bytes>>> = Rc::new(RefCell::new(Vec::new()));
        let d2 = done.clone();
        sim.spawn(async move {
            let attrs = StripeAttrs::across(2, 16 * KB);
            let id = make_file(&p2, "/pfs/u", attrs, 96 * KB, 9).await;
            let mut handles = Vec::new();
            for rank in 0..3usize {
                let f = p2
                    .open(rank, 3, id, IoMode::MUnix, OpenOptions::default())
                    .unwrap();
                let sim2 = f.sim().clone();
                handles.push(sim2.spawn(async move { f.read(32 * 1024).await.unwrap() }));
            }
            for h in handles {
                let data = h.await;
                d2.borrow_mut().push(data);
            }
        });
        sim.run();
        // Together the three 32 KB reads must cover bytes 0..96 KB exactly
        // once (order depends on token arrival).
        let mut got: Vec<Bytes> = done.borrow().clone();
        got.sort_by_key(|b| {
            // Identify each chunk by matching its first byte offset.
            (0..3u64)
                .find(|&k| b[..] == pattern_slice(9, k * 32 * KB, 32 * 1024)[..])
                .expect("chunk does not match any expected range")
        });
        for (k, b) in got.iter().enumerate() {
            assert_eq!(&b[..], &pattern_slice(9, k as u64 * 32 * KB, 32 * 1024)[..]);
        }
    }

    #[test]
    fn m_global_all_nodes_see_identical_data() {
        let sim = Sim::new(6);
        let pfs = mount(&sim, 4, 2);
        let p2 = pfs.clone();
        let h = sim.spawn(async move {
            let attrs = StripeAttrs::across(2, 16 * KB);
            let id = make_file(&p2, "/pfs/g", attrs, 128 * KB, 2).await;
            let mut handles = Vec::new();
            for rank in 0..4usize {
                let f = p2
                    .open(rank, 4, id, IoMode::MGlobal, OpenOptions::default())
                    .unwrap();
                let sim2 = f.sim().clone();
                handles.push(sim2.spawn(async move {
                    let a = f.read(32 * 1024).await.unwrap();
                    let b = f.read(32 * 1024).await.unwrap();
                    (a, b)
                }));
            }
            let mut all = Vec::new();
            for h in handles {
                all.push(h.await);
            }
            all
        });
        sim.run();
        let all = h.try_take().unwrap();
        for (a, b) in &all {
            assert_eq!(&a[..], &pattern_slice(2, 0, 32 * 1024)[..]);
            assert_eq!(&b[..], &pattern_slice(2, 32 * KB, 32 * 1024)[..]);
        }
        // The I/O nodes must have deduplicated the collective reads.
        let shares: u64 = (0..2).map(|i| pfs.server_stats(i).global_shares).sum();
        assert!(shares > 0, "expected global read sharing");
    }

    #[test]
    fn ways_on_one_node_all_traffic_hits_that_node() {
        let sim = Sim::new(7);
        let pfs = mount(&sim, 2, 3);
        let p2 = pfs.clone();
        sim.spawn(async move {
            let attrs = StripeAttrs::ways_on_one(4, 1, 16 * KB);
            let id = make_file(&p2, "/pfs/w", attrs, 256 * KB, 3).await;
            let f = p2
                .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
                .unwrap();
            let data = f.read(128 * 1024).await.unwrap();
            assert_eq!(&data[..], &pattern_slice(3, 0, 128 * 1024)[..]);
        });
        sim.run();
        assert!(pfs.server_stats(1).reads > 0);
        assert_eq!(pfs.server_stats(0).reads, 0);
        assert_eq!(pfs.server_stats(2).reads, 0);
    }

    #[test]
    fn write_at_then_read_back_through_pfs() {
        let sim = Sim::new(8);
        let pfs = mount(&sim, 1, 2);
        let p2 = pfs.clone();
        let h = sim.spawn(async move {
            let id = p2
                .create("/pfs/wr", StripeAttrs::across(2, 16 * KB))
                .await
                .unwrap();
            let f = p2
                .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
                .unwrap();
            let payload = pattern_slice(11, 0, 100_000);
            f.write_at(0, payload.clone()).await.unwrap();
            let back = f.transfer_read(0, 100_000).await.unwrap();
            back == payload
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }

    #[test]
    fn aread_overlaps_with_computation() {
        let sim = Sim::new(9);
        let pfs = mount(&sim, 1, 2);
        let p2 = pfs.clone();
        let h = sim.spawn(async move {
            let attrs = StripeAttrs::across(2, 16 * KB);
            let id = make_file(&p2, "/pfs/as", attrs, 256 * KB, 4).await;
            let f = p2
                .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
                .unwrap();
            let req = f.aread(64 * 1024).await;
            let data = req.join().await.unwrap();
            data == pattern_slice(4, 0, 64 * 1024)
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }

    #[test]
    fn pattern_helpers_are_consistent() {
        // Every batch/tail split of `fill_from`: offsets across one
        // 16-byte batch, lengths up to three batches.
        for offset in 0..=17u64 {
            for len in 0..=48usize {
                let s = pattern_slice(5, offset, len);
                assert_eq!(s.len(), len);
                for (i, &b) in s.iter().enumerate() {
                    assert_eq!(
                        b,
                        pattern_byte(5, offset + i as u64),
                        "offset {offset} len {len}"
                    );
                }
            }
        }
    }

    /// Not the pattern: a wrong lane offset in a batch changes its bytes.
    fn mix(i: u64) -> u8 {
        (i.wrapping_mul(0x9e37) >> 5) as u8
    }

    /// The file offset of each byte slot `slot` holds, in slot order, for
    /// a `g`-wide file of `size` bytes striped at `su`: row `r` of the slot
    /// holds stripe unit `r*g + slot`.
    fn slot_offsets(size: u64, su: u64, g: u64, slot: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut row = 0;
        while (row * g + slot) * su < size {
            let ustart = (row * g + slot) * su;
            out.extend(ustart..(ustart + su).min(size));
            row += 1;
        }
        out
    }

    #[test]
    fn populate_lays_out_every_copy_byte_for_byte() {
        // (stripe unit, factor, copies, fill)
        let cases = [
            (1000, 3, 1, mix as fn(u64) -> u8),
            (1000, 1, 1, mix),
            (64 * KB, 3, 1, mix),
            (64 * KB, 1, 1, |i| pattern_byte(5, i)),
            (1000, 3, 2, mix),
            (64 * KB, 3, 2, |i| pattern_byte(5, i)),
        ];
        for (su, factor, rf, fill) in cases {
            let g = factor as u64;
            // Three full rows and a last unit clipped to 17 bytes.
            let size = 3 * g * su + 17;
            let sim = Sim::new(12);
            let machine = Rc::new(Machine::new(&sim, MachineConfig::tiny_instant(1, 4)));
            let redundancy = if rf == 1 {
                Redundancy::None
            } else {
                Redundancy::Replicated { rf }
            };
            let pfs = ParallelFs::new_with_redundancy(machine.clone(), redundancy);
            let h = sim.spawn(async move {
                let id = pfs
                    .create("/pfs/fill", StripeAttrs::across(factor, su))
                    .await
                    .unwrap();
                pfs.populate_with(id, size, fill).await.unwrap();
                let meta = pfs.registry.borrow().get(id).unwrap().clone();
                let mut copies = Vec::new();
                for slot in 0..factor {
                    for copy in meta.slot_replicas(slot as u16).unwrap() {
                        let ufs = machine.ufs(copy.ion);
                        let len = ufs.size(copy.inode).unwrap();
                        let data = ufs.read_direct(copy.inode, 0, len as u32).await.unwrap();
                        copies.push((slot as u64, data));
                    }
                }
                copies
            });
            sim.run();
            let copies = h.try_take().unwrap();
            assert_eq!(copies.len(), factor * rf, "su {su} factor {factor} rf {rf}");
            for (slot, data) in copies {
                let want: Vec<u8> = slot_offsets(size, su, g, slot)
                    .into_iter()
                    .map(fill)
                    .collect();
                assert!(
                    data[..] == want[..],
                    "su {su} factor {factor} rf {rf} slot {slot}"
                );
            }
        }
    }

    #[test]
    fn populate_calls_fill_in_per_byte_order() {
        let (su, g) = (1000u64, 3u64);
        let size = 2 * g * su + 17;
        let log = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new(13);
        let pfs = mount(&sim, 1, 3);
        let l2 = log.clone();
        sim.spawn(async move {
            let id = pfs
                .create("/pfs/order", StripeAttrs::across(g as usize, su))
                .await
                .unwrap();
            pfs.populate_with(id, size, |i| {
                l2.borrow_mut().push(i);
                mix(i)
            })
            .await
            .unwrap();
        });
        sim.run();
        // Slot by slot, each slot in offset order: one call per byte.
        let want: Vec<u64> = (0..g)
            .flat_map(|slot| slot_offsets(size, su, g, slot))
            .collect();
        assert_eq!(want.len() as u64, size);
        assert_eq!(*log.borrow(), want);
    }
}
