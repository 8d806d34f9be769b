//! Online re-replication after an I/O-node crash.
//!
//! When a replicated mount loses an I/O node, every stripe slot with a
//! copy on that node is under-replicated until a new copy exists
//! elsewhere. [`rebuild_after_crash`] is the recovery coordinator: it
//! scans the registry for affected slots, stages a replacement copy on a
//! surviving I/O node, and copies the slot's bytes through the *normal*
//! RPC/server/disk path — so rebuild traffic contends with foreground
//! reads on the mesh, the server thread pools, and the spindles, exactly
//! the interference the rebuild-storm experiments measure. A token
//! bucket throttles the copy stream so foreground traffic keeps making
//! progress.
//!
//! Replacement copies go through a staging protocol (see
//! [`crate::meta::Replica::ready`]): the target's server resolves the
//! staging inode so recovery writes land, but readers never select the
//! copy until it is complete and committed — a half-written replica can
//! never serve a read.

use std::rc::Rc;

use paragon_sim::{ev, EventKind, Sim, SimDuration, SimTime, Track};

use crate::fs::ParallelFs;
use crate::proto::{PfsError, PfsFileId, PfsRequest, PfsResponse, SlotRead, SlotWrite};

/// Token-bucket refill rate for rebuild copy traffic, in bytes per
/// simulated second. Paced to cede priority to demand I/O: a single
/// 1995-era I/O node sustains only ~a few MB/s of foreground reads, so a
/// 2 MiB/s background copy stream keeps the foreground at well over half
/// its healthy bandwidth during recovery.
const RATE_BYTES_PER_S: u64 = 2 * 1024 * 1024;
/// Token-bucket capacity: the largest burst the throttle admits.
const BURST_BYTES: u64 = 256 * 1024;
/// Copy granularity — one read RPC + one write RPC per chunk.
const CHUNK_BYTES: u64 = 64 * 1024;
// A bucket smaller than one chunk would deadlock: a full bucket could
// still never cover one take().
const _: () = assert!(BURST_BYTES >= CHUNK_BYTES);

/// Counters of one completed recovery pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RebuildStats {
    /// Stripe slots whose lost copy was re-replicated.
    pub slots_copied: u64,
    /// Bytes moved to the replacement copies.
    pub bytes_copied: u64,
}

/// Deterministic integer token bucket over simulated time.
struct TokenBucket {
    sim: Sim,
    rate: u64,
    burst: u64,
    tokens: u64,
    refilled_at: SimTime,
}

impl TokenBucket {
    /// A full bucket of `burst` bytes, refilling at `rate` (> 0) bytes
    /// per simulated second.
    fn new(sim: Sim, rate: u64, burst: u64) -> Self {
        let now = sim.now();
        TokenBucket {
            sim,
            rate,
            burst,
            tokens: burst,
            refilled_at: now,
        }
    }

    fn refill(&mut self) {
        let now = self.sim.now();
        let dt = (now - self.refilled_at).as_nanos() as u128;
        let earned = (dt * self.rate as u128 / 1_000_000_000) as u64;
        self.tokens = self.tokens.saturating_add(earned).min(self.burst);
        self.refilled_at = now;
    }

    /// Block until `n` bytes of budget are available, then consume them.
    async fn take(&mut self, n: u64) {
        self.refill();
        if self.tokens < n {
            let deficit = (n - self.tokens) as u128;
            let wait = (deficit * 1_000_000_000).div_ceil(self.rate as u128) as u64;
            self.sim.sleep(SimDuration::from_nanos(wait)).await;
            self.refill();
        }
        self.tokens = self.tokens.saturating_sub(n);
    }
}

/// One under-replicated stripe slot.
struct WorkItem {
    file: PfsFileId,
    slot: u16,
    /// Surviving source copy to read from.
    src_ion: usize,
    /// Surviving target to host the replacement copy.
    target_ion: usize,
}

/// Re-replicate every stripe slot that lost a copy on `crashed_ion`.
///
/// Runs to completion in simulated time while foreground traffic
/// continues; copy traffic flows through compute node 0's RPC endpoint
/// so it contends with demand I/O. Emits [`EventKind::RebuildStart`],
/// one [`EventKind::RebuildCopy`] per slot, and
/// [`EventKind::RebuildDone`]; the mount's `rebuild_pending` gauge
/// counts down to exactly zero as slots complete.
pub async fn rebuild_after_crash(
    pfs: &Rc<ParallelFs>,
    crashed_ion: usize,
) -> Result<RebuildStats, PfsError> {
    let sim = pfs.sim().clone();
    let machine_ions = pfs.machine().io_nodes();
    let req = sim.mint_req();

    // Plan: find every slot with a readable copy on the crashed node and
    // pick, deterministically, a surviving source and a surviving target
    // that does not already hold a copy of that slot.
    let mut work = Vec::new();
    {
        let registry = pfs.registry().borrow();
        for meta in registry.iter() {
            for slot in 0..meta.attrs.factor() as u16 {
                let copies = meta.slot_replicas(slot)?;
                if copies.len() < 2 || !copies.iter().any(|c| c.ion == crashed_ion && c.ready) {
                    // Single-copy slots have no surviving source; slots
                    // without a copy on the crashed node are unaffected.
                    continue;
                }
                let src = copies
                    .iter()
                    .find(|c| c.ready && c.ion != crashed_ion)
                    .map(|c| c.ion);
                let (primary, _) = meta.slot(slot)?;
                let target = (1..machine_ions)
                    .map(|d| (primary + d) % machine_ions)
                    .find(|&ion| ion != crashed_ion && copies.iter().all(|c| c.ion != ion));
                if let (Some(src_ion), Some(target_ion)) = (src, target) {
                    work.push(WorkItem {
                        file: meta.id,
                        slot,
                        src_ion,
                        target_ion,
                    });
                }
            }
        }
    }

    let pending = pfs.rebuild_pending_cell();
    pending.set(pending.get() + work.len() as u64);
    sim.emit(|| {
        ev(
            Track::Sys,
            EventKind::RebuildStart,
            req,
            work.len() as u64,
            crashed_ion as u64,
        )
    });

    // Copy through the front door: compute node 0's RPC endpoint, the
    // calibrated retry policy, Fast Path (no cache pollution). Each slot
    // is staged, streamed chunk by chunk under the token bucket, then
    // committed.
    let (rpc, _arts) = pfs.node_endpoint(0);
    let calib = pfs.machine().calib().clone();
    let policy = paragon_os::RpcPolicy::with_retries(
        calib.rpc_attempt_timeout,
        calib.rpc_retries,
        calib.rpc_backoff,
    );
    let mut bucket = TokenBucket::new(sim.clone(), RATE_BYTES_PER_S, BURST_BYTES);
    let mut stats = RebuildStats::default();
    for item in work {
        let meta = pfs.registry().borrow().get(item.file)?.clone();
        let src_inode = meta.inode_on(item.slot, item.src_ion)?;
        let slot_len = pfs.machine().ufs(item.src_ion).size(src_inode).unwrap_or(0);
        let staging = pfs
            .machine()
            .ufs(item.target_ion)
            .create(&format!("{}.{}.rb{crashed_ion}", meta.name, item.slot))
            .await
            .map_err(PfsError::from)?;
        meta.add_staging_replica(item.slot, item.target_ion, staging);
        let mut at = 0u64;
        while at < slot_len {
            let n = CHUNK_BYTES.min(slot_len - at);
            bucket.take(n).await;
            let read = PfsRequest::Read(SlotRead {
                req,
                file: item.file,
                slot: item.slot,
                offset: at,
                len: n as u32,
                fast_path: true,
                shared: false,
                global_parties: 0,
            });
            let data = match rpc
                .call_policy(pfs.machine().io_node(item.src_ion), read, policy)
                .await
            {
                Ok(PfsResponse::Data(Ok(data))) => data,
                Ok(PfsResponse::Data(Err(e))) => return Err(e),
                Ok(_) => return Err(PfsError::BadReply),
                Err(e) => return Err(e.into()),
            };
            let write = PfsRequest::Write(SlotWrite {
                req,
                file: item.file,
                slot: item.slot,
                offset: at,
                data,
                shared: false,
            });
            match rpc
                .call_policy(pfs.machine().io_node(item.target_ion), write, policy)
                .await
            {
                Ok(PfsResponse::WriteAck(Ok(_))) => {}
                Ok(PfsResponse::WriteAck(Err(e))) => return Err(e),
                Ok(_) => return Err(PfsError::BadReply),
                Err(e) => return Err(e.into()),
            }
            at += n;
        }
        meta.commit_replica(item.slot, item.target_ion, crashed_ion);
        stats.slots_copied += 1;
        stats.bytes_copied += slot_len;
        pending.set(pending.get().saturating_sub(1));
        pfs.rebuild_bytes.set(pfs.rebuild_bytes.get() + slot_len);
        let slot = item.slot as u64;
        sim.emit(|| ev(Track::Sys, EventKind::RebuildCopy, req, slot, slot_len));
    }
    sim.emit(|| {
        ev(
            Track::Sys,
            EventKind::RebuildDone,
            req,
            stats.slots_copied,
            stats.bytes_copied,
        )
    });
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_paces_a_stream() {
        let sim = Sim::new(1);
        let s2 = sim.clone();
        let h = sim.spawn(async move {
            let mut bucket = TokenBucket::new(s2.clone(), 1_000_000, 1_000);
            // Burst covers the first chunk; nine more at 1 MB/s must
            // take 9 ms of simulated time.
            for _ in 0..10 {
                bucket.take(1_000).await;
            }
            s2.now().as_nanos()
        });
        sim.run();
        assert_eq!(h.try_take(), Some(9_000_000));
    }
}
