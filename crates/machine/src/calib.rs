//! Calibration constants for the simulated Paragon.
//!
//! Every timing number in the reproduction lives here, so the whole model
//! can be audited (and re-calibrated) in one place. The headline target is
//! Table 2 of the paper: with 8 compute nodes collectively reading a shared
//! file over 8 I/O nodes (64 KB blocks, stripe factor 8), a 1024 KB
//! per-node request must cost ≈ 0.45 s, a 64 KB request ≈ 0.03–0.06 s, and
//! aggregate M_RECORD bandwidth must land in the paper's 2–20 MB/s band.
//!
//! Provenance of the values:
//!
//! * **Disks** — circa-1995 SCSI RAID-3 per I/O node: ~2.3 MB/s sustained
//!   logical reads (3 members × 0.78 MB/s media rate, fitted to the
//!   Table 2 anchor), 9 ms average seeks, 4500 RPM, 8-segment controller
//!   read cache, N-step SCAN queueing. The paper's SCSI-8 cards cap each
//!   I/O node well below the mesh rate, which is why the mesh never
//!   bottlenecks.
//! * **Mesh** — 175 MB/s links, 40 ns/hop routers (Paragon data sheet);
//!   ~60 µs OSF/1 software overhead per side.
//! * **Software** — ~300 µs client syscall, ~150 µs ART dispatch, ~1 ms
//!   PFS server per-request processing: the production-OS overheads the
//!   paper stresses are present in its prototype.
//! * **Copies** — ~45 MB/s i860 memcpy; the prefetch-hit copy and the
//!   buffered-read copy both pay it.

use paragon_disk::{DiskParams, SchedPolicy};
use paragon_mesh::MeshParams;
use paragon_sim::SimDuration;
use paragon_ufs::UfsParams;

/// Complete timing calibration of one simulated machine.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Per-member disk timing.
    pub disk: DiskParams,
    /// Disk queue discipline.
    pub sched: SchedPolicy,
    /// Member spindles per I/O-node RAID array.
    pub raid_members: usize,
    /// RAID interleave in bytes.
    pub raid_interleave: u64,
    /// Add a parity member to every array so reads can reconstruct
    /// around one dead data member (degraded mode) at the cost of the
    /// extra spindle and read-modify-write parity updates.
    pub raid_parity: bool,
    /// Mesh timing.
    pub mesh: MeshParams,
    /// File-system block size (the PFS transfer unit), bytes.
    pub fs_block: u64,
    /// UFS partition size per I/O node, in fs blocks.
    pub ufs_capacity_blocks: u64,
    /// UFS buffer-cache capacity in blocks (used only when PFS buffering
    /// is enabled; Fast Path bypasses it).
    pub ufs_cache_blocks: usize,
    /// I/O-node memory copy bandwidth (cache → transfer buffer), bytes/s.
    pub ion_copy_bw: f64,
    /// Compute-node memory copy bandwidth (prefetch buffer → user buffer),
    /// bytes/s.
    pub cn_copy_bw: f64,
    /// Client-side system call overhead per PFS call.
    pub syscall: SimDuration,
    /// ART setup cost (allocate request structure, enqueue on active list).
    pub art_setup: SimDuration,
    /// ART dispatch cost (thread begins processing a queued request).
    pub art_dispatch: SimDuration,
    /// Maximum concurrently-posting ARTs per node.
    pub max_arts: usize,
    /// PFS server per-request processing cost at the I/O node.
    pub server_request: SimDuration,
    /// PFS server thread-pool size per I/O node (requests beyond this
    /// queue; small stripe units fan one client read into many server
    /// requests, and this is where their per-piece overheads aggregate).
    pub server_threads: usize,
    /// Extra server cost when a request is not block-aligned (temporary
    /// buffer management for partial blocks).
    pub partial_block_penalty: SimDuration,
    /// Pointer-server cost per shared-file-pointer operation.
    pub pointer_op: SimDuration,
    /// Client-side bookkeeping for node-ordered record accounting
    /// (M_RECORD pays this; M_ASYNC does not).
    pub record_bookkeeping: SimDuration,
    /// Per-request shared-file consistency check at the server (all shared
    /// modes pay it; separate files do not).
    pub shared_file_check: SimDuration,
    /// UFS metadata operation cost.
    pub metadata_op: SimDuration,
    /// Client deadline per data-transfer RPC attempt (positioned reads
    /// and writes — the idempotent legs). Generous next to a healthy
    /// worst-case leg so it only fires under injected faults.
    pub rpc_attempt_timeout: SimDuration,
    /// Extra attempts after a failed data-transfer RPC.
    pub rpc_retries: u32,
    /// Linear backoff base between data-transfer RPC attempts.
    pub rpc_backoff: SimDuration,
}

impl Calibration {
    /// The paper's testbed: 8+8 Paragon, SCSI-8 RAID arrays, 64 KB blocks.
    pub fn paragon_1995() -> Self {
        Calibration {
            // scsi_1995 with the media rate trimmed so an 8-node 1024 KB
            // collective read costs ≈ 0.45 s (Table 2's headline number).
            disk: DiskParams {
                transfer_bw: 0.78e6,
                ..DiskParams::scsi_1995()
            },
            // The RAID controller sorts its queue: near-offset requests
            // arriving out of order (adjacent records from different
            // compute nodes) are served in disk order, not arrival order.
            sched: SchedPolicy::Elevator,
            raid_members: 3,
            raid_interleave: 8 * 1024,
            raid_parity: false,
            mesh: MeshParams::paragon(),
            fs_block: 64 * 1024,
            ufs_capacity_blocks: 16 * 1024, // 1 GB per I/O node
            ufs_cache_blocks: 128,          // 8 MB
            ion_copy_bw: 60e6,
            cn_copy_bw: 45e6,
            syscall: SimDuration::from_micros(300),
            art_setup: SimDuration::from_micros(150),
            art_dispatch: SimDuration::from_micros(150),
            max_arts: 8,
            server_request: SimDuration::from_micros(1_000),
            server_threads: 2,
            partial_block_penalty: SimDuration::from_micros(2_000),
            // The pointer server is one OS process: operations serialize,
            // and each costs about 5 ms of server-side work —
            // this is what separates the shared-pointer modes from
            // M_RECORD/M_ASYNC in Figure 2.
            pointer_op: SimDuration::from_micros(5_000),
            record_bookkeeping: SimDuration::from_micros(50),
            shared_file_check: SimDuration::from_micros(1_500),
            metadata_op: SimDuration::from_micros(500),
            // A healthy 1 MB leg costs well under a second; 10 s only
            // trips when a fault has eaten the request or the reply.
            rpc_attempt_timeout: SimDuration::from_secs(10),
            rpc_retries: 3,
            rpc_backoff: SimDuration::from_millis(100),
        }
    }

    /// The SCSI-16 upgrade the paper mentions ("effectively quadruples
    /// the bandwidth available on each I/O node"): twice the members on
    /// a wide bus, each sustaining twice the media rate — same software
    /// stack, same overheads, 4x the array bandwidth.
    pub fn paragon_scsi16() -> Self {
        let base = Self::paragon_1995();
        Calibration {
            disk: DiskParams {
                transfer_bw: base.disk.transfer_bw * 2.0,
                ..base.disk
            },
            raid_members: base.raid_members * 2,
            ..base
        }
    }

    /// A fast, overhead-free machine for unit tests of protocol logic,
    /// where only ordering and data integrity matter.
    pub fn instant() -> Self {
        Calibration {
            disk: DiskParams::ideal(1e9),
            sched: SchedPolicy::Fifo,
            raid_members: 1,
            raid_interleave: 64 * 1024,
            raid_parity: false,
            mesh: MeshParams::instant(),
            fs_block: 64 * 1024,
            ufs_capacity_blocks: 16 * 1024,
            ufs_cache_blocks: 128,
            ion_copy_bw: 1e12,
            cn_copy_bw: 1e12,
            syscall: SimDuration::ZERO,
            art_setup: SimDuration::ZERO,
            art_dispatch: SimDuration::ZERO,
            max_arts: 64,
            server_request: SimDuration::ZERO,
            server_threads: 1024,
            partial_block_penalty: SimDuration::ZERO,
            pointer_op: SimDuration::ZERO,
            record_bookkeeping: SimDuration::ZERO,
            shared_file_check: SimDuration::ZERO,
            metadata_op: SimDuration::ZERO,
            rpc_attempt_timeout: SimDuration::from_secs(60),
            rpc_retries: 3,
            rpc_backoff: SimDuration::from_millis(1),
        }
    }

    /// UFS parameters implied by this calibration.
    pub(crate) fn ufs_params(&self) -> UfsParams {
        UfsParams {
            block_size: self.fs_block,
            capacity_blocks: self.ufs_capacity_blocks,
            cache_blocks: self.ufs_cache_blocks,
            copy_bw: self.ion_copy_bw,
            metadata_op: self.metadata_op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sustained logical read bandwidth of one I/O node's array, bytes/s
    /// (media only; overheads come on top).
    fn raid_media_bw(c: &Calibration) -> f64 {
        c.disk.transfer_bw * c.raid_members as f64
    }

    #[test]
    fn paragon_calibration_is_self_consistent() {
        let c = Calibration::paragon_1995();
        // SCSI-8 class: one I/O node sustains roughly 3–4 MB/s.
        let bw = raid_media_bw(&c);
        assert!((2.0e6..5e6).contains(&bw), "RAID bw {bw} out of era range");
        // The mesh must never be the bottleneck next to the disks.
        assert!(c.mesh.link_bw > 10.0 * bw);
        // Partial blocks must cost more than aligned requests.
        assert!(c.partial_block_penalty > c.server_request);
    }

    #[test]
    fn scsi16_quadruples_the_array_bandwidth() {
        let old = Calibration::paragon_1995();
        let new = Calibration::paragon_scsi16();
        let ratio = raid_media_bw(&new) / raid_media_bw(&old);
        assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
        // Software costs are unchanged: the upgrade is hardware-only.
        assert_eq!(new.syscall, old.syscall);
        assert_eq!(new.server_request, old.server_request);
    }

    #[test]
    fn instant_calibration_has_no_overheads() {
        let c = Calibration::instant();
        assert!(c.syscall.is_zero());
        assert!(c.server_request.is_zero());
        assert!(c.art_setup.is_zero());
    }

    #[test]
    fn ufs_params_inherit_block_size() {
        let c = Calibration::paragon_1995();
        assert_eq!(c.ufs_params().block_size, c.fs_block);
        assert_eq!(c.ufs_params().copy_bw, c.ion_copy_bw);
    }
}
