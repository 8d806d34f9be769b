//! Disk timing parameters.
//!
//! The model is first-order: a request costs controller overhead +
//! positioning (seek + rotational latency, skipped for sequential access
//! that a track buffer would absorb) + media transfer. Parameters are
//! calibrated in `paragon-machine::calib` so that an 8-compute-node
//! collective 1024 KB read costs ≈ 0.45 s, matching Table 2 of the paper.

use paragon_sim::SimDuration;

/// Timing and geometry parameters for one spindle.
#[derive(Debug, Clone)]
pub struct DiskParams {
    /// Average random seek time.
    pub avg_seek: SimDuration,
    /// Track-to-track ("near") seek time.
    pub track_seek: SimDuration,
    /// Full platter revolution period (avg rotational delay is half this).
    pub rotation: SimDuration,
    /// Sustained media transfer rate, bytes/second.
    pub transfer_bw: f64,
    /// Fixed per-request controller + driver overhead.
    pub controller_overhead: SimDuration,
    /// Head distance (bytes) under which a seek counts as track-to-track.
    pub near_threshold: u64,
    /// Forward gap (bytes) the track buffer covers: a request starting
    /// within this window after the previous end pays no positioning cost.
    pub sequential_window: u64,
    /// Relative jitter (0.0..1.0) applied to positioning times, drawn from
    /// the disk's deterministic RNG stream.
    pub seek_jitter: f64,
    /// Read-cache segments: the drive tracks this many concurrent
    /// sequential streams (segmented track caches were standard by the
    /// mid-90s precisely to serve multi-stream server workloads). A
    /// request within `sequential_window` of any segment is positioned
    /// for free.
    pub cache_segments: usize,
}

impl DiskParams {
    /// A circa-1995 SCSI drive of the class used in Paragon RAID-3 arrays.
    ///
    /// ~9 ms average seek, 1.5 ms track-to-track, 4500 RPM, ~1.1 MB/s
    /// sustained media rate, ~1.1 ms controller overhead per request.
    pub fn scsi_1995() -> Self {
        DiskParams {
            avg_seek: SimDuration::from_micros(9_000),
            track_seek: SimDuration::from_micros(1_500),
            rotation: SimDuration::from_micros(13_333), // 4500 RPM
            transfer_bw: 1.1e6,
            controller_overhead: SimDuration::from_micros(1_100),
            near_threshold: 1024 * 1024,
            sequential_window: 512 * 1024,
            seek_jitter: 0.25,
            cache_segments: 8,
        }
    }

    /// An idealized disk with zero positioning costs; useful in unit tests
    /// where only bandwidth matters.
    pub fn ideal(transfer_bw: f64) -> Self {
        DiskParams {
            avg_seek: SimDuration::ZERO,
            track_seek: SimDuration::ZERO,
            rotation: SimDuration::ZERO,
            transfer_bw,
            controller_overhead: SimDuration::ZERO,
            near_threshold: 0,
            sequential_window: u64::MAX,
            seek_jitter: 0.0,
            cache_segments: 1,
        }
    }

    /// Pure media-transfer time for `len` bytes.
    pub(crate) fn transfer_time(&self, len: u64) -> SimDuration {
        if len == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::for_bytes(len, self.transfer_bw)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly() {
        let p = DiskParams::ideal(1_000_000.0);
        assert_eq!(p.transfer_time(1_000_000), SimDuration::from_secs(1));
        assert_eq!(p.transfer_time(500_000), SimDuration::from_millis(500));
        assert_eq!(p.transfer_time(0), SimDuration::ZERO);
    }

    #[test]
    fn scsi_1995_is_self_consistent() {
        let p = DiskParams::scsi_1995();
        assert!(p.track_seek < p.avg_seek);
        assert!(p.sequential_window <= p.near_threshold);
        // A 64 KB transfer takes ~60 ms at 1.1 MB/s.
        let t = p.transfer_time(64 * 1024).as_millis();
        assert!((50..80).contains(&t), "unexpected transfer time {t} ms");
    }
}
