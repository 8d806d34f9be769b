//! Prefetch accounting.
//!
//! The paper argues hit ratio alone is the wrong metric for a parallel
//! file system — observed collective read bandwidth and the amount of
//! I/O/compute overlap matter more — so the engine tracks all three
//! ingredients: hit kinds (ready vs still-in-flight), copy traffic, and
//! the latency each hit actually hid.

use paragon_sim::SimDuration;

/// Cumulative counters of one prefetching file handle.
#[derive(Debug, Default, Clone)]
pub struct PrefetchStats {
    /// Prefetch requests issued.
    pub issued: u64,
    /// Prefetches suppressed (would run past EOF or duplicate an entry).
    pub suppressed: u64,
    /// Demand reads answered by a completed prefetch buffer.
    pub hits_ready: u64,
    /// Demand reads that found their prefetch still in flight and waited
    /// for the remainder.
    pub hits_inflight: u64,
    /// Demand reads with no matching prefetch buffer.
    pub misses: u64,
    /// Demand reads whose prefetch buffer joined with an error but whose
    /// retried fallback — riding the client's retry policy and, on a
    /// replicated mount, replica failover — served the bytes anyway. The
    /// speculation *did* cover the access, so these count as hits, not
    /// misses; only a fallback that also fails is a miss.
    pub recovered: u64,
    /// Prefetched buffers evicted or discarded unused.
    pub wasted: u64,
    /// Prefetches abandoned while still in flight at close (a subset of
    /// `wasted`): the transfer keeps running on its ART, the data is
    /// dropped on arrival.
    pub cancelled: u64,
    /// Prefetches that completed with an error (injected fault, device
    /// failure); each is also `wasted`, and each triggered a demand-read
    /// fallback.
    pub faults: u64,
    /// Times the engine quarantined itself after a run of failed
    /// prefetches.
    pub throttles: u64,
    /// Times the engine resumed speculation after a throttle.
    pub resumes: u64,
    /// Prefetch slots skipped while throttled.
    pub throttled_skips: u64,
    /// Bytes copied prefetch buffer → user buffer (the extra copy Fast
    /// Path would have avoided).
    pub bytes_copied: u64,
    /// Total I/O latency hidden from the application: for a ready hit the
    /// buffer's whole service time, for an in-flight hit the portion that
    /// ran before the demand read arrived.
    pub overlap_saved: SimDuration,
    /// Time demand reads spent waiting on in-flight prefetches.
    pub inflight_wait: SimDuration,
}

impl PrefetchStats {
    /// Demand reads the speculation covered, any kind: served straight
    /// from a prefetch buffer, or recovered by the retried fallback
    /// after the buffer joined with an error.
    pub fn hits(&self) -> u64 {
        self.hits_ready + self.hits_inflight + self.recovered
    }

    /// Demand reads observed.
    pub fn demand_reads(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Hit ratio in [0, 1]; zero before any read.
    pub fn hit_ratio(&self) -> f64 {
        let n = self.demand_reads();
        if n == 0 {
            0.0
        } else {
            self.hits() as f64 / n as f64
        }
    }

    /// Merge another handle's counters into this one (per-node → per-run
    /// aggregation).
    pub fn merge(&mut self, other: &PrefetchStats) {
        self.issued += other.issued;
        self.suppressed += other.suppressed;
        self.hits_ready += other.hits_ready;
        self.hits_inflight += other.hits_inflight;
        self.misses += other.misses;
        self.recovered += other.recovered;
        self.wasted += other.wasted;
        self.cancelled += other.cancelled;
        self.faults += other.faults;
        self.throttles += other.throttles;
        self.resumes += other.resumes;
        self.throttled_skips += other.throttled_skips;
        self.bytes_copied += other.bytes_copied;
        self.overlap_saved += other.overlap_saved;
        self.inflight_wait += other.inflight_wait;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_empty_and_full() {
        let mut s = PrefetchStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits_ready = 3;
        s.hits_inflight = 1;
        s.misses = 4;
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = PrefetchStats {
            issued: 1,
            suppressed: 2,
            hits_ready: 3,
            hits_inflight: 4,
            misses: 5,
            recovered: 1,
            wasted: 6,
            cancelled: 1,
            faults: 2,
            throttles: 1,
            resumes: 1,
            throttled_skips: 3,
            bytes_copied: 7,
            overlap_saved: SimDuration::from_millis(8),
            inflight_wait: SimDuration::from_millis(9),
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.issued, 2);
        assert_eq!(a.misses, 10);
        assert_eq!(a.faults, 4);
        assert_eq!(a.throttles, 2);
        assert_eq!(a.resumes, 2);
        assert_eq!(a.throttled_skips, 6);
        assert_eq!(a.overlap_saved, SimDuration::from_millis(16));
        assert_eq!(a.recovered, 2);
        assert_eq!(a.demand_reads(), 26);
    }
}
