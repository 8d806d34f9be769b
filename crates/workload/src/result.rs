//! Run results.
//!
//! The paper's primary metric is the **read bandwidth seen by the
//! application**: total bytes read by all nodes, divided by the time a
//! compute node takes to complete all its read calls (the collective is
//! complete when the slowest node finishes). Per-request access times
//! (Table 2) and per-node fairness (the "benefits should be equally
//! distributed" check) are tracked alongside.

use paragon_core::PrefetchStats;
use paragon_metrics::MetricsSnapshot;
use paragon_sim::{SimDuration, TraceEvent};

use crate::work::Work;

/// What one compute node measured.
#[derive(Debug, Clone, Default)]
pub struct NodeResult {
    /// Node rank.
    pub rank: usize,
    /// Reads performed successfully.
    pub reads: u64,
    /// Reads that failed even after the client's retry policy (possible
    /// only under injected faults; a fault-free run never errors).
    pub read_errors: u64,
    /// Reads whose bytes differed from the populated pattern (checked
    /// only under `verify_data`).
    pub verify_failures: u64,
    /// Bytes delivered to the application (a writer: bytes written).
    pub bytes: u64,
    /// Wall time from the measured phase's start to this node's last
    /// completion.
    pub elapsed: SimDuration,
    /// Every successful request's access time, issue order.
    pub read_times: Vec<SimDuration>,
    /// Prefetch counters (when the prototype was enabled).
    pub prefetch: Option<PrefetchStats>,
}

impl NodeResult {
    /// Sum of per-request access times.
    pub fn read_time_total(&self) -> SimDuration {
        self.read_times
            .iter()
            .fold(SimDuration::ZERO, |acc, &t| acc + t)
    }

    /// Slowest single request (zero without reads).
    pub fn read_time_max(&self) -> SimDuration {
        self.read_times.iter().copied().max().unwrap_or_default()
    }

    /// Fastest single request (zero without reads).
    pub fn read_time_min(&self) -> SimDuration {
        self.read_times.iter().copied().min().unwrap_or_default()
    }

    /// This node's observed bandwidth, bytes/second.
    pub(crate) fn bandwidth(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.bytes as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// What one experiment run measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Per-node measurements, rank order.
    pub per_node: Vec<NodeResult>,
    /// Collective elapsed time (start of measured phase → last node done).
    pub elapsed: SimDuration,
    /// Bytes moved across all nodes.
    pub total_bytes: u64,
    /// Aggregated prefetch counters (zeroed when disabled).
    pub prefetch: PrefetchStats,
    /// Whether the prototype prefetcher was on.
    pub prefetch_enabled: bool,
    /// Event-trace hash of the whole simulation (determinism checks).
    pub trace_hash: u64,
    /// Every layer's work over the whole simulation, setup included,
    /// taken when the run drained. `sim.polls` is host work the trace
    /// hash misses, since a spurious wake adds a poll but no event.
    pub work: Work,
    /// Number of data-verification mismatches (0 unless `verify_data`
    /// caught corruption — always a bug).
    pub verify_failures: u64,
    /// Reads that failed across all nodes (under injected faults only).
    pub read_errors: u64,
    /// Recovery-coordinator counters (`None` unless a replicated run's
    /// I/O-node crash triggered online re-replication).
    pub rebuild: Option<paragon_pfs::RebuildStats>,
    /// Stripe slots still awaiting re-replication when the simulation
    /// drained — must be 0 whenever a rebuild ran to completion.
    pub rebuild_pending: u64,
    /// Trace events (empty unless `trace_cap` was set in the config).
    pub trace: Vec<TraceEvent>,
    /// Telemetry snapshot (`None` unless `metrics_cadence` was set).
    pub metrics: Option<MetricsSnapshot>,
    /// The [`Work`] at the measured phase's start and end (`None`
    /// unless `metrics_cadence` was set).
    pub phase_work: Option<[Work; 2]>,
}

impl RunResult {
    /// The paper's headline metric: aggregate application bandwidth in
    /// MB/s (1 MB = 2^20 bytes) over the bytes the nodes moved.
    pub fn bandwidth_mb_s(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.total_bytes as f64 / (1 << 20) as f64 / self.elapsed.as_secs_f64()
    }

    /// Mean per-request read access time across all nodes (Table 2).
    pub fn read_time_mean(&self) -> SimDuration {
        let reads: u64 = self.per_node.iter().map(|n| n.reads).sum();
        if reads == 0 {
            return SimDuration::ZERO;
        }
        let total = self
            .per_node
            .iter()
            .fold(SimDuration::ZERO, |acc, n| acc + n.read_time_total());
        total / reads
    }

    /// Per-node bandwidths, rank order (fairness analysis).
    pub fn per_node_bandwidths(&self) -> Vec<f64> {
        self.per_node.iter().map(|n| n.bandwidth()).collect()
    }

    /// Every request's access time across all nodes, as seconds, in an
    /// exact-quantile histogram.
    pub fn access_time_histogram(&self) -> paragon_metrics::Histogram {
        let mut h = paragon_metrics::Histogram::new();
        for n in &self.per_node {
            for &t in &n.read_times {
                h.record(t.as_secs_f64());
            }
        }
        h
    }

    /// Relative spread of per-node bandwidths: `(max−min)/mean`.
    pub fn node_imbalance(&self) -> f64 {
        let bws = self.per_node_bandwidths();
        let mean = bws.iter().sum::<f64>() / bws.len().max(1) as f64;
        if bws.is_empty() || mean == 0.0 {
            return 0.0;
        }
        let max = bws.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = bws.iter().cloned().fold(f64::INFINITY, f64::min);
        (max - min) / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four reads that take `ms` in all, the last one the slowest.
    fn node(rank: usize, bytes: u64, ms: u64) -> NodeResult {
        let quarter = SimDuration::from_millis(ms / 4);
        NodeResult {
            rank,
            reads: 4,
            bytes,
            elapsed: SimDuration::from_millis(ms),
            read_times: vec![
                quarter,
                quarter - quarter / 2,
                quarter,
                quarter + quarter / 2,
            ],
            ..NodeResult::default()
        }
    }

    #[test]
    fn bandwidth_uses_collective_time() {
        let r = RunResult {
            per_node: vec![node(0, 1 << 20, 500), node(1, 1 << 20, 1000)],
            elapsed: SimDuration::from_millis(1000),
            total_bytes: 2 << 20,
            ..RunResult::default()
        };
        assert!((r.bandwidth_mb_s() - 2.0).abs() < 1e-9);
        // Mean access time over 8 reads = (500+1000)/8 ms.
        assert_eq!(r.read_time_mean(), SimDuration::from_micros(187_500));
        let n = &r.per_node[1];
        assert_eq!(n.read_time_total(), SimDuration::from_millis(1000));
        assert_eq!(n.read_time_max(), SimDuration::from_millis(375));
        assert_eq!(n.read_time_min(), SimDuration::from_millis(125));
    }

    #[test]
    fn imbalance_is_zero_for_equal_nodes() {
        let r = RunResult {
            per_node: vec![node(0, 100, 10), node(1, 100, 10)],
            elapsed: SimDuration::from_millis(10),
            total_bytes: 200,
            ..RunResult::default()
        };
        assert_eq!(r.node_imbalance(), 0.0);
    }

    #[test]
    fn node_bandwidth_handles_zero_reads() {
        let mut n = node(0, 0, 0);
        n.reads = 0;
        n.read_times.clear();
        assert_eq!(n.bandwidth(), 0.0);
        assert_eq!(n.read_time_min(), SimDuration::ZERO);
        assert_eq!(n.read_time_max(), SimDuration::ZERO);
    }
}
