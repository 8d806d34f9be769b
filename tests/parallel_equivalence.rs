//! The parallel kernel is an equivalence, not an approximation: at a
//! fixed shard count, the merged result is a pure function of
//! `(seed, config)` — the host-thread count maps worlds to threads and
//! nothing else. Every EXT-matrix config (all six I/O modes, every
//! access pattern, prefetch, both stripe layouts, the buffered mount,
//! mesh/disk fault injection) plus a faults-armed crash-and-rebuild run
//! must produce byte-identical traces, metrics, and per-node results at
//! `--workers 1` and `--workers 4` when forced onto four shard worlds.

mod common;

use common::{cfg, crash_and_rebuild, ext_matrix};
use paragon::pfs::IoMode;
use paragon::sim::SimDuration;
use paragon::workload::{run, ExperimentConfig, RunResult, StripeLayout};

/// Force `c` onto four shard worlds with the recorder armed, driven by
/// `workers` host threads.
fn sharded(mut c: ExperimentConfig, workers: usize) -> ExperimentConfig {
    c.shards = Some(4);
    c.workers = workers;
    if c.trace_cap == 0 {
        c.trace_cap = 200_000;
    }
    c
}

/// Byte-level comparison of two runs of the same sharded config.
fn assert_equivalent(name: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.trace_hash, b.trace_hash, "{name}: trace hash diverged");
    assert_eq!(a.trace, b.trace, "{name}: recorded event streams diverged");
    assert_eq!(a.elapsed, b.elapsed, "{name}: simulated time diverged");
    assert_eq!(a.total_bytes, b.total_bytes, "{name}: bytes diverged");
    assert_eq!(a.read_errors, b.read_errors, "{name}: read errors diverged");
    assert_eq!(
        a.verify_failures, b.verify_failures,
        "{name}: verification diverged"
    );
    assert_eq!(a.per_node.len(), b.per_node.len(), "{name}");
    for (na, nb) in a.per_node.iter().zip(&b.per_node) {
        assert_eq!(na.rank, nb.rank, "{name}: rank order diverged");
        assert_eq!(na.reads, nb.reads, "{name}: rank {} reads", na.rank);
        assert_eq!(na.bytes, nb.bytes, "{name}: rank {} bytes", na.rank);
        assert_eq!(
            na.read_time_total, nb.read_time_total,
            "{name}: rank {} timing",
            na.rank
        );
    }
    assert_eq!(
        a.prefetch.hits(),
        b.prefetch.hits(),
        "{name}: prefetch hits diverged"
    );
    assert_eq!(a.prefetch.wasted, b.prefetch.wasted, "{name}");
    assert_eq!(
        a.fault.disk_transients, b.fault.disk_transients,
        "{name}: injected disk faults diverged"
    );
    assert_eq!(
        a.fault.mesh_dropped, b.fault.mesh_dropped,
        "{name}: injected mesh faults diverged"
    );
    assert_eq!(a.disk.requests, b.disk.requests, "{name}: disk requests");
    assert_eq!(
        a.disk.max_queue_depth, b.disk.max_queue_depth,
        "{name}: disk queue depth"
    );
    assert_eq!(a.metrics, b.metrics, "{name}: metrics snapshot diverged");
}

#[test]
fn every_ext_config_is_worker_invariant_on_four_shards() {
    for (name, base) in ext_matrix() {
        let a = run(&sharded(base.clone(), 1));
        let b = run(&sharded(base, 4));
        assert_equivalent(name, &a, &b);
        assert!(!a.trace.is_empty(), "{name}: recorder never fired");
    }
}

#[test]
fn instrumented_run_is_worker_invariant() {
    // The telemetry sampler ticks per world and the merged snapshot
    // (pointwise-summed gauges, summed counters, rebuilt histograms)
    // must not see the thread count either.
    let mut c = cfg(31, IoMode::MRecord).with_prefetch();
    c.metrics_cadence = Some(SimDuration::from_millis(5));
    let a = run(&sharded(c.clone(), 1));
    let b = run(&sharded(c, 4));
    assert_equivalent("instrumented", &a, &b);
    let m = a.metrics.expect("sampler armed but no snapshot");
    assert!(!m.times_ns.is_empty(), "merged snapshot lost its timeline");
    assert!(
        m.hists.contains_key("read.time_s"),
        "merged snapshot lost the access-time histogram"
    );
}

/// Frozen trace hash and simulated time of the 1024×128 full-machine
/// smoke below, captured at the tier's introduction. The shape
/// auto-shards onto four worlds, so this pins the *merged* parallel
/// kernel output: a mismatch means the shard cut, epoch schedule, or
/// merge reordered something — not that the golden needs regenerating.
const GOLDEN_1024X128: (u64, u64) = (0xa80c32023a1eb70e, 3_754_046_001);

#[test]
#[ignore = "full-machine smoke; run in release by scripts/ci.sh === parallel"]
fn full_machine_1024x128_pins_the_merged_golden() {
    let mut c = cfg(42, IoMode::MRecord);
    c.compute_nodes = 1024;
    c.io_nodes = 128;
    c.layout = StripeLayout::Across { factor: 128 };
    c.file_size = 1024 << 20; // 1 MB per compute node
    c.delay = SimDuration::from_millis(25);
    c.workers = 0; // all host cores; cannot affect the bytes
    assert_eq!(
        c.resolved_shards(),
        4,
        "1024 CNs must auto-shard onto four worlds"
    );
    let r = run(&c);
    assert_eq!(r.total_bytes, 1 << 30, "coverage lost across the cut");
    assert_eq!(r.verify_failures, 0);
    assert_eq!(r.read_errors, 0);
    assert_eq!(r.per_node.len(), 1024);
    let (hash, elapsed_ns) = GOLDEN_1024X128;
    assert_eq!(
        r.trace_hash, hash,
        "merged trace hash diverged (got {:#018x})",
        r.trace_hash
    );
    assert_eq!(
        r.elapsed,
        SimDuration::from_nanos(elapsed_ns),
        "simulated time diverged (got {} ns)",
        r.elapsed.as_nanos()
    );
}

#[test]
fn crash_and_rebuild_are_worker_invariant() {
    // The hardest case: an I/O-node crash under RF=2 replication with
    // the recovery coordinator re-replicating *across the shard cut*
    // (each target I/O node lives in a different world than the
    // coordinator) while foreground reads fail over. Still byte-equal.
    let c = crash_and_rebuild(44);
    let a = run(&sharded(c.clone(), 1));
    let b = run(&sharded(c, 4));
    assert_equivalent("crash-rebuild", &a, &b);
    // And the run must exercise what it claims to: failover masked the
    // crash, the rebuild actually copied data, and the queue drained.
    assert_eq!(a.read_errors, 0, "replica failover must mask the crash");
    assert_eq!(a.verify_failures, 0, "failover returned wrong bytes");
    assert!(a.replica_failovers > 0, "crash window never bit");
    let (ra, rb) = (
        a.rebuild.expect("no rebuild ran"),
        b.rebuild.expect("no rebuild ran"),
    );
    assert_eq!(ra.slots_copied, rb.slots_copied);
    assert_eq!(ra.bytes_copied, rb.bytes_copied);
    assert!(ra.slots_copied > 0 && ra.bytes_copied > 0);
    assert_eq!(a.rebuild_pending, 0, "rebuild queue did not drain");
    assert_eq!(b.rebuild_pending, 0);
}
