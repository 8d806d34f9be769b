//! The paper's findings hold on the records the repository commits, and
//! what no record holds is checked on runs of its own: FIG4's spread of
//! the gain over the nodes, the prefetcher's overlap accounting, and the
//! 512×64 full-machine golden.

use paragon::metrics::ExperimentRecord;
use paragon::sim::SimDuration;
use paragon::workload::{run, ExperimentConfig, StripeLayout};
use paragon_bench::claims;

/// Every claim of the experiment table holds on its committed record in
/// `results/`, so a re-bless that breaks a finding fails here, naming it.
#[test]
fn committed_records_show_every_claimed_finding() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut failed = Vec::new();
    for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.extension() == Some("json".as_ref()) {
            let text = std::fs::read_to_string(&path).unwrap();
            let record = ExperimentRecord::from_json(&text).unwrap();
            let checked: Vec<_> = claims(&record).collect();
            assert!(!checked.is_empty(), "{}: no claims", record.id);
            let contradicted = checked.iter().filter(|(_, m)| m.is_nan() || *m < 0.0);
            failed.extend(contradicted.map(|(c, m)| format!("{}/{} ({m:.4})", record.id, c.name)));
        }
    }
    assert!(
        failed.is_empty(),
        "the committed records contradict {failed:?}"
    );
}

/// The paper's testbed with a smaller file (2 MB/node) so debug-mode
/// tests stay fast.
fn testbed(request: u32) -> ExperimentConfig {
    ExperimentConfig::paper_iobound(request, 2)
}

#[test]
fn prefetch_benefits_are_evenly_distributed() {
    // "The prefetching benefits should be equally distributed amongst the
    // processors in order to see an overall benefit."
    let mut cfg = testbed(64 * 1024);
    cfg.delay = SimDuration::from_millis(25);
    let pf = run(&cfg.with_prefetch());
    assert!(
        pf.node_imbalance() < 0.15,
        "per-node bandwidths spread too wide: {:?}",
        pf.per_node_bandwidths()
    );
}

#[test]
fn full_machine_512x64_smoke_is_deterministic_and_bounded() {
    // Paper §5 future work, scaled to a full 512-node Paragon with 64
    // I/O nodes (the 8:1 oversubscription the EXT-SCALING sweep tops out
    // at). A small per-node file (128 KB) bounds memory and keeps the
    // debug-mode run short. The point is that the run is
    // byte-reproducible at full machine scale and that its host work is
    // bounded: the task polls and store copies are pinned exactly, so an
    // engine or data-path change that adds work fails here on any host.
    let mut cfg =
        ExperimentConfig::paper_balanced(64 * 1024, SimDuration::from_millis(25)).with_prefetch();
    cfg.compute_nodes = 512;
    cfg.io_nodes = 64;
    cfg.layout = StripeLayout::Across { factor: 64 };
    cfg.file_size = 512 * 128 * 1024;
    let r = run(&cfg);
    assert_eq!(r.total_bytes, 512 * 128 * 1024);
    assert_eq!(r.per_node.len(), 512);
    assert!(r.per_node.iter().all(|n| n.reads == 2));
    assert_eq!(r.verify_failures, 0);
    assert_eq!(r.read_errors, 0);
    // Committed golden: the prefetch hit summary, the simulated elapsed
    // time, and the event-trace hash of the whole run. Any scheduler or
    // protocol change that perturbs the event stream at full scale shows
    // up here first; the hit counters pin the oversubscribed-shape
    // behavior the EXT-SCALING sweep reports (one prefetch per node
    // lands, the second read of each 2-read script hits).
    assert_eq!(
        (
            r.prefetch.issued,
            r.prefetch.hits_ready,
            r.prefetch.hits_inflight
        ),
        GOLDEN_512X64.0,
        "prefetch summary"
    );
    assert_eq!(r.elapsed, SimDuration::from_nanos(GOLDEN_512X64.1));
    assert_eq!(
        r.trace_hash, GOLDEN_512X64.2,
        "trace hash {:#x}",
        r.trace_hash
    );
    assert_eq!(
        (
            r.work.get("sim.polls"),
            r.work.get("disk.store.bytes_copied")
        ),
        GOLDEN_512X64.3,
        "(task polls, store bytes copied)"
    );
}

/// `((prefetches issued, ready hits, in-flight hits), elapsed simulated
/// ns, trace hash, (task polls, store bytes copied))` for the 512×64
/// smoke shape. The hash and polls were re-pinned once, when dropped
/// sleeps began to cancel their timers: 1,024 stale attempt timeouts
/// and their 1,024 stale wakes left, nothing else moved. A mismatch
/// means the event stream or the host's work changed.
const GOLDEN_512X64: ((u64, u64, u64), u64, u64, (u64, u64)) = (
    (512, 0, 512),
    475_957_416,
    0xd820_eff9_597d_9fe5,
    (34_590, 0),
);

#[test]
fn prefetching_hides_latency_it_claims_to_hide() {
    // The engine's overlap accounting must be consistent: latency hidden
    // can never exceed (issued prefetches × max single read time).
    let mut cfg = testbed(64 * 1024);
    cfg.delay = SimDuration::from_millis(25);
    let pf = run(&cfg.with_prefetch());
    let max_read = pf.per_node.iter().map(|n| n.read_time_max()).max().unwrap();
    let bound = max_read * pf.prefetch.issued.max(1);
    assert!(pf.prefetch.overlap_saved > SimDuration::ZERO);
    assert!(pf.prefetch.overlap_saved < bound);
}
