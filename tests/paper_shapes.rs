//! The paper's qualitative findings, asserted as tests. These run the
//! real 1995 calibration on reduced file sizes, so every claim the
//! `paragonctl reproduce` prints is also enforced by `cargo test`.

use paragon::pfs::IoMode;
use paragon::sim::SimDuration;
use paragon::workload::{run, ExperimentConfig, StripeLayout};

/// The paper's testbed with a smaller file (2 MB/node) so debug-mode
/// tests stay fast.
fn testbed(request: u32) -> ExperimentConfig {
    ExperimentConfig::paper_iobound(request, 2)
}

#[test]
fn iobound_prefetching_gives_no_significant_benefit() {
    // Table 1: no computation to overlap ⇒ bandwidths comparable, with a
    // slight penalty from the buffer copy and issue overhead.
    for sz in [64 * 1024u32, 256 * 1024] {
        let no_pf = run(&testbed(sz));
        let pf = run(&testbed(sz).with_prefetch());
        let ratio = pf.bandwidth_mb_s() / no_pf.bandwidth_mb_s();
        assert!(
            (0.85..=1.05).contains(&ratio),
            "{} KB: I/O-bound prefetch ratio {ratio} out of band",
            sz / 1024
        );
        assert!(ratio <= 1.01, "prefetching must not win without overlap");
    }
}

#[test]
fn iobound_hits_are_inflight_not_ready() {
    // "The prefetch request ... does not have a significant head start":
    // the hits exist but the data is still in flight when demanded.
    let pf = run(&testbed(64 * 1024).with_prefetch());
    assert!(pf.prefetch.hits_inflight > 0);
    assert!(pf.prefetch.hits_inflight > 10 * pf.prefetch.hits_ready.max(1));
}

#[test]
fn balanced_workload_prefetching_wins_when_delay_matches_read_time() {
    // Figures 4: at 64 KB the read costs ~40 ms; a 25 ms compute phase
    // overlaps almost fully.
    let mut cfg = testbed(64 * 1024);
    cfg.delay = SimDuration::from_millis(25);
    let no_pf = run(&cfg);
    let pf = run(&cfg.clone().with_prefetch());
    let gain = pf.bandwidth_mb_s() / no_pf.bandwidth_mb_s();
    assert!(
        gain > 1.25,
        "expected a significant balanced win, got {gain}"
    );
    // With delay < T the hit is typically still in flight — "even if at
    // the time of a read request the data is not available ... if most of
    // the read is already done, the performance benefits can be
    // tremendous".
    assert!(pf.prefetch.hits_inflight > 0);

    // Once the delay exceeds the read time, the prefetch completes inside
    // the compute phase and the hits arrive *ready*.
    let mut cfg = testbed(64 * 1024);
    cfg.delay = SimDuration::from_millis(60);
    let pf = run(&cfg.with_prefetch());
    assert!(pf.prefetch.hits_ready > pf.prefetch.hits_inflight);
}

#[test]
fn large_requests_see_no_overlap_from_small_delays() {
    // Figure 5: T(1024 KB) ≈ 0.45 s dwarfs a 0.1 s delay.
    let mut cfg = testbed(1024 * 1024);
    cfg.delay = SimDuration::from_millis(100);
    let no_pf = run(&cfg);
    let pf = run(&cfg.clone().with_prefetch());
    let gain = pf.bandwidth_mb_s() / no_pf.bandwidth_mb_s();
    assert!(
        (0.85..1.15).contains(&gain),
        "no significant gain expected at 1024 KB with 0.1 s delay, got {gain}"
    );
}

#[test]
fn read_access_time_grows_with_request_size() {
    // Table 2, including the 0.45 s anchor at 1024 KB.
    let mut last = SimDuration::ZERO;
    for sz in [64 * 1024u32, 256 * 1024, 1024 * 1024] {
        let r = run(&testbed(sz));
        let t = r.read_time_mean();
        assert!(t > last, "access time must grow with request size");
        last = t;
    }
    let t = last.as_secs_f64();
    assert!(
        (0.3..0.6).contains(&t),
        "1024 KB access time {t:.3}s misses the paper's ~0.45 s anchor"
    );
}

#[test]
fn striping_across_eight_beats_eight_ways_on_one() {
    // Table 4.
    let wide = run(&testbed(256 * 1024).with_prefetch());
    let mut narrow_cfg = testbed(256 * 1024).with_prefetch();
    narrow_cfg.layout = StripeLayout::WaysOnOne { ways: 8, ion: 0 };
    let narrow = run(&narrow_cfg);
    let speedup = wide.bandwidth_mb_s() / narrow.bandwidth_mb_s();
    assert!(
        speedup > 2.0,
        "8-node stripe group should win big: {speedup}"
    );
}

#[test]
fn mode_ordering_matches_figure_2() {
    let bw = |mode: IoMode| {
        let mut cfg = testbed(64 * 1024);
        cfg.mode = mode;
        run(&cfg).bandwidth_mb_s()
    };
    let unix = bw(IoMode::MUnix);
    let sync = bw(IoMode::MSync);
    let log = bw(IoMode::MLog);
    let record = bw(IoMode::MRecord);
    let r#async = bw(IoMode::MAsync);
    assert!(unix < sync, "M_UNIX serializes: {unix} !< {sync}");
    assert!(sync < record, "M_SYNC coordinates: {sync} !< {record}");
    assert!(
        log < record,
        "M_LOG pays the pointer server: {log} !< {record}"
    );
    assert!(
        record <= r#async * 1.01,
        "M_RECORD bookkeeping: {record} !<= {async}"
    );
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
        (r.polls, r.raid.store_bytes_copied),
        GOLDEN_512X64.3,
        "(task polls, store bytes copied)"
    );
}

/// `((prefetches issued, ready hits, in-flight hits), elapsed simulated
/// ns, trace hash, (task polls, store bytes copied))` for the 512×64
/// smoke shape. Regenerate by running the test and copying the values
/// it prints on mismatch.
const GOLDEN_512X64: ((u64, u64, u64), u64, u64, (u64, u64)) = (
    (512, 0, 512),
    475_957_416,
    0x7e91_f634_c304_7ab5,
    (35_614, 0),
);

#[test]
fn prefetching_hides_latency_it_claims_to_hide() {
    // The engine's overlap accounting must be consistent: latency hidden
    // can never exceed (issued prefetches × max single read time).
    let mut cfg = testbed(64 * 1024);
    cfg.delay = SimDuration::from_millis(25);
    let pf = run(&cfg.with_prefetch());
    let max_read = pf.per_node.iter().map(|n| n.read_time_max).max().unwrap();
    let bound = max_read * pf.prefetch.issued.max(1);
    assert!(pf.prefetch.overlap_saved > SimDuration::ZERO);
    assert!(pf.prefetch.overlap_saved < bound);
}
