//! Reproducibility: a `(seed, config)` pair fully determines a run — the
//! event-trace hash, the bandwidths, the prefetch counters, everything.
//! This is what makes the experiment tables regenerable bit-for-bit.

mod common;

use common::{cfg, ext_matrix};
use paragon::pfs::IoMode;
use paragon::sim::SimDuration;
use paragon::workload::{run, AccessPattern, FaultSpec, StripeLayout};

/// Trace hashes of the EXT matrix captured from the *seed* scheduler (the
/// `BinaryHeap` kernel + `BTreeMap` executor at commit 65113e2). The
/// calendar-queue/slab engine must pop every event in the identical
/// `(time, seq)` order, so these hashes are frozen: a mismatch means the
/// scheduler reordered something, not that the goldens need regenerating.
const SEED_SCHEDULER_GOLDENS: &[(&str, u64)] = &[
    ("mrecord", 0x01792f033b8531d4),
    ("mrecord-pf", 0xeb377a239bebea41),
    ("munix", 0x847fc12c4cc463f0),
    ("msync", 0x97f34e90e4c61ae7),
    ("mlog", 0xd0c1a0260d94ef9a),
    ("masync-pf", 0x1e5a60d27dd6f77d),
    ("mglobal-pf", 0x4f8f3ca8bfedaa6a),
    ("random-pf", 0x33d25d187a5bf712),
    ("strided-pf", 0x400071833569d341),
    ("reread-buffered-pf", 0xe0d9f9d147f50dd2),
    ("ways-on-one-pf", 0x4152b98bb7d5a3a3),
    ("faulted-verified-pf", 0xf237b18eccd5117a),
    ("scaling-8x4-pf", 0x73e8fcc3e4a9a1bd),
];

#[test]
fn fast_path_engine_matches_seed_scheduler_byte_for_byte() {
    let matrix = ext_matrix();
    assert_eq!(matrix.len(), SEED_SCHEDULER_GOLDENS.len());
    for ((name, cfg), (gname, golden)) in matrix.into_iter().zip(SEED_SCHEDULER_GOLDENS) {
        assert_eq!(name, *gname);
        let r = run(&cfg);
        assert_eq!(
            r.trace_hash, *golden,
            "{name}: event order diverged from the seed scheduler"
        );
    }
}

#[test]
fn identical_configs_reproduce_exactly() {
    for mode in [IoMode::MRecord, IoMode::MUnix, IoMode::MGlobal] {
        let a = run(&cfg(42, mode));
        let b = run(&cfg(42, mode));
        assert_eq!(a.trace_hash, b.trace_hash, "{mode} trace diverged");
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.total_bytes, b.total_bytes);
        for (na, nb) in a.per_node.iter().zip(&b.per_node) {
            assert_eq!(na.read_time_total, nb.read_time_total);
        }
    }
}

#[test]
fn prefetch_counters_reproduce_exactly() {
    let a = run(&cfg(7, IoMode::MRecord).with_prefetch());
    let b = run(&cfg(7, IoMode::MRecord).with_prefetch());
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(a.prefetch.hits_ready, b.prefetch.hits_ready);
    assert_eq!(a.prefetch.hits_inflight, b.prefetch.hits_inflight);
    assert_eq!(a.prefetch.overlap_saved, b.prefetch.overlap_saved);
}

#[test]
fn faulted_runs_reproduce_exactly() {
    // The fault plan draws from the same master seed as everything else,
    // so a run with disk errors, mesh chaos, and retries is just as
    // reproducible as a clean one — including every recovery action.
    let faulted = |seed| {
        let mut c = cfg(seed, IoMode::MRecord).with_prefetch();
        c.faults = FaultSpec {
            disk_error_pm: 20,
            mesh_drop_pm: 5,
            mesh_dup_pm: 5,
            mesh_delay_pm: 10,
            mesh_delay: SimDuration::from_micros(300),
            ..FaultSpec::default()
        };
        c.trace_cap = 200_000;
        c
    };
    let a = run(&faulted(1234));
    let b = run(&faulted(1234));
    assert!(
        a.fault.disk_transients
            + a.fault.mesh_dropped
            + a.fault.mesh_duplicated
            + a.fault.mesh_delayed
            > 0,
        "fault plan never fired; the test is vacuous"
    );
    assert_eq!(a.trace_hash, b.trace_hash, "faulted trace diverged");
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.fault.disk_transients, b.fault.disk_transients);
    assert_eq!(a.fault.mesh_dropped, b.fault.mesh_dropped);
    assert_eq!(a.prefetch.faults, b.prefetch.faults);
}

#[test]
fn different_seeds_diverge_under_realistic_calibration() {
    // Seek jitter and server-time jitter draw from the seed, so two seeds
    // must produce different (but internally consistent) traces.
    let a = run(&cfg(1, IoMode::MRecord));
    let b = run(&cfg(2, IoMode::MRecord));
    assert_ne!(a.trace_hash, b.trace_hash);
    // Yet the results must be close: jitter is noise, not behaviour.
    let ratio = a.bandwidth_mb_s() / b.bandwidth_mb_s();
    assert!(
        (0.8..1.25).contains(&ratio),
        "seeds changed behaviour, not just noise: {ratio}"
    );
}

#[test]
fn random_access_pattern_is_seeded() {
    let mut c = cfg(9, IoMode::MAsync);
    c.access = AccessPattern::Random;
    let a = run(&c);
    let b = run(&c);
    assert_eq!(a.trace_hash, b.trace_hash);
}

/// Frozen trace hash, simulated time and `(task polls, store bytes
/// copied)` of the 1024×128 full-machine run below, pinned serially
/// when the simulator became a single serial kernel. A mismatch in the
/// first two means the full machine's event order changed; in the work
/// pair, that the host does more (or less) work for the same events.
/// Neither means the golden needs regenerating.
const GOLDEN_1024X128: (u64, u64, (u64, u64)) = (0x394d774885d5336d, 3_754_046_001, (507_744, 0));

#[test]
#[ignore = "full-machine run; release only, from scripts/ci.sh === full machine"]
fn full_machine_1024x128_pins_the_serial_golden() {
    let mut c = cfg(42, IoMode::MRecord);
    c.compute_nodes = 1024;
    c.io_nodes = 128;
    c.layout = StripeLayout::Across { factor: 128 };
    c.file_size = 1024 << 20; // 1 MB per compute node
    c.delay = SimDuration::from_millis(25);
    let r = run(&c);
    assert_eq!(r.total_bytes, 1 << 30, "lost coverage");
    assert_eq!(r.verify_failures, 0);
    assert_eq!(r.read_errors, 0);
    assert_eq!(r.per_node.len(), 1024);
    let (hash, elapsed_ns, work) = GOLDEN_1024X128;
    assert_eq!(
        r.trace_hash, hash,
        "trace hash diverged (got {:#018x})",
        r.trace_hash
    );
    assert_eq!(
        r.elapsed,
        SimDuration::from_nanos(elapsed_ns),
        "simulated time diverged (got {} ns)",
        r.elapsed.as_nanos()
    );
    assert_eq!(
        (r.polls, r.raid.store_bytes_copied),
        work,
        "(task polls, store bytes copied) diverged"
    );
}
