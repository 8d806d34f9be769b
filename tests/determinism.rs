//! Reproducibility: a `(seed, config)` pair fully determines a run — the
//! event-trace hash, the bandwidths, the prefetch counters, everything.
//! This is what makes the experiment tables regenerable bit-for-bit.

mod common;

use common::{cfg, ext_matrix};
use paragon::pfs::IoMode;
use paragon::sim::SimDuration;
use paragon::workload::{run, AccessPattern, FaultSpec, StripeLayout};

/// Trace hashes of the EXT matrix: each folds the `(time, seq)` of every
/// timer event the run fired, in firing order. Captured from the *seed*
/// scheduler (the `BinaryHeap` kernel + `BTreeMap` executor at commit
/// 65113e2), and re-pinned once, when a `Sleep` dropped before its
/// deadline began to cancel its timer: the stale 10 s RPC attempt
/// timeouts left the stream, while every other event kept its
/// `(time, seq)` and every record stayed byte-identical. The kernel and
/// executor must fire exactly this order, so a mismatch means the
/// scheduler reordered, added or dropped an event, not that the goldens
/// need regenerating.
const SEED_SCHEDULER_GOLDENS: &[(&str, u64)] = &[
    ("mrecord", 0x4b555900ff2f077e),
    ("mrecord-pf", 0x034f82393e68b0f6),
    ("munix", 0x0e0a1fa54086cb9c),
    ("msync", 0x26dc736da6972932),
    ("mlog", 0xd3641ddd941513ba),
    ("masync-pf", 0x7c19f9e8e85f51e7),
    ("mglobal-pf", 0xb1f8002b6a6620c6),
    ("random-pf", 0x84d0205ac7faf328),
    ("strided-pf", 0x11106dd4c5b50bdf),
    ("reread-buffered-pf", 0xf0b095d74a3e5bd3),
    ("ways-on-one-pf", 0xdbd0e805da326c1a),
    ("faulted-verified-pf", 0xc84af53153e1f444),
    ("scaling-8x4-pf", 0xe5f08c7428f242cf),
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
            assert_eq!(na.read_time_total(), nb.read_time_total());
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
        a.work
            .iter()
            .any(|(name, n)| name.starts_with("fault.") && n > 0),
        "fault plan never fired; the test is vacuous"
    );
    assert_eq!(a.trace_hash, b.trace_hash, "faulted trace diverged");
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.work, b.work);
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
/// when the simulator became a single serial kernel, and re-pinned once
/// when dropped sleeps began to cancel their timers: 16,384 stale
/// attempt timeouts (one per data leg) and their 16,384 stale wakes left,
/// the simulated time did not move. A mismatch in the first two means
/// the full machine's event order changed; in the work pair, that the
/// host does more (or less) work for the same events. Neither means the
/// golden needs regenerating.
const GOLDEN_1024X128: (u64, u64, (u64, u64)) = (0xf691ccf515cc194f, 3_754_046_001, (491_360, 0));

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
        (
            r.work.get("sim.polls"),
            r.work.get("disk.store.bytes_copied")
        ),
        work,
        "(task polls, store bytes copied) diverged"
    );
}
