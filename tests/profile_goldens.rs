//! Profiler acceptance suite: the critical-path blame report's integer
//! accounting must be exact on every EXT-matrix config, a failover run's
//! blame report and the Perfetto export are pinned byte-for-byte against
//! committed goldens.
//!
//! Regenerate the goldens after an intentional trace-schema change with
//! `PARAGON_BLESS=1 cargo test --test profile_goldens`.

mod common;

use common::{cfg, ext_matrix};
use paragon::machine::Calibration;
use paragon::pfs::{IoMode, Redundancy};
use paragon::profile::{critical_paths, export_perfetto, render_critical_path};
use paragon::sim::SimDuration;
use paragon::workload::{run, AccessPattern, ExperimentConfig, FaultSpec, StripeLayout};

/// Compare `actual` against the committed golden at `rel` (repo-root
/// relative); `PARAGON_BLESS=1` rewrites the golden instead.
fn golden(rel: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("PARAGON_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {rel} ({e}); regenerate with PARAGON_BLESS=1"));
    assert_eq!(
        actual, want,
        "{rel} drifted; if the change is intentional, regenerate with PARAGON_BLESS=1"
    );
}

/// RF=2 M_RECORD shape with I/O node 1 crashed mid-stream, mirroring
/// the failure-injection suite: every foreground read that hits the
/// dead primary must fail over to a surviving replica.
fn failover_cfg(seed: u64) -> ExperimentConfig {
    let mut calib = Calibration::paragon_1995();
    calib.rpc_attempt_timeout = SimDuration::from_millis(250);
    ExperimentConfig {
        seed,
        compute_nodes: 4,
        io_nodes: 6,
        calib,
        mode: IoMode::MRecord,
        fast_path: true,
        stripe_unit: 64 * 1024,
        layout: StripeLayout::Across { factor: 4 },
        request_size: 64 * 1024,
        file_size: 8 << 20,
        delay: SimDuration::ZERO,
        prefetch: None,
        access: AccessPattern::ModeDriven,
        separate_files: false,
        verify_data: true,
        trace_cap: 500_000,
        faults: FaultSpec {
            ion_crash: Some((1, SimDuration::from_millis(50), SimDuration::from_secs(30))),
            ..FaultSpec::default()
        },
        redundancy: Redundancy::Replicated { rf: 2 },
        metrics_cadence: None,
    }
}

/// Exact integer accounting on the whole EXT matrix: for every config,
/// every completed read's nine legs sum to its end-to-end latency to
/// the nanosecond, and the disk overlap never goes negative (u64 makes
/// that structural, but a saturating bug would show up as a huge value).
#[test]
fn blame_sums_exactly_across_the_ext_matrix() {
    for (name, mut c) in ext_matrix() {
        c.trace_cap = 200_000;
        let r = run(&c);
        let paths = critical_paths(&r.trace);
        assert!(!paths.is_empty(), "{name}: no completed reads in trace");
        for p in &paths {
            assert_eq!(
                p.legs.iter().sum::<u64>(),
                p.total_ns(),
                "{name}: req {} legs do not sum to the span",
                p.req
            );
            assert!(
                p.overlap_hidden_ns < SimDuration::from_secs(3600).as_nanos(),
                "{name}: req {} absurd hidden overlap {}",
                p.req,
                p.overlap_hidden_ns
            );
        }
    }
}

/// A mid-stream I/O-node crash with replica failover must still yield
/// exactly one well-formed DAG per request — retries absorbed, not
/// orphaned — and the seeded run's blame report is pinned as a golden.
#[test]
fn failover_run_yields_one_dag_per_request_and_a_pinned_blame_report() {
    let r = run(&failover_cfg(40));
    assert_eq!(r.read_errors, 0, "failover must mask the crash");
    assert!(r.replica_failovers > 0, "crash window never bit");

    let paths = critical_paths(&r.trace);
    assert!(!paths.is_empty());
    for w in paths.windows(2) {
        assert!(w[0].req < w[1].req, "duplicate DAG for req {}", w[1].req);
    }
    let faulted: Vec<_> = paths.iter().filter(|p| p.faults > 0).collect();
    assert!(
        !faulted.is_empty(),
        "no request path observed the failover events"
    );
    for p in &paths {
        assert_eq!(
            p.legs.iter().sum::<u64>(),
            p.total_ns(),
            "req {}: a failed-over span must still account exactly",
            p.req
        );
    }

    golden(
        "tests/goldens/failover_critical_path.txt",
        &render_critical_path(&r.trace, 3),
    );
}

/// The Chrome-trace export is pinned byte-for-byte: any drift in event
/// placement, track naming, or counter sampling shows up as a diff.
#[test]
fn perfetto_export_matches_the_pinned_golden() {
    let mut c = cfg(11, IoMode::MRecord);
    c.file_size = 512 * 1024;
    c.trace_cap = 200_000;
    c.metrics_cadence = Some(SimDuration::from_millis(20));
    let r = run(&c);
    let json = export_perfetto(&r.trace, r.metrics.as_ref());
    assert!(json.starts_with('{') && json.ends_with("]}\n"));
    golden("tests/goldens/perfetto_mrecord.json", &json);
}
