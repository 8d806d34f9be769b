//! End-to-end data integrity: every byte an application reads must be the
//! byte that was written, through striping, all six I/O modes, Fast Path
//! and buffered servers, and the prefetch engine.

use paragon::machine::Calibration;
use paragon::pfs::{IoMode, Redundancy};
use paragon::sim::SimDuration;
use paragon::workload::{run, AccessPattern, ExperimentConfig, FaultSpec, StripeLayout};

fn base(mode: IoMode) -> ExperimentConfig {
    ExperimentConfig {
        seed: 11,
        compute_nodes: 4,
        io_nodes: 3,
        calib: Calibration::instant(),
        mode,
        fast_path: true,
        stripe_unit: 16 * 1024,
        layout: StripeLayout::Across { factor: 3 },
        request_size: 32 * 1024,
        file_size: 2 << 20,
        delay: SimDuration::ZERO,
        prefetch: None,
        access: AccessPattern::ModeDriven,
        separate_files: false,
        verify_data: true,
        trace_cap: 0,
        faults: FaultSpec::default(),
        redundancy: Redundancy::None,
        metrics_cadence: None,
    }
}

#[test]
fn every_mode_delivers_correct_bytes() {
    for mode in IoMode::all() {
        let r = run(&base(mode));
        assert_eq!(r.verify_failures, 0, "corruption under {mode}");
        assert!(r.total_bytes > 0);
    }
}

#[test]
fn prefetching_never_changes_the_data() {
    for mode in [IoMode::MRecord, IoMode::MAsync, IoMode::MGlobal] {
        let r = run(&base(mode).with_prefetch());
        assert_eq!(r.verify_failures, 0, "prefetch corruption under {mode}");
        assert!(
            r.prefetch.hits() > 0,
            "prefetching never engaged under {mode}"
        );
    }
}

#[test]
fn buffered_servers_deliver_correct_bytes() {
    let mut cfg = base(IoMode::MRecord);
    cfg.fast_path = false;
    let r = run(&cfg);
    assert_eq!(r.verify_failures, 0);
}

#[test]
fn realistic_calibration_delivers_correct_bytes() {
    let mut cfg = base(IoMode::MRecord).with_prefetch();
    cfg.calib = Calibration::paragon_1995();
    cfg.stripe_unit = 64 * 1024;
    cfg.request_size = 64 * 1024;
    let r = run(&cfg);
    assert_eq!(r.verify_failures, 0);
}

#[test]
fn odd_request_and_stripe_sizes_stay_correct() {
    // Unaligned everything: 24 KB requests over 10 KB stripe units.
    let mut cfg = base(IoMode::MRecord);
    cfg.stripe_unit = 10 * 1024;
    cfg.request_size = 24 * 1024;
    cfg.file_size = 24 * 1024 * 4 * 8; // 8 rounds
    let r = run(&cfg);
    assert_eq!(r.verify_failures, 0);
    // The servers must have noticed the partial blocks.
    let pf = run(&{
        let mut c = cfg.clone();
        c = c.with_prefetch();
        c
    });
    assert_eq!(pf.verify_failures, 0);
}

#[test]
fn strided_and_random_patterns_stay_correct_with_prefetch() {
    for access in [
        AccessPattern::Strided { stride: 96 * 1024 },
        AccessPattern::Random,
        AccessPattern::Reread { passes: 2 },
    ] {
        let mut cfg = base(IoMode::MAsync).with_prefetch();
        cfg.access = access;
        let r = run(&cfg);
        assert_eq!(r.verify_failures, 0, "corruption under {access:?}");
    }
}

#[test]
fn separate_files_have_independent_content() {
    let mut cfg = base(IoMode::MAsync);
    cfg.separate_files = true;
    cfg.file_size = 512 * 1024;
    let r = run(&cfg);
    assert_eq!(r.verify_failures, 0);
    assert_eq!(r.total_bytes, 4 * 512 * 1024);
}
