//! Config matrix shared by the determinism, profiler and vocabulary
//! suites: one named config per EXT axis, frozen so every suite pins the
//! same behaviours.
#![allow(dead_code, reason = "each test binary uses its own subset")]

use paragon::machine::Calibration;
use paragon::pfs::{IoMode, Redundancy};
use paragon::sim::SimDuration;
use paragon::workload::{AccessPattern, ExperimentConfig, FaultSpec, StripeLayout};

/// The suites' small 4×2 shape: 4 MB shared file, 64 KB requests,
/// 5 ms think time.
pub(crate) fn cfg(seed: u64, mode: IoMode) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        compute_nodes: 4,
        io_nodes: 2,
        calib: Calibration::paragon_1995(),
        mode,
        fast_path: true,
        stripe_unit: 64 * 1024,
        layout: StripeLayout::Across { factor: 2 },
        request_size: 64 * 1024,
        file_size: 4 << 20,
        delay: SimDuration::from_millis(5),
        prefetch: None,
        access: AccessPattern::ModeDriven,
        separate_files: false,
        verify_data: false,
        trace_cap: 0,
        faults: FaultSpec::default(),
        redundancy: Redundancy::None,
        metrics_cadence: None,
    }
}

/// One named config per EXT axis: every mode, every access pattern,
/// prefetch on/off, both stripe layouts, the buffered mount, fault
/// injection, and a larger scaling shape.
pub(crate) fn ext_matrix() -> Vec<(&'static str, ExperimentConfig)> {
    let mut m = vec![
        ("mrecord", cfg(11, IoMode::MRecord)),
        ("mrecord-pf", cfg(11, IoMode::MRecord).with_prefetch()),
        ("munix", cfg(12, IoMode::MUnix)),
        ("msync", cfg(13, IoMode::MSync)),
        ("mlog", cfg(14, IoMode::MLog)),
        ("masync-pf", cfg(15, IoMode::MAsync).with_prefetch()),
        ("mglobal-pf", cfg(16, IoMode::MGlobal).with_prefetch()),
    ];
    let mut c = cfg(17, IoMode::MAsync).with_prefetch();
    c.access = AccessPattern::Random;
    m.push(("random-pf", c));
    let mut c = cfg(18, IoMode::MAsync).with_prefetch();
    c.access = AccessPattern::Strided { stride: 256 * 1024 };
    m.push(("strided-pf", c));
    let mut c = cfg(19, IoMode::MAsync).with_prefetch();
    c.access = AccessPattern::Reread { passes: 2 };
    c.fast_path = false;
    m.push(("reread-buffered-pf", c));
    let mut c = cfg(20, IoMode::MRecord).with_prefetch();
    c.layout = StripeLayout::WaysOnOne { ways: 2 };
    m.push(("ways-on-one-pf", c));
    let mut c = cfg(21, IoMode::MRecord).with_prefetch();
    c.faults = FaultSpec {
        disk_error_pm: 20,
        mesh_drop_pm: 5,
        mesh_dup_pm: 5,
        mesh_delay_pm: 10,
        mesh_delay: SimDuration::from_micros(300),
        ..FaultSpec::default()
    };
    c.verify_data = true;
    m.push(("faulted-verified-pf", c));
    let mut c = cfg(22, IoMode::MRecord).with_prefetch();
    c.compute_nodes = 8;
    c.io_nodes = 4;
    c.delay = SimDuration::from_millis(25);
    m.push(("scaling-8x4-pf", c));
    m
}

/// RF=2 replication on 4×4 with I/O node 1 crashed mid-stream:
/// foreground reads fail over while the recovery coordinator
/// re-replicates the lost copies.
pub(crate) fn crash_and_rebuild(seed: u64) -> ExperimentConfig {
    let mut c = cfg(seed, IoMode::MRecord);
    c.calib.rpc_attempt_timeout = SimDuration::from_millis(250);
    c.io_nodes = 4;
    c.layout = StripeLayout::Across { factor: 4 };
    c.file_size = 8 << 20;
    c.delay = SimDuration::ZERO;
    c.verify_data = true;
    c.redundancy = Redundancy::Replicated { rf: 2 };
    c.faults.ion_crash = Some((1, SimDuration::from_millis(50), SimDuration::from_secs(30)));
    c
}
