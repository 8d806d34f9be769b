//! Every name the observability layers declare is actually produced: each
//! `EventKind` is recorded by some run and each telemetry metric is
//! registered. A kind or name that nothing emits fails here, so declared
//! vocabulary cannot go dead.

mod common;

use std::collections::BTreeSet;
use std::rc::Rc;

use bytes::Bytes;
use common::{cfg, crash_and_rebuild, ext_matrix};
use paragon::machine::{Machine, MachineConfig};
use paragon::pfs::{IoMode, OpenOptions, ParallelFs, StripeAttrs};
use paragon::sim::{EventKind, Sim, SimDuration};
use paragon::workload::telemetry::names as telemetry_names;
use paragon::workload::{run, ExperimentConfig, FaultSpec};

/// Large enough that no config below drops events.
const TRACE_CAP: usize = 1 << 20;

/// A one-buffer prefetch list under a depth-4 pipeline, as in the
/// failure-injection suite: prefetched buffers are evicted unused.
fn prefetch_buffer_pressure() -> ExperimentConfig {
    let mut c = cfg(50, IoMode::MAsync).with_prefetch();
    if let Some(pc) = c.prefetch.as_mut() {
        pc.depth = 4;
        pc.max_buffers = 1;
    }
    c
}

/// The fault classes `paragonctl faults` sweeps, on its base: parity
/// RAID, prefetching and data verification on. The prefetch engine
/// quarantines itself after one failed prefetch, as in its own unit
/// test, so transient disk errors throttle and resume it.
fn fault_classes() -> Vec<ExperimentConfig> {
    let specs = [
        FaultSpec {
            disk_error_pm: 20,
            ..FaultSpec::default()
        },
        FaultSpec {
            dead_member: Some((0, 0)),
            ..FaultSpec::default()
        },
        FaultSpec {
            mesh_drop_pm: 5,
            ..FaultSpec::default()
        },
        FaultSpec {
            ion_crash: Some((0, SimDuration::ZERO, SimDuration::from_secs(5))),
            ..FaultSpec::default()
        },
    ];
    specs
        .into_iter()
        .map(|faults| {
            let mut c = cfg(51, IoMode::MRecord).with_prefetch();
            c.calib.raid_parity = true;
            c.verify_data = true;
            c.faults = faults;
            if let Some(pc) = c.prefetch.as_mut() {
                pc.fault_threshold = 1;
            }
            c
        })
        .collect()
}

/// Event kinds of one traced client write; the experiment driver only
/// reads, so writes go through the file API as in the PFS write suite.
fn traced_write_kinds() -> BTreeSet<&'static str> {
    let sim = Sim::new(53);
    let machine = Rc::new(Machine::new(&sim, MachineConfig::tiny_instant(1, 2)));
    let pfs = ParallelFs::new(machine);
    sim.tracer().arm(TRACE_CAP);
    sim.spawn(async move {
        let id = pfs
            .create("/pfs/w", StripeAttrs::across(2, 4096))
            .await
            .unwrap();
        let f = pfs
            .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
            .unwrap();
        f.write(Bytes::from(vec![7u8; 8192])).await.unwrap();
    });
    sim.run();
    sim.tracer()
        .events()
        .iter()
        .map(|e| e.kind.as_str())
        .collect()
}

#[test]
fn every_event_kind_is_recorded_by_some_run() {
    let configs = ext_matrix()
        .into_iter()
        .map(|(_, c)| c)
        .chain([prefetch_buffer_pressure()])
        .chain(fault_classes())
        .chain([crash_and_rebuild(44)]);
    let mut seen = traced_write_kinds();
    for mut c in configs {
        c.trace_cap = TRACE_CAP;
        let r = run(&c);
        assert!(r.trace.len() < TRACE_CAP, "trace truncated");
        seen.extend(r.trace.iter().map(|e| e.kind.as_str()));
    }
    let missing: Vec<&str> = EventKind::ALL
        .iter()
        .map(|k| k.as_str())
        .filter(|k| !seen.contains(k))
        .collect();
    assert!(missing.is_empty(), "never recorded: {missing:?}");
}

#[test]
fn every_telemetry_name_is_registered() {
    let mut c = crash_and_rebuild(44).with_prefetch();
    c.metrics_cadence = Some(SimDuration::from_millis(5));
    let m = run(&c).metrics.expect("sampler armed but no snapshot");
    let registered: BTreeSet<&str> = m
        .series
        .keys()
        .chain(m.counters.keys())
        .chain(m.hists.keys())
        .map(String::as_str)
        .collect();
    let missing: Vec<&str> = telemetry_names::ALL
        .iter()
        .copied()
        .filter(|n| !registered.contains(n))
        .collect();
    assert!(missing.is_empty(), "never registered: {missing:?}");
}
