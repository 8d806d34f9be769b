//! Every name the observability layers declare is actually produced: each
//! `EventKind` is recorded by some run, each telemetry gauge is sampled
//! and each histogram reported, and each `Work` counter moves in some run. A
//! kind or name that nothing emits fails here, so declared vocabulary
//! cannot go dead. The counters of different layers also agree: every
//! fault-free run keeps the cross-layer identities, and every prefetching
//! one the prefetch engine's.

mod common;

use std::collections::BTreeSet;
use std::rc::Rc;

use bytes::Bytes;
use common::{cfg, crash_and_rebuild, ext_matrix};
use paragon::machine::{Machine, MachineConfig};
use paragon::metrics::Json;
use paragon::pfs::{IoMode, OpenOptions, ParallelFs, StripeAttrs};
use paragon::sim::{EventKind, Sim, SimDuration};
use paragon::workload::telemetry::names as telemetry_names;
use paragon::workload::{metrics_report, run, ExperimentConfig, FaultSpec, RunResult, Work};

/// Large enough that no config below drops events.
const TRACE_CAP: usize = 1 << 20;

/// `Work` counters that no correct run moves, each with the reason.
const NEVER_MOVED: &[(&str, &str)] = &[(
    "rpc.misrouted",
    "counts a routing defect: a call delivered to a client, a reply to a server",
)];

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

/// M_GLOBAL without prefetching, so every node's read of a record is
/// shared on the server, in 256 KB requests and stripe units, so one
/// UFS read spans four contiguous 64 KB blocks.
fn global_large_reads() -> ExperimentConfig {
    let mut c = cfg(52, IoMode::MGlobal);
    c.request_size = 256 * 1024;
    c.stripe_unit = 256 * 1024;
    c
}

/// The fault classes of EXT-FAULTS but the fault-free one, at this
/// suite's rates, on the study's base: parity RAID, prefetching and data
/// verification on. The prefetch engine quarantines itself after one
/// failed prefetch, as in its own unit test, so transient disk errors
/// throttle and resume it.
fn fault_classes() -> Vec<ExperimentConfig> {
    paragon_bench::fault_classes(20, 5)
        .into_iter()
        .filter(|(_, faults)| *faults != FaultSpec::default())
        .map(|(_, faults)| {
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

/// Event kinds and work of one traced client write; the experiment
/// driver only reads, so writes go through the file API as in the PFS
/// write suite.
fn traced_write() -> (BTreeSet<&'static str>, Work) {
    let sim = Sim::new(53);
    let machine = Rc::new(Machine::new(&sim, MachineConfig::tiny_instant(1, 2)));
    let pfs = ParallelFs::new(machine);
    sim.tracer().arm(TRACE_CAP);
    let writer = pfs.clone();
    sim.spawn(async move {
        let pfs = writer;
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
    let work = Work::of(&sim, &pfs);
    let kinds = sim
        .tracer()
        .events()
        .iter()
        .map(|e| e.kind.as_str())
        .collect();
    (kinds, work)
}

/// Every experiment config of the suite: the EXT matrix, prefetch
/// buffer pressure, shared large reads, the fault classes, and a
/// replicated crash and rebuild.
fn suite() -> impl Iterator<Item = ExperimentConfig> {
    ext_matrix()
        .into_iter()
        .map(|(_, c)| c)
        .chain([prefetch_buffer_pressure(), global_large_reads()])
        .chain(fault_classes())
        .chain([crash_and_rebuild(44)])
}

/// Cross-layer identities of a fault-free run's `Work`, as (name, left
/// side, right side): every call is answered once, over one request and
/// one reply message, and every server read is a direct or a cached UFS
/// read, or an M_GLOBAL arrival that shares another node's read.
fn identities(w: &Work) -> [(&'static str, u64, u64); 3] {
    let ufs_reads = w.get("ufs.direct_reads") + w.get("ufs.cached_reads");
    [
        (
            "rpc.calls = rpc.replies",
            w.get("rpc.calls"),
            w.get("rpc.replies"),
        ),
        (
            "mesh.messages = 2 * rpc.calls",
            w.get("mesh.messages"),
            2 * w.get("rpc.calls"),
        ),
        (
            "server.reads = ufs.direct_reads + ufs.cached_reads + server.global_shares",
            w.get("server.reads"),
            ufs_reads + w.get("server.global_shares"),
        ),
    ]
}

/// The prefetch engine's identities on a fault-free prefetching run:
/// every successful read is a ready hit, an in-flight hit or a miss, and
/// each hit copies one whole request out of its prefetch buffer.
fn prefetch_identities(c: &ExperimentConfig, r: &RunResult) -> [(&'static str, u64, u64); 2] {
    let p = &r.prefetch;
    let hits = p.hits_ready + p.hits_inflight;
    [
        (
            "reads = prefetch.hits_ready + prefetch.hits_inflight + prefetch.misses",
            r.per_node.iter().map(|n| n.reads).sum(),
            hits + p.misses,
        ),
        (
            "prefetch.bytes_copied = request_size * (hits_ready + hits_inflight)",
            p.bytes_copied,
            u64::from(c.request_size) * hits,
        ),
    ]
}

#[test]
fn fault_free_runs_keep_the_work_identities() {
    let fault_free = suite().filter(|c| c.faults == FaultSpec::default());
    for (i, c) in fault_free.enumerate() {
        let r = run(&c);
        let mut checks = identities(&r.work).to_vec();
        if c.prefetch.is_some() {
            checks.extend(prefetch_identities(&c, &r));
        }
        for (name, lhs, rhs) in checks {
            assert_eq!(lhs, rhs, "fault-free config {i}: {name}");
        }
    }
}

#[test]
fn every_event_kind_is_recorded_by_some_run() {
    let (mut seen, _) = traced_write();
    for mut c in suite() {
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
    let r = run(&c);
    let m = r.metrics.as_ref().expect("sampler armed but no snapshot");
    let report = metrics_report(&c, &r);
    let hists = report.get("histograms").and_then(Json::as_obj);
    let registered: BTreeSet<&str> = m
        .series
        .keys()
        .chain(hists.into_iter().flat_map(|h| h.keys()))
        .map(String::as_str)
        .collect();
    let missing: Vec<&str> = telemetry_names::ALL
        .iter()
        .copied()
        .filter(|n| !registered.contains(n))
        .collect();
    assert!(missing.is_empty(), "never registered: {missing:?}");

    // Each counter name, and whether any run of the suite moved it.
    let mut moved = std::collections::BTreeMap::new();
    let mut note = |w: &Work| {
        for (name, v) in w.iter() {
            *moved.entry(name.to_string()).or_insert(false) |= v > 0;
        }
    };
    note(&traced_write().1);
    for c in suite() {
        note(&run(&c).work);
    }
    for (name, why) in NEVER_MOVED {
        assert_eq!(moved.remove(*name), Some(false), "{name} ({why})");
    }
    let still: Vec<&String> = moved.iter().filter(|(_, &m)| !m).map(|(n, _)| n).collect();
    assert!(still.is_empty(), "no run moves: {still:?}");
}
