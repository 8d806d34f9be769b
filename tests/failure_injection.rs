//! Failure injection at the integration level: degraded hardware must
//! slow the system down, never corrupt it, and stay deterministic.

use std::rc::Rc;

use paragon::machine::{Machine, MachineConfig};
use paragon::pfs::{pattern_byte, pattern_slice, IoMode, OpenOptions, ParallelFs, StripeAttrs};
use paragon::prefetch::{PrefetchConfig, PrefetchingFile};
use paragon::sim::{Sim, SimDuration};

const KB: u64 = 1024;

/// Run 4 nodes reading a shared M_RECORD file with one RAID member of
/// I/O node 1 slowed by `factor`; returns (elapsed, data_ok, hits).
fn run_with_hotspot(factor: f64, prefetch: bool, seed: u64) -> (SimDuration, bool, u64) {
    let sim = Sim::new(seed);
    let machine = Rc::new(Machine::new(&sim, MachineConfig::paper_testbed()));
    if factor != 1.0 {
        machine.raid(1).set_member_slowdown(0, factor);
    }
    let pfs = ParallelFs::new(machine);
    let sim2 = sim.clone();
    let h = sim.spawn(async move {
        let id = pfs
            .create("/pfs/hot", StripeAttrs::across(8, 64 * KB))
            .await
            .unwrap();
        pfs.populate_with(id, 4 << 20, |i| pattern_byte(seed, i))
            .await
            .unwrap();
        let t0 = sim2.now();
        let mut tasks = Vec::new();
        for rank in 0..4usize {
            let f = pfs
                .open(rank, 4, id, IoMode::MRecord, OpenOptions::default())
                .unwrap();
            let sim3 = sim2.clone();
            tasks.push(sim2.spawn(async move {
                let reader = prefetch
                    .then(|| PrefetchingFile::new(f.clone(), PrefetchConfig::paper_prototype()));
                let mut ok = true;
                let mut hits = 0;
                for k in 0..16u64 {
                    let data = match &reader {
                        Some(pf) => pf.read(64 * 1024).await.unwrap(),
                        None => f.read(64 * 1024).await.unwrap(),
                    };
                    let at = (k * 4 + rank as u64) * 64 * KB;
                    ok &= data == pattern_slice(seed, at, 64 * 1024);
                    sim3.sleep(SimDuration::from_millis(20)).await;
                }
                if let Some(pf) = reader {
                    hits = pf.close().await.hits();
                }
                (ok, hits)
            }));
        }
        let mut ok = true;
        let mut hits = 0;
        for t in tasks {
            let (o, h) = t.await;
            ok &= o;
            hits += h;
        }
        (sim2.now().since(t0), ok, hits)
    });
    sim.run();
    h.try_take().expect("run finished")
}

#[test]
fn hotspot_slows_but_never_corrupts() {
    let (healthy, ok_h, _) = run_with_hotspot(1.0, false, 31);
    let (degraded, ok_d, _) = run_with_hotspot(8.0, false, 31);
    assert!(ok_h && ok_d, "hot spot corrupted data");
    assert!(
        degraded > healthy,
        "an 8x slower member must slow the collective: {healthy} !< {degraded}"
    );
}

#[test]
fn prefetching_stays_correct_under_degradation() {
    let (_, ok, hits) = run_with_hotspot(8.0, true, 32);
    assert!(ok, "prefetching corrupted data under a hot spot");
    assert!(hits > 0, "prefetching disengaged under a hot spot");
}

#[test]
fn degraded_runs_are_still_deterministic() {
    let a = run_with_hotspot(5.0, true, 33);
    let b = run_with_hotspot(5.0, true, 33);
    assert_eq!(a.0, b.0);
    assert_eq!(a.2, b.2);
}

#[test]
fn prefetch_buffer_pressure_wastes_but_never_corrupts() {
    // A one-slot prefetch list under a depth-4 pipeline: three of every
    // four prefetches are evicted unused. Data must stay exact.
    let sim = Sim::new(34);
    let machine = Rc::new(Machine::new(&sim, MachineConfig::tiny_instant(1, 2)));
    let pfs = ParallelFs::new(machine);
    let h = sim.spawn(async move {
        let id = pfs
            .create("/pfs/pressure", StripeAttrs::across(2, 16 * KB))
            .await
            .unwrap();
        pfs.populate_with(id, 2 << 20, |i| pattern_byte(9, i))
            .await
            .unwrap();
        let f = pfs
            .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
            .unwrap();
        let mut cfg = PrefetchConfig::with_depth(4);
        cfg.max_buffers = 1;
        let pf = PrefetchingFile::new(f, cfg);
        let mut ok = true;
        for k in 0..16u64 {
            let data = pf.read(32 * 1024).await.unwrap();
            ok &= data == pattern_slice(9, k * 32 * KB, 32 * 1024);
        }
        let stats = pf.close().await;
        (ok, stats)
    });
    sim.run();
    let (ok, stats) = h.try_take().expect("finished");
    assert!(ok);
    assert!(stats.wasted > 0, "pressure must evict buffers: {stats:?}");
    // Evicting the pipeline cannot break correctness, only efficiency.
    assert_eq!(stats.demand_reads(), 16);
}

/// 2 nodes reading a shared M_RECORD file while I/O node 0 is crashed
/// for a window that starts mid-stream; returns (elapsed, data_ok).
fn run_with_ion_crash(seed: u64) -> (SimDuration, bool) {
    let sim = Sim::new(seed);
    let machine = Rc::new(Machine::new(&sim, MachineConfig::tiny_instant(2, 2)));
    let faults = sim.faults();
    faults.protect_node(machine.service_node().0 as u16);
    let crash = machine.io_node(0).0 as u16;
    let pfs = ParallelFs::new(machine);
    let sim2 = sim.clone();
    let h = sim.spawn(async move {
        let id = pfs
            .create("/pfs/crash", StripeAttrs::across(2, 16 * KB))
            .await
            .unwrap();
        pfs.populate_with(id, 1 << 20, |i| pattern_byte(seed, i))
            .await
            .unwrap();
        // Crash I/O node 0 for 30 virtual seconds starting now: requests
        // and replies to it vanish. The client's per-attempt deadline
        // (60 s on the instant calibration) outlasts the window, so the
        // first retry of every swallowed leg lands after the restart.
        let t0 = sim2.now();
        faults.crash_node(crash, t0, t0 + SimDuration::from_secs(30));
        faults.arm();
        let mut tasks = Vec::new();
        for rank in 0..2usize {
            let f = pfs
                .open(rank, 2, id, IoMode::MRecord, OpenOptions::default())
                .unwrap();
            tasks.push(sim2.spawn(async move {
                let mut ok = true;
                for k in 0..16u64 {
                    let data = f.read(32 * 1024).await.unwrap();
                    let at = (k * 2 + rank as u64) * 32 * KB;
                    ok &= data == pattern_slice(seed, at, 32 * 1024);
                }
                ok
            }));
        }
        let mut ok = true;
        for t in tasks {
            ok &= t.await;
        }
        (sim2.now().since(t0), ok)
    });
    sim.run();
    h.try_take().expect("run finished")
}

#[test]
fn mid_stream_ion_crash_recovers_with_correct_data() {
    let (elapsed, ok) = run_with_ion_crash(35);
    assert!(ok, "reads returned wrong data after the crash window");
    // Recovery is not free: at least one full attempt deadline was paid
    // waiting out a swallowed request before its retry landed.
    assert!(
        elapsed >= SimDuration::from_secs(60),
        "crash window never bit: elapsed {elapsed}"
    );
}

#[test]
fn ion_crash_recovery_is_deterministic() {
    let a = run_with_ion_crash(36);
    let b = run_with_ion_crash(36);
    assert!(a.1 && b.1);
    assert_eq!(a.0, b.0, "same-seed crash runs must match exactly");
}

// ---------------------------------------------------------------------
// Cross-I/O-node replication: RF=2 mounts must mask a mid-stream crash
// with replica failover while a token-bucket-throttled rebuild restores
// the lost copies under the foreground load.
// ---------------------------------------------------------------------

use paragon::machine::Calibration;
use paragon::pfs::Redundancy;
use paragon::sim::EventKind;
use paragon::workload::{run, AccessPattern, ExperimentConfig, FaultSpec, StripeLayout};

/// RF=2 M_RECORD workload on a 4+4 shape. The per-attempt RPC deadline
/// is shortened so the *first* read against a crashed node (the one that
/// discovers the crash and demotes the replica) pays a quarter second of
/// virtual time instead of the stock calibration's 10 s — while staying
/// comfortably above the healthy tail latency (~53 ms on this shape), so
/// no live request ever times out spuriously.
fn replicated_cfg(seed: u64) -> ExperimentConfig {
    let mut calib = Calibration::paragon_1995();
    calib.rpc_attempt_timeout = SimDuration::from_millis(250);
    ExperimentConfig {
        seed,
        compute_nodes: 4,
        io_nodes: 4,
        calib,
        mode: IoMode::MRecord,
        fast_path: true,
        stripe_unit: 64 * KB,
        layout: StripeLayout::Across { factor: 4 },
        request_size: 64 * 1024,
        file_size: 8 << 20,
        delay: SimDuration::ZERO,
        prefetch: None,
        access: AccessPattern::ModeDriven,
        separate_files: false,
        verify_data: true,
        trace_cap: 0,
        faults: FaultSpec::default(),
        redundancy: Redundancy::Replicated { rf: 2 },
        metrics_cadence: None,
    }
}

/// Crash I/O node 1 just after the measured phase starts, for a window
/// that outlasts the foreground reads — the node is simply *gone* as far
/// as the workload is concerned.
fn crash_mid_stream(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.faults.ion_crash = Some((1, SimDuration::from_millis(50), SimDuration::from_secs(30)));
    cfg
}

#[test]
fn replicated_mount_masks_an_ion_crash() {
    // Two spare I/O nodes beyond the stripe group: replica placement
    // prefers them, so the crashed member's failover traffic lands on
    // otherwise-idle capacity instead of doubling a group neighbour's
    // load (which would cap degraded throughput at ~50% by itself).
    let widen = |mut c: ExperimentConfig| {
        c.io_nodes = 6;
        c
    };
    let healthy = run(&widen(replicated_cfg(40)));
    assert_eq!(healthy.read_errors, 0);
    assert_eq!(healthy.verify_failures, 0);
    assert!(healthy.rebuild.is_none(), "no crash, no rebuild");

    let crashed = run(&widen(crash_mid_stream(replicated_cfg(40))));
    // The whole point of RF=2: the crash is invisible to the application.
    assert_eq!(
        crashed.read_errors, 0,
        "replica failover must mask the crash"
    );
    assert_eq!(crashed.verify_failures, 0, "failover returned wrong bytes");
    assert!(
        crashed.work.get("replica.failovers") > 0,
        "crash window never bit: no read ever abandoned the dead primary"
    );
    assert!(
        crashed.work.get("replica.reads") > 0,
        "no read was served by a surviving replica"
    );
    // Online re-replication ran to completion within the run.
    let rb = crashed
        .rebuild
        .expect("a crash on a replicated mount must trigger re-replication");
    assert!(
        rb.slots_copied > 0,
        "rebuild found no under-replicated slots"
    );
    assert!(rb.bytes_copied > 0);
    assert_eq!(
        crashed.rebuild_pending, 0,
        "rebuild queue must drain to exactly zero"
    );
    // Degraded-mode cost bound: foreground bandwidth under failover plus
    // the concurrent rebuild keeps at least half the healthy baseline.
    let keep = crashed.bandwidth_mb_s() / healthy.bandwidth_mb_s();
    assert!(
        keep >= 0.5,
        "foreground kept only {:.0}% of healthy bandwidth during rebuild",
        keep * 100.0
    );
}

#[test]
fn replicated_crash_and_rebuild_are_deterministic() {
    let traced = || {
        let mut c = crash_mid_stream(replicated_cfg(41));
        c.trace_cap = 400_000;
        c
    };
    let a = run(&traced());
    let b = run(&traced());
    assert!(
        a.work.get("replica.failovers") > 0 && a.rebuild.is_some(),
        "crash plus rebuild never happened; the test is vacuous"
    );
    assert_eq!(
        a.trace_hash, b.trace_hash,
        "same-seed replicated crash runs must be byte-identical"
    );
    assert_eq!(a.trace, b.trace, "event streams diverged");
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.work, b.work);
    assert_eq!(a.rebuild, b.rebuild);
    assert_eq!(a.rebuild_pending, b.rebuild_pending);
}

#[test]
fn rebuild_trace_vocabulary_is_well_formed() {
    // The recovery events must tell a coherent story: one RebuildStart,
    // one RebuildCopy per re-replicated slot (bracketed by start/done),
    // one RebuildDone carrying the slot count, and one FaultNodeRecovered
    // for the crashed node once its window is over.
    let mut cfg = crash_mid_stream(replicated_cfg(42));
    cfg.trace_cap = 400_000;
    let r = run(&cfg);
    let rb = r.rebuild.expect("rebuild must have run");

    let of = |k: EventKind| -> Vec<&paragon::sim::TraceEvent> {
        r.trace.iter().filter(|e| e.kind == k).collect()
    };
    let starts = of(EventKind::RebuildStart);
    let copies = of(EventKind::RebuildCopy);
    let dones = of(EventKind::RebuildDone);
    assert_eq!(starts.len(), 1, "exactly one rebuild pass");
    assert_eq!(dones.len(), 1);
    assert_eq!(copies.len() as u64, rb.slots_copied);
    assert!(copies.iter().all(|c| c.time >= starts[0].time));
    assert!(copies.iter().all(|c| c.time <= dones[0].time));
    assert_eq!(
        dones[0].a, rb.slots_copied,
        "RebuildDone carries the slot count"
    );

    let recovered = of(EventKind::FaultNodeRecovered);
    assert_eq!(recovered.len(), 1, "the crashed node returns exactly once");
    assert!(
        recovered[0].b > 0,
        "FaultNodeRecovered must carry the measured degraded window"
    );
    assert!(
        !of(EventKind::ReplicaFailover).is_empty(),
        "no failover event despite a crash window"
    );
}

#[test]
fn replica_failover_read_emits_the_golden_trace() {
    // Minimal pinned scenario: one reader, three I/O nodes, RF=2, the
    // primary of slot 0 crashed. The read must be served by the surviving
    // copy and emit exactly one ReplicaFailover naming (slot 0 → ion 1).
    let sim = Sim::new(43);
    sim.tracer().arm(100_000);
    let machine = Rc::new(Machine::new(&sim, MachineConfig::tiny_instant(1, 3)));
    let faults = sim.faults();
    faults.protect_node(machine.service_node().0 as u16);
    let crash = machine.io_node(0).0 as u16;
    let pfs = ParallelFs::new_with_redundancy(machine, Redundancy::Replicated { rf: 2 });
    let sim2 = sim.clone();
    let h = sim.spawn(async move {
        let id = pfs
            .create("/pfs/golden", StripeAttrs::across(3, 16 * KB))
            .await
            .unwrap();
        pfs.populate_with(id, 96 * KB, |i| pattern_byte(43, i))
            .await
            .unwrap();
        let now = sim2.now();
        faults.crash_node(crash, now, now + SimDuration::from_secs(1_000_000));
        faults.arm();
        let f = pfs
            .open(0, 1, id, IoMode::MUnix, OpenOptions::default())
            .unwrap();
        let data = f.read(16 * 1024).await.unwrap();
        data == pattern_slice(43, 0, 16 * 1024)
    });
    sim.run();
    assert!(
        h.try_take().expect("run finished"),
        "failover read returned wrong bytes"
    );
    let golden: Vec<(EventKind, u64, u64)> = sim
        .tracer()
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::ReplicaFailover)
        .map(|e| (e.kind, e.a, e.b))
        .collect();
    assert_eq!(
        golden,
        vec![(EventKind::ReplicaFailover, 0, 1)],
        "slot 0's read must abandon crashed ion 0 for the copy on ion 1"
    );
}

/// Rebuild-storm smoke (also run as a CI stage): crash 1 of 16 I/O nodes
/// under RF=2 and make sure the foreground completes cleanly while the
/// storm of re-replication copies drains behind it.
#[test]
fn rebuild_storm_smoke_sixteen_ions() {
    let mut cfg = replicated_cfg(44);
    cfg.compute_nodes = 8;
    cfg.io_nodes = 16;
    cfg.layout = StripeLayout::Across { factor: 16 };
    cfg.file_size = 16 << 20;
    cfg.faults.ion_crash = Some((3, SimDuration::from_millis(20), SimDuration::from_secs(60)));
    let r = run(&cfg);
    assert_eq!(r.read_errors, 0, "foreground saw a read error");
    assert_eq!(r.verify_failures, 0, "foreground saw corrupt data");
    let (failovers, reads) = (r.work.get("replica.failovers"), r.work.get("replica.reads"));
    assert!(
        failovers > 0 && reads > 0,
        "replica counters must be nonzero under a crash: {failovers} failovers / {reads} reads"
    );
    let rb = r.rebuild.expect("storm must trigger re-replication");
    assert!(rb.slots_copied > 0 && rb.bytes_copied > 0);
    assert_eq!(r.rebuild_pending, 0, "rebuild queue did not drain");
}
