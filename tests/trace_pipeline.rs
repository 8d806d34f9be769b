//! Cross-layer flight-recorder tests: the trace a run records must be
//! causally ordered across every layer, reproducible bit-for-bit under
//! the same seed, and rich enough to reconstruct the paper's Table-2
//! access-time decomposition from the events alone.

use std::rc::Rc;

use paragon::machine::{Calibration, Machine, MachineConfig};
use paragon::pfs::{pattern_byte, IoMode, OpenOptions, ParallelFs, StripeAttrs};
use paragon::prefetch::{PrefetchConfig, PrefetchingFile};
use paragon::profile::{critical_paths, SpanKind};
use paragon::sim::{export_json, hash_events, EventKind, Sim, TraceEvent};
use paragon::workload::{run, ExperimentConfig};

const KB: u64 = 1024;

/// One M_RECORD read with prefetching on, on a 1-compute / 2-I/O-node
/// machine with the 1995 calibration, fully traced.
fn golden_trace() -> Vec<TraceEvent> {
    let sim = Sim::new(11);
    sim.tracer().arm(1 << 16);
    let machine = Rc::new(Machine::new(
        &sim,
        MachineConfig {
            compute_nodes: 1,
            io_nodes: 2,
            calib: Calibration::paragon_1995(),
        },
    ));
    let pfs = ParallelFs::new(machine);
    let h = sim.spawn(async move {
        let id = pfs
            .create("/pfs/golden", StripeAttrs::across(2, 64 * KB))
            .await
            .unwrap();
        pfs.populate_with(id, 512 * KB, |i| pattern_byte(13, i))
            .await
            .unwrap();
        let f = pfs
            .open(0, 1, id, IoMode::MRecord, OpenOptions::default())
            .unwrap();
        let pf = PrefetchingFile::new(f, PrefetchConfig::paper_prototype());
        // A single-stripe-unit request: one server, one causal chain.
        pf.read(16 * 1024).await.unwrap();
        pf.close().await
    });
    sim.run();
    h.try_take().expect("golden read completed");
    sim.tracer().events()
}

/// Index of the first event of `kind` for request `req`.
fn pos(events: &[TraceEvent], req: u64, kind: EventKind) -> usize {
    events
        .iter()
        .position(|e| e.req == req && e.kind == kind)
        .unwrap_or_else(|| panic!("no {kind:?} for req {req}"))
}

#[test]
fn golden_read_events_are_causally_ordered_across_layers() {
    let events = golden_trace();
    // The demand read is the request that both missed the prefetch list
    // and completed a read.
    let demand = events
        .iter()
        .find(|e| e.kind == EventKind::PrefetchMiss)
        .expect("first read misses")
        .req;
    assert!(
        events
            .iter()
            .any(|e| e.req == demand && e.kind == EventKind::ReadDone),
        "demand read completed under the same request id"
    );
    // Client → mesh → server → disk → server → mesh → client, each
    // boundary strictly after the previous one in the recording.
    let chain = [
        EventKind::PrefetchMiss,
        EventKind::ReadStart,
        EventKind::NetTx,
        EventKind::NetRx,
        EventKind::ServeStart,
        EventKind::DiskStart,
        EventKind::DiskDone,
        EventKind::ServeDone,
        EventKind::ReadDone,
    ];
    let positions: Vec<usize> = chain.iter().map(|&k| pos(&events, demand, k)).collect();
    for (w, pair) in positions.windows(2).enumerate() {
        assert!(
            pair[0] < pair[1],
            "{:?} (at {}) must precede {:?} (at {})",
            chain[w],
            pair[0],
            chain[w + 1],
            pair[1]
        );
    }
    // The reply leg: a second NetRx lands after the server finishes.
    let serve_done = pos(&events, demand, EventKind::ServeDone);
    assert!(
        events
            .iter()
            .enumerate()
            .any(|(i, e)| i > serve_done && e.req == demand && e.kind == EventKind::NetRx),
        "reply message delivered back to the client"
    );
    // The prefetch the engine issued rides the ART under its own id.
    let pf_req = events
        .iter()
        .find(|e| e.kind == EventKind::PrefetchIssue)
        .expect("engine issued a prefetch")
        .req;
    assert_ne!(pf_req, demand, "prefetch gets its own request id");
    assert!(
        pos(&events, pf_req, EventKind::PrefetchIssue) < pos(&events, pf_req, EventKind::ArtSubmit),
        "prefetch is issued before it is handed to an ART"
    );
}

/// Table-1 I/O-bound workload with the recorder armed.
fn traced_table1() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_iobound(64 * 1024, 1).with_prefetch();
    cfg.trace_cap = 1 << 20;
    cfg
}

#[test]
fn same_seed_table1_runs_export_byte_identical_traces() {
    let a = run(&traced_table1());
    let b = run(&traced_table1());
    assert!(!a.trace.is_empty(), "recorder was armed");
    assert_eq!(hash_events(&a.trace), hash_events(&b.trace));
    assert_eq!(export_json(&a.trace), export_json(&b.trace));
    // A different seed must not reproduce the recording.
    let mut other = traced_table1();
    other.seed += 1;
    let c = run(&other);
    assert_ne!(hash_events(&a.trace), hash_events(&c.trace));
}

#[test]
fn trace_derived_decomposition_matches_measured_latency() {
    // No prefetching: every application read is a traced demand span, so
    // the trace-derived end-to-end times must agree with the driver's
    // own measurement.
    let mut cfg = ExperimentConfig::paper_iobound(64 * 1024, 1);
    cfg.trace_cap = 1 << 20;
    let r = run(&cfg);
    let paths: Vec<_> = critical_paths(&r.trace)
        .into_iter()
        .filter(|p| p.kind != SpanKind::Prefetch)
        .collect();
    assert!(!paths.is_empty(), "demand reads were reconstructed");
    // Phases partition each read exactly — the decomposition never
    // loses or invents time.
    for p in &paths {
        let [_, _, disk, _] = p.phases();
        assert_eq!(p.phases().iter().sum::<u64>(), p.total_ns());
        assert!(disk > 0, "I/O-bound reads touch disk");
    }
    // And the reconstructed mean matches the driver's measured mean
    // access time to within 1%.
    let trace_mean = paths
        .iter()
        .map(|p| p.total_ns() as f64 * 1e-9)
        .sum::<f64>()
        / paths.len() as f64;
    let measured = r.read_time_mean().as_secs_f64();
    let rel = (trace_mean - measured).abs() / measured;
    assert!(
        rel < 0.01,
        "trace mean {trace_mean:.6}s vs measured {measured:.6}s (rel {rel:.4})"
    );
}
