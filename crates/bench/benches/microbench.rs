//! Microbenchmarks of the simulator's hot paths: these bound the host
//! cost of every experiment (one experiment = millions of event-heap
//! operations, declustering plans, and disk service steps). Plain
//! `fn main` harness (hermetic build: no criterion); run with
//! `cargo bench --bench microbench`.

#![expect(
    clippy::disallowed_types,
    reason = "host wall-clock budget, not sim-visible"
)]

use std::hint::black_box;
use std::time::Instant;

use paragon_pfs::StripeAttrs;
use paragon_sim::{Sim, SimDuration};

/// Run `f` `iters` times and print mean wall time per iteration.
fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> f64 {
    // One warmup iteration.
    black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<40} {:>12.3} us/iter  ({iters} iters)", per * 1e6);
    per
}

fn bench_event_loop() {
    bench("sim/10k_interleaved_timers", 20, || {
        let sim = Sim::new(1);
        for n in 0..100u64 {
            let s = sim.clone();
            sim.spawn(async move {
                for i in 0..100u64 {
                    s.sleep(SimDuration::from_micros(n * 13 + i * 7)).await;
                }
            });
        }
        sim.run().events_processed
    });
}

fn bench_channels() {
    bench("sim/channel_ping_pong_1k", 50, || {
        let sim = Sim::new(1);
        let (tx, mut rx) = paragon_sim::sync::channel::<u64>();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let mut acc = 0;
            while let Some(v) = rx.recv().await {
                acc += v;
            }
            acc
        });
        sim.spawn(async move {
            for i in 0..1000u64 {
                tx.send(i).unwrap();
                s.yield_now().await;
            }
        });
        sim.run();
        h.try_take()
    });
}

fn bench_stripe_plan() {
    let attrs = StripeAttrs::across(8, 64 * 1024);
    bench("pfs/plan_1MB_over_8", 10_000, || {
        attrs.plan(black_box(3 * 64 * 1024), black_box(1 << 20))
    });
    bench("pfs/plan_unaligned_100k", 10_000, || {
        attrs.plan(black_box(12_345), black_box(100_001))
    });
}

fn bench_disk() {
    use bytes::Bytes;
    use paragon_disk::{Disk, DiskParams, SchedPolicy};
    bench("disk/1k_sequential_reads", 10, || {
        let sim = Sim::new(1);
        let disk = Disk::new(&sim, DiskParams::scsi_1995(), SchedPolicy::Elevator, "b");
        let d2 = disk.clone();
        sim.spawn(async move {
            d2.write(0, Bytes::from(vec![1u8; 1 << 20])).await.unwrap();
        });
        sim.run();
        sim.spawn(async move {
            for i in 0..1000u64 {
                disk.read((i * 1024) % (1 << 20), 1024).await.unwrap();
            }
        });
        sim.run().events_processed
    });
}

fn end_to_end_cfg() -> paragon_workload::ExperimentConfig {
    use paragon_machine::Calibration;
    use paragon_pfs::{IoMode, Redundancy};
    use paragon_workload::{AccessPattern, ExperimentConfig, FaultSpec, StripeLayout};
    ExperimentConfig {
        seed: 1,
        compute_nodes: 4,
        io_nodes: 4,
        calib: Calibration::paragon_1995(),
        mode: IoMode::MRecord,
        fast_path: true,
        stripe_unit: 64 * 1024,
        layout: StripeLayout::Across { factor: 4 },
        request_size: 64 * 1024,
        file_size: 2 << 20,
        delay: paragon_sim::SimDuration::ZERO,
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

fn bench_end_to_end() {
    let cfg = end_to_end_cfg();
    bench("end_to_end/2MB_m_record_4x4", 10, || {
        paragon_workload::run(&cfg).bandwidth_mb_s()
    });
    let pf = cfg.clone().with_prefetch();
    bench("end_to_end/2MB_m_record_4x4_prefetch", 10, || {
        paragon_workload::run(&pf).bandwidth_mb_s()
    });
}

/// Acceptance check for the flight recorder: a disarmed run must not be
/// measurably slower than the seed's no-tracing behaviour, because
/// `Sim::emit` never evaluates its closure when recording is off. We
/// compare disarmed vs armed end-to-end runs: disarmed must not pay the
/// recording cost (the armed run allocates and stores every event).
fn bench_trace_overhead() {
    let cfg = end_to_end_cfg();
    let disarmed = bench("trace/end_to_end_disarmed", 10, || {
        paragon_workload::run(&cfg).bandwidth_mb_s()
    });
    let mut traced = cfg.clone();
    traced.trace_cap = 1 << 20;
    let armed = bench("trace/end_to_end_armed", 10, || {
        let r = paragon_workload::run(&traced);
        (r.bandwidth_mb_s(), r.trace.len())
    });
    println!(
        "trace/armed_over_disarmed               {:>12.3} x",
        armed / disarmed
    );
}

fn main() {
    bench_event_loop();
    bench_channels();
    bench_stripe_plan();
    bench_disk();
    bench_end_to_end();
    bench_trace_overhead();
}
