//! Rendering and scalar export of the parallel kernel's self-profile.
//!
//! The numbers come from `paragon_sim::run_sharded_profiled` — host-side
//! wall-clock counters the kernel collects about *itself* (never about
//! the simulation, whose bytes stay worker-count-independent). They are
//! the observability ROADMAP item 1's scaling work needs: where epochs
//! go, how much of each worker's time is parked at barriers, how much
//! frame traffic the shard cut generates, and how often the calendar
//! queue re-buckets.
//!
//! `barrier_stall_frac`, `epochs`, `cross_shard_frames`, and
//! `calendar_rebuilds` are exported as `bench.kernel.*` scalars into
//! `BENCH_metrics.json`; the stall fraction is regression-gated with a
//! one-sided ceiling in `metrics_check`.

use paragon_metrics::Table;
use paragon_sim::KernelProfile;

use crate::names;

/// The profile's `bench.kernel.*` scalar exports, in declaration order.
pub fn kernel_scalars(p: &KernelProfile) -> Vec<(&'static str, f64)> {
    vec![
        (names::KERNEL_BARRIER_STALL_FRAC, p.barrier_stall_frac()),
        (names::KERNEL_EPOCHS, p.epochs() as f64),
        (
            names::KERNEL_EVENTS_PER_HOST_SEC,
            p.events_per_host_second(),
        ),
        (
            names::KERNEL_CROSS_SHARD_FRAMES,
            p.cross_shard_frames() as f64,
        ),
        (
            names::KERNEL_CALENDAR_REBUILDS,
            p.calendar_rebuilds() as f64,
        ),
    ]
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Human-readable kernel self-profile: a per-shard table, a per-worker
/// table, and the machine-level summary line.
pub fn render_kernel_profile(p: &KernelProfile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "kernel self-profile: {} shard(s) on {} worker(s), {} epochs, {:.0} events/s host, wall {} ms\n",
        p.shards,
        p.workers,
        p.epochs(),
        p.events_per_host_second(),
        ms(p.wall_ns),
    ));
    out.push_str(&format!(
        "barrier stall: {} ms total ({:.1}% of worker time); cross-shard frames: {}; calendar rebuilds: {}\n\n",
        ms(p.barrier_stall_ns()),
        p.barrier_stall_frac() * 100.0,
        p.cross_shard_frames(),
        p.calendar_rebuilds(),
    ));

    let mut shards = Table::new(
        "per-shard",
        &[
            "shard",
            "worker",
            "epochs",
            "events",
            "frames out",
            "frames in",
            "run ms",
            "cal rebuilds",
        ],
    );
    for s in &p.per_shard {
        shards.row(&[
            s.shard.to_string(),
            s.worker.to_string(),
            s.epochs.to_string(),
            s.events_processed.to_string(),
            s.frames_out.to_string(),
            s.frames_in.to_string(),
            ms(s.run_ns),
            s.calendar_rebuilds.to_string(),
        ]);
    }
    out.push_str(&shards.render());

    let mut workers = Table::new(
        "per-worker",
        &["worker", "events", "events/s", "stall ms", "busy ms"],
    );
    for w in &p.per_worker {
        let total = w.barrier_stall_ns + w.busy_ns;
        let evps = if total == 0 {
            0.0
        } else {
            w.events_processed as f64 * 1e9 / total as f64
        };
        workers.row(&[
            w.worker.to_string(),
            w.events_processed.to_string(),
            format!("{evps:.0}"),
            ms(w.barrier_stall_ns),
            ms(w.busy_ns),
        ]);
    }
    out.push('\n');
    out.push_str(&workers.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::{ShardKernelProfile, WorkerKernelProfile};

    fn sample() -> KernelProfile {
        KernelProfile {
            shards: 2,
            workers: 2,
            wall_ns: 4_000_000,
            per_shard: vec![
                ShardKernelProfile {
                    shard: 0,
                    worker: 0,
                    epochs: 10,
                    events_processed: 1_000,
                    frames_out: 40,
                    frames_in: 38,
                    run_ns: 2_000_000,
                    calendar_rebuilds: 3,
                },
                ShardKernelProfile {
                    shard: 1,
                    worker: 1,
                    epochs: 10,
                    events_processed: 800,
                    frames_out: 38,
                    frames_in: 40,
                    run_ns: 1_500_000,
                    calendar_rebuilds: 2,
                },
            ],
            per_worker: vec![
                WorkerKernelProfile {
                    worker: 0,
                    barrier_stall_ns: 1_000_000,
                    busy_ns: 3_000_000,
                    events_processed: 1_000,
                },
                WorkerKernelProfile {
                    worker: 1,
                    barrier_stall_ns: 2_000_000,
                    busy_ns: 2_000_000,
                    events_processed: 800,
                },
            ],
        }
    }

    #[test]
    fn scalars_cover_every_names_constant() {
        let scalars = kernel_scalars(&sample());
        let keys: Vec<&str> = scalars.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, names::ALL);
        for (name, _) in &scalars {
            assert!(name.starts_with("bench.kernel."), "off-vocabulary {name}");
        }
    }

    #[test]
    fn stall_frac_and_rates_aggregate_correctly() {
        let p = sample();
        // 3 ms stall over 8 ms of summed worker time.
        assert!((p.barrier_stall_frac() - 0.375).abs() < 1e-12);
        assert_eq!(p.epochs(), 10);
        assert_eq!(p.cross_shard_frames(), 78);
        assert_eq!(p.calendar_rebuilds(), 5);
        // 1800 events over 4 ms of wall time.
        assert!((p.events_per_host_second() - 450_000.0).abs() < 1e-6);
    }

    #[test]
    fn render_mentions_every_section() {
        let out = render_kernel_profile(&sample());
        assert!(out.contains("kernel self-profile: 2 shard(s) on 2 worker(s)"));
        assert!(out.contains("per-shard"));
        assert!(out.contains("per-worker"));
        assert!(out.contains("calendar rebuilds: 5"));
    }
}
