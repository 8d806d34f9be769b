//! # paragon-profile — critical paths, timelines, and kernel self-profiling
//!
//! Three observability layers over the reproduction, all derived from
//! artifacts the rest of the workspace already produces:
//!
//! * [`critical`] reconstructs each request's span DAG from the flight
//!   recorder and charges every nanosecond of its end-to-end latency to
//!   exactly one pipeline component — integer-exact blame, so the
//!   per-component sums reproduce the total with no float drift. The
//!   paper's Table-2 phases (request/service/disk/reply) are fixed sums
//!   of those legs.
//! * [`perfetto`] renders a recording (plus optional telemetry counter
//!   series) as Chrome-trace JSON: one thread lane per CN/ION/spindle,
//!   duration slices for paired start/done events, flow arrows stitching
//!   a request's legs across lanes. Open the file in ui.perfetto.dev.
//! * [`kernel`] reports what the sharded parallel kernel measured about
//!   itself (see `paragon_sim::KernelProfile`): epochs, barrier stall,
//!   cross-shard frame volume, events per host second, calendar churn.
//!
//! Everything here is read-only over deterministic inputs, so the
//! critical-path and timeline outputs are byte-identical across
//! `--workers` counts. Only the kernel self-profile contains host time,
//! and it is collected exclusively by the `run_sharded_profiled` entry
//! point — plain runs never read the host clock.

pub mod critical;
pub mod kernel;
pub mod perfetto;

/// Names of the `bench.kernel.*` scalars the self-profiler exports into
/// `BENCH_metrics.json`. Declared once so the bench harness, the
/// regression gate, and the renderer cannot drift apart; a unit test
/// checks that [`kernel_scalars`] exports exactly `names::ALL`.
pub mod names {
    paragon_metrics::metric_names! {
        /// Fraction of summed worker host time parked at epoch barriers.
        KERNEL_BARRIER_STALL_FRAC = "bench.kernel.barrier_stall_frac";
        /// Conservative-lookahead epochs driven to quiescence.
        KERNEL_EPOCHS = "bench.kernel.epochs";
        /// Virtual events fired per host second, machine-wide.
        KERNEL_EVENTS_PER_HOST_SEC = "bench.kernel.events_per_host_second";
        /// Cross-shard frames handed over at epoch barriers.
        KERNEL_CROSS_SHARD_FRAMES = "bench.kernel.cross_shard_frames";
        /// Calendar-queue rebuilds summed over every shard world.
        KERNEL_CALENDAR_REBUILDS = "bench.kernel.calendar_rebuilds";
    }
}

pub use critical::{
    critical_paths, render_critical_path, CriticalPath, PhaseBreakdown, SpanKind, COMPONENTS,
};
pub use kernel::{kernel_scalars, render_kernel_profile};
pub use perfetto::export_perfetto;
