//! # paragon-profile — critical paths and timelines
//!
//! Two observability layers over the reproduction, both derived from
//! artifacts the rest of the workspace already produces:
//!
//! * [`critical_paths`] reconstructs each request's span DAG from the flight
//!   recorder and charges every nanosecond of its end-to-end latency to
//!   exactly one pipeline component — integer-exact blame, so the
//!   per-component sums reproduce the total with no float drift. The
//!   paper's Table-2 phases (request/service/disk/reply) are fixed sums
//!   of those legs.
//! * [`export_perfetto`] renders a recording (plus optional telemetry counter
//!   series) as Chrome-trace JSON: one thread lane per CN/ION/spindle,
//!   duration slices for paired start/done events, flow arrows stitching
//!   a request's legs across lanes. Open the file in ui.perfetto.dev.
//!
//! Everything here is read-only over deterministic inputs, so both
//! outputs are pure functions of `(seed, config)`, and no path reads the
//! host clock.

mod critical;
mod perfetto;

pub use critical::{critical_paths, render_critical_path, CriticalPath, PhaseBreakdown, SpanKind};
pub use perfetto::export_perfetto;
