//! # paragon-workload — synthetic SPMD workloads and the experiment driver
//!
//! The paper evaluates prefetching with synthetic workloads: extensive
//! parallel reads of large shared files, with configurable compute delays
//! between I/O calls ("balanced" workloads), under various request sizes,
//! stripe units, and stripe groups. [`ExperimentConfig`] captures one
//! such setup and [`run_with`] executes a per-rank program on a
//! freshly-built simulated Paragon; [`run`] is `run_with` of the
//! synthetic read program, and the extension studies hand it their own
//! (write-behind writers, `aread` double buffering). [`RunResult`]
//! reports the paper's metrics (collective bandwidth, per-request access
//! times, per-node fairness, prefetch hit/waste accounting) and, as one
//! [`Work`] snapshot, every layer's work counters.

mod config;
mod driver;
mod result;
pub mod telemetry;
mod work;

pub use config::{AccessPattern, ExperimentConfig, FaultSpec, StripeLayout};
pub use driver::{run, run_with, NodeCtx};
pub use result::{NodeResult, RunResult};
pub use telemetry::{metrics_report, render_report};
pub use work::Work;
