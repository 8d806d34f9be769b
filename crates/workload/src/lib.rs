//! # paragon-workload — synthetic SPMD workloads and the experiment driver
//!
//! The paper evaluates prefetching with synthetic workloads: extensive
//! parallel reads of large shared files, with configurable compute delays
//! between I/O calls ("balanced" workloads), under various request sizes,
//! stripe units, and stripe groups. [`ExperimentConfig`] captures one
//! such setup, [`run`] executes it on a freshly-built simulated Paragon,
//! and [`RunResult`] reports the paper's metrics (collective read
//! bandwidth, per-request access times, per-node fairness, prefetch
//! hit/waste accounting).

mod config;
mod driver;
mod result;
pub mod telemetry;

pub use config::{AccessPattern, ExperimentConfig, FaultSpec, StripeLayout};
pub use driver::run;
pub use result::RunResult;
pub use telemetry::{metrics_check, metrics_report, render_report};
