//! # paragon-metrics — tables, ASCII figures, and experiment records
//!
//! Rendering and aggregation for the experiment harness: aligned-text
//! [`Table`]s (the paper's tables), multi-series [`AsciiChart`]s (the
//! paper's figures), JSON [`ExperimentRecord`]s for the
//! paper-vs-measured bookkeeping, exact-quantile [`Histogram`]s, and
//! the [`MetricsSnapshot`] an instrumented run's gauge sampling fills.
//! Plain data and rendering only: the sampling task is the experiment
//! driver's.

mod chart;
mod hist;
mod json;
mod record;
mod snapshot;
mod table;

pub use chart::{AsciiChart, Series};
pub use hist::Histogram;
pub use json::Json;
pub use record::{DataPoint, ExperimentRecord};
pub use snapshot::MetricsSnapshot;
pub use table::Table;

/// Declares a module's metric names: one documented `pub const` per
/// name plus `ALL`, every name in declaration order, so a test can check
/// that each one is registered or exported without a list to keep in
/// sync by hand.
#[macro_export]
macro_rules! metric_names {
    ($($(#[$doc:meta])* $name:ident = $value:literal;)*) => {
        $($(#[$doc])* pub const $name: &str = $value;)*
        /// Every name declared above.
        pub const ALL: &[&str] = &[$($name),*];
    };
}
