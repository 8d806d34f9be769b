//! What one instrumented run's telemetry saw, as plain data.
//!
//! The flight recorder answers *what happened to one request*; a
//! [`MetricsSnapshot`] answers *where time goes in aggregate*: one time
//! series per gauge (an instantaneous level such as a queue depth or the
//! bytes in flight), sampled at a fixed simulated-time cadence over the
//! measured phase. The sampling itself is the experiment driver's
//! (`paragon_workload::telemetry`); counters are its `Work` snapshots,
//! and distributions are [`crate::Histogram`]s over per-request samples.

use std::collections::BTreeMap;

/// Plain-data result of one instrumented run: what the sampler saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Measured-phase start, simulated nanoseconds.
    pub phase_start_ns: u64,
    /// Measured-phase end, simulated nanoseconds.
    pub phase_end_ns: u64,
    /// Sample timestamps (simulated nanoseconds), ascending.
    pub times_ns: Vec<u64>,
    /// One series per gauge, index-aligned with `times_ns`.
    pub series: BTreeMap<String, Vec<f64>>,
}

impl MetricsSnapshot {
    /// Measured-phase length in seconds.
    pub fn elapsed_s(&self) -> f64 {
        (self.phase_end_ns.saturating_sub(self.phase_start_ns)) as f64 * 1e-9
    }

    /// Time-weighted mean of gauge `name` over the measured phase: the
    /// gauge holds each sampled value until the next tick (step
    /// interpolation). `None` for unknown gauges or degenerate phases.
    pub fn series_time_mean(&self, name: &str) -> Option<f64> {
        let vals = self.series.get(name)?;
        time_mean(&self.times_ns, vals)
    }

    /// Largest sampled value of gauge `name`.
    pub fn series_max(&self, name: &str) -> Option<f64> {
        self.series
            .get(name)?
            .iter()
            .copied()
            .fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.max(v))))
    }
}

/// Step-interpolated time-weighted mean of `vals` sampled at `times`.
fn time_mean(times: &[u64], vals: &[f64]) -> Option<f64> {
    let n = times.len().min(vals.len());
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(vals[0]);
    }
    let span = times[n - 1].saturating_sub(times[0]);
    if span == 0 {
        return Some(vals[n - 1]);
    }
    let mut acc = 0.0;
    for i in 0..n - 1 {
        acc += vals[i] * times[i + 1].saturating_sub(times[i]) as f64;
    }
    Some(acc / span as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_mean_weights_by_interval() {
        // Value 0 for 90 ns then 10 for 10 ns → mean 1.0.
        assert_eq!(time_mean(&[0, 90, 100], &[0.0, 10.0, 10.0]), Some(1.0));
        assert_eq!(time_mean(&[], &[]), None);
        assert_eq!(time_mean(&[5], &[3.0]), Some(3.0));
        // Zero span degenerates to the last value.
        assert_eq!(time_mean(&[5, 5], &[1.0, 9.0]), Some(9.0));
    }
}
