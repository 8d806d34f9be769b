//! A small exact-quantile histogram for latency distributions.
//!
//! The harness collects at most a few thousand per-request access times
//! per run, so we simply keep the samples and sort on demand — exact
//! quantiles, no binning error, and no extra dependency.

/// Collected samples with exact quantile queries.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Non-finite samples are a caller bug.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "non-finite sample {v}");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// Exact quantile `q ∈ [0, 1]` (nearest-rank). `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// Smallest sample.
    pub(crate) fn min(&mut self) -> Option<f64> {
        self.quantile(0.0).map(|_| {
            self.ensure_sorted();
            self.samples[0]
        })
    }

    /// Largest sample.
    pub fn max(&mut self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        Some(*self.samples.last().expect("nonempty"))
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// `(p50, p90, p99)` in one call — the summary the tables print.
    pub fn percentiles(&mut self) -> Option<(f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.90)?,
            self.quantile(0.99)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(5.0));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(5.0));
        assert_eq!(h.mean(), Some(3.0));
    }

    #[test]
    fn empty_histogram_returns_none() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentiles(), None);
    }

    #[test]
    fn recording_after_query_resorts() {
        let mut h = Histogram::new();
        h.record(10.0);
        assert_eq!(h.quantile(0.5), Some(10.0));
        h.record(1.0);
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    fn p99_picks_the_tail() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let (p50, p90, p99) = h.percentiles().unwrap();
        assert_eq!((p50, p90, p99), (50.0, 90.0, 99.0));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    fn single_sample_answers_every_quantile() {
        let mut h = Histogram::new();
        h.record(7.5);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(7.5), "q={q}");
        }
        assert_eq!(h.min(), Some(7.5));
        assert_eq!(h.max(), Some(7.5));
        assert_eq!(h.mean(), Some(7.5));
        assert_eq!(h.percentiles(), Some((7.5, 7.5, 7.5)));
    }

    #[test]
    fn saturated_counts_of_one_value_stay_exact() {
        // A gauge stuck at one level produces thousands of identical
        // samples; nearest-rank must return that level at every
        // quantile with no drift from summation order.
        let mut h = Histogram::new();
        for _ in 0..10_000 {
            h.record(3.0);
        }
        assert_eq!(h.len(), 10_000);
        assert_eq!(h.percentiles(), Some((3.0, 3.0, 3.0)));
        assert_eq!(h.mean(), Some(3.0));
        assert_eq!(h.quantile(1.0 / 10_001.0), Some(3.0));
    }

    #[test]
    fn extreme_magnitudes_do_not_lose_rank_order() {
        let mut h = Histogram::new();
        for v in [f64::MAX, f64::MIN_POSITIVE, 0.0, -f64::MAX] {
            h.record(v);
        }
        assert_eq!(h.min(), Some(-f64::MAX));
        assert_eq!(h.max(), Some(f64::MAX));
        assert_eq!(h.quantile(0.5), Some(0.0));
    }
}
