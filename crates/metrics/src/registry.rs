//! A deterministic, sim-clock-driven metrics registry.
//!
//! The flight recorder answers *what happened to one request*; this
//! module answers *where time goes in aggregate*. Components expose live
//! instruments — cheap closures over their own `Rc<Cell<_>>` state or
//! stats snapshots — and register them here under stable dotted names.
//! A [`Sampler`] task scheduled on the simulation kernel then snapshots
//! every gauge at a fixed simulated-time cadence, producing time series
//! that are a pure function of the seed (BTreeMap-keyed, no ambient
//! clock, no allocation-order dependence).
//!
//! Instrument taxonomy:
//!
//! * **Gauge** — an instantaneous level (queue depth, bytes in flight,
//!   buffers held). Registered as a closure, polled by the sampler into
//!   a time series; the report derives time-weighted means from it.
//! * **Counter** — a monotone total (requests served, busy nanoseconds).
//!   Also a closure, but polled only twice: at the measured-phase start
//!   and at the end, so setup-phase activity (file population) is
//!   excluded by construction. The report sees the delta.
//! * **Histogram** — a distribution recorded after the run from
//!   per-request samples (access times, span phases); summarized as
//!   count/mean/min/max and exact p50/p90/p99.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use paragon_sim::{Sim, SimDuration};

use crate::hist::Histogram;
use crate::json::Json;

/// A polled instrument: reads the current value of a gauge or counter.
type Source = Rc<dyn Fn() -> f64>;

#[derive(Default)]
struct Inner {
    gauges: BTreeMap<String, Source>,
    counters: BTreeMap<String, Source>,
    hists: BTreeMap<String, Histogram>,
    /// Counter values at the measured-phase start.
    baseline: BTreeMap<String, f64>,
    /// Counter values at the measured-phase end.
    finals: BTreeMap<String, f64>,
    /// Sample timestamps, nanoseconds of simulated time.
    times: Vec<u64>,
    /// One time series per gauge, index-aligned with `times`.
    series: BTreeMap<String, Vec<f64>>,
    phase_start_ns: u64,
    phase_end_ns: u64,
}

/// The registry: instruments keyed by stable dotted names.
///
/// Clone freely — clones share the same instrument table.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<Inner>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a gauge under `name`. The closure is polled on every
    /// sampler tick; it must be cheap and side-effect free.
    pub fn register_gauge(&self, name: &str, f: impl Fn() -> f64 + 'static) {
        let mut inner = self.inner.borrow_mut();
        let prev = inner.gauges.insert(name.to_string(), Rc::new(f));
        assert!(prev.is_none(), "duplicate gauge {name}");
    }

    /// Register a gauge backed by a fresh `Rc<Cell<i64>>` and hand the
    /// cell back for the instrumented component to mutate.
    pub fn gauge_cell(&self, name: &str) -> Rc<Cell<i64>> {
        let cell = Rc::new(Cell::new(0i64));
        let c = cell.clone();
        self.register_gauge(name, move || c.get() as f64);
        cell
    }

    /// Register a counter under `name`. The closure is polled at the
    /// measured-phase boundaries; the report sees `end − start`.
    pub fn register_counter(&self, name: &str, f: impl Fn() -> f64 + 'static) {
        let mut inner = self.inner.borrow_mut();
        let prev = inner.counters.insert(name.to_string(), Rc::new(f));
        assert!(prev.is_none(), "duplicate counter {name}");
    }

    /// Record one histogram sample under `name` (created on first use).
    pub fn record(&self, name: &str, v: f64) {
        self.inner
            .borrow_mut()
            .hists
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Poll every gauge into its time series, stamped `now_ns`.
    pub(crate) fn sample(&self, now_ns: u64) {
        // Collect sources first so gauge closures run without the
        // registry borrowed (a closure may consult a component that
        // itself holds a registry handle).
        let sources: Vec<(String, Source)> = {
            let inner = self.inner.borrow();
            inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        let values: Vec<(String, f64)> = sources.into_iter().map(|(k, f)| (k, f())).collect();
        let mut inner = self.inner.borrow_mut();
        inner.times.push(now_ns);
        for (k, v) in values {
            inner.series.entry(k).or_default().push(v);
        }
    }

    fn poll_counters(&self) -> Vec<(String, f64)> {
        let sources: Vec<(String, Source)> = {
            let inner = self.inner.borrow();
            inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        sources.into_iter().map(|(k, f)| (k, f())).collect()
    }

    /// Mark the measured-phase start: counters are snapshotted as the
    /// baseline and one gauge sample is taken.
    pub fn mark_phase_start(&self, now_ns: u64) {
        let polled = self.poll_counters();
        {
            let mut inner = self.inner.borrow_mut();
            inner.phase_start_ns = now_ns;
            inner.baseline = polled.into_iter().collect();
        }
        self.sample(now_ns);
    }

    /// Mark the measured-phase end: counters are snapshotted as finals
    /// and one last gauge sample is taken.
    pub fn finish(&self, now_ns: u64) {
        let polled = self.poll_counters();
        {
            let mut inner = self.inner.borrow_mut();
            inner.phase_end_ns = now_ns;
            inner.finals = polled.into_iter().collect();
        }
        self.sample(now_ns);
    }

    /// Freeze everything into a plain-data snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut inner = self.inner.borrow_mut();
        let counters = inner
            .finals
            .iter()
            .map(|(k, v)| {
                let base = inner.baseline.get(k).copied().unwrap_or(0.0);
                (k.clone(), v - base)
            })
            .collect();
        let hists = {
            // Summarizing sorts in place, hence the mutable walk.
            let mut out = BTreeMap::new();
            for (k, h) in inner.hists.iter_mut() {
                out.insert(k.clone(), HistSummary::of(h));
            }
            out
        };
        MetricsSnapshot {
            phase_start_ns: inner.phase_start_ns,
            phase_end_ns: inner.phase_end_ns,
            times_ns: inner.times.clone(),
            series: inner.series.clone(),
            counters,
            hists,
        }
    }
}

/// Five-number summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    pub count: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl HistSummary {
    /// Summarize `h` (zeros when empty).
    pub(crate) fn of(h: &mut Histogram) -> HistSummary {
        HistSummary {
            count: h.len(),
            mean: h.mean().unwrap_or(0.0),
            min: h.min().unwrap_or(0.0),
            max: h.max().unwrap_or(0.0),
            p50: h.quantile(0.50).unwrap_or(0.0),
            p90: h.quantile(0.90).unwrap_or(0.0),
            p99: h.quantile(0.99).unwrap_or(0.0),
        }
    }

    /// As a JSON object.
    pub fn to_json(&self) -> Json {
        let mut o = BTreeMap::new();
        o.insert("count".into(), Json::Num(self.count as f64));
        o.insert("mean".into(), Json::Num(self.mean));
        o.insert("min".into(), Json::Num(self.min));
        o.insert("max".into(), Json::Num(self.max));
        o.insert("p50".into(), Json::Num(self.p50));
        o.insert("p90".into(), Json::Num(self.p90));
        o.insert("p99".into(), Json::Num(self.p99));
        Json::Obj(o)
    }
}

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
    /// Measured-phase counter deltas.
    pub counters: BTreeMap<String, f64>,
    /// Histogram summaries.
    pub hists: BTreeMap<String, HistSummary>,
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
pub(crate) fn time_mean(times: &[u64], vals: &[f64]) -> Option<f64> {
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

/// Samples every registered gauge at a fixed simulated-time cadence.
///
/// The sampler is a plain task on the simulation kernel, so its ticks
/// interleave deterministically with the workload. It must be stopped
/// (via [`Sampler::stop`]) when the measured phase ends, otherwise it
/// would keep the simulation alive forever.
pub struct Sampler {
    stop: Rc<Cell<bool>>,
}

impl Sampler {
    /// Spawn the sampling task: one `MetricsRegistry::sample` now and
    /// then every `cadence` of simulated time until stopped.
    pub fn start(sim: &Sim, registry: &MetricsRegistry, cadence: SimDuration) -> Sampler {
        assert!(!cadence.is_zero(), "sampler cadence must be positive");
        let stop = Rc::new(Cell::new(false));
        let stop2 = stop.clone();
        let reg = registry.clone();
        let sim2 = sim.clone();
        sim.spawn_named("metrics-sampler", async move {
            loop {
                if stop2.get() {
                    break;
                }
                reg.sample(sim2.now().as_nanos());
                sim2.sleep(cadence).await;
            }
        });
        Sampler { stop }
    }

    /// Stop sampling; the pending wakeup exits without another sample.
    pub fn stop(&self) {
        self.stop.set(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::Sim;

    #[test]
    fn gauge_series_follow_the_sim_clock() {
        let sim = Sim::new(7);
        let reg = MetricsRegistry::new();
        let cell = reg.gauge_cell("q.depth");
        let sampler = Sampler::start(&sim, &reg, SimDuration::from_millis(10));
        let (s, c, smp) = (sim.clone(), cell.clone(), sampler);
        let r2 = reg.clone();
        sim.spawn(async move {
            r2.mark_phase_start(s.now().as_nanos());
            for i in 0..5i64 {
                c.set(i);
                s.sleep(SimDuration::from_millis(10)).await;
            }
            smp.stop();
            r2.finish(s.now().as_nanos());
        });
        let report = sim.run();
        assert_eq!(report.unfinished_tasks, 0, "sampler must not linger");
        let snap = reg.snapshot();
        let series = &snap.series["q.depth"];
        // Initial tick + phase-start + 5 cadence ticks + final sample.
        assert!(series.len() >= 6, "got {} samples", series.len());
        assert_eq!(snap.series_max("q.depth"), Some(4.0));
        let mean = snap.series_time_mean("q.depth").unwrap();
        assert!(mean > 0.0 && mean < 4.0, "time mean {mean}");
    }

    #[test]
    fn counters_are_phase_deltas() {
        let reg = MetricsRegistry::new();
        let total = Rc::new(Cell::new(100u64));
        let t = total.clone();
        reg.register_counter("reqs", move || t.get() as f64);
        reg.mark_phase_start(0);
        total.set(175);
        reg.finish(1_000);
        assert_eq!(reg.snapshot().counters["reqs"], 75.0);
    }

    #[test]
    fn time_mean_weights_by_interval() {
        // Value 0 for 90 ns then 10 for 10 ns → mean 1.0.
        assert_eq!(time_mean(&[0, 90, 100], &[0.0, 10.0, 10.0]), Some(1.0));
        assert_eq!(time_mean(&[], &[]), None);
        assert_eq!(time_mean(&[5], &[3.0]), Some(3.0));
        // Zero span degenerates to the last value.
        assert_eq!(time_mean(&[5, 5], &[1.0, 9.0]), Some(9.0));
    }

    #[test]
    fn hist_summary_summarizes() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let s = HistSummary::of(&mut h);
        assert_eq!((s.count, s.min, s.max), (100, 1.0, 100.0));
        assert_eq!((s.p50, s.p90, s.p99), (50.0, 90.0, 99.0));
        let j = s.to_json();
        assert_eq!(j.get("count").and_then(Json::as_f64), Some(100.0));
    }

    #[test]
    #[should_panic(expected = "duplicate gauge")]
    fn duplicate_names_are_a_bug() {
        let reg = MetricsRegistry::new();
        reg.register_gauge("x", || 0.0);
        reg.register_gauge("x", || 1.0);
    }
}
