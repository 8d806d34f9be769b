//! Time-resolved telemetry for an experiment run.
//!
//! The flight recorder answers *what happened to one request*; this
//! module answers *where simulated time goes in aggregate*. [`Telemetry`]
//! holds one gauge per instantaneous level on the whole I/O path:
//! per-I/O-node disk queues, server request queues, mesh bytes in
//! flight, ART active-list length, prefetch buffer-list occupancy, and
//! the number of compute nodes currently inside a read call. Its
//! `metrics-sampler` task on the simulation kernel samples every gauge
//! at a fixed simulated-time cadence, so the series are a pure function
//! of the seed. Work counters are not gauges: the measured phase's
//! boundaries each take a [`Work`] snapshot, and the report shows their
//! difference. The read-time distribution comes from the per-request
//! timers the node programs keep ([`RunResult::access_time_histogram`]).
//!
//! On top of the raw snapshot, [`metrics_report`] derives the
//! bottleneck-attribution report: per-component utilizations, a
//! Little's-law consistency cross-check (time-mean concurrency vs
//! throughput × latency), and — when a trace was recorded — agreement
//! between the utilization ranking and the trace-derived access-time
//! decomposition. The report's pretty JSON is a pure function of the
//! seed and config, so CI gates it like an experiment record: a fresh
//! report must equal the committed `BENCH_metrics.json` byte for byte.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use paragon_core::PrefetchGauges;
use paragon_metrics::{Json, MetricsSnapshot};
use paragon_pfs::ParallelFs;
use paragon_profile::{critical_paths, CriticalPath, SpanKind};
use paragon_sim::{Sim, SimDuration};

use crate::config::ExperimentConfig;
use crate::result::RunResult;
use crate::work::Work;

/// Stable dotted names of the gauges and histograms. Per-I/O-node
/// gauges append an `.ion<N>` suffix (`disk.queue.ion3`); everything
/// else uses the constant verbatim. `tests/vocabulary_coverage.rs`
/// checks that each name in `names::ALL` is sampled or reported by an
/// instrumented run. Counter names are [`Work`]'s.
pub mod names {
    paragon_metrics::metric_names! {
        /// Gauge: outstanding commands across every disk of one/all arrays.
        DISK_QUEUE = "disk.queue";
        /// Gauge: requests being handled by one/all I/O-node servers.
        SERVER_QUEUE = "server.queue";
        /// Gauge: message bytes currently in mesh transit.
        MESH_INFLIGHT_BYTES = "mesh.inflight_bytes";
        /// Gauge: ARTs on the active FIFO across all compute nodes.
        ART_ACTIVE = "art.active";
        /// Gauge: prefetch buffers held across all open files.
        PREFETCH_BUFFERS = "prefetch.buffers";
        /// Gauge: compute-node bytes those prefetch buffers pin.
        PREFETCH_BYTES = "prefetch.bytes";
        /// Gauge: compute nodes currently inside a read call.
        NODES_IN_IO = "cn.nodes_in_io";
        /// Histogram: per-request end-to-end read time, seconds.
        READ_TIME_S = "read.time_s";
        /// Gauge: stripe slots still awaiting re-replication (drains to
        /// exactly zero once a rebuild completes).
        REBUILD_QUEUE = "rebuild.queue";
    }
}

/// The per-I/O-node variant of a metric name: `disk.queue.ion3`.
pub(crate) fn ion_metric(base: &str, ion: usize) -> String {
    format!("{base}.ion{ion}")
}

/// A polled gauge: reads one instantaneous level.
type Gauge = Box<dyn Fn() -> f64>;

/// Add gauge `name` to `gauges`. Each name is sampled into one series,
/// so registering it twice is a bug.
fn register(gauges: &mut BTreeMap<String, Gauge>, name: &str, f: impl Fn() -> f64 + 'static) {
    let prev = gauges.insert(name.to_string(), Box::new(f));
    assert!(prev.is_none(), "duplicate gauge {name}");
}

/// One run's telemetry: every gauge, the samples its `metrics-sampler`
/// task takes of them over the measured phase, and the [`Work`] at the
/// phase's start and end.
pub struct Telemetry {
    sim: Sim,
    pfs: Rc<ParallelFs>,
    cadence: SimDuration,
    /// Every gauge, sorted by name: the order each sample polls them in.
    gauges: BTreeMap<String, Gauge>,
    /// Sample times, one series per gauge, and the phase bounds.
    samples: RefCell<MetricsSnapshot>,
    /// Set at the phase's end: the sampler's pending wakeup exits
    /// without another sample.
    stopped: Cell<bool>,
    phase: RefCell<[Work; 2]>,
    /// Wire to node programs: ±1 around every read call.
    pub in_io: Rc<Cell<i64>>,
    /// Wire to every prefetching file via `set_gauges`.
    pub prefetch: PrefetchGauges,
}

impl Telemetry {
    /// Build the gauges of `pfs` and its machine, covering the whole I/O
    /// path. Gauges read live `Cell`s, so sampling emits no events and
    /// draws no randomness.
    pub(crate) fn new(sim: &Sim, pfs: &Rc<ParallelFs>, cadence: SimDuration) -> Rc<Telemetry> {
        assert!(!cadence.is_zero(), "sampler cadence must be positive");
        let mut gauges = BTreeMap::new();
        let machine = pfs.machine();
        let ions = machine.io_nodes();

        let in_io = Rc::new(Cell::new(0i64));
        let c = in_io.clone();
        register(&mut gauges, names::NODES_IN_IO, move || c.get() as f64);
        let prefetch = PrefetchGauges::default();
        let g = prefetch.entries.clone();
        register(&mut gauges, names::PREFETCH_BUFFERS, move || g.get() as f64);
        let g = prefetch.bytes.clone();
        register(&mut gauges, names::PREFETCH_BYTES, move || g.get() as f64);

        let mut every_disk = Vec::new();
        for i in 0..ions {
            let cells = machine.raid(i).member_queue_cells();
            every_disk.extend(cells.iter().cloned());
            register(&mut gauges, &ion_metric(names::DISK_QUEUE, i), move || {
                cells.iter().map(|c| c.get() as f64).sum()
            });
        }
        register(&mut gauges, names::DISK_QUEUE, move || {
            every_disk.iter().map(|c| c.get() as f64).sum()
        });

        let server_cells = pfs.server_inflight_cells();
        for (i, cell) in server_cells.iter().enumerate() {
            let c = cell.clone();
            let name = ion_metric(names::SERVER_QUEUE, i);
            register(&mut gauges, &name, move || c.get() as f64);
        }
        register(&mut gauges, names::SERVER_QUEUE, move || {
            server_cells.iter().map(|c| c.get() as f64).sum()
        });

        let c = pfs.rpc_net().inflight_bytes_cell();
        register(&mut gauges, names::MESH_INFLIGHT_BYTES, move || {
            c.get() as f64
        });
        let c = pfs.rebuild_pending_cell();
        register(&mut gauges, names::REBUILD_QUEUE, move || c.get() as f64);
        let p = pfs.clone();
        register(&mut gauges, names::ART_ACTIVE, move || {
            p.art_active() as f64
        });

        let series = gauges.keys().map(|k| (k.clone(), Vec::new())).collect();
        Rc::new(Telemetry {
            sim: sim.clone(),
            pfs: pfs.clone(),
            cadence,
            gauges,
            samples: RefCell::new(MetricsSnapshot {
                series,
                ..MetricsSnapshot::default()
            }),
            stopped: Cell::new(false),
            phase: RefCell::default(),
            in_io,
            prefetch,
        })
    }

    /// Poll every gauge into its series, stamped with the sim clock.
    fn sample(&self) {
        let mut s = self.samples.borrow_mut();
        s.times_ns.push(self.sim.now().as_nanos());
        for (vals, gauge) in s.series.values_mut().zip(self.gauges.values()) {
            vals.push(gauge());
        }
    }

    /// Start the measured phase: the start's [`Work`] and one sample are
    /// taken, then the `metrics-sampler` task samples now and every
    /// cadence after until [`Telemetry::end`].
    pub(crate) fn begin(self: &Rc<Self>) {
        self.phase.borrow_mut()[0] = Work::of(&self.sim, &self.pfs);
        self.samples.borrow_mut().phase_start_ns = self.sim.now().as_nanos();
        self.sample();
        let t = self.clone();
        self.sim.spawn_named("metrics-sampler", async move {
            while !t.stopped.get() {
                t.sample();
                t.sim.sleep(t.cadence).await;
            }
        });
    }

    /// End the measured phase: the sampler is stopped, then the end's
    /// [`Work`] and one last sample are taken.
    pub(crate) fn end(&self) {
        self.stopped.set(true);
        self.phase.borrow_mut()[1] = Work::of(&self.sim, &self.pfs);
        self.samples.borrow_mut().phase_end_ns = self.sim.now().as_nanos();
        self.sample();
    }

    /// Hand over the run's telemetry: the gauge samples, and the
    /// [`Work`] at the measured phase's start and end.
    pub(crate) fn snapshot(&self) -> (MetricsSnapshot, [Work; 2]) {
        (self.samples.take(), self.phase.take())
    }
}

/// Build the bottleneck-attribution report for an instrumented run.
///
/// Sections: `meta` (the run config), `counters` (the measured phase's
/// [`Work`]: end minus start) and `scalars` (flat `name → number`), then `series`,
/// `histograms` and `bottleneck` for humans and renderers. The pretty
/// JSON puts one key per line, so a diff against the committed baseline
/// names each counter or scalar that moved.
pub fn metrics_report(cfg: &ExperimentConfig, result: &RunResult) -> Json {
    let snap = result
        .metrics
        .clone()
        .expect("metrics_report needs a run with metrics_cadence set");
    let elapsed_ns = snap.phase_end_ns.saturating_sub(snap.phase_start_ns).max(1) as f64;
    let elapsed_s = snap.elapsed_s().max(1e-12);
    let cn = cfg.compute_nodes as f64;
    let ions = cfg.io_nodes as f64;
    let [start, end] = result
        .phase_work
        .as_ref()
        .expect("metrics_report needs a run with metrics_cadence set");
    let work = end.since(start);
    let delta = |name: &str| work.get(name) as f64;

    // Component utilizations: busy time over capacity × elapsed.
    // Spindles per I/O node: data members plus the parity member, if the
    // machine was built with one.
    let spindles_per_ion = cfg.calib.raid_members + usize::from(cfg.calib.raid_parity);
    let spindles = (spindles_per_ion * cfg.io_nodes).max(1) as f64;
    let util_disk = delta("disk.busy_ns") / (spindles * elapsed_ns);
    let threads = (cfg.calib.server_threads * cfg.io_nodes).max(1) as f64;
    // A server thread stays held across its disk await, so its busy time
    // covers the service *and* disk span phases, not server CPU alone.
    let util_server = delta("server.busy_ns") / (threads * elapsed_ns);
    let util_mesh = delta("mesh.nic_busy_ns.max") / elapsed_ns;
    let art_mean = snap.series_time_mean(names::ART_ACTIVE).unwrap_or(0.0);
    let util_art = art_mean / (cn * cfg.calib.max_arts.max(1) as f64);
    let reads: u64 = result.per_node.iter().map(|n| n.reads).sum();
    let util_compute = cfg.delay.as_nanos() as f64 * reads as f64 / (cn * elapsed_ns);

    // Little's law at the client station: L = time-mean concurrency,
    // λ = completed reads per second, W = mean end-to-end read time.
    // L ≈ λW when the gauges, the counters, and the per-request timers
    // agree about the same run — the internal-consistency cross-check.
    let l = snap.series_time_mean(names::NODES_IN_IO).unwrap_or(0.0);
    let lambda = reads as f64 / elapsed_s;
    let demand: Vec<CriticalPath> = critical_paths(&result.trace)
        .into_iter()
        .filter(|p| p.kind != SpanKind::Prefetch)
        .collect();
    let w = if demand.is_empty() {
        result.read_time_mean().as_secs_f64()
    } else {
        demand
            .iter()
            .map(|p| SimDuration::from_nanos(p.total_ns()).as_secs_f64())
            .sum::<f64>()
            / demand.len() as f64
    };
    let littles_ratio = if lambda * w > 0.0 {
        l / (lambda * w)
    } else {
        1.0
    };

    // Bottleneck attribution: rank components by utilization, then
    // cross-check the hardware ranking (disk/server/mesh) against the
    // trace-derived span decomposition: the busiest component should
    // own the largest share of the end-to-end access time.
    let mut ranking = [
        ("disk", util_disk),
        ("server", util_server),
        ("mesh", util_mesh),
        ("art", util_art),
        ("cn_compute", util_compute),
    ];
    ranking.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    let consistent = span_consistency(&demand, util_disk, util_mesh);

    let mut scalars = std::collections::BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        scalars.insert(k.to_string(), Json::Num(v));
    };
    put("bandwidth_mb_s", result.bandwidth_mb_s());
    put("read_time_mean_s", result.read_time_mean().as_secs_f64());
    put("elapsed_s", elapsed_s);
    put("util.disk", util_disk);
    put("util.server", util_server);
    put("util.mesh", util_mesh);
    put("util.art", util_art);
    put("util.cn_compute", util_compute);
    put("littles_law.l", l);
    put("littles_law.lambda_per_s", lambda);
    put("littles_law.w_s", w);
    put("littles_law.ratio", littles_ratio);
    put("bottleneck.consistent", f64::from(consistent));
    put(
        "prefetch.hit_ratio",
        if result.prefetch_enabled {
            result.prefetch.hit_ratio()
        } else {
            0.0
        },
    );
    // Replication scalars are gated on the redundancy mode so that
    // baseline reports committed before replication existed stay
    // byte-compatible with every non-replicated run.
    if matches!(cfg.redundancy, paragon_pfs::Redundancy::Replicated { .. }) {
        put(
            "replica.failovers",
            result.work.get("replica.failovers") as f64,
        );
        put("replica.reads", result.work.get("replica.reads") as f64);
        put("rebuild.pending_end", result.rebuild_pending as f64);
        put(
            "rebuild.bytes",
            result
                .rebuild
                .as_ref()
                .map_or(0.0, |r| r.bytes_copied as f64),
        );
    }

    let mut meta = std::collections::BTreeMap::new();
    meta.insert("seed".into(), Json::Num(cfg.seed as f64));
    meta.insert("compute_nodes".into(), Json::Num(cn));
    meta.insert("io_nodes".into(), Json::Num(ions));
    meta.insert("request_size".into(), Json::Num(cfg.request_size as f64));
    meta.insert("file_size".into(), Json::Num(cfg.file_size as f64));
    meta.insert("prefetch".into(), Json::Bool(result.prefetch_enabled));
    meta.insert(
        "cadence_ns".into(),
        Json::Num(cfg.metrics_cadence.map_or(0, SimDuration::as_nanos) as f64),
    );
    meta.insert("samples".into(), Json::Num(snap.times_ns.len() as f64));

    let mut bottleneck = std::collections::BTreeMap::new();
    bottleneck.insert(
        "ranking".into(),
        Json::Arr(
            ranking
                .iter()
                .map(|(n, _)| Json::Str((*n).to_string()))
                .collect(),
        ),
    );
    bottleneck.insert("top".into(), Json::Str(ranking[0].0.to_string()));

    let mut counters = std::collections::BTreeMap::new();
    for (k, v) in work.iter() {
        counters.insert(k.to_string(), Json::Num(v as f64));
    }
    let mut series = std::collections::BTreeMap::new();
    series.insert(
        "times_ns".into(),
        Json::Arr(snap.times_ns.iter().map(|&t| Json::Num(t as f64)).collect()),
    );
    for (k, vals) in &snap.series {
        series.insert(
            k.clone(),
            Json::Arr(vals.iter().map(|&v| Json::Num(v)).collect()),
        );
    }
    let mut histograms = std::collections::BTreeMap::new();
    if let Some(h) = result.access_time_histogram().summary() {
        histograms.insert(names::READ_TIME_S.to_string(), h);
    }

    let mut root = std::collections::BTreeMap::new();
    root.insert("meta".into(), Json::Obj(meta));
    root.insert("scalars".into(), Json::Obj(scalars));
    root.insert("bottleneck".into(), Json::Obj(bottleneck));
    root.insert("counters".into(), Json::Obj(counters));
    root.insert("series".into(), Json::Obj(series));
    root.insert("histograms".into(), Json::Obj(histograms));
    Json::Obj(root)
}

/// Does the utilization ranking agree with the trace-derived span
/// decomposition? Only the two layers with non-overlapping attribution
/// are compared — disk utilization ↔ the disk span phase, mesh (NIC)
/// utilization ↔ request + reply transit — because the other stations
/// nest: a server thread stays held across the disk command, and an ART
/// is active across mesh, server, and disk. The busier hardware layer by
/// counters must also own more of the end-to-end access time by trace.
/// With no spans recorded the check is vacuously true.
fn span_consistency(demand: &[CriticalPath], disk: f64, mesh: f64) -> bool {
    if demand.is_empty() {
        return true;
    }
    let mut sums = [0u64; 4];
    for p in demand {
        for (sum, ns) in sums.iter_mut().zip(p.phases()) {
            *sum += ns;
        }
    }
    let [request, _, time_disk, reply] = sums;
    (disk >= mesh) == (time_disk >= request + reply)
}

/// Render the report for humans: a utilization table, the bottleneck
/// line, Little's-law numbers, and queue-depth profiles as ASCII charts.
pub fn render_report(report: &Json) -> String {
    use paragon_metrics::{AsciiChart, Series, Table};
    let scalar = |name: &str| {
        report
            .get("scalars")
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let mut out = String::new();

    let mut t = Table::new(
        "component utilization (measured phase)",
        &["component", "utilization"],
    );
    for name in ["disk", "server", "mesh", "art", "cn_compute"] {
        t.row(&[
            name.to_string(),
            format!("{:.4}", scalar(&format!("util.{name}"))),
        ]);
    }
    out.push_str(&t.render());
    let top = report
        .get("bottleneck")
        .and_then(|b| b.get("top"))
        .and_then(Json::as_str)
        .unwrap_or("?");
    out.push_str(&format!(
        "\nbottleneck: {top}   (ranking consistent with trace spans: {})\n",
        if scalar("bottleneck.consistent") == 1.0 {
            "yes"
        } else {
            "NO"
        }
    ));
    out.push_str(&format!(
        "bandwidth: {:.2} MB/s   mean read: {:.3} ms   Little's law L/(λW) = {:.3}\n",
        scalar("bandwidth_mb_s"),
        scalar("read_time_mean_s") * 1e3,
        scalar("littles_law.ratio"),
    ));
    // The cross-check's W is a mean; the distribution behind it matters
    // just as much (a fat p99 with a healthy mean is the classic
    // stuck-in-a-queue signature), so the read-time percentiles ride
    // along on the same line group.
    let hists = report.get("histograms").and_then(Json::as_obj);
    if let Some(h) = hists.and_then(|hs| hs.get(names::READ_TIME_S)) {
        let f = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "read.time_s percentiles: p50 {:.3} ms   p90 {:.3} ms   p99 {:.3} ms   max {:.3} ms   (n = {})\n",
            f("p50") * 1e3,
            f("p90") * 1e3,
            f("p99") * 1e3,
            f("max") * 1e3,
            f("count") as u64,
        ));
    }
    out.push('\n');

    // Every recorded distribution, through its tail.
    if let Some(hs) = hists.filter(|hs| !hs.is_empty()) {
        let mut t = Table::new(
            "histograms (measured phase)",
            &["name", "count", "mean", "p50", "p90", "p99", "max"],
        );
        for (name, h) in hs {
            let f = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            t.row(&[
                name.clone(),
                format!("{}", f("count") as u64),
                format!("{:.6}", f("mean")),
                format!("{:.6}", f("p50")),
                format!("{:.6}", f("p90")),
                format!("{:.6}", f("p99")),
                format!("{:.6}", f("max")),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }

    // Queue-depth / occupancy profiles over the measured phase.
    if let Some(series) = report.get("series").and_then(Json::as_obj) {
        let times: Vec<f64> = series
            .get("times_ns")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_f64)
                    .map(|t| t * 1e-9)
                    .collect()
            })
            .unwrap_or_default();
        let points = |name: &str| -> Vec<(f64, f64)> {
            series
                .get(name)
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_f64)
                        .zip(times.iter().copied())
                        .map(|(v, t)| (t, v))
                        .collect()
                })
                .unwrap_or_default()
        };
        let chart = AsciiChart::new("queue depths over time", "simulated seconds", "depth")
            .series(Series::new(names::DISK_QUEUE, points(names::DISK_QUEUE)))
            .series(Series::new(
                names::SERVER_QUEUE,
                points(names::SERVER_QUEUE),
            ))
            .series(Series::new(names::NODES_IN_IO, points(names::NODES_IN_IO)));
        out.push_str(&chart.render());
        let pf = points(names::PREFETCH_BUFFERS);
        if pf.iter().any(|&(_, v)| v != 0.0) {
            let chart =
                AsciiChart::new("prefetch buffers over time", "simulated seconds", "buffers")
                    .series(Series::new(names::PREFETCH_BUFFERS, pf));
            out.push('\n');
            out.push_str(&chart.render());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StripeLayout;
    use paragon_machine::Calibration;
    use paragon_pfs::IoMode;

    /// A small paper-calibrated config: real service times, so queues
    /// form, utilizations are meaningful, and the sampler gets to tick.
    fn instrumented() -> ExperimentConfig {
        ExperimentConfig {
            seed: 11,
            compute_nodes: 2,
            io_nodes: 2,
            calib: Calibration::paragon_1995(),
            mode: IoMode::MRecord,
            fast_path: true,
            stripe_unit: 16 * 1024,
            layout: StripeLayout::Across { factor: 2 },
            request_size: 16 * 1024,
            file_size: 512 * 1024,
            delay: SimDuration::ZERO,
            prefetch: None,
            access: crate::config::AccessPattern::ModeDriven,
            separate_files: false,
            verify_data: false,
            trace_cap: 1 << 18,
            faults: crate::config::FaultSpec::default(),
            redundancy: paragon_pfs::Redundancy::None,
            metrics_cadence: Some(SimDuration::from_millis(20)),
        }
    }

    #[test]
    fn instrumented_run_profiles_the_io_path() {
        let cfg = instrumented();
        let r = crate::run(&cfg);
        let snap = r.metrics.as_ref().expect("metrics on");
        assert!(snap.times_ns.len() > 2, "sampler never ticked");
        for g in [
            names::DISK_QUEUE,
            names::SERVER_QUEUE,
            names::MESH_INFLIGHT_BYTES,
            names::ART_ACTIVE,
            names::NODES_IN_IO,
            names::PREFETCH_BYTES,
        ] {
            assert!(snap.series.contains_key(g), "missing gauge series {g}");
        }
        assert!(snap.series_max(names::NODES_IN_IO).unwrap_or(0.0) > 0.0);
        // An I/O-bound run keeps nodes inside read calls nearly all the
        // time, and Little's law ties the three measurements together.
        let report = metrics_report(&cfg, &r);
        let scalar = |n: &str| {
            report
                .get("scalars")
                .and_then(|s| s.get(n))
                .and_then(Json::as_f64)
                .unwrap()
        };
        let util_disk = scalar("util.disk");
        assert!(util_disk > 0.0 && util_disk <= 1.0, "util.disk {util_disk}");
        let ratio = scalar("littles_law.ratio");
        assert!(
            (0.7..=1.3).contains(&ratio),
            "Little's-law cross-check failed: {ratio}"
        );
        assert_eq!(scalar("bottleneck.consistent"), 1.0);
        let text = render_report(&report);
        assert!(text.contains("bottleneck:"));
        assert!(text.contains("queue depths over time"));
        // The read-time distribution is printed through its tail, next
        // to the Little's-law cross-check it contextualizes.
        assert!(
            text.contains("read.time_s percentiles: p50"),
            "missing percentile line:\n{text}"
        );
        assert!(text.contains("p99"), "percentiles stop short of p99");
        assert!(
            text.contains("histograms (measured phase)"),
            "missing histogram table:\n{text}"
        );
    }

    #[test]
    fn instrumented_runs_are_deterministic_and_leak_free() {
        // Balanced workload: the compute delay lets prefetched buffers
        // sit in the list long enough for sampler ticks to see them
        // (I/O-bound depth-1 buffers are consumed the moment they land).
        let mut cfg = instrumented().with_prefetch();
        cfg.delay = SimDuration::from_millis(15);
        let a = crate::run(&cfg);
        let b = crate::run(&cfg);
        assert_eq!(a.trace_hash, b.trace_hash);
        // Byte-identical reports: the JSON the perf gate diffs.
        let ja = metrics_report(&cfg, &a).pretty();
        let jb = metrics_report(&cfg, &b).pretty();
        assert_eq!(ja, jb, "same seed must render identical report JSON");
        // Prefetch buffers were held mid-run and all freed at close.
        let snap = a.metrics.unwrap();
        let bytes = &snap.series[names::PREFETCH_BYTES];
        assert!(
            snap.series_max(names::PREFETCH_BYTES).unwrap() > 0.0,
            "prefetch never held a buffer"
        );
        assert_eq!(
            *bytes.last().unwrap(),
            0.0,
            "close leaked prefetch buffer bytes"
        );
        assert_eq!(*snap.series[names::PREFETCH_BUFFERS].last().unwrap(), 0.0);
    }

    #[test]
    fn counters_are_the_measured_phase_window() {
        let cfg = instrumented();
        let r = crate::run(&cfg);
        let [start, end] = r.phase_work.as_ref().expect("metrics on");
        let report = metrics_report(&cfg, &r);
        let counters = report.get("counters").and_then(Json::as_obj).unwrap();
        let delta = |name: &str| counters[name].as_f64().unwrap() as u64;
        assert_eq!(counters.len(), end.iter().count());
        for (name, at_end) in end.iter() {
            assert_eq!(start.get(name) + delta(name), at_end, "{name}");
        }
        // The workload reads; only the setup's populate writes, and it
        // writes each I/O node's UFS directly, not through its server.
        for name in ["disk.bytes_written", "ufs.bytes_written"] {
            assert_eq!(delta(name), 0, "{name} moved in the measured phase");
            assert!(r.work.get(name) > 0, "{name} never moved");
        }
        assert_eq!(r.work.get("server.writes"), 0);
        assert!(delta("disk.busy_ns.ion0") > 0 && delta("mesh.hops") > 0);
    }

    #[test]
    fn sampler_ticks_on_the_cadence_between_the_phase_bounds() {
        let mut cfg = instrumented();
        cfg.metrics_cadence = Some(SimDuration::from_millis(100));
        let snap = crate::run(&cfg).metrics.expect("metrics on");
        // The phase-start sample and the task's first tick at the same
        // instant, one tick per 100 ms, then the phase-end sample.
        let (start, end) = (117_628_206, 389_345_873);
        assert_eq!((snap.phase_start_ns, snap.phase_end_ns), (start, end));
        let ticks = [start + 100_000_000, start + 200_000_000];
        assert_eq!(snap.times_ns, [start, start, ticks[0], ticks[1], end]);
        for series in snap.series.values() {
            assert_eq!(series.len(), snap.times_ns.len());
        }

        // The sampler task lives only in instrumented runs.
        let sampler_seen = |cadence| {
            let mut cfg = instrumented();
            cfg.metrics_cadence = cadence;
            let seen = Rc::new(Cell::new(false));
            let s = seen.clone();
            let r = crate::run_with(&cfg, move |ctx: crate::NodeCtx| {
                let labels = ctx.sim.pending_task_labels();
                s.set(s.get() || labels.contains(&"metrics-sampler"));
                async { crate::NodeResult::default() }
            });
            assert_eq!(r.metrics.is_some(), cadence.is_some());
            seen.get()
        };
        assert!(sampler_seen(cfg.metrics_cadence));
        assert!(!sampler_seen(None));
    }

    #[test]
    #[should_panic(expected = "duplicate gauge")]
    fn duplicate_gauge_names_are_a_bug() {
        let mut gauges = BTreeMap::new();
        register(&mut gauges, "x", || 0.0);
        register(&mut gauges, "x", || 1.0);
    }

    #[test]
    fn ion_metric_names_are_stable() {
        assert_eq!(ion_metric(names::DISK_QUEUE, 3), "disk.queue.ion3");
        assert_eq!(ion_metric(names::SERVER_QUEUE, 0), "server.queue.ion0");
    }
}
