//! Time-resolved telemetry for an experiment run.
//!
//! The flight recorder answers *what happened to one request*; this
//! module answers *where simulated time goes in aggregate*. It wires the
//! whole I/O path into a [`MetricsRegistry`]: per-I/O-node disk queues
//! and busy time, server request queues and thread busy time, mesh
//! bytes-in-flight and NIC occupancy, ART active-list length, prefetch
//! buffer-list occupancy, and the number of compute nodes currently
//! inside a read call. A [`Sampler`] task on the simulation kernel
//! snapshots every gauge at a fixed simulated-time cadence, so the
//! series are a pure function of the seed.
//!
//! On top of the raw snapshot, [`metrics_report`] derives the
//! bottleneck-attribution report: per-component utilizations, a
//! Little's-law consistency cross-check (time-mean concurrency vs
//! throughput × latency), and — when a trace was recorded — agreement
//! between the utilization ranking and the trace-derived access-time
//! decomposition. [`metrics_check`] compares one report against a
//! committed baseline — run config and work counters exactly, scalars
//! within per-metric tolerance bands: the CI perf gate.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use paragon_core::PrefetchGauges;
use paragon_machine::Machine;
use paragon_metrics::{Json, MetricsRegistry, MetricsSnapshot, Sampler};
use paragon_pfs::ParallelFs;
use paragon_profile::{critical_paths, CriticalPath, PhaseBreakdown, SpanKind};
use paragon_sim::{Sim, SimDuration};

use crate::config::ExperimentConfig;
use crate::result::RunResult;

/// Stable dotted metric names. Per-I/O-node instruments derive their
/// names from these via [`ion_metric`]; everything else uses the
/// constant verbatim. `tests/vocabulary_coverage.rs` checks that each
/// name in `names::ALL` is registered by an instrumented run.
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
        /// Counter: disk busy nanoseconds, summed over spindles.
        DISK_BUSY_NS = "disk.busy_ns";
        /// Counter: disk commands issued.
        DISK_REQUESTS = "disk.requests";
        /// Counter: server thread-held nanoseconds. A thread stays held
        /// across its disk await, so this covers the service *and* disk
        /// span phases, not server CPU alone.
        SERVER_BUSY_NS = "server.busy_ns";
        /// Counter: bytes the servers read off their file systems.
        SERVER_BYTES_READ = "server.bytes_read";
        /// Counter: mesh payload bytes sent.
        MESH_BYTES = "mesh.bytes";
        /// Counter: mesh messages sent.
        MESH_MESSAGES = "mesh.messages";
        /// Counter: router hops traversed, summed over messages.
        MESH_HOPS = "mesh.hops";
        /// Counter: busiest single NIC's occupancy nanoseconds.
        NIC_BUSY_NS_MAX = "mesh.nic_busy_ns.max";
        /// Counter: NIC occupancy nanoseconds summed over all nodes.
        NIC_BUSY_NS_TOTAL = "mesh.nic_busy_ns.total";
        /// Counter: asynchronous request threads submitted.
        ART_SUBMITTED = "art.submitted";
        /// Counter: asynchronous request threads completed.
        ART_COMPLETED = "art.completed";
        /// Histogram: per-request end-to-end read time, seconds.
        READ_TIME_S = "read.time_s";
        /// Gauge: stripe slots still awaiting re-replication (drains to
        /// exactly zero once a rebuild completes).
        REBUILD_QUEUE = "rebuild.queue";
        /// Counter: bytes the recovery coordinator has re-replicated.
        REBUILD_BYTES = "rebuild.bytes";
        /// Counter: reads that failed over from one replica to another.
        REPLICA_FAILOVERS = "replica.failovers";
        /// Counter: reads served by a non-primary replica.
        REPLICA_READS = "replica.reads";
        /// Counter: timer events the simulation kernel fired.
        SIM_EVENTS = "sim.events";
        /// Counter: wakes the executor handled (task polls, spurious
        /// ones included, plus dropped stale wakes).
        SIM_POLLS = "sim.polls";
        /// Counter: host bytes the I/O nodes' logical stores copied
        /// (multi-page read gather and partial-page write merge).
        DISK_STORE_BYTES_COPIED = "disk.store.bytes_copied";
    }
}

/// The per-I/O-node variant of a metric name: `disk.queue.ion3`.
pub fn ion_metric(base: &str, ion: usize) -> String {
    format!("{base}.ion{ion}")
}

/// One run's telemetry: the registry with every component instrument
/// registered, plus the sampler driving it over the measured phase.
pub struct Telemetry {
    sim: Sim,
    registry: MetricsRegistry,
    cadence: SimDuration,
    sampler: RefCell<Option<Sampler>>,
    /// Wire to node programs: ±1 around every read call.
    pub in_io: Rc<Cell<i64>>,
    /// Wire to every prefetching file via `set_gauges`.
    pub prefetch: PrefetchGauges,
}

impl Telemetry {
    /// Build a registry wired to `machine` and `pfs` and covering the
    /// whole I/O path. Gauges read live `Cell`s, so sampling emits no
    /// events and draws no randomness; counters are polled only at the
    /// measured-phase boundaries, so setup-phase activity (file
    /// population) is excluded from every delta by construction.
    pub fn new(
        sim: &Sim,
        machine: &Rc<Machine>,
        pfs: &Rc<ParallelFs>,
        cadence: SimDuration,
    ) -> Rc<Telemetry> {
        let registry = MetricsRegistry::new();
        let ions = machine.io_nodes();

        // -- Gauges: instantaneous levels, polled every sampler tick. --
        let in_io = registry.gauge_cell(names::NODES_IN_IO);
        let prefetch = PrefetchGauges::default();
        let g = prefetch.entries.clone();
        registry.register_gauge(names::PREFETCH_BUFFERS, move || g.get() as f64);
        let g = prefetch.bytes.clone();
        registry.register_gauge(names::PREFETCH_BYTES, move || g.get() as f64);

        let mut every_disk = Vec::new();
        for i in 0..ions {
            let cells = machine.raid(i).member_queue_cells();
            every_disk.extend(cells.iter().cloned());
            registry.register_gauge(&ion_metric(names::DISK_QUEUE, i), move || {
                cells.iter().map(|c| c.get() as f64).sum()
            });
        }
        registry.register_gauge(names::DISK_QUEUE, move || {
            every_disk.iter().map(|c| c.get() as f64).sum()
        });

        let server_cells = pfs.server_inflight_cells();
        for (i, cell) in server_cells.iter().enumerate() {
            let c = cell.clone();
            registry.register_gauge(&ion_metric(names::SERVER_QUEUE, i), move || c.get() as f64);
        }
        registry.register_gauge(names::SERVER_QUEUE, move || {
            server_cells.iter().map(|c| c.get() as f64).sum()
        });

        let c = pfs.rpc_net().inflight_bytes_cell();
        registry.register_gauge(names::MESH_INFLIGHT_BYTES, move || c.get() as f64);
        let c = pfs.rebuild_pending_cell();
        registry.register_gauge(names::REBUILD_QUEUE, move || c.get() as f64);
        let p = pfs.clone();
        registry.register_gauge(names::ART_ACTIVE, move || p.art_active() as f64);

        // -- Counters: monotone totals, polled at phase boundaries. --
        for i in 0..ions {
            let m = machine.clone();
            registry.register_counter(&ion_metric(names::DISK_BUSY_NS, i), move || {
                m.raid(i)
                    .member_stats()
                    .iter()
                    .map(|s| s.busy.as_nanos() as f64)
                    .sum()
            });
            let p = pfs.clone();
            registry.register_counter(&ion_metric(names::SERVER_BUSY_NS, i), move || {
                p.server_busy_ns()[i] as f64
            });
        }
        let m = machine.clone();
        registry.register_counter(names::DISK_BUSY_NS, move || {
            (0..ions)
                .flat_map(|i| m.raid(i).member_stats())
                .map(|s| s.busy.as_nanos() as f64)
                .sum()
        });
        let m = machine.clone();
        registry.register_counter(names::DISK_REQUESTS, move || {
            (0..ions).map(|i| m.raid(i).stats().requests as f64).sum()
        });
        let p = pfs.clone();
        registry.register_counter(names::SERVER_BUSY_NS, move || {
            p.server_busy_ns().iter().map(|&n| n as f64).sum()
        });
        let p = pfs.clone();
        registry.register_counter(names::SERVER_BYTES_READ, move || {
            p.total_bytes_served() as f64
        });
        let p = pfs.clone();
        registry.register_counter(names::MESH_BYTES, move || {
            p.rpc_net().mesh_stats().bytes as f64
        });
        let p = pfs.clone();
        registry.register_counter(names::MESH_MESSAGES, move || {
            p.rpc_net().mesh_stats().messages as f64
        });
        let p = pfs.clone();
        registry.register_counter(names::MESH_HOPS, move || {
            p.rpc_net().mesh_stats().hops as f64
        });
        let p = pfs.clone();
        registry.register_counter(names::NIC_BUSY_NS_MAX, move || {
            p.rpc_net().nic_busy_ns().into_iter().max().unwrap_or(0) as f64
        });
        let p = pfs.clone();
        registry.register_counter(names::NIC_BUSY_NS_TOTAL, move || {
            p.rpc_net().nic_busy_ns().iter().map(|&n| n as f64).sum()
        });
        let p = pfs.clone();
        registry.register_counter(names::ART_SUBMITTED, move || p.art_stats().submitted as f64);
        let p = pfs.clone();
        registry.register_counter(names::ART_COMPLETED, move || p.art_stats().completed as f64);
        let c = pfs.rebuild_bytes_cell();
        registry.register_counter(names::REBUILD_BYTES, move || c.get() as f64);
        let c = pfs.replica_failovers_cell();
        registry.register_counter(names::REPLICA_FAILOVERS, move || c.get() as f64);
        let c = pfs.replica_reads_cell();
        registry.register_counter(names::REPLICA_READS, move || c.get() as f64);
        // Host work, counted exactly: what a host-time slowdown is made
        // of, without the host clock's noise.
        let s = sim.clone();
        registry.register_counter(names::SIM_EVENTS, move || {
            s.report().events_processed as f64
        });
        let s = sim.clone();
        registry.register_counter(names::SIM_POLLS, move || s.report().polls as f64);
        let m = machine.clone();
        registry.register_counter(names::DISK_STORE_BYTES_COPIED, move || {
            (0..ions)
                .map(|i| m.raid(i).raid_stats().store_bytes_copied as f64)
                .sum()
        });

        Rc::new(Telemetry {
            sim: sim.clone(),
            registry,
            cadence,
            sampler: RefCell::new(None),
            in_io,
            prefetch,
        })
    }

    /// Start the measured phase: counters are baselined and the sampler
    /// task begins ticking at the configured cadence.
    pub fn begin(&self) {
        self.registry.mark_phase_start(self.sim.now().as_nanos());
        *self.sampler.borrow_mut() = Some(Sampler::start(&self.sim, &self.registry, self.cadence));
    }

    /// End the measured phase: the sampler is stopped (its pending
    /// wakeup exits without sampling) and counter finals are taken.
    pub fn end(&self) {
        if let Some(s) = self.sampler.borrow_mut().take() {
            s.stop();
        }
        self.registry.finish(self.sim.now().as_nanos());
    }

    /// Record one histogram sample (post-run, from per-request data).
    pub fn record(&self, name: &str, v: f64) {
        self.registry.record(name, v);
    }

    /// Freeze the run's telemetry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Build the bottleneck-attribution report for an instrumented run.
///
/// [`metrics_check`] gates three sections against a committed baseline:
/// `meta` (the run config) and `counters` (measured-phase work counts)
/// exactly, and `"scalars"` (flat `name → number`) within tolerance
/// bands. The rest (`series`, `histograms`, `bottleneck`) is context for
/// humans and renderers.
pub fn metrics_report(cfg: &ExperimentConfig, result: &RunResult) -> Json {
    let snap = result
        .metrics
        .clone()
        .expect("metrics_report needs a run with metrics_cadence set");
    let elapsed_ns = snap.phase_end_ns.saturating_sub(snap.phase_start_ns).max(1) as f64;
    let elapsed_s = snap.elapsed_s().max(1e-12);
    let cn = cfg.compute_nodes as f64;
    let ions = cfg.io_nodes as f64;
    let delta = |name: &str| snap.counters.get(name).copied().unwrap_or(0.0);

    // Component utilizations: busy time over capacity × elapsed.
    // Spindles per I/O node: data members plus the parity member, if the
    // machine was built with one.
    let calib = cfg.effective_calib();
    let spindles_per_ion = calib.raid_members + usize::from(calib.raid_parity);
    let spindles = (spindles_per_ion * cfg.io_nodes).max(1) as f64;
    let util_disk = delta(names::DISK_BUSY_NS) / (spindles * elapsed_ns);
    let threads = (cfg.calib.server_threads * cfg.io_nodes).max(1) as f64;
    let util_server = delta(names::SERVER_BUSY_NS) / (threads * elapsed_ns);
    let util_mesh = delta(names::NIC_BUSY_NS_MAX) / elapsed_ns;
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
        put("replica.failovers", result.replica_failovers as f64);
        put("replica.reads", result.replica_reads as f64);
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
    for (k, v) in &snap.counters {
        counters.insert(k.clone(), Json::Num(*v));
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
    for (k, h) in &snap.hists {
        histograms.insert(k.clone(), h.to_json());
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
    let [request, _, disk_phase, reply] = PhaseBreakdown::of(demand).phases;
    let phase = |h: &paragon_metrics::Histogram| h.mean().unwrap_or(0.0) * h.len() as f64;
    let time_disk = phase(&disk_phase);
    let time_mesh = phase(&request) + phase(&reply);
    (disk >= mesh) == (time_disk >= time_mesh)
}

/// Compare a current report against a committed baseline: the CI perf
/// gate. Empty result = gate passes.
///
/// 1. `meta` first: a report of a different run config (seed, shape,
///    request size, prefetch, cadence, samples) is not comparable, so
///    each differing key is one violation naming both values, and the
///    other sections are not compared.
/// 2. `counters` are exact, host-independent work counts: a missing
///    key, an extra key or a different value is a violation, and
///    `tolerance` does not loosen them.
/// 3. `scalars` get per-metric tolerance bands. Utilizations (names
///    starting `util.`) and ratios (names ending `.ratio`) are compared
///    absolutely within 0.05; a zero baseline demands an exact zero;
///    everything else is relative within 10%. `tolerance` overrides the
///    band width for every scalar (relative, with the same width used
///    absolutely for the utilization/ratio class and zero baselines).
///    Missing or extra scalars are violations too.
pub fn metrics_check(current: &Json, baseline: &Json, tolerance: Option<f64>) -> Vec<String> {
    let exact = |_: &str, c: &Json, b: &Json| {
        let show = |v: &Json| v.pretty().trim_end().to_owned();
        (c != b).then(|| format!("{} vs baseline {} (must match exactly)", show(c), show(b)))
    };
    let mut violations = Vec::new();
    compare_section(current, baseline, "meta", exact, &mut violations);
    if !violations.is_empty() {
        return violations;
    }
    compare_section(current, baseline, "counters", exact, &mut violations);
    if section(baseline, "scalars").is_empty() {
        violations.push("baseline has no scalars object".into());
    }
    let banded = |name: &str, c: &Json, b: &Json| {
        // A non-numeric current value is infinitely far off.
        let (c, b) = (c.as_f64().unwrap_or(f64::INFINITY), b.as_f64()?);
        let absolute_class = name.starts_with("util.") || name.ends_with(".ratio");
        let (limit, style) = if absolute_class {
            (tolerance.unwrap_or(0.05), "absolute")
        } else if b == 0.0 {
            (tolerance.unwrap_or(0.0), "absolute")
        } else {
            (tolerance.unwrap_or(0.10) * b.abs(), "relative")
        };
        let diff = (c - b).abs();
        (diff > limit).then(|| format!("{c} vs baseline {b} ({style} diff {diff:.6} > {limit:.6})"))
    };
    compare_section(current, baseline, "scalars", banded, &mut violations);
    violations
}

/// A report's object-valued section `key` (empty when absent).
fn section<'a>(report: &'a Json, key: &str) -> &'a std::collections::BTreeMap<String, Json> {
    static EMPTY: std::collections::BTreeMap<String, Json> = std::collections::BTreeMap::new();
    report.get(key).and_then(Json::as_obj).unwrap_or(&EMPTY)
}

/// Compare section `key` of two reports entry by entry: a missing or an
/// extra entry is a violation, and `differs` judges each shared one.
fn compare_section(
    current: &Json,
    baseline: &Json,
    key: &str,
    differs: impl Fn(&str, &Json, &Json) -> Option<String>,
    violations: &mut Vec<String>,
) {
    let (cur, base) = (section(current, key), section(baseline, key));
    for (name, b) in base {
        let problem = match cur.get(name) {
            None => Some(format!("missing (baseline {})", b.pretty().trim_end())),
            Some(c) => differs(name, c, b),
        };
        violations.extend(problem.map(|p| format!("{key}.{name}: {p}")));
    }
    for (name, c) in cur.iter().filter(|(name, _)| !base.contains_key(*name)) {
        violations.push(format!(
            "{key}.{name}: {} not in baseline",
            c.pretty().trim_end()
        ));
    }
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
        // The workload drives real disk and mesh work in the phase.
        assert!(snap.counters[names::DISK_BUSY_NS] > 0.0);
        assert!(snap.counters[names::MESH_BYTES] > 0.0);
        assert!(snap.counters[names::MESH_HOPS] > 0.0);
        assert!(snap.counters[&ion_metric(names::DISK_BUSY_NS, 0)] > 0.0);
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
        // A report always passes its own gate.
        assert!(metrics_check(&report, &report, None).is_empty());
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
    fn mount_level_parity_counts_the_parity_spindle() {
        // `--redundancy parity` and `calib.raid_parity = true` build the
        // same machine, so they must report the same disk utilization.
        let util_disk = |cfg: &ExperimentConfig| {
            metrics_report(cfg, &crate::run(cfg))
                .get("scalars")
                .and_then(|s| s.get("util.disk"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        let mut mount = instrumented();
        mount.redundancy = paragon_pfs::Redundancy::ParityRaid;
        let mut calib = instrumented();
        calib.calib.raid_parity = true;
        let plain = util_disk(&instrumented());
        let (mount, calib) = (util_disk(&mount), util_disk(&calib));
        assert_eq!(mount, calib);
        assert_ne!(mount, plain, "the parity member must count as a spindle");
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

    /// A report with the given sections, each a flat `name → number`.
    fn report(sections: &[(&str, &[(&str, f64)])]) -> Json {
        let obj = |entries: &[(&str, f64)]| {
            Json::Obj(
                entries
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Json::Num(*v)))
                    .collect(),
            )
        };
        Json::Obj(
            sections
                .iter()
                .map(|(k, e)| ((*k).to_string(), obj(e)))
                .collect(),
        )
    }

    fn report_with(scalars: &[(&str, f64)]) -> Json {
        report(&[("scalars", scalars)])
    }

    fn with_counters(counters: &[(&str, f64)]) -> Json {
        report(&[("scalars", &[("a", 1.0)]), ("counters", counters)])
    }

    #[test]
    fn check_passes_identical_reports() {
        let r = report_with(&[("util.disk", 0.8), ("bandwidth_mb_s", 3.2)]);
        assert!(metrics_check(&r, &r, None).is_empty());
    }

    #[test]
    fn check_applies_absolute_band_to_utilizations_and_ratios() {
        let base = report_with(&[("util.disk", 0.80), ("littles_law.ratio", 1.00)]);
        let ok = report_with(&[("util.disk", 0.84), ("littles_law.ratio", 0.96)]);
        assert!(metrics_check(&ok, &base, None).is_empty());
        let bad = report_with(&[("util.disk", 0.86), ("littles_law.ratio", 1.00)]);
        let v = metrics_check(&bad, &base, None);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("util.disk"));
    }

    #[test]
    fn check_applies_relative_band_elsewhere_and_exact_zero() {
        let base = report_with(&[("bandwidth_mb_s", 10.0), ("read_errors", 0.0)]);
        let ok = report_with(&[("bandwidth_mb_s", 10.9), ("read_errors", 0.0)]);
        assert!(metrics_check(&ok, &base, None).is_empty());
        let drift = report_with(&[("bandwidth_mb_s", 8.5), ("read_errors", 0.0)]);
        assert_eq!(metrics_check(&drift, &base, None).len(), 1);
        let nonzero = report_with(&[("bandwidth_mb_s", 10.0), ("read_errors", 1.0)]);
        assert_eq!(metrics_check(&nonzero, &base, None).len(), 1);
    }

    #[test]
    fn check_flags_missing_and_extra_scalars() {
        let base = report_with(&[("a", 1.0), ("b", 2.0)]);
        let cur = report_with(&[("a", 1.0), ("c", 3.0)]);
        let v = metrics_check(&cur, &base, None);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("scalars.b: missing")));
        assert!(v.iter().any(|m| m.contains("scalars.c: 3 not in baseline")));
    }

    #[test]
    fn check_compares_counters_exactly_under_any_tolerance() {
        let base = with_counters(&[("sim.polls", 100.0), ("disk.store.bytes_copied", 0.0)]);
        assert!(metrics_check(&base, &base, None).is_empty());
        let off_by_one = with_counters(&[("sim.polls", 101.0), ("disk.store.bytes_copied", 0.0)]);
        for tolerance in [None, Some(1.0)] {
            let v = metrics_check(&off_by_one, &base, tolerance);
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(
                v[0].starts_with("counters.sim.polls: 101 vs baseline 100"),
                "{v:?}"
            );
        }
    }

    #[test]
    fn check_flags_missing_and_extra_counters() {
        let base = with_counters(&[("sim.events", 7.0), ("sim.polls", 9.0)]);
        let missing = with_counters(&[("sim.events", 7.0)]);
        let v = metrics_check(&missing, &base, Some(1.0));
        assert_eq!(v, ["counters.sim.polls: missing (baseline 9)"]);
        let extra = with_counters(&[("sim.events", 7.0), ("sim.polls", 9.0), ("x", 0.0)]);
        let v = metrics_check(&extra, &base, Some(1.0));
        assert_eq!(v, ["counters.x: 0 not in baseline"]);
    }

    #[test]
    fn check_rejects_a_report_of_a_different_config_before_anything_else() {
        let cfg = instrumented();
        let base = metrics_report(&cfg, &crate::run(&cfg));
        let mut reseeded = cfg.clone();
        reseeded.seed += 1;
        let mut recadenced = cfg.clone();
        recadenced.metrics_cadence = Some(SimDuration::from_millis(50));
        for (other, key) in [(reseeded, "meta.seed"), (recadenced, "meta.cadence_ns")] {
            let cur = metrics_report(&other, &crate::run(&other));
            let v = metrics_check(&cur, &base, Some(1.0));
            assert!(v.iter().any(|m| m.starts_with(key)), "{key}: {v:?}");
            assert!(v.iter().all(|m| m.starts_with("meta.")), "{v:?}");
        }
    }

    #[test]
    fn tolerance_override_widens_every_band() {
        let base = report_with(&[("util.disk", 0.5), ("bandwidth_mb_s", 10.0)]);
        let cur = report_with(&[("util.disk", 0.7), ("bandwidth_mb_s", 13.0)]);
        assert!(!metrics_check(&cur, &base, None).is_empty());
        assert!(metrics_check(&cur, &base, Some(0.35)).is_empty());
    }

    #[test]
    fn ion_metric_names_are_stable() {
        assert_eq!(ion_metric(names::DISK_QUEUE, 3), "disk.queue.ion3");
        assert_eq!(ion_metric(names::SERVER_BUSY_NS, 0), "server.busy_ns.ion0");
    }
}
