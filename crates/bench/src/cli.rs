//! Argument parsing and execution for the `paragonctl` binary, kept in
//! the library so the parsing rules are unit-testable.

use paragon_core::{PredictorKind, PrefetchConfig};
use paragon_machine::Calibration;
use paragon_metrics::{ExperimentRecord, Json};
use paragon_pfs::{IoMode, Redundancy};
use paragon_profile::{
    critical_paths, export_perfetto, render_critical_path, PhaseBreakdown, SpanKind,
};
use paragon_sim::{
    export_json, hash_events, parse_json, render_track_summary, FaultStats, SimDuration, TraceEvent,
};
use paragon_workload::{
    metrics_check, metrics_report, render_report, run, AccessPattern, ExperimentConfig, FaultSpec,
    RunResult, StripeLayout,
};

use std::path::Path;
use std::process::ExitCode;

use crate::experiments::{faults_base, redundancy_sweep, Experiment, EXPERIMENTS, EXT_FAULTS};
use crate::{col, results_dir, save_record, shown, stored, HarnessError, Sweep};

/// The help text.
pub(crate) const USAGE: &str = "\
paragonctl — drive the simulated Paragon PFS

USAGE:
    paragonctl reproduce <ID|all>
    paragonctl run [OPTIONS]
    paragonctl faults [OPTIONS]
    paragonctl trace capture [OPTIONS] --out FILE
    paragonctl trace summarize FILE [--top N]
    paragonctl trace diff FILE1 FILE2
    paragonctl metrics run [OPTIONS] [--cadence-ms N] [--out FILE]
    paragonctl metrics report [FILE | OPTIONS]
    paragonctl metrics check [OPTIONS] [--baseline FILE] [--tolerance X]
    paragonctl profile critical-path [FILE | OPTIONS] [--top N]
    paragonctl profile export [FILE | OPTIONS] [--format perfetto] [--out FILE]

REPRODUCE:
    regenerate a table, figure or extension study of the paper by id
    (`all`: every one, in order): print it and write its record as
    results/<id>.json ($PARAGON_RESULTS_DIR overrides); lists the ids

PROFILE:
    critical-path  reconstruct every completed read's span DAG from a
               trace (FILE, or a fresh OPTIONS run with the recorder
               armed) and charge each nanosecond of end-to-end latency
               to one pipeline component: p50/p95/p99/max blame per
               component plus the --top N slowest requests with their
               full milestone chains. Deterministic: the same seed
               and OPTIONS give byte-identical output
    export     render the trace as Chrome-trace JSON for ui.perfetto.dev
               (one lane per CN/ION/spindle, duration slices, flow
               arrows per request; fresh runs also attach telemetry
               counter tracks)
    --format <perfetto>  output format                    [perfetto]
    --out <FILE|->       destination                      [stdout]

METRICS:
    run        run the OPTIONS-selected experiment with the telemetry
               sampler armed and write the bottleneck-attribution report
               as deterministic JSON (same seed → identical bytes)
    --cadence-ms <N>  gauge sampling cadence, simulated ms    [100]
    --out <FILE|->    report destination       [BENCH_metrics.json]
    report     render a report (from FILE, or a fresh run) as tables
               and ASCII queue-depth charts
    check      re-run and compare the report against a committed
               baseline: the run config (meta) and the work counters
               must match exactly, the scalars within per-metric
               tolerance bands; exits nonzero on regression (the CI
               perf gate)
    --baseline <FILE> committed baseline       [BENCH_metrics.json]
    --current <FILE>  compare FILE instead of re-running
    --tolerance <X>   override every scalar band width

FAULTS:
    run the OPTIONS-selected experiment once per fault class (none,
    disk-transient, dead-member, mesh-drop, ion-crash) with a RAID
    parity member, prefetching, and data verification forced on, and
    report how throughput and the prefetch hit rate degrade
    --error-pm <N>    transient disk error rate, per mille   [20]
    --drop-pm <N>     mesh message drop rate, per mille      [10]
    --redundancy all  instead run the EXT-FAULTS three-way comparison:
               the same I/O-node crash under none (client-visible
               errors), parity (in-array reconstruction), and
               replicated:2 (replica failover + online re-replication
               under the foreground load; `reproduce EXT-FAULTS` at the
               default OPTIONS); any other value selects that
               redundancy mode for the five-class sweep

TRACE:
    capture    run an experiment with the flight recorder armed and
               write the recording as JSON (same OPTIONS as `run`;
               --trace caps the recording, default 1M events)
    summarize  per-track activity and the Table-2-style access-time
               decomposition reconstructed from a trace file
    --top <N>  also list the N slowest reconstructed spans with their
               request ids (0 = omit)                     [10]
    diff       compare two trace files; exits nonzero on divergence

OPTIONS:
    --mode <m_unix|m_log|m_sync|m_record|m_global|m_async>   [m_record]
    --cn <N>              compute nodes                      [8]
    --ion <N>             I/O nodes                          [8]
    --request-kb <N>      request size                       [64]
    --file-mb <N>         total file size                    [64]
    --su-kb <N>           stripe unit                        [64]
    --sgroup <N>          stripe across first N I/O nodes    [all]
    --ways-on-one <N>     stripe N ways on I/O node 0 instead
    --delay-ms <N>        compute delay between reads        [0]
    --seed <N>            simulation seed                    [42]
    --prefetch            enable the prefetch prototype
    --depth <N>           prefetch depth (implies --prefetch) [1]
    --strided-predictor   use the stride detector (implies --prefetch)
    --pattern <mode|strided:BYTES|random|reread:N>           [mode]
    --separate            one private file per node
    --redundancy <none|parity|replicated[:rf]>  mount redundancy [none]
    --buffered            disable Fast Path (server buffer cache on)
    --verify              verify returned bytes against the pattern
    --compare             also run with prefetching toggled, print both
    --trace <N>           record and print up to N trace events
    --json                emit a JSON ExperimentRecord instead of text
";

pub(crate) struct Args(pub Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                if i + 1 >= self.0.len() {
                    return Err(format!("{name} needs a value"));
                }
                let v = self.0.remove(i + 1);
                self.0.remove(i);
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
            None => Ok(default),
        }
    }
}

pub(crate) fn parse_mode(s: &str) -> Result<IoMode, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "m_unix" | "unix" | "0" => IoMode::MUnix,
        "m_log" | "log" | "1" => IoMode::MLog,
        "m_sync" | "sync" | "2" => IoMode::MSync,
        "m_record" | "record" | "3" => IoMode::MRecord,
        "m_global" | "global" | "4" => IoMode::MGlobal,
        "m_async" | "async" | "5" => IoMode::MAsync,
        other => return Err(format!("unknown mode {other}")),
    })
}

pub(crate) fn parse_pattern(s: &str) -> Result<AccessPattern, String> {
    if s == "mode" {
        return Ok(AccessPattern::ModeDriven);
    }
    if s == "random" {
        return Ok(AccessPattern::Random);
    }
    if let Some(stride) = s.strip_prefix("strided:") {
        let stride = stride.parse().map_err(|_| format!("bad stride in {s}"))?;
        return Ok(AccessPattern::Strided { stride });
    }
    if let Some(passes) = s.strip_prefix("reread:") {
        let passes = passes
            .parse()
            .map_err(|_| format!("bad pass count in {s}"))?;
        return Ok(AccessPattern::Reread { passes });
    }
    Err(format!("unknown pattern {s}"))
}

pub(crate) fn build_config(args: &mut Args) -> Result<ExperimentConfig, String> {
    let cn: usize = args.parsed("--cn", 8)?;
    let ion: usize = args.parsed("--ion", 8)?;
    let request_kb: u32 = args.parsed("--request-kb", 64)?;
    let file_mb: u64 = args.parsed("--file-mb", 64)?;
    let su_kb: u64 = args.parsed("--su-kb", 64)?;
    let sgroup: usize = args.parsed("--sgroup", ion)?;
    let ways: usize = args.parsed("--ways-on-one", 0)?;
    let delay_ms: u64 = args.parsed("--delay-ms", 0)?;
    let seed: u64 = args.parsed("--seed", 42)?;
    let depth: u32 = args.parsed("--depth", 0)?;
    let mode = parse_mode(&args.value("--mode")?.unwrap_or_else(|| "m_record".into()))?;
    let pattern = parse_pattern(&args.value("--pattern")?.unwrap_or_else(|| "mode".into()))?;
    let strided_pred = args.flag("--strided-predictor");
    let prefetch_on = args.flag("--prefetch") || depth > 0 || strided_pred;
    let redundancy = match args.value("--redundancy")? {
        Some(v) => {
            Redundancy::parse(&v).ok_or_else(|| format!("bad value for --redundancy: {v}"))?
        }
        None => Redundancy::None,
    };

    let mut cfg = ExperimentConfig {
        seed,
        compute_nodes: cn,
        io_nodes: ion,
        calib: Calibration::paragon_1995(),
        mode,
        fast_path: !args.flag("--buffered"),
        stripe_unit: su_kb * 1024,
        layout: if ways > 0 {
            StripeLayout::WaysOnOne { ways, ion: 0 }
        } else {
            StripeLayout::Across { factor: sgroup }
        },
        request_size: request_kb * 1024,
        file_size: file_mb << 20,
        delay: SimDuration::from_millis(delay_ms),
        prefetch: None,
        access: pattern,
        separate_files: args.flag("--separate"),
        verify_data: args.flag("--verify"),
        trace_cap: args.parsed("--trace", 0)?,
        faults: FaultSpec::default(),
        redundancy,
        metrics_cadence: None,
    };
    if prefetch_on {
        let mut pc = PrefetchConfig::with_depth(depth.max(1));
        pc.copy_bw = cfg.calib.cn_copy_bw;
        if strided_pred {
            pc.predictor = PredictorKind::Strided;
        }
        cfg.prefetch = Some(pc);
    }
    cfg.validate()?;
    Ok(cfg)
}

fn report_text(label: &str, r: &RunResult) {
    println!("== {label}");
    println!("  bandwidth       {:>10.2} MB/s", r.bandwidth_mb_s());
    println!("  elapsed         {:>10}", r.elapsed);
    println!("  mean access     {:>10}", r.read_time_mean());
    println!("  total bytes     {:>10} MB", r.total_bytes >> 20);
    println!("  node imbalance  {:>10.3}", r.node_imbalance());
    println!(
        "  disk            {:>10} requests ({} seq, {} near, {} far)",
        r.disk.requests, r.disk.sequential_hits, r.disk.near_seeks, r.disk.far_seeks
    );
    if r.prefetch_enabled {
        let p = &r.prefetch;
        println!(
            "  prefetch        hits {} ({} ready / {} in-flight / {} recovered), \
             misses {}, wasted {}, hidden {}",
            p.hits(),
            p.hits_ready,
            p.hits_inflight,
            p.recovered,
            p.misses,
            p.wasted,
            p.overlap_saved
        );
    }
    if r.verify_failures > 0 {
        println!("  !! VERIFY FAILURES: {}", r.verify_failures);
    }
}

fn report_json(cfg: &ExperimentConfig, results: &[(&str, RunResult)]) {
    let mut rec = ExperimentRecord::new("CTL", "paragonctl run");
    rec.config("mode", cfg.mode)
        .config("compute_nodes", cfg.compute_nodes)
        .config("io_nodes", cfg.io_nodes)
        .config("request_kb", cfg.request_size / 1024)
        .config("file_mb", cfg.file_size >> 20)
        .config("delay_ms", cfg.delay.as_millis())
        .config("seed", cfg.seed);
    for (label, r) in results {
        rec.point(
            &[("run", label)],
            &[
                ("bw_mb_s", r.bandwidth_mb_s()),
                ("mean_access_s", r.read_time_mean().as_secs_f64()),
                ("hit_ratio", r.prefetch.hit_ratio()),
                ("node_imbalance", r.node_imbalance()),
                ("verify_failures", r.verify_failures as f64),
            ],
        );
    }
    println!("{}", rec.to_json());
}

/// Summarize parsed trace events: header, per-track table, the Table-2
/// access-time decomposition projected from each read's critical path,
/// and (for `top > 0`) the `top` slowest reads with their request ids.
pub(crate) fn summarize_events(events: &[TraceEvent], top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} events, hash {:#018x}\n\n",
        events.len(),
        hash_events(events)
    ));
    out.push_str(&render_track_summary(events));
    let paths = critical_paths(events);
    let (prefetch, demand): (Vec<_>, Vec<_>) =
        paths.iter().partition(|p| p.kind == SpanKind::Prefetch);
    if !demand.is_empty() {
        out.push_str(&format!("\ndemand reads ({} spans)\n", demand.len()));
        out.push_str(&PhaseBreakdown::of(demand).render());
    }
    if !prefetch.is_empty() {
        out.push_str(&format!(
            "\nprefetch transfers ({} spans)\n",
            prefetch.len()
        ));
        out.push_str(&PhaseBreakdown::of(prefetch).render());
    }
    if top > 0 && !paths.is_empty() {
        // Slowest first; ties break on request id so the listing is a
        // pure function of the trace.
        let mut slowest: Vec<_> = paths.iter().collect();
        slowest.sort_by_key(|p| (std::cmp::Reverse(p.total_ns()), p.req));
        slowest.truncate(top);
        out.push_str(&format!("\ntop {} slowest spans:\n", slowest.len()));
        for p in slowest {
            let [request, service, disk, reply] = p.phases().map(SimDuration::from_nanos);
            out.push_str(&format!(
                "  req {:>6}  {:>12}  {:?}  offset {}  len {}  \
                 (request {request} | service {service} | disk {disk} | reply {reply})\n",
                p.req,
                format!("{}", SimDuration::from_nanos(p.total_ns())),
                p.kind,
                p.offset,
                p.len,
            ));
        }
    }
    out
}

fn load_trace(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// `paragonctl trace …`: capture, summarize, or diff trace files.
fn trace_cmd(argv: Vec<String>) -> ExitCode {
    let fail = |e: String| {
        eprintln!("error: {e}\n\n{USAGE}");
        ExitCode::FAILURE
    };
    match argv.first().map(String::as_str) {
        Some("capture") => {
            let mut args = Args(argv[1..].to_vec());
            let out_path = match args.value("--out") {
                Ok(v) => v,
                Err(e) => return fail(e),
            };
            let mut cfg = match build_config(&mut args) {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            if !args.0.is_empty() {
                return fail(format!("unrecognized arguments {:?}", args.0));
            }
            if cfg.trace_cap == 0 {
                cfg.trace_cap = 1 << 20;
            }
            let r = run(&cfg);
            let json = export_json(&r.trace);
            match &out_path {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &json) {
                        return fail(format!("writing {path}: {e}"));
                    }
                    println!(
                        "wrote {} events to {path} (hash {:#018x})",
                        r.trace.len(),
                        hash_events(&r.trace)
                    );
                }
                None => print!("{json}"),
            }
            ExitCode::SUCCESS
        }
        Some("summarize") => {
            let mut args = Args(argv[1..].to_vec());
            let top: usize = match args.parsed("--top", 10) {
                Ok(v) => v,
                Err(e) => return fail(e),
            };
            let [path] = &args.0[..] else {
                return fail("trace summarize needs a FILE".into());
            };
            match load_trace(path) {
                Ok(events) => {
                    print!("{}", summarize_events(&events, top));
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        Some("diff") => {
            let (Some(pa), Some(pb)) = (argv.get(1), argv.get(2)) else {
                return fail("trace diff needs FILE1 FILE2".into());
            };
            let (a, b) = match (load_trace(pa), load_trace(pb)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => return fail(e),
            };
            if hash_events(&a) == hash_events(&b) {
                println!(
                    "traces identical ({} events, hash {:#018x})",
                    a.len(),
                    hash_events(&a)
                );
                return ExitCode::SUCCESS;
            }
            println!(
                "traces differ: {pa} has {} events (hash {:#018x}), {pb} has {} (hash {:#018x})",
                a.len(),
                hash_events(&a),
                b.len(),
                hash_events(&b)
            );
            if let Some(i) = (0..a.len().min(b.len())).find(|&i| a[i] != b[i]) {
                println!("first divergence at event {i}:");
                println!("  {pa}: {:>14}  {}", format!("{}", a[i].time), a[i]);
                println!("  {pb}: {:>14}  {}", format!("{}", b[i].time), b[i]);
            } else {
                println!(
                    "one trace is a prefix of the other (common prefix {} events)",
                    a.len().min(b.len())
                );
            }
            ExitCode::FAILURE
        }
        _ => fail("trace needs a subcommand: capture | summarize | diff".into()),
    }
}

/// Parse OPTIONS into an instrumented config: telemetry sampler armed at
/// `--cadence-ms` and the flight recorder forced on (the report's
/// span-consistency cross-check needs a trace).
fn instrumented_config(args: &mut Args) -> Result<ExperimentConfig, String> {
    let cadence_ms: u64 = args.parsed("--cadence-ms", 100)?;
    if cadence_ms == 0 {
        return Err("--cadence-ms must be positive".into());
    }
    let mut cfg = build_config(args)?;
    cfg.metrics_cadence = Some(SimDuration::from_millis(cadence_ms));
    if cfg.trace_cap == 0 {
        cfg.trace_cap = 1 << 20;
    }
    Ok(cfg)
}

fn load_report(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// `paragonctl metrics …`: the telemetry runner, renderer, and perf gate.
fn metrics_cmd(argv: Vec<String>) -> ExitCode {
    let fail = |e: String| {
        eprintln!("error: {e}\n\n{USAGE}");
        ExitCode::FAILURE
    };
    match argv.first().map(String::as_str) {
        Some("run") => {
            let mut args = Args(argv[1..].to_vec());
            let out_path = match args.value("--out") {
                Ok(v) => v.unwrap_or_else(|| "BENCH_metrics.json".into()),
                Err(e) => return fail(e),
            };
            let cfg = match instrumented_config(&mut args) {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            if !args.0.is_empty() {
                return fail(format!("unrecognized arguments {:?}", args.0));
            }
            let report = metrics_report(&cfg, &run(&cfg));
            let json = report.pretty();
            if out_path == "-" {
                print!("{json}");
            } else {
                if let Err(e) = std::fs::write(&out_path, &json) {
                    return fail(format!("writing {out_path}: {e}"));
                }
                let scalars = report
                    .get("scalars")
                    .and_then(Json::as_obj)
                    .map_or(0, |m| m.len());
                println!("wrote metrics report to {out_path} ({scalars} scalars)");
            }
            ExitCode::SUCCESS
        }
        Some("report") => {
            // A lone non-flag argument is a report file to render;
            // otherwise run the OPTIONS-selected experiment fresh.
            let rest = &argv[1..];
            let report = if rest.len() == 1 && !rest[0].starts_with("--") {
                match load_report(&rest[0]) {
                    Ok(j) => j,
                    Err(e) => return fail(e),
                }
            } else {
                let mut args = Args(rest.to_vec());
                let cfg = match instrumented_config(&mut args) {
                    Ok(c) => c,
                    Err(e) => return fail(e),
                };
                if !args.0.is_empty() {
                    return fail(format!("unrecognized arguments {:?}", args.0));
                }
                let r = run(&cfg);
                metrics_report(&cfg, &r)
            };
            print!("{}", render_report(&report));
            ExitCode::SUCCESS
        }
        Some("check") => {
            let mut args = Args(argv[1..].to_vec());
            let baseline_path = match args.value("--baseline") {
                Ok(v) => v.unwrap_or_else(|| "BENCH_metrics.json".into()),
                Err(e) => return fail(e),
            };
            let tolerance = match args.value("--tolerance") {
                Ok(Some(v)) => match v.parse::<f64>() {
                    Ok(t) if t >= 0.0 => Some(t),
                    _ => return fail(format!("bad value for --tolerance: {v}")),
                },
                Ok(None) => None,
                Err(e) => return fail(e),
            };
            let current_path = match args.value("--current") {
                Ok(v) => v,
                Err(e) => return fail(e),
            };
            let current = match current_path {
                Some(p) => match load_report(&p) {
                    Ok(j) => j,
                    Err(e) => return fail(e),
                },
                None => {
                    let cfg = match instrumented_config(&mut args) {
                        Ok(c) => c,
                        Err(e) => return fail(e),
                    };
                    if !args.0.is_empty() {
                        return fail(format!("unrecognized arguments {:?}", args.0));
                    }
                    metrics_report(&cfg, &run(&cfg))
                }
            };
            let baseline = match load_report(&baseline_path) {
                Ok(j) => j,
                Err(e) => return fail(e),
            };
            let violations = metrics_check(&current, &baseline, tolerance);
            if violations.is_empty() {
                let n = |key| {
                    baseline
                        .get(key)
                        .and_then(Json::as_obj)
                        .map_or(0, |m| m.len())
                };
                println!(
                    "metrics gate passed against {baseline_path}: {} counters exact, \
                     {} scalars within tolerance",
                    n("counters"),
                    n("scalars")
                );
                ExitCode::SUCCESS
            } else {
                eprintln!("metrics gate FAILED against {baseline_path}:");
                for v in &violations {
                    eprintln!("  {v}");
                }
                ExitCode::FAILURE
            }
        }
        _ => fail("metrics needs a subcommand: run | report | check".into()),
    }
}

/// Events (and, for a fresh run, the telemetry snapshot) for the
/// profile subcommands: a lone non-flag argument is a trace file to
/// analyze; otherwise the OPTIONS-selected experiment runs fresh with
/// the recorder armed and the sampler on.
fn profile_events(
    rest: &[String],
) -> Result<(Vec<TraceEvent>, Option<paragon_metrics::MetricsSnapshot>), String> {
    if let [path] = rest {
        if !path.starts_with("--") {
            return Ok((load_trace(path)?, None));
        }
    }
    let mut args = Args(rest.to_vec());
    let cfg = instrumented_config(&mut args)?;
    if !args.0.is_empty() {
        return Err(format!("unrecognized arguments {:?}", args.0));
    }
    let mut r = run(&cfg);
    Ok((std::mem::take(&mut r.trace), r.metrics))
}

/// `paragonctl profile …`: critical-path blame and Perfetto timeline
/// export.
fn profile_cmd(argv: Vec<String>) -> ExitCode {
    let fail = |e: String| {
        eprintln!("error: {e}\n\n{USAGE}");
        ExitCode::FAILURE
    };
    match argv.first().map(String::as_str) {
        Some("critical-path") => {
            let mut args = Args(argv[1..].to_vec());
            let top: usize = match args.parsed("--top", 5) {
                Ok(v) => v,
                Err(e) => return fail(e),
            };
            let (events, _) = match profile_events(&args.0) {
                Ok(v) => v,
                Err(e) => return fail(e),
            };
            print!("{}", render_critical_path(&events, top));
            ExitCode::SUCCESS
        }
        Some("export") => {
            let mut args = Args(argv[1..].to_vec());
            let out_path = match args.value("--out") {
                Ok(v) => v,
                Err(e) => return fail(e),
            };
            match args.value("--format") {
                Ok(None) => {}
                Ok(Some(f)) if f == "perfetto" || f == "chrome" => {}
                Ok(Some(f)) => return fail(format!("unknown export format {f}")),
                Err(e) => return fail(e),
            }
            let (events, counters) = match profile_events(&args.0) {
                Ok(v) => v,
                Err(e) => return fail(e),
            };
            let json = export_perfetto(&events, counters.as_ref());
            match &out_path {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &json) {
                        return fail(format!("writing {path}: {e}"));
                    }
                    println!(
                        "wrote {} events to {path} — open it in ui.perfetto.dev",
                        events.len()
                    );
                }
                None => print!("{json}"),
            }
            ExitCode::SUCCESS
        }
        _ => fail("profile needs a subcommand: critical-path | export".into()),
    }
}

/// The fault classes `paragonctl faults` sweeps, in report order.
fn fault_classes(error_pm: u32, drop_pm: u32) -> Vec<(&'static str, FaultSpec)> {
    vec![
        ("none", FaultSpec::default()),
        (
            "disk-transient",
            FaultSpec {
                disk_error_pm: error_pm,
                ..FaultSpec::default()
            },
        ),
        (
            "dead-member",
            FaultSpec {
                dead_member: Some((0, 0)),
                ..FaultSpec::default()
            },
        ),
        (
            "mesh-drop",
            FaultSpec {
                mesh_drop_pm: drop_pm,
                ..FaultSpec::default()
            },
        ),
        (
            "ion-crash",
            FaultSpec {
                ion_crash: Some((0, SimDuration::ZERO, SimDuration::from_secs(5))),
                ..FaultSpec::default()
            },
        ),
    ]
}

/// Compact "what the plan actually injected" summary for one run.
fn injected_summary(f: &FaultStats) -> String {
    let mut parts = Vec::new();
    for (n, label) in [
        (f.disk_transients, "disk-err"),
        (f.disk_dead_hits, "dead-hit"),
        (f.mesh_dropped, "drop"),
        (f.mesh_duplicated, "dup"),
        (f.mesh_delayed, "delay"),
        (f.node_down_drops, "node-down"),
    ] {
        if n > 0 {
            parts.push(format!("{label} {n}"));
        }
    }
    if parts.is_empty() {
        "-".into()
    } else {
        parts.join(", ")
    }
}

/// `paragonctl faults`: sweep the fault classes over one base experiment
/// and report the robustness metrics side by side.
fn faults_cmd(argv: Vec<String>) -> ExitCode {
    let fail = |e: String| {
        eprintln!("error: {e}\n\n{USAGE}");
        ExitCode::FAILURE
    };
    let mut args = Args(argv);
    let json = args.flag("--json");
    let error_pm: u32 = match args.parsed("--error-pm", 20) {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let drop_pm: u32 = match args.parsed("--drop-pm", 10) {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    // `--redundancy all` is a faults-only axis value, so it is peeled
    // off before `build_config` (whose parser would reject it).
    let all = args.0.windows(2).position(|w| w == ["--redundancy", "all"]);
    if let Some(i) = all {
        args.0.drain(i..i + 2);
    }
    let base = match build_config(&mut args) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    if !args.0.is_empty() {
        return fail(format!("unrecognized arguments {:?}", args.0));
    }
    let base = faults_base(base);
    let (mut sweep, checked);
    if all.is_some() {
        sweep = Sweep::new(EXT_FAULTS[0], EXT_FAULTS[1]);
        checked = redundancy_sweep(&mut sweep, &base);
    } else {
        sweep = Sweep::new("FAULT", "paragonctl faults");
        checked = fault_class_sweep(&mut sweep, base, error_pm, drop_pm);
    }
    if json {
        println!("{}", sweep.record.to_json());
    } else {
        sweep.print();
    }
    if let Err(e) = checked {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The `faults` class sweep: one run per fault class over `base`, which
/// compares like with like, every class (the fault-free baseline
/// included) with a parity member so dead-member reads can reconstruct.
fn fault_class_sweep(
    sweep: &mut Sweep,
    mut base: ExperimentConfig,
    error_pm: u32,
    drop_pm: u32,
) -> Result<(), HarnessError> {
    base.calib.raid_parity = true;
    let mut results: Vec<(&'static str, RunResult)> = Vec::new();
    for (label, spec) in fault_classes(error_pm, drop_pm) {
        let mut cfg = base.clone();
        cfg.faults = spec;
        results.push((label, run(&cfg)));
    }

    sweep
        .record
        .config("mode", base.mode)
        .config("compute_nodes", base.compute_nodes)
        .config("io_nodes", base.io_nodes)
        .config("request_kb", base.request_size / 1024)
        .config("file_mb", base.file_size >> 20)
        .config("error_pm", error_pm)
        .config("drop_pm", drop_pm)
        .config("seed", base.seed);
    sweep.table(
        &format!(
            "== fault sweep: {} cn × {} ion, {:?}, {} KB requests, parity on",
            base.compute_nodes,
            base.io_nodes,
            base.mode,
            base.request_size / 1024
        ),
        vec![
            col("class", "class"),
            col("bw MB/s", "bw_mb_s"),
            shown("hit%").prec(1),
            stored("hit_ratio"),
            col("errs", "read_errors").prec(0),
            col("reconst", "reconstructed_reads").prec(0),
            col("pf-flt", "prefetch_faults").prec(0),
            col("verify-fail", "verify_failures").prec(0),
            shown("injected"),
        ],
    );
    for (label, r) in &results {
        sweep.row(&[
            (*label).into(),
            r.bandwidth_mb_s().into(),
            (r.prefetch.hit_ratio() * 100.0).into(),
            r.prefetch.hit_ratio().into(),
            r.read_errors.into(),
            r.raid.reconstructed_reads.into(),
            r.prefetch.faults.into(),
            r.verify_failures.into(),
            injected_summary(&r.fault).into(),
        ]);
    }
    match results.iter().find(|(_, r)| r.verify_failures > 0) {
        Some((case, r)) => Err(HarnessError::Verify {
            case: case.to_string(),
            failures: r.verify_failures,
        }),
        None => Ok(()),
    }
}

/// `paragonctl reproduce <ID|all>`: run the named experiments (`all`: the
/// whole table, in order; an id in any letter case) and save their
/// records, stopping at the first failure.
fn reproduce(arg: &[String], dir: &Path) -> ExitCode {
    let selected: Vec<&Experiment> = match arg {
        [all] if all == "all" => EXPERIMENTS.iter().collect(),
        [id] => EXPERIMENTS
            .iter()
            .filter(|e| e.id.eq_ignore_ascii_case(id))
            .collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        eprintln!("usage: paragonctl reproduce <ID|all>, ID one of:");
        for e in &EXPERIMENTS {
            eprintln!("    {:<14} {}", e.id, e.description);
        }
        return ExitCode::FAILURE;
    }
    for e in selected {
        let mut sweep = Sweep::new(e.id, e.description);
        if let Err(err) = (e.run)(&mut sweep).and_then(|()| save_record(dir, &sweep.record)) {
            eprintln!("error: {}: {err}", e.id);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Entry point: parse `argv` (without the program name), run, report.
pub fn main_impl(argv: Vec<String>) -> ExitCode {
    match argv.first().map(String::as_str) {
        Some("run") => {}
        Some("reproduce") => return reproduce(&argv[1..], &results_dir()),
        Some("trace") => return trace_cmd(argv[1..].to_vec()),
        Some("faults") => return faults_cmd(argv[1..].to_vec()),
        Some("metrics") => return metrics_cmd(argv[1..].to_vec()),
        Some("profile") => return profile_cmd(argv[1..].to_vec()),
        other => {
            eprint!("{USAGE}");
            return if other == Some("--help") {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    }
    let mut args = Args(argv[1..].to_vec());
    let json = args.flag("--json");
    let compare = args.flag("--compare");
    let cfg = match build_config(&mut args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if !args.0.is_empty() {
        eprintln!("error: unrecognized arguments {:?}\n\n{USAGE}", args.0);
        return ExitCode::FAILURE;
    }

    let mut results: Vec<(&str, RunResult)> = Vec::new();
    if compare {
        let mut off = cfg.clone();
        off.prefetch = None;
        let on = if cfg.prefetch.is_some() {
            cfg.clone()
        } else {
            cfg.clone().with_prefetch()
        };
        results.push(("no-prefetch", run(&off)));
        results.push(("prefetch", run(&on)));
    } else {
        results.push((
            if cfg.prefetch.is_some() {
                "prefetch"
            } else {
                "no-prefetch"
            },
            run(&cfg),
        ));
    }

    if json {
        report_json(&cfg, &results);
    } else {
        for (label, r) in &results {
            report_text(label, r);
            if !r.trace.is_empty() {
                println!("-- trace ({} events) --", r.trace.len());
                for e in &r.trace {
                    println!("{:>14}  {e}", format!("{}", e.time));
                }
            }
        }
        if compare {
            let gain = results[1].1.bandwidth_mb_s() / results[0].1.bandwidth_mb_s();
            println!("== prefetch gain: {gain:.2}x");
        }
    }
    if results.iter().any(|(_, r)| r.verify_failures > 0) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_pfs::IoMode;
    use paragon_workload::{AccessPattern, StripeLayout};

    fn args(s: &str) -> Args {
        Args(s.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn defaults_are_the_paper_testbed() {
        let cfg = build_config(&mut args("")).unwrap();
        assert_eq!(cfg.compute_nodes, 8);
        assert_eq!(cfg.io_nodes, 8);
        assert_eq!(cfg.request_size, 64 * 1024);
        assert_eq!(cfg.mode, IoMode::MRecord);
        assert!(cfg.fast_path);
        assert!(cfg.prefetch.is_none());
        assert_eq!(cfg.layout, StripeLayout::Across { factor: 8 });
    }

    #[test]
    fn full_flag_set_parses() {
        let mut a = args(
            "--mode m_async --cn 4 --ion 2 --request-kb 128 --file-mb 16 \
             --su-kb 16 --sgroup 2 --delay-ms 25 --seed 7 --depth 3 \
             --pattern reread:2 --separate --buffered --verify",
        );
        let cfg = build_config(&mut a).unwrap();
        assert!(a.0.is_empty(), "unconsumed args: {:?}", a.0);
        assert_eq!(cfg.mode, IoMode::MAsync);
        assert_eq!(cfg.compute_nodes, 4);
        assert_eq!(cfg.stripe_unit, 16 * 1024);
        assert_eq!(cfg.delay.as_millis(), 25);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.prefetch.as_ref().unwrap().depth, 3);
        assert_eq!(cfg.access, AccessPattern::Reread { passes: 2 });
        assert!(cfg.separate_files);
        assert!(!cfg.fast_path);
        assert!(cfg.verify_data);
    }

    #[test]
    fn mode_aliases_and_numbers() {
        assert_eq!(parse_mode("M_UNIX").unwrap(), IoMode::MUnix);
        assert_eq!(parse_mode("record").unwrap(), IoMode::MRecord);
        assert_eq!(parse_mode("5").unwrap(), IoMode::MAsync);
        assert!(parse_mode("m_bogus").is_err());
    }

    #[test]
    fn pattern_grammar() {
        assert_eq!(parse_pattern("mode").unwrap(), AccessPattern::ModeDriven);
        assert_eq!(parse_pattern("random").unwrap(), AccessPattern::Random);
        assert_eq!(
            parse_pattern("strided:65536").unwrap(),
            AccessPattern::Strided { stride: 65536 }
        );
        assert_eq!(
            parse_pattern("reread:4").unwrap(),
            AccessPattern::Reread { passes: 4 }
        );
        assert!(parse_pattern("strided:").is_err());
        assert!(parse_pattern("zigzag").is_err());
    }

    #[test]
    fn ways_on_one_overrides_sgroup() {
        let cfg = build_config(&mut args("--ways-on-one 8")).unwrap();
        assert_eq!(cfg.layout, StripeLayout::WaysOnOne { ways: 8, ion: 0 });
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(build_config(&mut args("--request-kb")).is_err());
        assert!(build_config(&mut args("--cn x")).is_err());
    }

    #[test]
    fn an_invalid_config_is_a_usage_error_not_a_panic() {
        const RAGGED: &str = "--cn 3 --ion 2 --file-mb 1";
        let err = build_config(&mut args(RAGGED)).unwrap_err();
        assert!(err.contains("tile into whole collective rounds"), "{err}");
        let argv = args(&format!("run {RAGGED}")).0;
        assert_eq!(main_impl(argv), ExitCode::FAILURE);
        let err = build_config(&mut args("--sgroup 0")).unwrap_err();
        assert!(err.contains("stripe factor must be positive"), "{err}");
        assert_eq!(main_impl(args("run --sgroup 0").0), ExitCode::FAILURE);
        // Prefetching cannot anticipate a shared pointer; the engine
        // would panic, so the config is refused up front.
        for mode in ["m_unix", "m_log", "m_sync"] {
            let cli = format!("--cn 2 --ion 2 --file-mb 1 --mode {mode} --prefetch");
            let err = build_config(&mut args(&cli)).unwrap_err();
            assert!(err.contains("shared-pointer mode"), "{err}");
            assert_eq!(main_impl(args(&format!("run {cli}")).0), ExitCode::FAILURE);
        }
        build_config(&mut args("--mode m_unix --strided-predictor")).unwrap();
        // Zero passes would run nothing and report success.
        let err = build_config(&mut args("--pattern reread:0")).unwrap_err();
        assert!(err.contains("at least one pass"), "{err}");
        assert_eq!(
            main_impl(args("run --pattern reread:0").0),
            ExitCode::FAILURE
        );
    }

    #[test]
    fn strided_predictor_implies_prefetch() {
        let cfg = build_config(&mut args("--strided-predictor")).unwrap();
        let pc = cfg.prefetch.unwrap();
        assert_eq!(pc.predictor, paragon_core::PredictorKind::Strided);
    }

    #[test]
    fn summarize_reconstructs_spans_from_a_parsed_trace() {
        use paragon_sim::{ev, EventKind, SimTime, Track};
        let mk = |t_us: u64, body: paragon_sim::EventBody| TraceEvent {
            time: SimTime::from_nanos(t_us * 1000),
            track: body.track,
            kind: body.kind,
            req: body.req,
            a: body.a,
            b: body.b,
        };
        let events = vec![
            mk(0, ev(Track::Cn(0), EventKind::ReadStart, 1, 0, 4096)),
            mk(10, ev(Track::Node(0), EventKind::NetTx, 1, 64, 2)),
            mk(20, ev(Track::Node(2), EventKind::NetRx, 1, 64, 0)),
            mk(30, ev(Track::Disk(0), EventKind::DiskStart, 1, 0, 4096)),
            mk(70, ev(Track::Disk(0), EventKind::DiskDone, 1, 0, 4096)),
            mk(100, ev(Track::Cn(0), EventKind::ReadDone, 1, 0, 4096)),
        ];
        // Round-trip through the trace-file format first.
        let parsed = parse_json(&export_json(&events)).unwrap();
        assert_eq!(parsed, events);
        let text = summarize_events(&parsed, 10);
        assert!(text.contains("6 events"));
        assert!(text.contains("demand reads (1 spans)"));
        assert!(text.contains("end-to-end"));
        assert!(text.contains("disk0"));
        assert!(text.contains("top 1 slowest spans:"), "{text}");
        assert!(text.contains("req      1"), "{text}");
        // --top 0 drops the listing.
        assert!(!summarize_events(&parsed, 0).contains("slowest spans"));
    }

    /// The full `trace summarize` text of a buffered, prefetching reread
    /// run is pinned in `tests/goldens/trace_summarize.txt`: both the
    /// demand-read and prefetch-transfer decompositions, diskless
    /// (server-cache) reads included. Regenerate after an intentional
    /// change with `PARAGON_BLESS=1 cargo test -p paragon-bench summarize`.
    #[test]
    fn summarize_matches_the_pinned_golden() {
        let cfg = build_config(&mut args(
            "--cn 4 --ion 2 --file-mb 4 --delay-ms 5 --seed 19 --mode async \
             --pattern reread:2 --buffered --prefetch --trace 1048576",
        ))
        .unwrap();
        let trace = run(&cfg).trace;
        assert!(
            critical_paths(&trace).iter().any(|p| p.legs[5] == 0),
            "the golden must cover a diskless read"
        );
        let text = summarize_events(&trace, 10);
        assert!(text.contains("demand reads") && text.contains("prefetch transfers"));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/goldens/trace_summarize.txt");
        if std::env::var_os("PARAGON_BLESS").is_some() {
            std::fs::write(&path, &text).unwrap();
            return;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); regenerate with PARAGON_BLESS=1",
                path.display()
            )
        });
        assert_eq!(
            text, want,
            "trace summarize drifted; if intentional, regenerate with PARAGON_BLESS=1"
        );
    }

    #[test]
    fn fault_sweep_covers_every_class_and_exits_clean() {
        assert_eq!(fault_classes(20, 10).len(), 5);
        // Tiny shape so the five runs stay cheap; verification is forced
        // on inside the command, so SUCCESS means every class delivered
        // pattern-correct data.
        let argv: Vec<String> = "faults --cn 2 --ion 2 --request-kb 16 --file-mb 2 --su-kb 16"
            .split_whitespace()
            .map(String::from)
            .collect();
        assert_eq!(main_impl(argv), ExitCode::SUCCESS);
    }

    #[test]
    fn injected_summary_formats() {
        assert_eq!(injected_summary(&FaultStats::default()), "-");
        let f = FaultStats {
            mesh_dropped: 3,
            disk_transients: 1,
            ..FaultStats::default()
        };
        assert_eq!(injected_summary(&f), "disk-err 1, drop 3");
    }

    const TINY: &str = "--cn 2 --ion 2 --request-kb 16 --file-mb 2 --su-kb 16 --cadence-ms 20";

    fn metrics_argv(sub: &str, extra: &str) -> Vec<String> {
        format!("metrics {sub} {TINY} {extra}")
            .split_whitespace()
            .map(String::from)
            .collect()
    }

    #[test]
    fn metrics_run_is_deterministic_and_check_gates() {
        let dir = std::env::temp_dir();
        let p1 = dir.join("paragonctl-test-metrics-1.json");
        let p2 = dir.join("paragonctl-test-metrics-2.json");
        let s = |p: &std::path::Path| p.to_str().unwrap().to_string();

        // Two runs with the same seed must produce byte-identical reports.
        for p in [&p1, &p2] {
            let argv = metrics_argv("run", &format!("--out {}", s(p)));
            assert_eq!(main_impl(argv), ExitCode::SUCCESS);
        }
        let t1 = std::fs::read_to_string(&p1).unwrap();
        let t2 = std::fs::read_to_string(&p2).unwrap();
        assert_eq!(t1, t2, "same-seed metrics reports differ");

        // The report is well-formed JSON with the gate's scalars.
        let report = Json::parse(&t1).unwrap();
        let scalars = report.get("scalars").and_then(Json::as_obj).unwrap();
        assert!(scalars.contains_key("util.disk"));
        assert!(scalars.contains_key("littles_law.ratio"));

        // Gate: a re-run against its own output passes…
        let argv = metrics_argv("check", &format!("--baseline {}", s(&p1)));
        assert_eq!(main_impl(argv), ExitCode::SUCCESS);

        // …and a tampered baseline fails, even under a wide tolerance.
        let tampered = t1.replace("\"bandwidth_mb_s\"", "\"bandwidth_mb_s_renamed\"");
        assert_ne!(tampered, t1, "tamper had no effect");
        std::fs::write(&p2, &tampered).unwrap();
        let argv = metrics_argv(
            "check",
            &format!("--baseline {} --current {} --tolerance 0.5", s(&p2), s(&p1)),
        );
        assert_eq!(main_impl(argv), ExitCode::FAILURE);

        // `report FILE` renders without re-running.
        assert_eq!(
            main_impl(vec!["metrics".into(), "report".into(), s(&p1)]),
            ExitCode::SUCCESS
        );

        for p in [p1, p2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn metrics_check_fails_a_run_of_another_config() {
        const SHAPE: &str = "--cn 2 --ion 2 --request-kb 16 --file-mb 2 --su-kb 16";
        let base = std::env::temp_dir().join("paragonctl-test-metrics-seed42.json");
        let base = base.to_str().unwrap();
        let run42 = format!("metrics run {SHAPE} --seed 42 --out {base}");
        assert_eq!(main_impl(args(&run42).0), ExitCode::SUCCESS);
        let check = |extra: &str| {
            let argv = format!("metrics check {SHAPE} --baseline {base} {extra}");
            main_impl(args(&argv).0)
        };
        assert_eq!(check("--seed 42"), ExitCode::SUCCESS);
        for other in ["--seed 43", "--cadence-ms 50"] {
            assert_eq!(check(other), ExitCode::FAILURE, "{other}");
            let wide = format!("{other} --tolerance 1.0");
            assert_eq!(check(&wide), ExitCode::FAILURE, "{wide}");
        }
        let _ = std::fs::remove_file(base);
    }

    #[test]
    fn metrics_rejects_bad_flags() {
        assert_eq!(
            main_impl(vec!["metrics".into()]),
            ExitCode::FAILURE,
            "missing subcommand"
        );
        assert_eq!(
            main_impl(metrics_argv("run", "--cadence-ms 0 --out -")),
            ExitCode::FAILURE,
            "zero cadence"
        );
        assert_eq!(
            main_impl(metrics_argv("check", "--tolerance nope")),
            ExitCode::FAILURE,
            "unparseable tolerance"
        );
        assert_eq!(
            main_impl(metrics_argv("run", "--bogus-flag 1 --out -")),
            ExitCode::FAILURE,
            "unrecognized argument"
        );
    }

    #[test]
    fn experiment_ids_are_unique() {
        let ids: std::collections::BTreeSet<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    #[test]
    fn all_runs_the_table_in_order() {
        let ids: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(
            ids.join(" "),
            "FIG2 TAB1 TAB2 FIG4 FIG5 TAB3 TAB4 EXT-SCALING EXT-PATTERNS EXT-DEPTH \
             EXT-ABLATION EXT-WRITES EXT-DOUBLEBUF EXT-SCSI16 EXT-FAULTS"
        );
    }

    #[test]
    fn the_ext_faults_entry_runs_the_faults_command_defaults() {
        let defaults = build_config(&mut Args(Vec::new())).unwrap();
        let entry = ExperimentConfig::paper_iobound(64 * 1024, 8);
        assert_eq!(format!("{defaults:?}"), format!("{entry:?}"));
    }

    #[test]
    fn unknown_or_missing_id_fails() {
        for argv in ["reproduce NOPE", "reproduce", "reproduce FIG2 TAB1"] {
            assert_eq!(main_impl(args(argv).0), ExitCode::FAILURE, "{argv:?}");
        }
    }

    #[test]
    fn every_experiment_has_a_committed_record_and_none_is_orphaned() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for e in &EXPERIMENTS {
            let name = format!("{}.json", e.id.to_lowercase());
            let text = std::fs::read_to_string(dir.join(&name)).expect(&name);
            let record = ExperimentRecord::from_json(&text).unwrap();
            assert_eq!([&*record.id, &*record.description], [e.id, e.description]);
        }
        let json = |p: &std::path::PathBuf| p.extension() == Some("json".as_ref());
        let records = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path());
        assert_eq!(records.filter(json).count(), EXPERIMENTS.len());
    }

    #[test]
    fn an_unwritable_results_dir_is_an_error_not_a_panic() {
        // A directory below a regular file can never be created.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml/results");
        let err = save_record(&dir, &ExperimentRecord::new("T", "t")).unwrap_err();
        assert!(err.to_string().contains("Cargo.toml/results"), "{err}");
        // EXT-DEPTH is the cheapest entry; it fails on saving, not running.
        assert_eq!(reproduce(&args("EXT-DEPTH").0, &dir), ExitCode::FAILURE);
    }

    #[test]
    fn trace_diff_exit_codes() {
        use paragon_sim::{EventKind, SimTime, Track};
        let mk = |t_us: u64, req: u64| TraceEvent {
            time: SimTime::from_nanos(t_us * 1000),
            track: Track::Cn(0),
            kind: EventKind::Mark,
            req,
            a: 0,
            b: 0,
        };
        let dir = std::env::temp_dir();
        let pa = dir.join("paragonctl-test-a.json");
        let pb = dir.join("paragonctl-test-b.json");
        let pc = dir.join("paragonctl-test-c.json");
        std::fs::write(&pa, export_json(&[mk(1, 1), mk(2, 2)])).unwrap();
        std::fs::write(&pb, export_json(&[mk(1, 1), mk(2, 2)])).unwrap();
        std::fs::write(&pc, export_json(&[mk(1, 1), mk(2, 3)])).unwrap();
        let s = |p: &std::path::Path| p.to_str().unwrap().to_string();
        assert_eq!(
            main_impl(vec!["trace".into(), "diff".into(), s(&pa), s(&pb)]),
            ExitCode::SUCCESS
        );
        assert_eq!(
            main_impl(vec!["trace".into(), "diff".into(), s(&pa), s(&pc)]),
            ExitCode::FAILURE
        );
        for p in [pa, pb, pc] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn a_trace_file_with_a_stale_hash_is_rejected() {
        use paragon_sim::{EventKind, SimTime, Track};
        let event = TraceEvent {
            time: SimTime::from_nanos(1000),
            track: Track::Cn(0),
            kind: EventKind::Mark,
            req: 1,
            a: 0,
            b: 7,
        };
        let good = export_json(&[event]);
        let edited = good.replace("\"b\":7", "\"b\":8");
        assert_ne!(edited, good, "edit had no effect");
        let path = std::env::temp_dir().join("paragonctl-test-stale-hash.json");
        let s = path.to_str().unwrap().to_string();
        std::fs::write(&path, &good).unwrap();
        let run = |cmd: &str| main_impl(args(&format!("{cmd} {s}")).0);
        assert_eq!(run("trace summarize"), ExitCode::SUCCESS);
        std::fs::write(&path, &edited).unwrap();
        for cmd in [
            "trace summarize",
            "profile critical-path",
            "profile export --out /dev/null",
        ] {
            assert_eq!(run(cmd), ExitCode::FAILURE, "{cmd}");
        }
        assert_eq!(run(&format!("trace diff {s}")), ExitCode::FAILURE);
        let err = load_trace(&s).unwrap_err();
        assert!(err.contains("trace hash mismatch"), "{err}");
        let _ = std::fs::remove_file(path);
    }
}
