//! Argument parsing and execution for the `paragonctl` binary, kept in
//! the library so the parsing rules are unit-testable.

use paragon_core::{PredictorKind, PrefetchConfig};
use paragon_machine::Calibration;
use paragon_metrics::{ExperimentRecord, Json};
use paragon_pfs::{IoMode, Redundancy};
use paragon_profile::{export_perfetto, render_critical_path};
use paragon_sim::{export_json, hash_events, parse_json, SimDuration, TraceEvent};
use paragon_workload::{
    metrics_report, render_report, run, AccessPattern, ExperimentConfig, FaultSpec, RunResult,
    StripeLayout,
};

use std::path::Path;
use std::process::ExitCode;

use crate::experiments::{
    fault_study, Experiment, DISK_ERROR_PM, EXPERIMENTS, EXT_FAULTS, MESH_DROP_PM, REPLICATED,
};
use crate::{check_claims, results_dir, save_record, Sweep};

/// The help text.
pub(crate) const USAGE: &str = "\
paragonctl — drive the simulated Paragon PFS

USAGE:
    paragonctl reproduce <ID|all>
    paragonctl run [OPTIONS]
    paragonctl faults [OPTIONS]
    paragonctl trace capture [OPTIONS] --out FILE
    paragonctl trace diff FILE1 FILE2
    paragonctl metrics run [OPTIONS] [--out FILE]
    paragonctl metrics report [FILE | OPTIONS]
    paragonctl profile critical-path [FILE | OPTIONS] [--top N]
    paragonctl profile export [FILE | OPTIONS] [--out FILE]

REPRODUCE:
    regenerate a table, figure or extension study of the paper by id
    (`all`: every one, in order): print it and write its record as
    results/<id>.json ($PARAGON_RESULTS_DIR overrides); lists the ids

PROFILE:
    critical-path  the span report of a trace (FILE, or a fresh OPTIONS
               run with the recorder armed): event count and hash,
               per-track activity, every completed read's latency
               charged to the nanosecond across nine pipeline components
               (p50/p95/p99/max blame), the Table-2 access-time
               decomposition of demand reads and of prefetch transfers,
               and the slowest requests with their kinds and full
               milestone chains. Deterministic: the same seed and
               OPTIONS give byte-identical output
    --top <N>            slowest requests listed (0 = omit)     [5]
    export     render the trace as Chrome-trace JSON for ui.perfetto.dev
               (one lane per CN/ION/spindle, duration slices, flow
               arrows per request; fresh runs also attach telemetry
               counter tracks)
    --out <FILE|->       destination                      [stdout]

METRICS:
    run        run the OPTIONS-selected experiment with the telemetry
               sampler armed (every 100 simulated ms) and write the
               bottleneck-attribution report as deterministic JSON (same
               seed → identical bytes; CI byte-diffs `--seed 42` against
               the committed BENCH_metrics.json)
    --out <FILE|->    report destination       [BENCH_metrics.json]
    report     render a report (from FILE, or a fresh run) as tables
               and ASCII queue-depth charts

FAULTS:
    run EXT-FAULTS over the OPTIONS-selected experiment (`reproduce
    EXT-FAULTS` runs the default OPTIONS) with prefetching and data
    verification forced on, and check its claims. Two tables: one run
    per fault class (none, disk-transient, dead-member, mesh-drop,
    ion-crash) with a RAID parity member, showing how throughput and the
    prefetch hit rate degrade; then I/O node 0 down for the whole run
    under none, parity and replicated:2 (--redundancy sets only the
    class runs' mode)
    --error-pm <N>    transient disk error rate, per mille   [20]
    --drop-pm <N>     mesh message drop rate, per mille      [10]
    --json            print the record instead of the tables

TRACE:
    capture    run an experiment with the flight recorder armed and
               write the recording as JSON (same OPTIONS as `run`;
               --trace caps the recording, default 1M events, and a
               recording that fills its cap is reported on stderr);
               `profile critical-path FILE` reports on it
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
    --redundancy <none|parity|replicated[:rf]>  RAID parity member or replicas [none]
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

    /// Fail on any argument no parser consumed.
    fn finish(&self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognized arguments {:?}", self.0))
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
    // `parity` is the calibration's per-I/O-node parity member, not a
    // mount policy.
    let (redundancy, raid_parity) = match args.value("--redundancy")?.as_deref() {
        None => (Redundancy::None, false),
        Some("parity") => (Redundancy::None, true),
        Some(v) => (
            Redundancy::parse(v).ok_or_else(|| format!("bad value for --redundancy: {v}"))?,
            false,
        ),
    };

    let mut cfg = ExperimentConfig {
        seed,
        compute_nodes: cn,
        io_nodes: ion,
        calib: Calibration {
            raid_parity,
            ..Calibration::paragon_1995()
        },
        mode,
        fast_path: !args.flag("--buffered"),
        stripe_unit: su_kb * 1024,
        layout: if ways > 0 {
            StripeLayout::WaysOnOne { ways }
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
        r.work.get("disk.requests"),
        r.work.get("disk.sequential_hits"),
        r.work.get("disk.near_seeks"),
        r.work.get("disk.far_seeks")
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

fn load_trace(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Flight-recorder cap of the commands that always record, unless
/// `--trace N` sets another.
const DEFAULT_TRACE_CAP: usize = 1 << 20;

/// Gauge sampling cadence of every instrumented run, in simulated time
/// (the committed baseline's `meta.cadence_ns`).
pub(crate) const METRICS_CADENCE: SimDuration = SimDuration::from_millis(100);

/// Run `cfg` with the flight recorder armed, warning on stderr when the
/// recording filled its cap: events after that were dropped, so reads
/// still in flight there are missing from any report of it.
fn recorded_run(cfg: &mut ExperimentConfig) -> RunResult {
    if cfg.trace_cap == 0 {
        cfg.trace_cap = DEFAULT_TRACE_CAP;
    }
    let r = run(cfg);
    if r.trace.len() == cfg.trace_cap {
        eprintln!(
            "warning: the recording reached its cap of {} events and dropped the rest; \
             raise --trace to record the whole run",
            cfg.trace_cap
        );
    }
    r
}

/// `trace capture`: record a run and write the trace file.
fn trace_capture(argv: &[String]) -> Result<ExitCode, String> {
    let mut args = Args(argv.to_vec());
    let out_path = args.value("--out")?;
    let mut cfg = build_config(&mut args)?;
    args.finish()?;
    let r = recorded_run(&mut cfg);
    let json = export_json(&r.trace);
    match &out_path {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote {} events to {path} (hash {:#018x})",
                r.trace.len(),
                hash_events(&r.trace)
            );
        }
        None => print!("{json}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `trace diff`: compare two trace files; nonzero exit on divergence.
fn trace_diff(argv: &[String]) -> Result<ExitCode, String> {
    let [pa, pb] = argv else {
        return Err("trace diff needs FILE1 FILE2".into());
    };
    let (a, b) = (load_trace(pa)?, load_trace(pb)?);
    if hash_events(&a) == hash_events(&b) {
        println!(
            "traces identical ({} events, hash {:#018x})",
            a.len(),
            hash_events(&a)
        );
        return Ok(ExitCode::SUCCESS);
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
    Ok(ExitCode::FAILURE)
}

/// Parse OPTIONS (nothing else) and run them instrumented: the telemetry
/// sampler at [`METRICS_CADENCE`] and the flight recorder armed (the
/// report's span-consistency cross-check needs a trace).
fn instrumented_run(mut args: Args) -> Result<(ExperimentConfig, RunResult), String> {
    let mut cfg = build_config(&mut args)?;
    args.finish()?;
    cfg.metrics_cadence = Some(METRICS_CADENCE);
    let r = recorded_run(&mut cfg);
    Ok((cfg, r))
}

fn load_report(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// `metrics run`: write an instrumented run's report as JSON.
fn metrics_run(argv: &[String]) -> Result<ExitCode, String> {
    let mut args = Args(argv.to_vec());
    let out_path = args
        .value("--out")?
        .unwrap_or_else(|| "BENCH_metrics.json".into());
    let (cfg, r) = instrumented_run(args)?;
    let report = metrics_report(&cfg, &r);
    let json = report.pretty();
    if out_path == "-" {
        print!("{json}");
    } else {
        std::fs::write(&out_path, &json).map_err(|e| format!("writing {out_path}: {e}"))?;
        let scalars = report
            .get("scalars")
            .and_then(Json::as_obj)
            .map_or(0, |m| m.len());
        println!("wrote metrics report to {out_path} ({scalars} scalars)");
    }
    Ok(ExitCode::SUCCESS)
}

/// `metrics report`: render a report file (a lone non-flag argument) or
/// a fresh OPTIONS run as tables and charts.
fn metrics_render(argv: &[String]) -> Result<ExitCode, String> {
    let report = match argv {
        [path] if !path.starts_with("--") => load_report(path)?,
        _ => {
            let (cfg, r) = instrumented_run(Args(argv.to_vec()))?;
            metrics_report(&cfg, &r)
        }
    };
    print!("{}", render_report(&report));
    Ok(ExitCode::SUCCESS)
}

/// Events (and, for a fresh run, the telemetry snapshot) for the
/// profile subcommands: a lone non-flag argument is a trace file to
/// analyze; otherwise the OPTIONS-selected experiment runs fresh,
/// instrumented.
fn profile_events(
    rest: &[String],
) -> Result<(Vec<TraceEvent>, Option<paragon_metrics::MetricsSnapshot>), String> {
    if let [path] = rest {
        if !path.starts_with("--") {
            return Ok((load_trace(path)?, None));
        }
    }
    let (_, r) = instrumented_run(Args(rest.to_vec()))?;
    Ok((r.trace, r.metrics))
}

/// The span report `profile critical-path` prints.
fn critical_path_report(argv: &[String]) -> Result<String, String> {
    let mut args = Args(argv.to_vec());
    let top: usize = args.parsed("--top", 5)?;
    let (events, _) = profile_events(&args.0)?;
    Ok(render_critical_path(&events, top))
}

/// `profile critical-path`: the span report.
fn profile_critical_path(argv: &[String]) -> Result<ExitCode, String> {
    print!("{}", critical_path_report(argv)?);
    Ok(ExitCode::SUCCESS)
}

/// `profile export`: the Perfetto timeline.
fn profile_export(argv: &[String]) -> Result<ExitCode, String> {
    let mut args = Args(argv.to_vec());
    let out_path = args.value("--out")?;
    let (events, counters) = profile_events(&args.0)?;
    let json = export_perfetto(&events, counters.as_ref());
    match &out_path {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote {} events to {path} — open it in ui.perfetto.dev",
                events.len()
            );
        }
        None => print!("{json}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `paragonctl faults`: EXT-FAULTS over the OPTIONS-selected experiment,
/// its claims checked.
fn faults_cmd(argv: &[String]) -> Result<ExitCode, String> {
    let mut args = Args(argv.to_vec());
    let json = args.flag("--json");
    let error_pm: u32 = args.parsed("--error-pm", DISK_ERROR_PM)?;
    let drop_pm: u32 = args.parsed("--drop-pm", MESH_DROP_PM)?;
    let base = build_config(&mut args)?;
    args.finish()?;
    // The three-way comparison's replicated row must fit the machine.
    ExperimentConfig {
        redundancy: REPLICATED,
        ..base.clone()
    }
    .validate()?;
    let mut sweep = Sweep::new(EXT_FAULTS[0], EXT_FAULTS[1]);
    sweep.echo = !json;
    let checked = fault_study(&mut sweep, base, error_pm, drop_pm);
    if json {
        // The record's own bytes, as `reproduce` saves them.
        print!("{}", sweep.record.to_json());
    }
    if let Err(e) = checked {
        eprintln!("error: {e}");
        return Ok(ExitCode::FAILURE);
    }
    Ok(claims_verdict(&check_claims(&sweep.record, !json)))
}

/// Success when no claim failed; otherwise name every failed claim.
fn claims_verdict(failed: &[String]) -> ExitCode {
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("error: the record contradicts claims {}", failed.join(", "));
    ExitCode::FAILURE
}

/// `paragonctl reproduce <ID|all>`: run the named experiments (`all`: the
/// whole table, in order; an id in any letter case), check their claims
/// and save their records. A sweep or save error stops the run; a failed
/// claim does not, so every record lands for inspection, and the exit
/// status then names every failed claim.
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
    let mut failed = Vec::new();
    for e in selected {
        let mut sweep = Sweep::new(e.id, e.description);
        let saved = (e.run)(&mut sweep).and_then(|()| {
            failed.extend(check_claims(&sweep.record, true));
            save_record(dir, &sweep.record)
        });
        if let Err(err) = saved {
            eprintln!("error: {}: {err}", e.id);
            return ExitCode::FAILURE;
        }
    }
    claims_verdict(&failed)
}

/// A command's handler: it gets the arguments after the command words,
/// and an `Err` is a usage error.
type Handler = fn(&[String]) -> Result<ExitCode, String>;

/// Every command `paragonctl` accepts, as (verb, subcommand, handler).
/// The dispatcher knows no other, so the docs can be checked against it.
const COMMANDS: [(&str, Option<&str>, Handler); 9] = [
    ("reproduce", None, |argv| {
        Ok(reproduce(argv, &results_dir()))
    }),
    ("run", None, run_cmd),
    ("faults", None, faults_cmd),
    ("trace", Some("capture"), trace_capture),
    ("trace", Some("diff"), trace_diff),
    ("metrics", Some("run"), metrics_run),
    ("metrics", Some("report"), metrics_render),
    ("profile", Some("critical-path"), profile_critical_path),
    ("profile", Some("export"), profile_export),
];

/// The handler `argv` names and the arguments left for it. `Err(None)`:
/// no such verb; `Err(Some(msg))`: a known verb without a known
/// subcommand.
fn dispatch(argv: &[String]) -> Result<(Handler, &[String]), Option<String>> {
    let verb = argv.first().ok_or(None)?;
    let sub = argv.get(1).map(String::as_str);
    let mut subs = Vec::new();
    for (v, s, handler) in COMMANDS {
        match s {
            _ if v != verb => {}
            None => return Ok((handler, &argv[1..])),
            Some(s) if Some(s) == sub => return Ok((handler, &argv[2..])),
            Some(s) => subs.push(s),
        }
    }
    if subs.is_empty() {
        return Err(None);
    }
    Err(Some(format!(
        "{verb} needs a subcommand: {}",
        subs.join(" | ")
    )))
}

/// Entry point: parse `argv` (without the program name), run, report.
pub fn main_impl(argv: Vec<String>) -> ExitCode {
    let result = match dispatch(&argv) {
        Ok((handler, rest)) => handler(rest),
        Err(Some(e)) => Err(e),
        Err(None) => {
            eprint!("{USAGE}");
            return if argv.first().is_some_and(|a| a == "--help") {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{USAGE}");
        ExitCode::FAILURE
    })
}

/// `paragonctl run`: one experiment (or a prefetch on/off pair).
fn run_cmd(argv: &[String]) -> Result<ExitCode, String> {
    let mut args = Args(argv.to_vec());
    let json = args.flag("--json");
    let compare = args.flag("--compare");
    let cfg = build_config(&mut args)?;
    args.finish()?;

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
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
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
        assert_eq!(cfg.layout, StripeLayout::WaysOnOne { ways: 8 });
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
        // Prefetching cannot anticipate a shared pointer, with either
        // predictor; the engine would panic, so the config is refused up
        // front.
        for mode in ["m_unix", "m_log", "m_sync"] {
            for predictor in ["--prefetch", "--prefetch --strided-predictor"] {
                let cli = format!("--cn 2 --ion 2 --file-mb 1 --mode {mode} {predictor}");
                let err = build_config(&mut args(&cli)).unwrap_err();
                assert!(err.contains("shared-pointer mode"), "{err}");
                assert_eq!(main_impl(args(&format!("run {cli}")).0), ExitCode::FAILURE);
            }
        }
        // The EXT-FAULTS replicated row needs two I/O nodes.
        let err = faults_cmd(&args("--ion 1 --cn 2 --file-mb 2").0).unwrap_err();
        assert!(err.contains("replication factor 2 exceeds 1"), "{err}");
        // Zero passes would run nothing and report success.
        let err = build_config(&mut args("--pattern reread:0")).unwrap_err();
        assert!(err.contains("at least one pass"), "{err}");
        assert_eq!(
            main_impl(args("run --pattern reread:0").0),
            ExitCode::FAILURE
        );
        // Under M_GLOBAL every rank's rereads would run past EOF.
        const GLOBAL_REREAD: &str = "--mode global --pattern reread:1 --cn 2 --ion 2 \
                                     --file-mb 1 --request-kb 64 --su-kb 64";
        let err = build_config(&mut args(GLOBAL_REREAD)).unwrap_err();
        assert!(err.contains("reread cannot run under M_GLOBAL"), "{err}");
        let argv = args(&format!("run {GLOBAL_REREAD}")).0;
        assert_eq!(main_impl(argv), ExitCode::FAILURE);
    }

    #[test]
    fn parity_is_the_calibrations_parity_member() {
        let cfg = build_config(&mut args("--redundancy parity")).unwrap();
        assert!(cfg.calib.raid_parity);
        assert_eq!(cfg.redundancy, Redundancy::None);
        assert!(!build_config(&mut args("")).unwrap().calib.raid_parity);
        let cfg = build_config(&mut args("--redundancy replicated")).unwrap();
        assert_eq!(cfg.redundancy, Redundancy::Replicated { rf: 2 });
        assert!(!cfg.calib.raid_parity);
    }

    #[test]
    fn strided_predictor_implies_prefetch() {
        let cfg = build_config(&mut args("--strided-predictor")).unwrap();
        let pc = cfg.prefetch.unwrap();
        assert_eq!(pc.predictor, paragon_core::PredictorKind::Strided);
    }

    #[test]
    fn the_report_reconstructs_spans_from_a_trace_file() {
        use paragon_sim::{ev, EventKind, SimTime, Track};
        let mk = |t_us: u64, event: TraceEvent| TraceEvent {
            time: SimTime::from_nanos(t_us * 1000),
            ..event
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
        let path = std::env::temp_dir().join("paragonctl-test-report.json");
        std::fs::write(&path, export_json(&events)).unwrap();
        let file = path.to_str().unwrap();
        assert_eq!(load_trace(file).unwrap(), events);
        let text = critical_path_report(&args(file).0).unwrap();
        assert!(text.starts_with("6 events, hash 0x"), "{text}");
        assert!(text.contains("\ndisk0 "), "{text}");
        assert!(text.contains("\ndemand reads (1 spans)\n"), "{text}");
        assert!(text.contains("\nend-to-end          0.100"), "{text}");
        assert!(text.contains("top 1 slowest requests:\nreq 1 "), "{text}");
        // --top 0 drops the listing.
        let bare = critical_path_report(&args(&format!("{file} --top 0")).0).unwrap();
        assert!(!bare.contains("slowest"), "{bare}");
        let _ = std::fs::remove_file(path);
    }

    /// A buffered, prefetching reread run: both span kinds, diskless
    /// (server-cache) reads among them.
    const REREAD: &str = "--cn 4 --ion 2 --file-mb 4 --delay-ms 5 --seed 19 --mode async \
                          --pattern reread:2 --buffered --prefetch";

    /// What `profile critical-path REREAD` prints is pinned in
    /// `tests/goldens/reread_critical_path.txt`. Regenerate after an
    /// intentional change with
    /// `PARAGON_BLESS=1 cargo test -p paragon-bench reread`.
    #[test]
    fn the_reread_report_matches_the_pinned_golden() {
        let mut cfg = build_config(&mut args(REREAD)).unwrap();
        cfg.trace_cap = DEFAULT_TRACE_CAP;
        let paths = paragon_profile::critical_paths(&run(&cfg).trace);
        assert!(
            paths.iter().any(|p| p.legs[5] == 0),
            "the golden must cover a diskless read"
        );
        let text = critical_path_report(&args(REREAD).0).unwrap();
        assert!(text.contains("\ndemand reads (") && text.contains("\nprefetch transfers ("));
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/goldens/reread_critical_path.txt");
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
            "the span report drifted; if intentional, regenerate with PARAGON_BLESS=1"
        );
    }

    #[test]
    fn fault_sweep_covers_every_class_and_exits_clean() {
        // Tiny shape so the eleven runs stay cheap; verification is
        // forced on inside the command, so SUCCESS means every run
        // delivered pattern-correct data and every EXT-FAULTS claim held.
        // At a zero disk-error rate no prefetch fails, and that is no
        // failed claim.
        for extra in ["", "--error-pm 0"] {
            let argv = args(&format!("faults {TINY} {extra}")).0;
            assert_eq!(main_impl(argv), ExitCode::SUCCESS, "faults {extra}");
        }
    }

    const TINY: &str = "--cn 2 --ion 2 --request-kb 16 --file-mb 2 --su-kb 16";

    fn metrics_argv(sub: &str, extra: &str) -> Vec<String> {
        args(&format!("metrics {sub} {TINY} {extra}")).0
    }

    #[test]
    fn metrics_run_is_byte_deterministic_and_report_renders() {
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

        // The report is well-formed JSON with the expected scalars,
        // sampled at the one cadence.
        let report = Json::parse(&t1).unwrap();
        let scalars = report.get("scalars").and_then(Json::as_obj).unwrap();
        assert!(scalars.contains_key("util.disk"));
        assert!(scalars.contains_key("littles_law.ratio"));
        let cadence = report.get("meta").and_then(|m| m.get("cadence_ns"));
        assert_eq!(cadence, Some(&Json::Num(1e8)));

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
    fn bad_commands_and_flags_are_usage_errors() {
        for argv in [
            "metrics",
            "trace summarize t.json",
            "metrics run --bogus-flag 1 --out -",
            // Deleted commands and flags.
            "metrics check",
            "metrics check --baseline x.json",
            "metrics run --cadence-ms 20 --out -",
            "metrics check --tolerance 0.5",
            "metrics check --current BENCH_metrics.json",
            "profile export --format perfetto --out -",
        ] {
            assert_eq!(main_impl(args(argv).0), ExitCode::FAILURE, "{argv}");
        }
        assert_eq!(
            dispatch(&args("trace summarize t.json").0).err(),
            Some(Some("trace needs a subcommand: capture | diff".into()))
        );
        assert_eq!(dispatch(&args("bogus").0).err(), Some(None));
    }

    /// Every `paragonctl <verb> [<sub>]` in `text` (and `$P <verb> …`, the
    /// verify notes' alias) that names no command: a `\`-continued line
    /// joins the next, a leading `--` (`cargo run … paragonctl -- run`)
    /// is skipped, and the command words end at a backtick or at the
    /// first word that is not one. A bare group verb (`paragonctl
    /// trace`) is a real name. Returns (invocations seen, unknown ones).
    fn scan_invocations(text: &str) -> (usize, Vec<String>) {
        let (mut seen, mut unknown) = (0, Vec::new());
        for line in text.replace("\\\n", " ").lines() {
            for marker in ["paragonctl ", "$P "] {
                for (at, _) in line.match_indices(marker) {
                    let rest = line[at + marker.len()..].split('`').next().unwrap_or("");
                    let words: Vec<String> = rest
                        .split_whitespace()
                        .skip_while(|w| *w == "--")
                        .take_while(|w| {
                            !w.starts_with('-')
                                && w.chars().all(|c| c.is_ascii_lowercase() || c == '-')
                        })
                        .take(2)
                        .map(String::from)
                        .collect();
                    let group = words.len() == 1 && COMMANDS.iter().any(|c| c.0 == words[0]);
                    seen += usize::from(!words.is_empty());
                    if !words.is_empty() && !group && dispatch(&words).is_err() {
                        unknown.push(words.join(" "));
                    }
                }
            }
        }
        (seen, unknown)
    }

    #[test]
    fn docs_name_only_commands_that_exist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
        for doc in docs.into_iter().chain([".claude/skills/verify/SKILL.md"]) {
            let text = std::fs::read_to_string(root.join(doc)).expect(doc);
            let (seen, unknown) = scan_invocations(&text);
            assert!(seen >= 5, "{doc}: the scan found {seen} invocations");
            assert!(
                unknown.is_empty(),
                "{doc} names commands paragonctl rejects: {unknown:?}"
            );
        }
        // Planted: a leftover of a deleted command fails, in every form
        // the docs use; real names pass.
        for planted in [
            "Run `paragonctl trace summarize t1.json` to see it.",
            "$P trace summarize a.json     # tracks",
            "cargo run --bin paragonctl -- \\\n    trace summarize t1.json",
        ] {
            assert_eq!(
                scan_invocations(planted).1,
                ["trace summarize"],
                "{planted}"
            );
        }
        let fine = "`paragonctl trace`, `paragonctl reproduce <ID|all>` and \
                    paragonctl profile critical-path --top 2";
        assert_eq!(scan_invocations(fine), (3, Vec::new()));
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
        assert_eq!(run("profile critical-path"), ExitCode::SUCCESS);
        std::fs::write(&path, &edited).unwrap();
        for cmd in ["profile critical-path", "profile export --out /dev/null"] {
            assert_eq!(run(cmd), ExitCode::FAILURE, "{cmd}");
        }
        assert_eq!(run(&format!("trace diff {s}")), ExitCode::FAILURE);
        let err = load_trace(&s).unwrap_err();
        assert!(err.contains("trace hash mismatch"), "{err}");
        let _ = std::fs::remove_file(path);
    }
}
