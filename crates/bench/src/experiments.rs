//! The experiment table: every table and figure of the paper's
//! evaluation plus the extension studies, one entry each. An entry's id
//! and description are its record's; its sweep prints the rendered table
//! or figure and fills the record; its claims are the findings that
//! record must show, each stated once, here.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use paragon_core::{
    PredictorKind, PrefetchConfig, PrefetchingFile, WriteBehindConfig, WriteBehindFile,
};
use paragon_machine::Calibration;
use paragon_metrics::{AsciiChart, DataPoint, ExperimentRecord};
use paragon_pfs::{pattern_slice, IoMode, Redundancy};
use paragon_sim::SimDuration;
use paragon_workload::{
    run_with, AccessPattern, ExperimentConfig, FaultSpec, NodeResult, StripeLayout, Work,
};

use crate::{
    col, kb, run_logged, shown, stored, HarnessError, Sweep, Val, DELAYS_MS, REQUEST_SIZES,
};

/// One reproducible experiment.
pub(crate) struct Experiment {
    /// Record id; the record lands in `results/<lowercase id>.json`.
    pub(crate) id: &'static str,
    /// What the record measures.
    pub(crate) description: &'static str,
    /// The sweep: prints its tables and fills the record.
    pub(crate) run: fn(&mut Sweep) -> Result<(), HarnessError>,
    /// The findings the record must show.
    pub(crate) claims: &'static [Claim],
}

/// A finding an experiment's record must show. `margin` says how far the
/// record sits inside the finding, in the finding's own unit: `>= 0`
/// holds; a negative margin, or NaN (a value the finding needs is
/// missing), fails.
pub struct Claim {
    /// Short name, unique within its experiment.
    pub name: &'static str,
    /// The finding.
    pub text: &'static str,
    /// The record's margin.
    pub margin: fn(&ExperimentRecord) -> f64,
}

/// A list of claims, each written `name "text" => margin`.
macro_rules! claims {
    ($($name:ident $text:literal => $margin:expr,)*) => {
        &[$(Claim { name: stringify!($name), text: $text, margin: $margin }),*]
    };
}

/// Value `key` of point `p`; NaN when the point does not carry it.
fn v(p: &DataPoint, key: &str) -> f64 {
    p.values.get(key).copied().unwrap_or(f64::NAN)
}

/// Parameter `key` of point `p` as a number; NaN when it is not one.
fn num(p: &DataPoint, key: &str) -> f64 {
    p.params
        .get(key)
        .and_then(|s| s.parse().ok())
        .unwrap_or(f64::NAN)
}

/// The first point of `r` whose parameters include every `(key, value)`
/// of `at`; when there is none, a point without values, so every margin
/// over it is NaN.
fn point<'r>(r: &'r ExperimentRecord, at: &[(&str, &str)]) -> &'r DataPoint {
    static MISSING: DataPoint = DataPoint {
        params: BTreeMap::new(),
        values: BTreeMap::new(),
    };
    let matches = |p: &&DataPoint| {
        at.iter()
            .all(|(k, v)| p.params.get(*k).is_some_and(|x| x == v))
    };
    r.points.iter().find(matches).unwrap_or(&MISSING)
}

/// The least of `xs`; NaN when `xs` is empty or holds a NaN, so a claim
/// over no points fails.
fn least(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut xs = xs.into_iter();
    let first = xs.next().unwrap_or(f64::NAN);
    xs.fold(first, |a, x| if a.is_nan() || a < x { a } else { x })
}

/// The least relative step from each of `xs` to the next: `>= 0` when
/// `xs` never falls.
fn rise(xs: impl IntoIterator<Item = f64>) -> f64 {
    let xs: Vec<f64> = xs.into_iter().collect();
    least(xs.windows(2).map(|w| w[1] / w[0] - 1.0))
}

/// Prefetch over no-prefetch bandwidth at `p`.
fn gain(p: &DataPoint) -> f64 {
    v(p, "bw_prefetch_mb_s") / v(p, "bw_no_prefetch_mb_s")
}

/// How far in-flight hits outnumber ready ones at `p`, from -1 (all
/// ready) to 1 (all in flight).
fn inflight_lead(p: &DataPoint) -> f64 {
    let (inflight, ready) = (v(p, "hits_inflight"), v(p, "hits_ready"));
    (inflight - ready) / (inflight + ready)
}

/// Compute nodes per I/O node at `p`.
fn ratio(p: &DataPoint) -> f64 {
    num(p, "compute_nodes") / num(p, "io_nodes")
}

/// Every experiment, in the order `paragonctl reproduce all` runs them.
pub(crate) static EXPERIMENTS: [Experiment; 15] = [
    Experiment {
        id: "FIG2",
        description: "Read throughput of the PFS I/O modes vs request size, 64 KB blocks",
        run: fig2,
        claims: claims![
            mode_order "At every request size M_UNIX < M_SYNC < M_RECORD and M_LOG < \
                M_RECORD, with M_RECORD at most 1 % above M_ASYNC" => |r| {
                use IoMode::{MAsync, MLog, MRecord, MSync, MUnix};
                least(r.points.iter().flat_map(|p| {
                    let bw = |m: IoMode| v(p, &format!("bw_{m}"));
                    let (unix, log, sync) = (bw(MUnix), bw(MLog), bw(MSync));
                    let (record, r#async) = (bw(MRecord), bw(MAsync));
                    [sync / unix, record / sync, record / log, 1.01 * r#async / record]
                        .map(|x| x - 1.0)
                }))
            },
            rises_with_size "Every curve rises with request size, but for a dip of at most \
                0.1 % where M_RECORD and M_ASYNC sit on the disk ceiling (256 -> 512 KB)" => |r| {
                let keys = r.points.first().into_iter().flat_map(|p| p.values.keys());
                least(keys.map(|k| rise(r.points.iter().map(|p| v(p, k))) + 0.001))
            },
            separate_files_deviation "Deviation from the paper: through 256 KB Separate Files \
                sits up to 2 % below M_RECORD instead of on top" => |r| {
                let early = r.points.iter().filter(|p| num(p, "request_kb") <= 256.0);
                least(early.map(|p| v(p, "bw_separate_files") / v(p, "bw_M_RECORD") - 0.98))
            },
        ],
    },
    Experiment {
        id: "TAB1",
        description: "Read bandwidth with vs without prefetching, I/O-bound M_RECORD workload",
        run: tab1,
        claims: claims![
            no_win_without_overlap "With no computation to overlap, prefetching never reads \
                faster than reading without it"
                => |r| least(r.points.iter().map(|p| 1.0 - gain(p))),
            penalty_largest_at_64k "The prefetch-buffer copy and issue cost show most at \
                64 KB: a penalty of at least 2 %, above every other size's" => |r| {
                let g64 = gain(point(r, &[("request_kb", "64")]));
                let larger = r.points.iter().filter(|p| num(p, "request_kb") > 64.0);
                least(larger.map(|p| gain(p) - g64).chain([0.98 - g64]))
            },
            hits_in_flight "The prefetch has no head start: at every size in-flight hits \
                outnumber ready ones at least tenfold" => |r| {
                let lead = |p| v(p, "hits_inflight") / (10.0 * v(p, "hits_ready").max(1.0));
                least(r.points.iter().map(|p| lead(p) - 1.0))
            },
        ],
    },
    Experiment {
        id: "TAB2",
        description: "Per-request read access times vs request size, collective 8-node load",
        run: tab2,
        claims: claims![
            grows_with_size "The mean access time rises with request size"
                => |r| rise(r.points.iter().map(|p| v(p, "mean_access_s"))),
            anchor_1024k "A 1024 KB request under 8-node collective load takes the paper's \
                0.45 s, within 0.15 s" => |r| {
                let t = v(point(r, &[("request_kb", "1024")]), "mean_access_s");
                0.15 - (t - 0.45).abs()
            },
        ],
    },
    Experiment {
        id: "FIG4",
        description: "Balanced workloads: read bandwidth vs compute delay, 64/128/256 KB requests",
        run: |sweep| balanced(sweep, &[64 * 1024, 128 * 1024, 256 * 1024]),
        claims: claims![
            gain_at_25ms_64k "At 64 KB and a 25 ms delay prefetching gains at least 25 %, \
                though the hits are still in flight" => |r| {
                let p = point(r, &[("request_kb", "64"), ("delay_ms", "25")]);
                least([gain(p) - 1.25, inflight_lead(p)])
            },
            ready_past_read_time_64k "At 64 KB, from a 50 ms delay on, the prefetch completes \
                during the computation: ready hits outnumber in-flight ones" => |r| {
                let late = r.points.iter().filter(|p| num(p, "delay_ms") >= 50.0);
                least(late.filter(|p| num(p, "request_kb") == 64.0).map(|p| -inflight_lead(p)))
            },
            peak_near_crossover "The closer the delay to the read time, the bigger the win: \
                at each size the gain peaks within one sweep step of the first delay at which \
                ready hits outnumber in-flight ones (the step past the sweep when none does)"
                => |r| {
                let mut sizes: Vec<f64> = r.points.iter().map(|p| num(p, "request_kb")).collect();
                sizes.dedup();
                least(sizes.into_iter().map(|kb| {
                    let row = r.points.iter().filter(|p| num(p, "request_kb") == kb);
                    let row: Vec<_> = row.collect();
                    let gains = (0..row.len()).map(|i| (gain(row[i]), i));
                    let peak = gains.max_by(|a, b| a.0.total_cmp(&b.0)).map(|(_, i)| i);
                    let ready = row.iter().position(|p| inflight_lead(p) < 0.0);
                    let far = |i: usize| i.abs_diff(ready.unwrap_or(row.len())) as f64;
                    peak.map_or(f64::NAN, |i| 1.0 - far(i))
                }))
            },
        ],
    },
    Experiment {
        id: "FIG5",
        description: "Balanced workloads: read bandwidth vs compute delay, 512/1024 KB requests",
        run: |sweep| balanced(sweep, &[512 * 1024, 1024 * 1024]),
        claims: claims![
            no_gain_when_read_dwarfs_delay "At 512 and 1024 KB the read time dwarfs every \
                delay of the sweep: prefetching gains or loses under 1 %"
                => |r| least(r.points.iter().map(|p| 0.01 - (gain(p) - 1.0).abs())),
            hits_stay_in_flight "In-flight hits outnumber ready ones at every point"
                => |r| least(r.points.iter().map(inflight_lead)),
        ],
    },
    Experiment {
        id: "TAB3",
        description: "Read bandwidth with prefetching across stripe-unit sizes, I/O-bound",
        run: tab3,
        claims: claims![
            su64_best "su = 64 KB, the file-system block, is best or tied at every request \
                size" => |r| {
                least(r.points.iter().flat_map(|p| {
                    let best = v(p, "bw_su64k");
                    [best / v(p, "bw_su16k") - 1.0, best / v(p, "bw_su1024k") - 1.0]
                }))
            },
            one_mb_unit_convoys_small_requests "A 1 MB unit queues every node behind one I/O \
                node at a time: at 64 KB requests it is the slowest unit, over 20 % below \
                su = 64 KB" => |r| {
                let p = point(r, &[("request_kb", "64")]);
                let su1m = v(p, "bw_su1024k");
                least([0.8 - su1m / v(p, "bw_su64k"), v(p, "bw_su16k") / su1m - 1.0])
            },
        ],
    },
    Experiment {
        id: "TAB4",
        description: "Read bandwidth with prefetching: stripe group of 8 I/O nodes vs 8 ways on 1",
        run: tab4,
        claims: claims![
            wide_beats_narrow "Striping over 8 I/O nodes beats 8 ways on one by over 2x at \
                every request size"
                => |r| least(r.points.iter().map(|p| v(p, "speedup") / 2.0 - 1.0)),
            smallest_at_64k "The speedup is smallest at 64 KB, where the prefetch overhead \
                shows most" => |r| {
                let s64 = v(point(r, &[("request_kb", "64")]), "speedup");
                let larger = r.points.iter().filter(|p| num(p, "request_kb") > 64.0);
                least(larger.map(|p| v(p, "speedup") / s64 - 1.0))
            },
            flat_from_128k "From 128 KB up the speedup does not grow with request size: it \
                stays within 2 % of flat" => |r| {
                let from128 = r.points.iter().filter(|p| num(p, "request_kb") >= 128.0);
                let speedups: Vec<f64> = from128.map(|p| v(p, "speedup")).collect();
                1.02 + least(speedups.iter().map(|s| -s)) / least(speedups.clone())
            },
        ],
    },
    Experiment {
        id: "EXT-SCALING",
        description: "Prefetching gain, fairness, hit ratio, and server queue depth while \
                      scaling compute and I/O nodes",
        run: ext_scaling,
        claims: claims![
            bandwidth_scales "Aggregate bandwidth rises with every larger shape"
                => |r| rise(r.points.iter().map(|p| v(p, "bw_no_prefetch_mb_s"))),
            gain_peaks_at_8x8 "The prefetching gain peaks at the paper's 8 x 8 shape, where \
                the 25 ms delay best matches T(64 KB)" => |r| {
                let peak = v(point(r, &[("compute_nodes", "8"), ("io_nodes", "8")]), "gain");
                let others = r.points.iter().filter(|p| num(p, "compute_nodes") != 8.0);
                least(others.map(|p| peak / v(p, "gain") - 1.0))
            },
            queues_deepen_with_oversubscription "The mean request queue per I/O node deepens \
                as the compute-to-I/O ratio grows" => |r| {
                let queue = |p: &DataPoint| v(p, "server_queue_mean") / num(p, "io_nodes");
                least(r.points.iter().flat_map(|a| {
                    let deeper = r.points.iter().filter(|b| ratio(b) > ratio(a));
                    deeper.map(|b| queue(b) / queue(a) - 1.0)
                }))
            },
            fair_through_8_to_1 "Prefetching benefits stay evenly spread: node imbalance is \
                under 10 % at every shape up to 8 compute nodes per I/O node" => |r| {
                let shapes = r.points.iter().filter(|p| ratio(p) <= 8.0);
                least(shapes.map(|p| 0.1 - v(p, "node_imbalance")))
            },
        ],
    },
    Experiment {
        id: "EXT-PATTERNS",
        description: "Prefetching under sequential, broadcast, strided, random, re-read patterns",
        run: ext_patterns,
        claims: claims![
            streams_hit_and_gain "Sequential, broadcast and re-read streams hit over 90 % of \
                the time and gain over 40 %" => |r| {
                let streams = ["sequential/M_ASYNC", "broadcast/M_GLOBAL", "re-read x2"];
                let points = streams.map(|s| point(r, &[("pattern", s)]));
                least(points.iter().flat_map(|p| [v(p, "hit_ratio") - 0.9, gain(p) - 1.4]))
            },
            random_defeats_prediction "Random access defeats prediction (hit ratio under \
                5 %) yet costs under 5 % of the bandwidth" => |r| {
                let p = point(r, &[("pattern", "random")]);
                least([0.05 - v(p, "hit_ratio"), gain(p) - 0.95])
            },
        ],
    },
    Experiment {
        id: "EXT-DEPTH",
        description: "Prefetch depth 1-8 on a balanced workload with delay >> read time",
        run: ext_depth,
        claims: claims![
            depth_one_suffices "With the delay above the read time, depth 1, the prototype's, \
                beats no prefetching and no deeper pipeline reads faster" => |r| {
                let depth1 = v(point(r, &[("depth", "1")]), "bw_mb_s");
                let others = r.points.iter().filter(|p| num(p, "depth") != 1.0);
                least(others.map(|p| depth1 / v(p, "bw_mb_s") - 1.0))
            },
        ],
    },
    Experiment {
        id: "EXT-ABLATION",
        description: "Fast Path, copy-bandwidth, and ART-limit ablations",
        run: ext_ablation,
        claims: claims![
            fast_path_for_cold_reads "Fast Path wins on cold sequential reads; the buffer \
                cache pays off only on re-reads" => |r| {
                let bw = |workload, key| v(point(r, &[("workload", workload)]), key);
                let (fast, buffered) = ("bw_fast_path_mb_s", "bw_buffered_mb_s");
                let cold = bw("sequential", fast) / bw("sequential", buffered);
                least([cold, bw("re-read x3", buffered) / bw("re-read x3", fast)]) - 1.0
            },
            slower_copy_smaller_win "The prefetch gain shrinks as the compute-node copy gets \
                slower" => |r| {
                let copies = r.points.iter().filter(|p| num(p, "copy_mb_s") > 0.0);
                rise(copies.map(|p| v(p, "gain")))
            },
            one_art_serializes "One ART serializes a depth-4 pipeline: more ARTs read over \
                10 % faster" => |r| {
                let one = v(point(r, &[("max_arts", "1")]), "bw_prefetch_mb_s");
                let more = r.points.iter().filter(|p| num(p, "max_arts") > 1.0);
                least(more.map(|p| v(p, "bw_prefetch_mb_s") / one - 1.1))
            },
        ],
    },
    Experiment {
        id: "EXT-WRITES",
        description: "Write-behind vs synchronous writes, balanced M_RECORD write workload",
        run: ext_writes,
        claims: claims![
            write_behind_wins_at_64k "At 64 KB write-behind beats synchronous writes by over \
                20 % at every delay" => |r| {
                let small = r.points.iter().filter(|p| num(p, "request_kb") == 64.0);
                least(small.map(|p| v(p, "gain") - 1.2))
            },
            large_writes_mirror_fig5 "At 512 KB the transfer dwarfs the delay, as in Figure 5: \
                the gain stays within 10 % of 1x" => |r| {
                let large = r.points.iter().filter(|p| num(p, "request_kb") == 512.0);
                least(large.map(|p| 0.1 - (v(p, "gain") - 1.0).abs()))
            },
        ],
    },
    Experiment {
        id: "EXT-DOUBLEBUF",
        description: "System-level prefetching vs application-level double buffering",
        run: ext_doublebuf,
        claims: claims![
            system_tracks_double_buffering "Application double buffering (same overlap, no \
                prefetch-buffer copy) is the upper bound, and the transparent prefetcher \
                tracks it within 5 %" => |r| {
                least(r.points.iter().flat_map(|p| {
                    let ratio = v(p, "bw_system_prefetch_mb_s") / v(p, "bw_double_buffer_mb_s");
                    [1.0 - ratio, ratio - 0.95]
                }))
            },
        ],
    },
    Experiment {
        id: "EXT-SCSI16",
        description: "Headline experiments on the SCSI-16 hardware the paper mentions",
        run: ext_scsi16,
        claims: claims![
            faster_disks "SCSI-16 at least doubles the I/O-bound bandwidth and cuts the access \
                time at least twofold at every request size" => |r| {
                let ceiling = r.points.iter().filter(|p| p.values.contains_key("t_scsi8_s"));
                least(ceiling.flat_map(|p| {
                    let faster = v(p, "bw_scsi16_mb_s") / v(p, "bw_scsi8_mb_s");
                    [faster, v(p, "t_scsi8_s") / v(p, "t_scsi16_s")].map(|x| x / 2.0 - 1.0)
                }))
            },
            crossover_moves_left "Faster disks widen the regime where prefetching helps: \
                Figure 5's 1024 KB requests gain over 5 % at a 0.1 s delay" => |r| {
                gain(point(r, &[("experiment", "fig5_on_scsi16"), ("delay_ms", "100")])) - 1.05
            },
        ],
    },
    Experiment {
        id: EXT_FAULTS[0],
        description: EXT_FAULTS[1],
        run: |sweep| {
            let base = ExperimentConfig::paper_iobound(64 * 1024, 8);
            fault_study(sweep, base, DISK_ERROR_PM, MESH_DROP_PM)
        },
        claims: claims![
            transients_cost_hits_not_data "Transient disk errors land on the prefetcher: it \
                absorbs the failed prefetches (when the error rate is above zero), and the hit \
                ratio pays for them, by at most one point against the fault-free run" => |r| {
                let class = |c| point(r, &[("class", c)]);
                let lost = v(class("none"), "hit_ratio") - v(class("disk-transient"), "hit_ratio");
                let faults = v(class("disk-transient"), "prefetch_faults") - 1.0;
                let errors = r.config.get("error_pm").is_some_and(|pm| pm != "0");
                least([lost, 0.01 - lost].into_iter().chain(errors.then_some(faults)))
            },
            parity_rebuilds_a_dead_member "A dead RAID member costs no read: every read of it \
                is reconstructed from the survivors plus parity" => |r| {
                let p = point(r, &[("class", "dead-member")]);
                least([0.0 - v(p, "read_errors"), v(p, "reconstructed_reads") - 1.0])
            },
            retries_hide_lost_messages "RPC retries hide dropped messages and a 5 s I/O-node \
                crash: neither fails a read or a prefetch" => |r| {
                let failed = |c| {
                    let p = point(r, &[("class", c)]);
                    v(p, "read_errors") + v(p, "prefetch_faults")
                };
                0.0 - (failed("mesh-drop") + failed("ion-crash"))
            },
            replication_masks_the_crash "replicated:2 masks the whole-run crash: no \
                client-visible read error, and the rebuild queue drains to exactly zero" => |r| {
                let p = point(r, &[("redundancy", "replicated:2")]);
                0.0 - (v(p, "read_errors") + v(p, "rebuild_pending"))
            },
            unreplicated_modes_lose_reads "Without cross-node copies the crash surfaces as \
                read errors, under parity too: per-node RAID cannot rebuild a lost node" => |r| {
                let errors = |mode| v(point(r, &[("redundancy", mode)]), "read_errors");
                least([errors("none"), errors("parity")]) - 1.0
            },
        ],
    },
];

/// Id and description of the EXT-FAULTS record, which `paragonctl faults`
/// also builds, at any options.
pub(crate) const EXT_FAULTS: [&str; 2] = ["EXT-FAULTS", "paragonctl faults"];

/// FIG2: 8 CN read one shared file in each I/O mode (Separate Files: a
/// private file each).
fn fig2(sweep: &mut Sweep) -> Result<(), HarnessError> {
    use IoMode::{MAsync, MLog, MRecord, MSync, MUnix};
    const MODES: [IoMode; 5] = [MUnix, MLog, MSync, MRecord, MAsync];
    let cfg = |sz, mode| ExperimentConfig {
        mode,
        ..ExperimentConfig::paper_iobound(sz, 4)
    };
    sweep.stamp(&cfg(REQUEST_SIZES[0], MODES[0]));
    let mut cols = vec![col("Request size (KB)", "request_kb")];
    cols.extend(MODES.map(|m| col(&m.to_string(), format!("bw_{m}"))));
    cols.push(col("Separate Files", "bw_separate_files"));
    sweep.table(
        "Figure 2 (data): File System Read Performance, 8 Compute Nodes, 8 I/O Nodes (MB/s)",
        cols,
    );

    for sz in REQUEST_SIZES {
        let mut cells = vec![Val::from(kb(sz).to_string())];
        for mode in MODES {
            let r = run_logged(&format!("{} {}KB", mode, kb(sz)), &cfg(sz, mode));
            cells.push(r.bandwidth_mb_s().into());
        }
        // Separate Files: one private 4 MB file per node, same total data.
        let separate = ExperimentConfig {
            separate_files: true,
            file_size: 4 << 20,
            ..cfg(sz, MAsync)
        };
        let r = run_logged(&format!("separate {}KB", kb(sz)), &separate);
        cells.push(r.bandwidth_mb_s().into());
        sweep.row(&cells);
    }

    sweep.print();
    let mut chart = AsciiChart::new(
        "Figure 2: Read Performance of the PFS I/O Modes",
        "request size (KB)",
        "throughput (MB/s)",
    );
    let keys = MODES.map(|m| (m.to_string(), format!("bw_{m}")));
    let separate = ("Separate Files".to_owned(), "bw_separate_files".to_owned());
    for (name, key) in keys.iter().chain([&separate]) {
        chart = chart.series(sweep.series(name, key, REQUEST_SIZES.map(|sz| kb(sz) as f64)));
    }
    println!("{}", chart.render());
    Ok(())
}

/// TAB1: I/O-bound M_RECORD reads with and without prefetching.
fn tab1(sweep: &mut Sweep) -> Result<(), HarnessError> {
    sweep.stamp(&ExperimentConfig::paper_iobound(REQUEST_SIZES[0], 8));
    sweep.table(
        "Table 1: PFS Read Performance with and without Prefetching \
         (stripe unit 64KB, stripe group 8, I/O-bound)",
        vec![
            col("Request size (KB)", "request_kb"),
            shown("File size (MB/node)"),
            col("Read BW no-prefetch (MB/s)", "bw_no_prefetch_mb_s"),
            col("Read BW prefetch (MB/s)", "bw_prefetch_mb_s"),
            col("Hit ratio", "hit_ratio"),
            stored("hits_inflight"),
            stored("hits_ready"),
        ],
    );

    for sz in REQUEST_SIZES {
        let base = ExperimentConfig::paper_iobound(sz, 8);
        let no_pf = run_logged(&format!("{}KB no-pf", kb(sz)), &base);
        let pf = run_logged(&format!("{}KB pf", kb(sz)), &base.clone().with_prefetch());
        sweep.row(&[
            kb(sz).to_string().into(),
            "8".into(),
            no_pf.bandwidth_mb_s().into(),
            pf.bandwidth_mb_s().into(),
            pf.prefetch.hit_ratio().into(),
            pf.prefetch.hits_inflight.into(),
            pf.prefetch.hits_ready.into(),
        ]);
    }

    sweep.print();
    Ok(())
}

/// TAB2: per-request read access times under collective 8-node load;
/// they bound how much compute delay a prefetch can hide.
fn tab2(sweep: &mut Sweep) -> Result<(), HarnessError> {
    sweep.stamp(&ExperimentConfig::paper_iobound(REQUEST_SIZES[0], 8));
    sweep.table(
        "Table 2: Read Access Times for Various Request Sizes (8 CN x 8 ION, M_RECORD)",
        vec![
            col("Request size (KB)", "request_kb"),
            col("Mean access time (s)", "mean_access_s").prec(3),
            col("Min (s)", "min_access_s").prec(3),
            col("p50 (s)", "p50_access_s").prec(3),
            col("p99 (s)", "p99_access_s").prec(3),
            col("Max (s)", "max_access_s").prec(3),
        ],
    );

    for sz in REQUEST_SIZES {
        let cfg = ExperimentConfig::paper_iobound(sz, 8);
        let r = run_logged(&format!("{}KB", kb(sz)), &cfg);
        let tmin = r.per_node.iter().map(|n| n.read_time_min()).min();
        let tmax = r.per_node.iter().map(|n| n.read_time_max()).max();
        let (p50, _p90, p99) = r
            .access_time_histogram()
            .percentiles()
            .expect("requests ran");
        sweep.row(&[
            kb(sz).to_string().into(),
            r.read_time_mean().as_secs_f64().into(),
            tmin.unwrap_or_default().as_secs_f64().into(),
            p50.into(),
            p99.into(),
            tmax.unwrap_or_default().as_secs_f64().into(),
        ]);
    }

    sweep.print();
    Ok(())
}

/// FIG4 and FIG5, which differ only in request sizes: for each size,
/// sweep the compute delay between reads with and without prefetching.
fn balanced(sweep: &mut Sweep, sizes: &[u32]) -> Result<(), HarnessError> {
    let cfg = |sz, ms| ExperimentConfig::paper_balanced(sz, SimDuration::from_millis(ms));
    sweep.stamp(&cfg(sizes[0], DELAYS_MS[0]));
    for &sz in sizes {
        sweep.table(
            &format!(
                "{} (data): Balanced Workload, {} KB requests, 128 MB file",
                sweep.record.id,
                kb(sz)
            ),
            vec![
                shown("Delay (s)").prec(3),
                stored("request_kb"),
                stored("delay_ms"),
                col("No prefetch (MB/s)", "bw_no_prefetch_mb_s"),
                col("Prefetch (MB/s)", "bw_prefetch_mb_s"),
                col("Ready hits", "hits_ready").prec(0),
                col("In-flight hits", "hits_inflight").prec(0),
                stored("overlap_saved_s"),
            ],
        );
        for ms in DELAYS_MS {
            let (base, label) = (cfg(sz, ms), format!("{}KB d={}ms", kb(sz), ms));
            let no_pf = run_logged(&format!("{label} no-pf"), &base);
            let pf = run_logged(&format!("{label} pf"), &base.clone().with_prefetch());
            sweep.row(&[
                (ms as f64 / 1000.0).into(),
                kb(sz).to_string().into(),
                ms.to_string().into(),
                no_pf.bandwidth_mb_s().into(),
                pf.bandwidth_mb_s().into(),
                pf.prefetch.hits_ready.into(),
                pf.prefetch.hits_inflight.into(),
                pf.prefetch.overlap_saved.as_secs_f64().into(),
            ]);
        }
        sweep.print();
        let delay_s = DELAYS_MS.map(|ms| ms as f64 / 1000.0);
        let chart = AsciiChart::new(
            &format!("Read Bandwidths, {} KB request size", kb(sz)),
            "computation delay between reads (s)",
            "read bandwidth (MB/s)",
        )
        .series(sweep.series("no prefetching", "bw_no_prefetch_mb_s", delay_s))
        .series(sweep.series("prefetching", "bw_prefetch_mb_s", delay_s));
        println!("{}", chart.render());
    }
    Ok(())
}

/// TAB3: I/O-bound reads with prefetching across stripe units.
fn tab3(sweep: &mut Sweep) -> Result<(), HarnessError> {
    const STRIPE_UNITS: [u64; 3] = [64 * 1024, 16 * 1024, 1024 * 1024];
    let cfg = |sz, su| ExperimentConfig {
        stripe_unit: su,
        ..ExperimentConfig::paper_iobound(sz, 8).with_prefetch()
    };
    sweep.stamp(&cfg(REQUEST_SIZES[0], STRIPE_UNITS[0]));
    let mut cols = vec![
        col("Request size (KB)", "request_kb"),
        shown("File size (MB/node)"),
    ];
    let su_kb = STRIPE_UNITS.map(|su| su / 1024);
    cols.extend(su_kb.map(|k| col(&format!("BW su={k}KB (MB/s)"), format!("bw_su{k}k"))));
    sweep.table(
        "Table 3: PFS Read Performance with prefetching for different Stripe unit sizes",
        cols,
    );

    for sz in REQUEST_SIZES {
        let mut cells = vec![Val::from(kb(sz).to_string()), Val::from("8")];
        for su in STRIPE_UNITS {
            let r = run_logged(&format!("{}KB su={}KB", kb(sz), su / 1024), &cfg(sz, su));
            cells.push(r.bandwidth_mb_s().into());
        }
        sweep.row(&cells);
    }

    sweep.print();
    Ok(())
}

/// TAB4: striping over all 8 I/O nodes (R) vs 8 ways on one (R'), with
/// prefetching.
fn tab4(sweep: &mut Sweep) -> Result<(), HarnessError> {
    let wide = |sz| ExperimentConfig::paper_iobound(sz, 8).with_prefetch();
    sweep.stamp(&wide(REQUEST_SIZES[0]));
    sweep.table(
        "Table 4: PFS Read Performance with Prefetching for different Stripe groups (8 CN)",
        vec![
            col("Request size (KB)", "request_kb"),
            shown("File size (MB/node)"),
            col("BW sgroup=8 R (MB/s)", "bw_sgroup8_mb_s"),
            col("BW sgroup=1 R' (MB/s)", "bw_sgroup1_mb_s"),
            col("Speedup R/R'", "speedup"),
        ],
    );

    for sz in REQUEST_SIZES {
        // R: across all 8 I/O nodes (the testbed default).
        let r_wide = run_logged(&format!("{}KB sgroup=8", kb(sz)), &wide(sz));
        // R': 8 stripe files all on I/O node 0.
        let narrow = ExperimentConfig {
            layout: StripeLayout::WaysOnOne { ways: 8 },
            ..wide(sz)
        };
        let r_narrow = run_logged(&format!("{}KB sgroup=1", kb(sz)), &narrow);
        sweep.row(&[
            kb(sz).to_string().into(),
            "8".into(),
            r_wide.bandwidth_mb_s().into(),
            r_narrow.bandwidth_mb_s().into(),
            (r_wide.bandwidth_mb_s() / r_narrow.bandwidth_mb_s()).into(),
        ]);
    }

    sweep.print();
    Ok(())
}

/// EXT-SCALING (paper §5, "much larger systems"): shapes from 2×1 to
/// 4096×256 under the balanced workload, recording fairness and the
/// server queue depth.
fn ext_scaling(sweep: &mut Sweep) -> Result<(), HarnessError> {
    const SHAPES: [(usize, usize); 10] = [
        (2, 1),
        (4, 2),
        (8, 8),
        (16, 8),
        (32, 16),
        (64, 16),
        (128, 32),
        (512, 64),
        (1024, 128),
        (4096, 256),
    ];
    // Per-compute-node file bytes: 4 MB keeps the small shapes comparable
    // to the paper's runs; from 64 CNs up it drops to 1 MB so the larger
    // points stay inside a laptop's memory and a CI wall-clock budget, and
    // the 4096-CN full machine drops to 256 KB (4 requests per node) for
    // the same reason: file population materializes every byte of the
    // file in host memory, so the file size sets the run's peak RSS.
    let per_cn_bytes = |cn: usize| -> u64 {
        match cn {
            4096.. => 256 << 10,
            64.. => 1 << 20,
            _ => 4 << 20,
        }
    };
    sweep.record.config("request_kb", 64).config("delay_ms", 25);
    sweep.table(
        "Scaling study: balanced M_RECORD workload (64 KB requests, 25 ms delay)",
        vec![
            shown("CN x ION"),
            stored("compute_nodes"),
            stored("io_nodes"),
            stored("per_cn_kb"),
            col("No prefetch (MB/s)", "bw_no_prefetch_mb_s"),
            col("Prefetch (MB/s)", "bw_prefetch_mb_s"),
            col("Gain", "gain").suffix("x"),
            col("Node imbalance", "node_imbalance").prec(3),
            col("PF hit ratio", "prefetch_hit_ratio").prec(3),
            shown("Server queue mean/max"),
            stored("server_queue_mean"),
            stored("server_queue_max"),
        ],
    );

    for (cn, ion) in SHAPES {
        let cfg = ExperimentConfig {
            compute_nodes: cn,
            io_nodes: ion,
            layout: StripeLayout::Across { factor: ion },
            file_size: (cn as u64) * per_cn_bytes(cn),
            ..ExperimentConfig::paper_balanced(64 * 1024, SimDuration::from_millis(25))
        };
        let no_pf = run_logged(&format!("{cn}x{ion} no-pf"), &cfg);
        // Arm the telemetry sampler on the prefetch run so the record
        // captures how deep the server request queues sit at each shape.
        let pf_cfg = ExperimentConfig {
            metrics_cadence: Some(crate::cli::METRICS_CADENCE),
            ..cfg.clone().with_prefetch()
        };
        let pf = run_logged(&format!("{cn}x{ion} pf"), &pf_cfg);
        let (q_mean, q_max) = pf.metrics.as_ref().map_or((0.0, 0.0), |snap| {
            (
                snap.series_time_mean("server.queue").unwrap_or(0.0),
                snap.series_max("server.queue").unwrap_or(0.0),
            )
        });
        sweep.row(&[
            format!("{cn} x {ion}").into(),
            cn.to_string().into(),
            ion.to_string().into(),
            (per_cn_bytes(cn) >> 10).to_string().into(),
            no_pf.bandwidth_mb_s().into(),
            pf.bandwidth_mb_s().into(),
            (pf.bandwidth_mb_s() / no_pf.bandwidth_mb_s()).into(),
            pf.node_imbalance().into(),
            pf.prefetch.hit_ratio().into(),
            format!("{q_mean:.2} / {q_max:.0}").into(),
            q_mean.into(),
            q_max.into(),
        ]);
    }

    sweep.print();
    Ok(())
}

/// EXT-PATTERNS (paper §5, more patterns and I/O modes): each pattern
/// with and without prefetching, every byte read verified; corrupt data
/// fails the experiment.
fn ext_patterns(sweep: &mut Sweep) -> Result<(), HarnessError> {
    use AccessPattern::{ModeDriven, Random, Reread, Strided};
    use IoMode::{MAsync, MGlobal};
    let cases = [
        ("sequential/M_ASYNC", MAsync, ModeDriven),
        ("broadcast/M_GLOBAL", MGlobal, ModeDriven),
        ("strided 256KB", MAsync, Strided { stride: 256 * 1024 }),
        ("random", MAsync, Random),
        ("re-read x2", MAsync, Reread { passes: 2 }),
    ];
    sweep.record.config("request_kb", 64).config("delay_ms", 25);
    sweep.table(
        "Access-pattern study: prefetching across patterns (64 KB requests, 25 ms delay)",
        vec![
            col("Pattern", "pattern"),
            col("No prefetch (MB/s)", "bw_no_prefetch_mb_s"),
            col("Prefetch (MB/s)", "bw_prefetch_mb_s"),
            col("Hit ratio", "hit_ratio"),
            col("Wasted prefetches", "wasted").prec(0),
            stored("issued"),
        ],
    );

    for (name, mode, access) in cases {
        let cfg = ExperimentConfig {
            mode,
            access,
            file_size: 32 << 20,
            verify_data: true,
            ..ExperimentConfig::paper_balanced(64 * 1024, SimDuration::from_millis(25))
        };
        let no_pf = run_logged(&format!("{name} no-pf"), &cfg);
        let mut pf_cfg = cfg.clone().with_prefetch();
        if let (Strided { .. }, Some(pc)) = (access, pf_cfg.prefetch.as_mut()) {
            // The extension predictor: lock onto the stride instead of
            // assuming a sequential stream.
            pc.predictor = PredictorKind::Strided;
        }
        let pf = run_logged(&format!("{name} pf"), &pf_cfg);
        let failures = no_pf.verify_failures + pf.verify_failures;
        if failures > 0 {
            let case = name.to_owned();
            return Err(HarnessError::Verify { case, failures });
        }
        sweep.row(&[
            name.into(),
            no_pf.bandwidth_mb_s().into(),
            pf.bandwidth_mb_s().into(),
            pf.prefetch.hit_ratio().into(),
            pf.prefetch.wasted.into(),
            pf.prefetch.issued.into(),
        ]);
    }

    sweep.print();
    Ok(())
}

/// EXT-DEPTH: prefetch depth 1–8 with the delay well above the read
/// time.
fn ext_depth(sweep: &mut Sweep) -> Result<(), HarnessError> {
    sweep.record.config("request_kb", 64);
    sweep.record.config("delay_ms", 150);
    sweep.table(
        "Depth ablation: balanced M_RECORD, 64 KB requests, 150 ms delay",
        vec![
            shown("Depth"),
            stored("depth"),
            col("Bandwidth (MB/s)", "bw_mb_s"),
            col("Hit ratio", "hit_ratio"),
            col("Ready hits", "hits_ready").prec(0),
            shown("In-flight hits").prec(0),
            col("Wasted", "wasted").prec(0),
        ],
    );

    let base = ExperimentConfig {
        file_size: 32 << 20,
        ..ExperimentConfig::paper_balanced(64 * 1024, SimDuration::from_millis(150))
    };
    // Baseline without prefetching for reference.
    let no_pf = run_logged("depth 0 (off)", &base);
    sweep.row(&[
        "0 (off)".into(),
        "0".into(),
        no_pf.bandwidth_mb_s().into(),
        Val::Blank,
        Val::Blank,
        Val::Blank,
        Val::Blank,
    ]);

    for depth in [1u32, 2, 4, 8] {
        let cfg = ExperimentConfig {
            prefetch: Some(PrefetchConfig {
                copy_bw: base.calib.cn_copy_bw,
                ..PrefetchConfig::with_depth(depth)
            }),
            ..base.clone()
        };
        let r = run_logged(&format!("depth {depth}"), &cfg);
        sweep.row(&[
            depth.to_string().into(),
            depth.to_string().into(),
            r.bandwidth_mb_s().into(),
            r.prefetch.hit_ratio().into(),
            r.prefetch.hits_ready.into(),
            r.prefetch.hits_inflight.into(),
            r.prefetch.wasted.into(),
        ]);
    }

    sweep.print();
    Ok(())
}

/// EXT-ABLATION: Fast Path vs the server buffer cache, the prefetch-hit
/// copy bandwidth, and the ART concurrency limit.
fn ext_ablation(sweep: &mut Sweep) -> Result<(), HarnessError> {
    // --- 1. Fast Path on/off, sequential vs re-read. -------------------
    sweep.table(
        "Ablation 1: Fast Path vs buffered servers (64 KB requests, no delay)",
        vec![
            stored("ablation"),
            col("Workload", "workload"),
            col("Fast Path (MB/s)", "bw_fast_path_mb_s"),
            col("Buffered (MB/s)", "bw_buffered_mb_s"),
        ],
    );
    use AccessPattern::{ModeDriven, Reread};
    for (name, access, mode) in [
        ("sequential", ModeDriven, IoMode::MRecord),
        ("re-read x3", Reread { passes: 3 }, IoMode::MAsync),
    ] {
        let cfg = ExperimentConfig {
            access,
            mode,
            ..ExperimentConfig::paper_iobound(64 * 1024, 2)
        };
        let fast = run_logged(&format!("{name} fastpath"), &cfg);
        let buffered = ExperimentConfig {
            fast_path: false,
            ..cfg
        };
        let buf = run_logged(&format!("{name} buffered"), &buffered);
        sweep.row(&[
            "fast_path".into(),
            name.into(),
            fast.bandwidth_mb_s().into(),
            buf.bandwidth_mb_s().into(),
        ]);
    }
    sweep.print();

    // --- 2. Copy-bandwidth sensitivity. ---------------------------------
    sweep.table(
        "Ablation 2: prefetch-hit copy bandwidth (balanced 64 KB, 25 ms delay)",
        vec![
            stored("ablation"),
            col("CN memcpy (MB/s)", "copy_mb_s"),
            col("Prefetch BW (MB/s)", "bw_prefetch_mb_s"),
            col("Gain vs no-prefetch", "gain").suffix("x"),
        ],
    );
    let base = ExperimentConfig {
        file_size: 32 << 20,
        ..ExperimentConfig::paper_balanced(64 * 1024, SimDuration::from_millis(25))
    };
    let no_pf = run_logged("copy-bw baseline no-pf", &base);
    for copy_mb in [5.0f64, 15.0, 45.0, 200.0] {
        let mut cfg = base.clone().with_prefetch();
        if let Some(pc) = cfg.prefetch.as_mut() {
            pc.copy_bw = copy_mb * 1e6;
        }
        let r = run_logged(&format!("copy {copy_mb} MB/s"), &cfg);
        sweep.row(&[
            "copy_bw".into(),
            format!("{copy_mb}").into(),
            r.bandwidth_mb_s().into(),
            (r.bandwidth_mb_s() / no_pf.bandwidth_mb_s()).into(),
        ]);
    }
    sweep.print();

    // --- 3. ART concurrency limit. ---------------------------------------
    sweep.table(
        "Ablation 3: max concurrent ARTs (balanced 64 KB, 25 ms delay, depth 4)",
        vec![
            stored("ablation"),
            col("max_arts", "max_arts"),
            col("Prefetch BW (MB/s)", "bw_prefetch_mb_s"),
            col("Hit ratio", "hit_ratio"),
        ],
    );
    for max_arts in [1usize, 2, 8] {
        let mut cfg = base.clone().with_prefetch();
        cfg.calib.max_arts = max_arts;
        if let Some(pc) = cfg.prefetch.as_mut() {
            (pc.depth, pc.max_buffers) = (4, 16);
        }
        let r = run_logged(&format!("max_arts {max_arts}"), &cfg);
        sweep.row(&[
            "max_arts".into(),
            max_arts.to_string().into(),
            r.bandwidth_mb_s().into(),
            r.prefetch.hit_ratio().into(),
        ]);
    }
    sweep.print();
    Ok(())
}

/// The 8×8 paper testbed of the write-behind and double-buffering
/// studies: one 32 MB M_RECORD file, populated with `seed`'s pattern,
/// striped in 64 KB units across all eight I/O nodes, and `request`-byte
/// calls.
fn testbed(seed: u64, request: u32) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_iobound(request, 4);
    cfg.seed = seed;
    cfg
}

/// EXT-WRITES: the write-side dual of the prototype, synchronous writes
/// vs write-behind on a balanced M_RECORD write workload.
fn ext_writes(sweep: &mut Sweep) -> Result<(), HarnessError> {
    // MB/s and write-behind stalls of one write workload.
    let run_case = |request: u32, delay_ms: u64, write_behind: bool| {
        let cfg = testbed(64, request);
        let (rounds, nprocs) = (cfg.rounds_per_node(), cfg.compute_nodes as u64);
        let delay = SimDuration::from_millis(delay_ms);
        let stalls = Rc::new(Cell::new(0));
        let stalls2 = Rc::clone(&stalls);
        let r = run_with(&cfg, move |ctx| {
            let stalls = Rc::clone(&stalls2);
            async move {
                if write_behind {
                    let wb = WriteBehindFile::new(ctx.file, WriteBehindConfig::prototype());
                    for k in 0..rounds {
                        let at = (k * nprocs + ctx.rank as u64) * request as u64;
                        wb.write(pattern_slice(8, at, request as usize))
                            .await
                            .expect("write on a healthy testbed");
                        ctx.sim.sleep(delay).await;
                    }
                    wb.flush().await.expect("flush on a healthy testbed");
                    stalls.set(stalls.get() + wb.stats().stalls);
                } else {
                    for _ in 0..rounds {
                        let at = ctx.file.advance_pointer(request).await;
                        ctx.file
                            .write_at(at, pattern_slice(8, at, request as usize))
                            .await
                            .expect("write on a healthy testbed");
                        ctx.sim.sleep(delay).await;
                    }
                }
                NodeResult {
                    rank: ctx.rank,
                    bytes: rounds * request as u64,
                    elapsed: ctx.sim.now().since(ctx.t0),
                    ..NodeResult::default()
                }
            }
        });
        (r.bandwidth_mb_s(), stalls.get())
    };
    let cfg = testbed(64, 64 * 1024);
    sweep.record.config("compute_nodes", cfg.compute_nodes);
    sweep.record.config("file_mb", cfg.file_size >> 20);

    for request in [64 * 1024u32, 512 * 1024] {
        sweep.table(
            &format!(
                "Write-behind study: {} KB writes, 32 MB file, 8 CN x 8 ION",
                request / 1024
            ),
            vec![
                shown("Delay (s)").prec(3),
                stored("request_kb"),
                stored("delay_ms"),
                col("Synchronous (MB/s)", "bw_sync_mb_s"),
                col("Write-behind (MB/s)", "bw_write_behind_mb_s"),
                col("Gain", "gain").suffix("x"),
                shown("Stalls").prec(0),
            ],
        );
        for delay_ms in [0u64, 10, 25, 50, 100] {
            let (sync_bw, _) = run_case(request, delay_ms, false);
            let (wb_bw, stalls) = run_case(request, delay_ms, true);
            let kb = request / 1024;
            eprintln!("  [{kb}KB d={delay_ms}ms] sync {sync_bw:.2} wb {wb_bw:.2}");
            sweep.row(&[
                (delay_ms as f64 / 1000.0).into(),
                kb.to_string().into(),
                delay_ms.to_string().into(),
                sync_bw.into(),
                wb_bw.into(),
                (wb_bw / sync_bw).into(),
                stalls.into(),
            ]);
        }
        sweep.print();
    }
    Ok(())
}

/// EXT-DOUBLEBUF: blocking reads, blocking reads with system
/// prefetching, and an application that double-buffers with
/// `aread`/`iowait` itself: the expert alternative the paper competes
/// with, same overlap without the prefetch-buffer copy but rewritten.
fn ext_doublebuf(sweep: &mut Sweep) -> Result<(), HarnessError> {
    const REQUEST: u32 = 64 * 1024;
    #[derive(Clone, Copy)]
    enum Variant {
        Blocking,
        SystemPrefetch,
        DoubleBuffered,
    }
    let run_variant = |variant: Variant, delay_ms: u64| {
        let cfg = testbed(55, REQUEST);
        let rounds = cfg.rounds_per_node();
        let delay = SimDuration::from_millis(delay_ms);
        run_with(&cfg, move |ctx| async move {
            match variant {
                Variant::Blocking => {
                    for _ in 0..rounds {
                        ctx.file
                            .read(REQUEST)
                            .await
                            .expect("read on a healthy testbed");
                        ctx.sim.sleep(delay).await;
                    }
                }
                Variant::SystemPrefetch => {
                    let pf = PrefetchingFile::new(ctx.file, PrefetchConfig::paper_prototype());
                    for _ in 0..rounds {
                        pf.read(REQUEST).await.expect("read on a healthy testbed");
                        ctx.sim.sleep(delay).await;
                    }
                    pf.close().await;
                }
                Variant::DoubleBuffered => {
                    // The expert application: one read in flight ahead
                    // of the block being computed on, no extra copy.
                    let mut next = ctx.file.aread(REQUEST).await;
                    for k in 0..rounds {
                        let current = next.join().await.expect("read on a healthy testbed");
                        if k + 1 < rounds {
                            next = ctx.file.aread(REQUEST).await;
                        }
                        let _ = current; // compute on it:
                        ctx.sim.sleep(delay).await;
                    }
                }
            }
            NodeResult {
                rank: ctx.rank,
                bytes: rounds * REQUEST as u64,
                elapsed: ctx.sim.now().since(ctx.t0),
                ..NodeResult::default()
            }
        })
        .bandwidth_mb_s()
    };
    sweep.record.config("request_kb", 64);
    sweep
        .record
        .config("file_mb", testbed(55, REQUEST).file_size >> 20);
    sweep.table(
        "System prefetching vs application double buffering (M_RECORD, 64 KB requests)",
        vec![
            shown("Delay (s)").prec(3),
            stored("delay_ms"),
            col("Blocking (MB/s)", "bw_blocking_mb_s"),
            col("System prefetch (MB/s)", "bw_system_prefetch_mb_s"),
            col("App double-buffer (MB/s)", "bw_double_buffer_mb_s"),
        ],
    );

    for delay_ms in [0u64, 10, 25, 50, 100] {
        let blocking = run_variant(Variant::Blocking, delay_ms);
        let system = run_variant(Variant::SystemPrefetch, delay_ms);
        let app = run_variant(Variant::DoubleBuffered, delay_ms);
        eprintln!("  [d={delay_ms}ms] blocking {blocking:.2} system {system:.2} app {app:.2}");
        sweep.row(&[
            (delay_ms as f64 / 1000.0).into(),
            delay_ms.to_string().into(),
            blocking.into(),
            system.into(),
            app.into(),
        ]);
    }

    sweep.print();
    Ok(())
}

/// EXT-SCSI16: the headline experiments on the SCSI-16 disks of the
/// paper's §2.
fn ext_scsi16(sweep: &mut Sweep) -> Result<(), HarnessError> {
    // --- ceiling + access times across request sizes -------------------
    sweep.table(
        "SCSI-8 vs SCSI-16: I/O-bound M_RECORD bandwidth and access time",
        vec![
            stored("experiment"),
            col("Request (KB)", "request_kb"),
            col("SCSI-8 BW (MB/s)", "bw_scsi8_mb_s"),
            col("SCSI-16 BW (MB/s)", "bw_scsi16_mb_s"),
            col("SCSI-8 T (s)", "t_scsi8_s").prec(3),
            col("SCSI-16 T (s)", "t_scsi16_s").prec(3),
        ],
    );
    for sz in REQUEST_SIZES {
        let cfg8 = ExperimentConfig::paper_iobound(sz, 4);
        let old = run_logged(&format!("scsi8 {}KB", kb(sz)), &cfg8);
        let cfg16 = ExperimentConfig {
            calib: Calibration::paragon_scsi16(),
            ..cfg8
        };
        let new = run_logged(&format!("scsi16 {}KB", kb(sz)), &cfg16);
        sweep.row(&[
            "ceiling".into(),
            kb(sz).to_string().into(),
            old.bandwidth_mb_s().into(),
            new.bandwidth_mb_s().into(),
            old.read_time_mean().as_secs_f64().into(),
            new.read_time_mean().as_secs_f64().into(),
        ]);
    }
    sweep.print();

    // --- the crossover moves left: Figure 5's 1024 KB case -------------
    sweep.table(
        "1024 KB balanced requests (Figure 5's 'no gain' regime) on SCSI-16",
        vec![
            stored("experiment"),
            shown("Delay (s)").prec(3),
            stored("delay_ms"),
            col("no prefetch (MB/s)", "bw_no_prefetch_mb_s"),
            col("prefetch (MB/s)", "bw_prefetch_mb_s"),
            col("Gain", "gain").suffix("x"),
        ],
    );
    for delay_ms in [0u64, 25, 50, 100] {
        let base = ExperimentConfig {
            calib: Calibration::paragon_scsi16(),
            file_size: 64 << 20,
            ..ExperimentConfig::paper_balanced(1024 * 1024, SimDuration::from_millis(delay_ms))
        };
        let no_pf = run_logged(&format!("16 d={delay_ms} no-pf"), &base);
        let pf = run_logged(
            &format!("16 d={delay_ms} pf"),
            &base.clone().with_prefetch(),
        );
        sweep.row(&[
            "fig5_on_scsi16".into(),
            (delay_ms as f64 / 1000.0).into(),
            delay_ms.to_string().into(),
            no_pf.bandwidth_mb_s().into(),
            pf.bandwidth_mb_s().into(),
            (pf.bandwidth_mb_s() / no_pf.bandwidth_mb_s()).into(),
        ]);
    }
    sweep.print();
    Ok(())
}

/// Default rates of the EXT-FAULTS fault classes, per mille: transient
/// disk errors and dropped mesh messages.
pub(crate) const DISK_ERROR_PM: u32 = 20;
pub(crate) const MESH_DROP_PM: u32 = 10;

/// The fault classes of EXT-FAULTS, in report order: none, transient
/// disk errors at `error_pm`, a dead RAID member (member 0 of I/O node
/// 0), mesh drops at `drop_pm` and a 5 s crash of I/O node 0.
pub fn fault_classes(error_pm: u32, drop_pm: u32) -> [(&'static str, FaultSpec); 5] {
    [
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

/// What the fault plan injected into one run, for the class table; a
/// crash-window drop counts once, as node-down, not again as a drop.
fn injected_summary(work: &Work) -> String {
    let node_down = work.get("fault.node_down_drops");
    let parts: Vec<String> = [
        ("disk-err", work.get("fault.disk_transients")),
        ("dead-hit", work.get("fault.disk_dead_hits")),
        ("drop", work.get("fault.mesh_dropped") - node_down),
        ("dup", work.get("fault.mesh_duplicated")),
        ("delay", work.get("fault.mesh_delayed")),
        ("node-down", node_down),
    ]
    .into_iter()
    .filter(|&(_, n)| n > 0)
    .map(|(label, n)| format!("{label} {n}"))
    .collect();
    if parts.is_empty() {
        "-".into()
    } else {
        parts.join(", ")
    }
}

/// The three-way comparison's replicated mode.
pub(crate) const REPLICATED: Redundancy = Redundancy::Replicated { rf: 2 };

/// EXT-FAULTS over `base` (`paragonctl faults` at its OPTIONS), with
/// prefetching on, so hit-rate degradation shows, and every byte read
/// verified, so silent corruption fails loud. Two tables: one run per
/// fault class at the given rates, every class (the fault-free baseline
/// included) with a RAID parity member so dead-member reads can
/// reconstruct; then the same I/O-node crash (ion 0 down from the
/// measured phase's start for a window that outlasts the run, a
/// permanent failure as far as the workload is concerned) under
/// `none`, `parity` and `replicated:2`, next to each one's healthy
/// baseline. Fills `sweep` with every row, then checks data
/// verification; the EXT-FAULTS claims state what the rows must show.
pub(crate) fn fault_study(
    sweep: &mut Sweep,
    mut base: ExperimentConfig,
    error_pm: u32,
    drop_pm: u32,
) -> Result<(), HarnessError> {
    base.verify_data = true;
    if base.prefetch.is_none() {
        base = base.with_prefetch();
    }
    let mut verified = Vec::new();
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
    let shape = format!(
        "{} cn x {} ion, {:?}, {} KB requests",
        base.compute_nodes,
        base.io_nodes,
        base.mode,
        base.request_size / 1024
    );

    sweep.table(
        &format!("== fault classes: {shape}, parity on"),
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
    for (class, faults) in fault_classes(error_pm, drop_pm) {
        let mut cfg = base.clone();
        cfg.calib.raid_parity = true;
        cfg.faults = faults;
        let r = run_logged(class, &cfg);
        sweep.row(&[
            class.into(),
            r.bandwidth_mb_s().into(),
            (r.prefetch.hit_ratio() * 100.0).into(),
            r.prefetch.hit_ratio().into(),
            r.read_errors.into(),
            r.work.get("raid.reconstructed_reads").into(),
            r.prefetch.faults.into(),
            r.verify_failures.into(),
            injected_summary(&r.work).into(),
        ]);
        verified.push((class.to_owned(), r.verify_failures));
    }
    sweep.print();

    sweep.table(
        &format!("== redundancy: ion 0 down for the whole run, {shape}"),
        vec![
            col("redundancy", "redundancy"),
            col("healthy", "bw_healthy_mb_s"),
            col("crashed", "bw_crashed_mb_s"),
            col("keep%", "keep_pct").prec(1),
            col("errs", "read_errors").prec(0),
            col("reconst", "reconstructed_reads").prec(0),
            col("failov", "replica_failovers").prec(0),
            col("alt-rd", "replica_reads").prec(0),
            shown("rb-KB").prec(0),
            stored("rebuild_bytes"),
            col("pend", "rebuild_pending").prec(0),
        ],
    );
    let crash = FaultSpec {
        ion_crash: Some((0, SimDuration::ZERO, SimDuration::from_secs(7200))),
        ..FaultSpec::default()
    };
    for (label, parity, redundancy) in [
        ("none", false, Redundancy::None),
        ("parity", true, Redundancy::None),
        ("replicated:2", false, REPLICATED),
    ] {
        let mut healthy = base.clone();
        healthy.calib.raid_parity = parity;
        healthy.redundancy = redundancy;
        let mut crashed = healthy.clone();
        crashed.faults = crash.clone();
        let (h, c) = (
            run_logged(&format!("{label} healthy"), &healthy),
            run_logged(&format!("{label} crashed"), &crashed),
        );
        let (bw_healthy, bw_crashed) = (h.bandwidth_mb_s(), c.bandwidth_mb_s());
        let keep = if bw_healthy > 0.0 {
            bw_crashed / bw_healthy * 100.0
        } else {
            0.0
        };
        let rebuilt = c.rebuild.as_ref().map_or(0, |r| r.bytes_copied);
        sweep.row(&[
            label.into(),
            bw_healthy.into(),
            bw_crashed.into(),
            keep.into(),
            c.read_errors.into(),
            c.work.get("raid.reconstructed_reads").into(),
            c.work.get("replica.failovers").into(),
            c.work.get("replica.reads").into(),
            (rebuilt >> 10).into(),
            rebuilt.into(),
            c.rebuild_pending.into(),
        ]);
        verified.push((label.to_owned(), h.verify_failures + c.verify_failures));
    }
    sweep.print();

    match verified.into_iter().find(|&(_, failures)| failures > 0) {
        Some((case, failures)) => Err(HarnessError::Verify { case, failures }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_summary_formats() {
        assert_eq!(injected_summary(&Work::default()), "-");
        let w = [("fault.mesh_dropped", 3), ("fault.disk_transients", 1)]
            .into_iter()
            .collect();
        assert_eq!(injected_summary(&w), "disk-err 1, drop 3");
        // A message lost to a crash window counts once, as node-down.
        let w = [("fault.mesh_dropped", 1), ("fault.node_down_drops", 1)]
            .into_iter()
            .collect();
        assert_eq!(injected_summary(&w), "node-down 1");
        let w = [("fault.mesh_dropped", 5), ("fault.node_down_drops", 2)]
            .into_iter()
            .collect();
        assert_eq!(injected_summary(&w), "drop 3, node-down 2");
    }
}
