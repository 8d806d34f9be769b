//! The experiment table: every table and figure of the paper's
//! evaluation plus the extension studies, one entry each. An entry's id
//! and description are its record's; its sweep prints the rendered table
//! or figure and fills the record. EXPERIMENTS.md states, per id, the
//! paper's claim and the measured shape.

use std::future::Future;
use std::rc::Rc;

use paragon_core::{
    PredictorKind, PrefetchConfig, PrefetchingFile, WriteBehindConfig, WriteBehindFile,
};
use paragon_machine::{Calibration, Machine, MachineConfig};
use paragon_metrics::AsciiChart;
use paragon_pfs::{
    pattern_byte, pattern_slice, IoMode, OpenOptions, ParallelFs, PfsFile, Redundancy, StripeAttrs,
};
use paragon_sim::{Sim, SimDuration};
use paragon_workload::{AccessPattern, ExperimentConfig, FaultSpec, StripeLayout};

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
}

/// Every experiment, in the order `paragonctl reproduce all` runs them.
pub(crate) static EXPERIMENTS: [Experiment; 15] = [
    Experiment {
        id: "FIG2",
        description: "Read throughput of the PFS I/O modes vs request size, 64 KB blocks",
        run: fig2,
    },
    Experiment {
        id: "TAB1",
        description: "Read bandwidth with vs without prefetching, I/O-bound M_RECORD workload",
        run: tab1,
    },
    Experiment {
        id: "TAB2",
        description: "Per-request read access times vs request size, collective 8-node load",
        run: tab2,
    },
    Experiment {
        id: "FIG4",
        description: "Balanced workloads: read bandwidth vs compute delay, 64/128/256 KB requests",
        run: |sweep| balanced(sweep, &[64 * 1024, 128 * 1024, 256 * 1024]),
    },
    Experiment {
        id: "FIG5",
        description: "Balanced workloads: read bandwidth vs compute delay, 512/1024 KB requests",
        run: |sweep| balanced(sweep, &[512 * 1024, 1024 * 1024]),
    },
    Experiment {
        id: "TAB3",
        description: "Read bandwidth with prefetching across stripe-unit sizes, I/O-bound",
        run: tab3,
    },
    Experiment {
        id: "TAB4",
        description: "Read bandwidth with prefetching: stripe group of 8 I/O nodes vs 8 ways on 1",
        run: tab4,
    },
    Experiment {
        id: "EXT-SCALING",
        description: "Prefetching gain, fairness, hit ratio, and server queue depth while \
                      scaling compute and I/O nodes",
        run: ext_scaling,
    },
    Experiment {
        id: "EXT-PATTERNS",
        description: "Prefetching under sequential, broadcast, strided, random, re-read patterns",
        run: ext_patterns,
    },
    Experiment {
        id: "EXT-DEPTH",
        description: "Prefetch depth 1-8 on a balanced workload with delay >> read time",
        run: ext_depth,
    },
    Experiment {
        id: "EXT-ABLATION",
        description: "Fast Path, copy-bandwidth, and ART-limit ablations",
        run: ext_ablation,
    },
    Experiment {
        id: "EXT-WRITES",
        description: "Write-behind vs synchronous writes, balanced M_RECORD write workload",
        run: ext_writes,
    },
    Experiment {
        id: "EXT-DOUBLEBUF",
        description: "System-level prefetching vs application-level double buffering",
        run: ext_doublebuf,
    },
    Experiment {
        id: "EXT-SCSI16",
        description: "Headline experiments on the SCSI-16 hardware the paper mentions",
        run: ext_scsi16,
    },
    Experiment {
        id: EXT_FAULTS[0],
        description: EXT_FAULTS[1],
        run: ext_faults,
    },
];

/// Id and description of the EXT-FAULTS record, which `paragonctl faults
/// --redundancy all` also writes, at any options.
pub(crate) const EXT_FAULTS: [&str; 2] = ["EXT-FAULTS", "paragonctl faults --redundancy all"];

/// FIG2: 8 CN read one shared file in each I/O mode (Separate Files: a
/// private file each); the modes should order
/// `M_UNIX < M_SYNC ≈ M_LOG < M_RECORD < M_ASYNC ≤ Separate Files`.
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
    println!(
        "Paper's ordering to check: M_UNIX lowest (pointer token serializes),\n\
         M_LOG/M_SYNC next (coordination per call), then M_RECORD, M_ASYNC,\n\
         and Separate Files on top; all rising with request size."
    );
    Ok(())
}

/// TAB1: I/O-bound M_RECORD reads with and without prefetching. With
/// nothing to overlap, prefetching neither helps nor hurts beyond a small
/// copy and issue cost at 64 KB.
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
    println!(
        "Paper's finding: bandwidths comparable in all sizes; prefetching slightly\n\
         slower at 64 KB (copy + issue overhead, no computation to hide I/O behind).\n\
         Note the hits are overwhelmingly *in-flight* hits: the prefetch has no\n\
         head start, so the demand read still waits out most of the disk time."
    );
    Ok(())
}

/// TAB2: per-request read access times under collective 8-node load;
/// they bound how much compute delay a prefetch can hide (≈ 0.45 s at
/// 1024 KB in the paper).
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
        let tmin = r.per_node.iter().map(|n| n.read_time_min).min();
        let tmax = r.per_node.iter().map(|n| n.read_time_max).max();
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
    println!(
        "Paper's anchor: a 1024 KB per-node request costs about 0.45 s under\n\
         8-node collective load; access time grows with request size."
    );
    Ok(())
}

/// FIG4 and FIG5, which differ only in request sizes: for each size,
/// sweep the compute delay between reads with and without prefetching.
/// Prefetching holds the I/O-bound ceiling while the delay is at most the
/// read access time T(sz); at 512/1024 KB T(sz) dwarfs every delay.
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
    println!(
        "Paper's finding: significant gains whenever computation overlaps I/O;\n\
         the closer the delay is to the read access time, the bigger the win.\n\
         For large requests (T(sz) >> delay) no significant overlap is possible."
    );
    Ok(())
}

/// TAB3: I/O-bound reads with prefetching across stripe units. Small
/// units pay per-piece overhead; a 1 MB unit convoys every node behind
/// one I/O node at a time (Figure 3's declustering).
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
    println!(
        "Paper's finding: with no delay between requests the results track the\n\
         no-prefetching case; small stripe units hurt small requests (per-piece\n\
         overhead), and a 1 MB unit serializes the nodes behind one I/O node at\n\
         a time for small requests."
    );
    Ok(())
}

/// TAB4: striping over all 8 I/O nodes (R) vs 8 ways on one (R'), with
/// prefetching; the speedup is smallest at 64 KB, where the prefetch
/// overhead shows most.
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
    let mut max_speedup: f64 = 0.0;

    for sz in REQUEST_SIZES {
        // R: across all 8 I/O nodes (the testbed default).
        let r_wide = run_logged(&format!("{}KB sgroup=8", kb(sz)), &wide(sz));
        // R': 8 stripe files all on I/O node 0.
        let narrow = ExperimentConfig {
            layout: StripeLayout::WaysOnOne { ways: 8, ion: 0 },
            ..wide(sz)
        };
        let r_narrow = run_logged(&format!("{}KB sgroup=1", kb(sz)), &narrow);
        let speedup = r_wide.bandwidth_mb_s() / r_narrow.bandwidth_mb_s();
        max_speedup = max_speedup.max(speedup);
        sweep.row(&[
            kb(sz).to_string().into(),
            "8".into(),
            r_wide.bandwidth_mb_s().into(),
            r_narrow.bandwidth_mb_s().into(),
            speedup.into(),
        ]);
    }

    sweep.print();
    println!(
        "Maximum speedup observed: {max_speedup:.2}x.\n\
         Paper's finding: striping across 8 I/O nodes beats 8-way striping on one\n\
         node; the speedup is smallest at 64 KB where prefetching overhead is most\n\
         pronounced (the paper's lost digit reports only 'a factor of _._')."
    );
    Ok(())
}

/// EXT-SCALING (paper §5, "much larger systems"): shapes from 2×1 to
/// 4096×256 under the balanced workload, recording fairness and the
/// server queue depth that grows with the compute-to-I/O ratio.
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
            metrics_cadence: Some(SimDuration::from_millis(100)),
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
    println!(
        "Expected: bandwidth scales with I/O nodes; the prefetching gain persists\n\
         at every machine size with a stable hit ratio; imbalance stays small\n\
         (benefits equally distributed amongst the processors, as the paper\n\
         requires); and the mean server queue depth degrades as the\n\
         compute-to-I/O ratio grows from 2:1 to 8:1 at 512 x 64."
    );
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
    println!(
        "Findings: sequential, broadcast, and re-read streams hit ~always and\n\
         gain; the stride detector locks on (high hit ratio) but strided access\n\
         is seek-bound, so hiding latency barely moves bandwidth; random access\n\
         defeats prediction entirely (hit ratio ~0) yet costs almost nothing\n\
         beyond the wasted prefetches — and stays byte-correct throughout."
    );
    Ok(())
}

/// EXT-DEPTH: prefetch depth 1–8 with the delay well above the read
/// time; depth 1, the prototype's, already captures the whole win.
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
    println!(
        "Finding: depth 1 (the paper's prototype) captures the whole win here —\n\
         with delay > T the single prefetch is already ready at every demand\n\
         read, and deeper pipelines cannot exceed the disk ceiling. The paper's\n\
         fixed depth-1 choice costs nothing on these workloads."
    );
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
    println!(
        "Expected: Fast Path wins on cold sequential reads (no extra copy);\n\
         the buffer cache only pays off when data is re-read.\n"
    );

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
    println!(
        "Expected: the prototype's win shrinks as the compute-node copy gets\n\
         slower — the buffered hit must beat (read time − delay) + copy.\n"
    );

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
    println!(
        "Expected: a single ART serializes a depth-4 pipeline; a handful of\n\
         ARTs restores full overlap."
    );
    Ok(())
}

/// Compute nodes (and I/O nodes) of the testbed the write-behind and
/// double-buffering studies drive directly.
const NODES: usize = 8;
/// File size of those studies.
const FILE: u64 = 32 << 20;

/// Drive the 8×8 paper testbed directly: create one file striped across
/// all eight I/O nodes (filled with pattern `fill` first, when given),
/// open it M_RECORD on every compute node, run `rank_body(rank, file,
/// sim)` as one task per rank, and return the file's MB over the ranks'
/// elapsed time plus the sum of the ranks' results.
fn testbed_mb_s<F, Fut>(seed: u64, fill: Option<u64>, rank_body: F) -> (f64, u64)
where
    F: Fn(usize, PfsFile, Sim) -> Fut + 'static,
    Fut: Future<Output = u64> + 'static,
{
    let sim = Sim::new(seed);
    let machine = Rc::new(Machine::new(&sim, MachineConfig::paper_testbed()));
    let pfs = ParallelFs::new(machine);
    let sim2 = sim.clone();
    let run = sim.spawn(async move {
        let file = pfs
            .create("/pfs/testbed", StripeAttrs::across(NODES, 64 * 1024))
            .await
            .expect("create on a healthy testbed");
        if let Some(pattern) = fill {
            pfs.populate_with(file, FILE, |i| pattern_byte(pattern, i))
                .await
                .expect("populate on a healthy testbed");
        }
        let t0 = sim2.now();
        let mut tasks = Vec::new();
        for rank in 0..NODES {
            let f = pfs
                .open(rank, NODES, file, IoMode::MRecord, OpenOptions::default())
                .expect("open a file just created");
            tasks.push(sim2.spawn(rank_body(rank, f, sim2.clone())));
        }
        let mut total = 0;
        for t in tasks {
            total += t.await;
        }
        (sim2.now().since(t0), total)
    });
    sim.run();
    let (elapsed, total) = run.try_take().expect("finished");
    let mb = FILE as f64 / (1 << 20) as f64;
    (mb / elapsed.as_secs_f64(), total)
}

/// EXT-WRITES: the write-side dual of the prototype, synchronous writes
/// vs write-behind on a balanced M_RECORD write workload.
fn ext_writes(sweep: &mut Sweep) -> Result<(), HarnessError> {
    // MB/s and write-behind stalls of one write workload.
    let run_case = |request: u32, delay_ms: u64, write_behind: bool| {
        testbed_mb_s(64, None, move |rank, f, sim| async move {
            let rounds = FILE / (request as u64 * NODES as u64);
            let delay = SimDuration::from_millis(delay_ms);
            if !write_behind {
                for _ in 0..rounds {
                    let at = f.advance_pointer(request).await;
                    f.write_at(at, pattern_slice(8, at, request as usize))
                        .await
                        .expect("write on a healthy testbed");
                    sim.sleep(delay).await;
                }
                return 0;
            }
            let wb = WriteBehindFile::new(f, WriteBehindConfig::prototype());
            for k in 0..rounds {
                let at = (k * NODES as u64 + rank as u64) * request as u64;
                wb.write(pattern_slice(8, at, request as usize))
                    .await
                    .expect("write on a healthy testbed");
                sim.sleep(delay).await;
            }
            wb.flush().await.expect("flush on a healthy testbed");
            wb.stats().stalls
        })
    };
    sweep.record.config("compute_nodes", NODES);
    sweep.record.config("file_mb", FILE >> 20);

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
    println!(
        "Expected (mirror of Figures 4/5): balanced writers hide one transfer\n\
         per compute phase; I/O-bound writers gain little beyond the window's\n\
         initial pipelining; stalls appear once the disks can no longer keep\n\
         up with the capture rate."
    );
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
        testbed_mb_s(55, Some(12), move |_, f, sim| async move {
            let rounds = FILE / (REQUEST as u64 * NODES as u64);
            let delay = SimDuration::from_millis(delay_ms);
            match variant {
                Variant::Blocking => {
                    for _ in 0..rounds {
                        f.read(REQUEST).await.expect("read on a healthy testbed");
                        sim.sleep(delay).await;
                    }
                }
                Variant::SystemPrefetch => {
                    let pf = PrefetchingFile::new(f, PrefetchConfig::paper_prototype());
                    for _ in 0..rounds {
                        pf.read(REQUEST).await.expect("read on a healthy testbed");
                        sim.sleep(delay).await;
                    }
                    pf.close().await;
                }
                Variant::DoubleBuffered => {
                    // The expert application: one read in flight ahead
                    // of the block being computed on, no extra copy.
                    let mut next = f.aread(REQUEST).await;
                    for k in 0..rounds {
                        let current = next.join().await.expect("read on a healthy testbed");
                        if k + 1 < rounds {
                            next = f.aread(REQUEST).await;
                        }
                        let _ = current; // compute on it:
                        sim.sleep(delay).await;
                    }
                }
            }
            0
        })
        .0
    };
    sweep.record.config("request_kb", 64);
    sweep.record.config("file_mb", FILE >> 20);
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
    println!(
        "Reading: application double buffering is the upper bound (same overlap,\n\
         no prefetch-buffer copy); the transparent system prefetcher tracks it\n\
         to within the copy overhead — the paper's case that the file system\n\
         can do this for every unmodified application."
    );
    Ok(())
}

/// EXT-SCSI16: the headline experiments on the SCSI-16 disks of the
/// paper's §2; shorter read times move Figure 5's crossover left.
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
    println!(
        "Reading: SCSI-16 shrinks T(1024 KB) ~4x, so the 0-0.1 s delays that\n\
         bought nothing in Figure 5 now overlap usefully — faster disks widen\n\
         the regime where the paper's prefetching helps."
    );
    Ok(())
}

/// `paragonctl faults` runs every fault class with prefetching on, so
/// hit-rate degradation shows, and every byte read verified, so silent
/// corruption fails loud.
pub(crate) fn faults_base(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.verify_data = true;
    if cfg.prefetch.is_none() {
        cfg = cfg.with_prefetch();
    }
    cfg
}

/// EXT-FAULTS: `paragonctl faults --redundancy all` at its default
/// options (the paper's 8×8 I/O-bound testbed, 64 KB requests).
fn ext_faults(sweep: &mut Sweep) -> Result<(), HarnessError> {
    let base = faults_base(ExperimentConfig::paper_iobound(64 * 1024, 8));
    let checked = redundancy_sweep(sweep, &base);
    sweep.print();
    checked
}

/// The EXT-FAULTS three-way comparison. The same I/O-node crash (ion 0
/// down from the measured phase's start, for a window that outlasts the
/// run — a permanent failure as far as the workload is concerned) runs
/// under each redundancy mode, next to that mode's healthy baseline:
///
/// * `none` — the crashed node's stripes are simply gone; every read of
///   them burns the full retry budget and surfaces as an error.
/// * `parity` — per-node RAID reconstructs dead *spindles*, but a whole
///   crashed node still takes its stripes with it (the motivating gap).
/// * `replicated:2` — reads fail over to surviving copies with zero
///   client-visible errors while the recovery coordinator re-replicates
///   the lost copies under the foreground load (the rebuild storm).
///
/// Fills `sweep` with every row, then checks data verification and, for
/// the replicated rows, the robustness invariants: no client-visible read
/// errors, and the rebuild queue drained to exactly zero.
pub(crate) fn redundancy_sweep(
    sweep: &mut Sweep,
    base: &ExperimentConfig,
) -> Result<(), HarnessError> {
    let crash = FaultSpec {
        ion_crash: Some((0, SimDuration::ZERO, SimDuration::from_secs(7200))),
        ..FaultSpec::default()
    };
    let modes = [
        Redundancy::None,
        Redundancy::ParityRaid,
        Redundancy::Replicated { rf: 2 },
    ];
    let mut rows = Vec::new();
    for mode in modes {
        let mut healthy = base.clone();
        healthy.redundancy = mode;
        let mut crashed = healthy.clone();
        crashed.faults = crash.clone();
        rows.push((
            mode,
            paragon_workload::run(&healthy),
            paragon_workload::run(&crashed),
        ));
    }

    sweep
        .record
        .config("mode", base.mode)
        .config("compute_nodes", base.compute_nodes)
        .config("io_nodes", base.io_nodes)
        .config("request_kb", base.request_size / 1024)
        .config("file_mb", base.file_size >> 20)
        .config("seed", base.seed);
    sweep.table(
        &format!(
            "== redundancy sweep: ion 0 down for the whole run, {} cn x {} ion, {:?}, {} KB requests",
            base.compute_nodes,
            base.io_nodes,
            base.mode,
            base.request_size / 1024
        ),
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
    for (mode, h, c) in &rows {
        let (healthy, crashed) = (h.bandwidth_mb_s(), c.bandwidth_mb_s());
        let keep = if healthy > 0.0 {
            crashed / healthy * 100.0
        } else {
            0.0
        };
        let rebuilt = c.rebuild.as_ref().map_or(0, |r| r.bytes_copied);
        sweep.row(&[
            mode.label().into(),
            healthy.into(),
            crashed.into(),
            keep.into(),
            c.read_errors.into(),
            c.raid.reconstructed_reads.into(),
            c.replica_failovers.into(),
            c.replica_reads.into(),
            (rebuilt >> 10).into(),
            rebuilt.into(),
            c.rebuild_pending.into(),
        ]);
    }

    for (mode, h, c) in &rows {
        let case = mode.to_string();
        let failures = h.verify_failures + c.verify_failures;
        if failures > 0 {
            return Err(HarnessError::Verify { case, failures });
        }
        let (errors, pending) = (c.read_errors, c.rebuild_pending);
        if matches!(mode, Redundancy::Replicated { .. }) && errors + pending > 0 {
            let what = format!(
                "{errors} client-visible read errors, {pending} rebuild slots pending \
                 (replication must mask the crash and drain its queue)"
            );
            return Err(HarnessError::Invariant { case, what });
        }
    }
    Ok(())
}
