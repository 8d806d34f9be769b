//! # paragon-bench — the experiment harness
//!
//! One binary per table and figure of the paper (see DESIGN.md §4 for the
//! index), plus the extension studies. Every binary prints the table or
//! ASCII figure it regenerates and writes a machine-readable JSON record
//! under `results/`.
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig2_io_modes` | Figure 2 — read throughput of the PFS I/O modes |
//! | `table1_iobound` | Table 1 — read BW with/without prefetching, I/O-bound |
//! | `table2_access_times` | Table 2 — read access times per request size |
//! | `fig4_balanced` | Figure 4 — balanced workloads, 64/128/256 KB |
//! | `fig5_balanced_large` | Figure 5 — balanced workloads, 512/1024 KB |
//! | `table3_stripe_units` | Table 3 — prefetching across stripe units |
//! | `table4_stripe_groups` | Table 4 — prefetching across stripe groups |
//! | `ext_scaling` | future work: larger systems |
//! | `ext_patterns` | future work: more access patterns |
//! | `ext_depth_ablation` | extension: prefetch depth 1–8 |
//! | `ext_ablation` | ablations: Fast Path, copy bandwidth, ART limit |
//! | `ext_writes` | extension: write-behind (the prototype's write-side dual) |
//! | `ext_double_buffering` | extension: vs application-level double buffering |
//! | `ext_scsi16` | extension: the SCSI-16 hardware upgrade |
//! | `paragonctl` | CLI: run any machine/mode/pattern/prefetch combination |

pub mod cli;

use std::fs;
use std::path::PathBuf;

use paragon_metrics::ExperimentRecord;
use paragon_workload::{ExperimentConfig, RunResult};

/// Request sizes the paper sweeps (bytes).
pub const REQUEST_SIZES: [u32; 5] = [64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024];

/// KB pretty-printer for row labels.
pub fn kb(bytes: u32) -> u64 {
    bytes as u64 / 1024
}

/// Where experiment records land (`results/` at the workspace root,
/// overridable with `PARAGON_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("PARAGON_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    fs::create_dir_all(&dir).expect("cannot create results dir");
    dir
}

/// Persist a record as `results/<id>.json`.
pub fn save_record(record: &ExperimentRecord) {
    let path = results_dir().join(format!("{}.json", record.id.to_lowercase()));
    fs::write(&path, record.to_json()).expect("cannot write record");
    println!("\n[record saved to {}]", path.display());
}

/// Stamp the standard machine-shape config entries on a record.
pub fn stamp_config(record: &mut ExperimentRecord, cfg: &ExperimentConfig) {
    record
        .config("compute_nodes", cfg.compute_nodes)
        .config("io_nodes", cfg.io_nodes)
        .config("stripe_unit", cfg.stripe_unit)
        .config("mode", cfg.mode)
        .config("seed", cfg.seed)
        .config("fast_path", cfg.fast_path);
}

/// Run and echo a one-line progress note (experiments run many configs;
/// silence reads as a hang).
pub fn run_logged(label: &str, cfg: &ExperimentConfig) -> RunResult {
    let r = paragon_workload::run(cfg);
    eprintln!(
        "  [{label}] bw {:.2} MB/s, elapsed {}, {} reads",
        r.bandwidth_mb_s(),
        r.elapsed,
        r.per_node.iter().map(|n| n.reads).sum::<u64>()
    );
    r
}

/// The paper's balanced-workload delay sweep: 0 s – 0.1 s of computation
/// between consecutive reads.
pub const DELAYS_MS: [u64; 6] = [0, 10, 25, 50, 75, 100];

/// Shared driver of Figures 4 and 5 (they differ only in the request-size
/// set): for each size, sweep the inter-read delay with and without the
/// prefetch prototype, print the per-size table + ASCII figure, and save
/// one combined record.
pub fn balanced_figure(id: &str, description: &str, sizes: &[u32]) {
    use paragon_metrics::{AsciiChart, Series, Table};
    use paragon_sim::SimDuration;

    let mut record = ExperimentRecord::new(id, description);
    for &sz in sizes {
        let mut table = Table::new(
            &format!(
                "{id} (data): Balanced Workload, {} KB requests, 128 MB file",
                kb(sz)
            ),
            &[
                "Delay (s)",
                "No prefetch (MB/s)",
                "Prefetch (MB/s)",
                "Ready hits",
                "In-flight hits",
            ],
        );
        let mut no_pf_series = Vec::new();
        let mut pf_series = Vec::new();
        for ms in DELAYS_MS {
            let delay = SimDuration::from_millis(ms);
            let base = ExperimentConfig::paper_balanced(sz, delay);
            if record.config.is_empty() {
                stamp_config(&mut record, &base);
            }
            let no_pf = run_logged(&format!("{}KB d={}ms no-pf", kb(sz), ms), &base);
            let pf = run_logged(
                &format!("{}KB d={}ms pf", kb(sz), ms),
                &base.clone().with_prefetch(),
            );
            table.row(&[
                format!("{:.3}", ms as f64 / 1000.0),
                format!("{:.2}", no_pf.bandwidth_mb_s()),
                format!("{:.2}", pf.bandwidth_mb_s()),
                format!("{}", pf.prefetch.hits_ready),
                format!("{}", pf.prefetch.hits_inflight),
            ]);
            record.point(
                &[
                    ("request_kb", &kb(sz).to_string()),
                    ("delay_ms", &ms.to_string()),
                ],
                &[
                    ("bw_no_prefetch_mb_s", no_pf.bandwidth_mb_s()),
                    ("bw_prefetch_mb_s", pf.bandwidth_mb_s()),
                    ("hits_ready", pf.prefetch.hits_ready as f64),
                    ("hits_inflight", pf.prefetch.hits_inflight as f64),
                    ("overlap_saved_s", pf.prefetch.overlap_saved.as_secs_f64()),
                ],
            );
            no_pf_series.push((ms as f64 / 1000.0, no_pf.bandwidth_mb_s()));
            pf_series.push((ms as f64 / 1000.0, pf.bandwidth_mb_s()));
        }
        println!("\n{}", table.render());
        let chart = AsciiChart::new(
            &format!("Read Bandwidths, {} KB request size", kb(sz)),
            "computation delay between reads (s)",
            "read bandwidth (MB/s)",
        )
        .series(Series::new("no prefetching", no_pf_series))
        .series(Series::new("prefetching", pf_series));
        println!("{}", chart.render());
    }
    println!(
        "Paper's finding: significant gains whenever computation overlaps I/O;\n\
         the closer the delay is to the read access time, the bigger the win.\n\
         For large requests (T(sz) >> delay) no significant overlap is possible."
    );
    save_record(&record);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sizes_match_paper_sweep() {
        assert_eq!(REQUEST_SIZES.map(kb), [64, 128, 256, 512, 1024]);
    }

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.is_dir());
    }
}
