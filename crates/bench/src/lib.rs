//! # paragon-bench — the experiment harness
//!
//! Every table and figure of the paper's evaluation, plus the extension
//! studies, is one entry of the experiment table in `experiments.rs`;
//! `paragonctl reproduce <ID|all>` runs entries, prints the table or
//! ASCII figure each regenerates, and writes its machine-readable JSON
//! record as `results/<id>.json` (DESIGN.md §4 maps ids to the paper).

pub mod cli;
mod experiments;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use paragon_metrics::{ExperimentRecord, Series, Table};
use paragon_workload::{ExperimentConfig, RunResult};

/// Why an experiment could not produce or persist its record.
#[derive(Debug)]
pub(crate) enum HarnessError {
    /// Creating the results directory or writing a record at `path` failed.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// `failures` requests of sweep `case` read bytes that differ from the
    /// file's pattern.
    Verify { case: String, failures: u64 },
    /// Sweep `case` broke a robustness invariant the experiment enforces.
    Invariant { case: String, what: String },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            HarnessError::Verify { case, failures } => {
                write!(f, "data corruption in {case}: {failures} verify failures")
            }
            HarnessError::Invariant { case, what } => write!(f, "{case}: {what}"),
        }
    }
}

/// Where experiment records land (`results/` at the workspace root,
/// overridable with `PARAGON_RESULTS_DIR`).
pub(crate) fn results_dir() -> PathBuf {
    std::env::var_os("PARAGON_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"))
}

/// Persist a record as `<dir>/<lowercase id>.json`, creating `dir` if
/// needed.
pub(crate) fn save_record(dir: &Path, record: &ExperimentRecord) -> Result<(), HarnessError> {
    let io = |path: &Path| {
        let path = path.to_owned();
        move |source| HarnessError::Io { path, source }
    };
    fs::create_dir_all(dir).map_err(io(dir))?;
    let path = dir.join(format!("{}.json", record.id.to_lowercase()));
    fs::write(&path, record.to_json()).map_err(io(&path))?;
    println!("\n[record saved to {}]", path.display());
    Ok(())
}

/// Request sizes the paper sweeps (bytes).
const REQUEST_SIZES: [u32; 5] = [64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024];

/// The paper's balanced-workload delay sweep: 0 s – 0.1 s of computation
/// between consecutive reads.
const DELAYS_MS: [u64; 6] = [0, 10, 25, 50, 75, 100];

/// KB pretty-printer for row labels.
fn kb(bytes: u32) -> u64 {
    bytes as u64 / 1024
}

/// Run and echo a one-line progress note (experiments run many configs;
/// silence reads as a hang).
fn run_logged(label: &str, cfg: &ExperimentConfig) -> RunResult {
    let r = paragon_workload::run(cfg);
    eprintln!(
        "  [{label}] bw {:.2} MB/s, elapsed {}, {} reads",
        r.bandwidth_mb_s(),
        r.elapsed,
        r.per_node.iter().map(|n| n.reads).sum::<u64>()
    );
    r
}

/// One cell of a sweep row. A number is a measured value and a text is a
/// point parameter, matching the two maps of a record's data point.
enum Val {
    Num(f64),
    Text(String),
    /// Not measured in this row: the table shows `-`, the record omits it.
    Blank,
}

impl From<f64> for Val {
    fn from(v: f64) -> Self {
        Val::Num(v)
    }
}

impl From<u64> for Val {
    fn from(v: u64) -> Self {
        Val::Num(v as f64)
    }
}

impl From<&str> for Val {
    fn from(v: &str) -> Self {
        Val::Text(v.to_owned())
    }
}

impl From<String> for Val {
    fn from(v: String) -> Self {
        Val::Text(v)
    }
}

/// One column of a sweep: a table header, a record key, or both, and how
/// numbers print in the table.
struct Col {
    header: Option<String>,
    key: Option<String>,
    prec: usize,
    suffix: &'static str,
}

/// A column shown under `header` and stored under `key`; numbers print
/// with two decimals unless [`Col::prec`] says otherwise.
fn col(header: &str, key: impl Into<String>) -> Col {
    Col {
        header: Some(header.to_owned()),
        key: Some(key.into()),
        prec: 2,
        suffix: "",
    }
}

/// A table-only column.
fn shown(header: &str) -> Col {
    Col {
        key: None,
        ..col(header, "")
    }
}

/// A record-only column.
fn stored(key: &str) -> Col {
    Col {
        header: None,
        ..col("", key)
    }
}

impl Col {
    fn prec(self, prec: usize) -> Self {
        Col { prec, ..self }
    }

    fn suffix(self, suffix: &'static str) -> Self {
        Col { suffix, ..self }
    }
}

/// An experiment's record together with the table it is printing: each
/// row goes to both, formatted once by its column list.
struct Sweep {
    record: ExperimentRecord,
    table: Table,
    cols: Vec<Col>,
    /// Index of the current table's first point in the record.
    first_point: usize,
}

impl Sweep {
    fn new(id: &str, description: &str) -> Self {
        Sweep {
            record: ExperimentRecord::new(id, description),
            table: Table::default(),
            cols: Vec::new(),
            first_point: 0,
        }
    }

    /// Stamp the standard machine-shape config entries on the record.
    fn stamp(&mut self, cfg: &ExperimentConfig) {
        self.record
            .config("compute_nodes", cfg.compute_nodes)
            .config("io_nodes", cfg.io_nodes)
            .config("stripe_unit", cfg.stripe_unit)
            .config("mode", cfg.mode)
            .config("seed", cfg.seed)
            .config("fast_path", cfg.fast_path);
    }

    /// Start a new table; the record carries on across tables.
    fn table(&mut self, title: &str, cols: Vec<Col>) {
        let headers: Vec<&str> = cols.iter().filter_map(|c| c.header.as_deref()).collect();
        self.table = Table::new(title, &headers);
        self.cols = cols;
        self.first_point = self.record.points.len();
    }

    /// Add one row to the table and one point to the record.
    fn row(&mut self, cells: &[Val]) {
        assert_eq!(
            cells.len(),
            self.cols.len(),
            "row width does not match sweep"
        );
        let mut shown = Vec::new();
        let mut params = Vec::new();
        let mut values = Vec::new();
        for (c, cell) in self.cols.iter().zip(cells) {
            if c.header.is_some() {
                shown.push(match cell {
                    Val::Num(v) => format!("{v:.prec$}{}", c.suffix, prec = c.prec),
                    Val::Text(s) => s.clone(),
                    Val::Blank => "-".to_owned(),
                });
            }
            match (&c.key, cell) {
                (Some(k), Val::Num(v)) => values.push((k.as_str(), *v)),
                (Some(k), Val::Text(s)) => params.push((k.as_str(), s.as_str())),
                _ => {}
            }
        }
        self.table.row(&shown);
        self.record.point(&params, &values);
    }

    /// Print the current table.
    fn print(&self) {
        println!("\n{}", self.table.render());
    }

    /// A chart series of the current table: the `i`th row's `key` value
    /// at the `i`th of `xs`, the sweep's own loop values. Rows without a
    /// `key` value are left out.
    fn series(&self, name: &str, key: &str, xs: impl IntoIterator<Item = f64>) -> Series {
        let points = self.record.points[self.first_point..]
            .iter()
            .zip(xs)
            .filter_map(|(p, x)| Some((x, *p.values.get(key)?)))
            .collect();
        Series::new(name, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sizes_match_paper_sweep() {
        assert_eq!(REQUEST_SIZES.map(kb), [64, 128, 256, 512, 1024]);
    }

    #[test]
    fn a_row_feeds_the_table_and_the_record_once() {
        let mut sw = Sweep::new("T", "test");
        let cols = vec![
            col("KB", "kb"),
            shown("MB"),
            col("BW", "bw").prec(1),
            col("Gain", "x").suffix("x"),
            stored("n"),
            col("R", "r"),
        ];
        sw.table("t", cols);
        sw.row(&[
            "64".into(),
            "8".into(),
            13.26.into(),
            1.5.into(),
            7u64.into(),
            Val::Blank,
        ]);
        let shown: Vec<_> = (0..5).map(|c| sw.table.cell(0, c)).collect();
        assert_eq!(shown, ["64", "8", "13.3", "1.50x", "-"]);
        let p = &sw.record.points[0];
        assert_eq!((p.params.len(), &*p.params["kb"]), (1, "64"));
        assert_eq!(p.values.values().collect::<Vec<_>>(), [&13.26, &7.0, &1.5]);
        assert_eq!(sw.series("s", "bw", [64.0]).points, [(64.0, 13.26)]);
    }
}
