//! Host-cost benchmark of the Paragon PFS simulator.
//!
//! The simulator reports simulated bandwidths; this benchmark measures
//! what producing them costs the host: setup time, simulated application
//! bytes per host second and peak RSS per workload, plus a traced run that
//! splits host time and work counts across the crates.
//!
//! It drives each workload with its own node programs, built only from
//! public calls (`Sim::new`, `Machine::new`, `ParallelFs::new`, `create`,
//! `populate_with`, `open_on`, `PrefetchingFile::new`, `PfsFile::read` /
//! `write_at`, `Sim::run`), so that setup and every measured pass get a
//! `Sim::run` and a host clock of their own. `README.md` maps each metric
//! to its layer and workload.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::future::{poll_fn, Future};
use std::hint::black_box;
use std::pin::pin;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use paragon_core::{PrefetchConfig, PrefetchStats, PrefetchingFile};
use paragon_disk::BlockStore;
use paragon_machine::{Calibration, Machine, MachineConfig};
use paragon_pfs::{
    pattern_byte, pattern_slice, OpenOptions, ParallelFs, PfsError, PfsFile, PfsFileId,
};
use paragon_sim::{Sim, SimDuration, SimTime};
use paragon_workload::{ExperimentConfig, StripeLayout};

const KIB: u32 = 1024;
const MIB: u64 = 1 << 20;

/// Fresh worlds a run builds: `setup_s` is the median of their setups,
/// and their first passes must repeat each other exactly.
const WORLDS: usize = 7;
/// Samples of each isolated replay; the median is reported.
const REPLAY_SAMPLES: usize = 5;
/// Distinct record payloads of a write run. Prime, so two records that
/// share a payload are never the same node's neighbouring records; a record
/// written to the wrong offset reads back as other bytes unless the offset
/// is off by a multiple of this many records.
const PAYLOADS: u64 = 61;

/// End-to-end metrics, printed with `--trace 0`: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("io_mb_per_host_s", "MiB/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("machine.build_s", "s"),
    ("pfs.populate_poll_s", "s"),
    ("pfs.setup_drain_s", "s"),
    ("pfs.client.poll_s", "s"),
    ("pfs.server.reads", "count"),
    ("pfs.server.writes", "count"),
    ("pfs.server.bytes_read", "B"),
    ("pfs.server.bytes_written", "B"),
    ("pfs.server.partial_block_requests", "count"),
    ("pfs.stripe.plan_ns", "ns"),
    ("core.read_poll_s", "s"),
    ("core.prefetch.issued", "count"),
    ("core.prefetch.hits_ready", "count"),
    ("core.prefetch.hits_inflight", "count"),
    ("core.prefetch.misses", "count"),
    ("core.prefetch.wasted", "count"),
    ("core.prefetch.bytes_copied", "B"),
    ("core.prefetch.useful_frac", "ratio"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.run_self_s", "s"),
    ("os.rpc.calls", "count"),
    ("os.rpc.retries", "count"),
    ("os.art.submitted", "count"),
    ("mesh.messages", "count"),
    ("mesh.bytes", "B"),
    ("mesh.hops", "count"),
    ("ufs.disk_requests", "count"),
    ("ufs.blocks_coalesced", "count"),
    ("ufs.bytes_written", "B"),
    ("disk.requests", "count"),
    ("disk.bytes_read", "B"),
    ("disk.bytes_written", "B"),
    ("disk.busy_s", "sim_s"),
    ("disk.store.read_ns_per_mb", "ns/MiB"),
    ("disk.store.write_ns_per_mb", "ns/MiB"),
    ("trace.overhead_s", "s"),
];

/// The benchmark's workloads. Each runs on 64 CN × 16 ION with one shared
/// M_RECORD file striped at 64 KB over every I/O node, under the
/// `paragon_1995` calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's mechanism on its Figure 4 axis: 256 MB file, 64 KB
    /// reads, 25 ms compute delay, depth-1 prefetching. Event-heavy and
    /// zero-copy: the executor, ART, RPC and prefetch engine do the work.
    BalancedPrefetch,
    /// Interleaved 256 KB `write_at` records over a populated 512 MB
    /// file, rewriting it in place: server writes, UFS block writes and
    /// store page copies.
    RecordWrite,
}

/// Machine and file size: the benchmark's own, or a tiny
/// instant-calibration shape for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Full,
    Tiny,
}

/// What the node programs of one pass do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `PfsFile::read` (the pfs client layer).
    PlainRead,
    /// `PrefetchingFile::read` (the core layer).
    PrefetchRead,
    /// `PfsFile::write_at` (the pfs client layer).
    Write,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::BalancedPrefetch, Workload::RecordWrite];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BalancedPrefetch => "balanced-prefetch",
            Workload::RecordWrite => "record-write",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiment this workload runs. A read workload's config is
    /// what `paragon_workload::run` is given as the reference.
    pub fn config(self, seed: u64, shape: Shape) -> ExperimentConfig {
        let (request, file_size) = match self {
            Workload::BalancedPrefetch => (64 * KIB, 256 * MIB),
            Workload::RecordWrite => (256 * KIB, 512 * MIB),
        };
        let mut cfg = ExperimentConfig::paper_iobound(request, 1);
        cfg.seed = seed;
        match shape {
            Shape::Full => {
                cfg.compute_nodes = 64;
                cfg.io_nodes = 16;
                cfg.file_size = file_size;
            }
            Shape::Tiny => {
                cfg.compute_nodes = 4;
                cfg.io_nodes = 2;
                cfg.calib = Calibration::instant();
                // Four collective rounds.
                cfg.file_size = 4 * 4 * u64::from(request);
            }
        }
        cfg.layout = StripeLayout::Across {
            factor: cfg.io_nodes,
        };
        if self == Workload::BalancedPrefetch {
            cfg.delay = SimDuration::from_millis(25);
            cfg = cfg.with_prefetch();
        }
        cfg.validate();
        cfg
    }

    fn measured_op(self) -> Op {
        match self {
            Workload::BalancedPrefetch => Op::PrefetchRead,
            Workload::RecordWrite => Op::Write,
        }
    }

    /// The verification pass reads through the layer the measured phase
    /// does not call, so a traced run times both read layers on every
    /// workload and checks the bytes each one returns.
    fn verify_op(self) -> Op {
        match self {
            Workload::BalancedPrefetch => Op::PlainRead,
            Workload::RecordWrite => Op::PrefetchRead,
        }
    }
}

/// One run of the benchmark.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds of measured passes to run.
    pub seconds: f64,
    /// Print the per-layer metrics of a traced run instead of the
    /// end-to-end metrics of an untraced one.
    pub trace: bool,
    pub shape: Shape,
}

/// What a run printed: every check and I/O operation it attempted, those
/// that failed with what went wrong, and its metrics (name, value, unit).
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The simulated outputs a first measured pass shares with
/// `paragon_workload::run` on the same config: collective elapsed time,
/// application bytes, and every prefetch counter.
#[derive(Debug, PartialEq, Eq)]
struct Summary {
    elapsed: SimDuration,
    bytes: u64,
    prefetch: [u64; 15],
}

fn prefetch_fields(p: &PrefetchStats) -> [u64; 15] {
    [
        p.issued,
        p.suppressed,
        p.hits_ready,
        p.hits_inflight,
        p.misses,
        p.recovered,
        p.wasted,
        p.cancelled,
        p.faults,
        p.throttles,
        p.resumes,
        p.throttled_skips,
        p.bytes_copied,
        p.overlap_saved.as_nanos(),
        p.inflight_wait.as_nanos(),
    ]
}

/// `paragon_workload::run`'s outputs for `cfg`.
fn reference_summary(cfg: &ExperimentConfig) -> Summary {
    let r = paragon_workload::run(cfg);
    Summary {
        elapsed: r.elapsed,
        bytes: r.total_bytes,
        prefetch: prefetch_fields(&r.prefetch),
    }
}

/// Run one workload and collect its metrics.
pub fn run(opts: &Options) -> Result<Report, String> {
    let cfg = Rc::new(opts.workload.config(opts.seed, opts.shape));
    let mut bench = Bench {
        workload: opts.workload,
        trace: opts.trace,
        payloads: Rc::new(payloads(&cfg, opts.workload)),
        cfg: cfg.clone(),
        tally: Tally::default(),
        setups: Vec::new(),
        passes: Vec::new(),
        firsts: Vec::new(),
        counts: None,
        peak_rss_mib: 0.0,
    };
    let verify = bench.measure(opts.seconds)?;
    // The reference runs last, so that its world's memory is not in the
    // first world's peak RSS.
    if opts.workload != Workload::RecordWrite {
        let reference = reference_summary(&cfg);
        for got in &bench.firsts {
            bench.tally.check(*got == reference, || {
                format!("first pass {got:?} differs from paragon_workload::run {reference:?}")
            });
        }
    }
    let metrics = if opts.trace {
        bench.per_layer(&verify)
    } else {
        bench.end_to_end()
    };
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not a number: {value}"));
    }
    Ok(Report {
        attempted: bench.tally.attempted,
        failed: bench.tally.failed,
        problems: bench.tally.problems,
        metrics,
    })
}

/// Record payloads for a write workload, generated before any clock
/// starts. Record `r` gets payload `r % PAYLOADS`: the next seed's pattern
/// bytes of record `r % PAYLOADS`'s file range, so every record the writes
/// reach changes from what the populate put there. Sharing a few buffers
/// keeps their memory out of `peak_rss_mb`. Read workloads need none.
fn payloads(cfg: &ExperimentConfig, workload: Workload) -> Vec<Bytes> {
    if workload != Workload::RecordWrite {
        return Vec::new();
    }
    let size = u64::from(cfg.request_size);
    let records = cfg.file_size / size;
    (0..PAYLOADS.min(records))
        .map(|r| pattern_slice(cfg.seed.wrapping_add(1), r * size, size as usize))
        .collect()
}

/// The bytes record `record` of the file must read back as: its payload
/// on record-write, otherwise the populated pattern.
fn expected(cfg: &ExperimentConfig, payloads: &[Bytes], record: u64) -> Bytes {
    let size = u64::from(cfg.request_size);
    if payloads.is_empty() {
        pattern_slice(cfg.seed, record * size, size as usize)
    } else {
        payloads[(record % payloads.len() as u64) as usize].clone()
    }
}

/// Await `fut`; given `polls`, also add the host nanoseconds spent inside
/// its polls to it.
async fn timed<F: Future>(polls: Option<&Cell<u64>>, fut: F) -> F::Output {
    let Some(polls) = polls else {
        return fut.await;
    };
    let mut fut = pin!(fut);
    poll_fn(|cx| {
        let start = Instant::now();
        let out = fut.as_mut().poll(cx);
        polls.set(polls.get() + start.elapsed().as_nanos() as u64);
        out
    })
    .await
}

fn nanos_to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// One simulated machine with the workload's file on it.
struct World {
    sim: Sim,
    machine: Rc<Machine>,
    pfs: Rc<ParallelFs>,
    file: PfsFileId,
}

impl Drop for World {
    fn drop(&mut self) {
        // Parked server loops hold the machine in an Rc cycle; break it so
        // the store's pages are freed before the next world is built.
        self.sim.shutdown();
    }
}

/// Host seconds one world's setup took.
struct Setup {
    /// `Sim::new` until the setup `Sim::run` returns.
    total_s: f64,
    /// `Machine::new` + `ParallelFs::new`.
    build_s: f64,
    /// Inside polls of the setup future (`create` + `populate_with`);
    /// traced setups only.
    poll_s: f64,
    /// The rest of the setup `Sim::run`: slot writes into UFS and store.
    drain_s: f64,
}

fn build_world(cfg: &ExperimentConfig, traced: bool) -> Result<(World, Setup), String> {
    let start = Instant::now();
    let sim = Sim::new(cfg.seed);
    let build = Instant::now();
    let machine = Rc::new(Machine::new(
        &sim,
        MachineConfig {
            compute_nodes: cfg.compute_nodes,
            io_nodes: cfg.io_nodes,
            calib: cfg.calib.clone(),
        },
    ));
    let pfs = ParallelFs::new(machine.clone());
    let build_s = build.elapsed().as_secs_f64();
    let polls = traced.then(|| Rc::new(Cell::new(0)));
    let setup = {
        let (pfs, polls, seed) = (pfs.clone(), polls.clone(), cfg.seed);
        let (attrs, size) = (cfg.layout.attrs(cfg.stripe_unit), cfg.file_size);
        async move {
            timed(polls.as_deref(), async {
                let file = pfs.create("/pfs/data", attrs).await?;
                pfs.populate_with(file, size, |i| pattern_byte(seed, i))
                    .await?;
                Ok::<_, PfsError>(file)
            })
            .await
        }
    };
    let handle = sim.spawn_named("hostbench-setup", setup);
    let run = Instant::now();
    sim.run();
    let run_s = run.elapsed().as_secs_f64();
    let total_s = start.elapsed().as_secs_f64();
    let file = match handle.try_take() {
        Some(Ok(file)) => file,
        Some(Err(e)) => return Err(format!("setup failed: {e}")),
        None => return Err("setup never finished".into()),
    };
    let poll_s = polls.map_or(0.0, |p| nanos_to_s(p.get()));
    let world = World {
        sim,
        machine,
        pfs,
        file,
    };
    let setup = Setup {
        total_s,
        build_s,
        poll_s,
        drain_s: run_s - poll_s,
    };
    Ok((world, setup))
}

/// One compute node's program for one pass.
struct Node {
    sim: Sim,
    pfs: Rc<ParallelFs>,
    cfg: Rc<ExperimentConfig>,
    file: PfsFileId,
    rank: usize,
    op: Op,
    /// Compare every byte read with the pattern (verification pass); also
    /// skips the compute delay, which only shapes simulated time.
    verify: bool,
    /// Host nanoseconds inside the I/O call futures (traced passes).
    polls: Option<Rc<Cell<u64>>>,
    payloads: Rc<Vec<Bytes>>,
}

struct NodeOut {
    end: SimTime,
    bytes: u64,
    ops: u64,
    failed: u64,
    prefetch: PrefetchStats,
}

// Both boxed: the handles carry whole stripe maps.
enum Handle {
    Plain(Box<PfsFile>),
    Prefetching(Box<PrefetchingFile>),
}

impl Node {
    async fn run(self) -> NodeOut {
        let cfg = &*self.cfg;
        let nprocs = cfg.compute_nodes as u64;
        let size = cfg.request_size;
        let rounds = cfg.rounds_per_node();
        let polls = self.polls.as_deref();
        let mut out = NodeOut {
            end: SimTime::default(),
            bytes: 0,
            ops: rounds,
            failed: 0,
            prefetch: PrefetchStats::default(),
        };
        let opts = OpenOptions {
            fast_path: cfg.fast_path,
        };
        let nodes = cfg.compute_nodes;
        let file = match self
            .pfs
            .open_on(self.rank, self.rank, nodes, self.file, cfg.mode, opts)
        {
            Ok(file) => file,
            Err(_) => {
                out.failed = rounds;
                out.end = self.sim.now();
                return out;
            }
        };
        let handle = match self.op {
            Op::PrefetchRead => {
                Handle::Prefetching(Box::new(PrefetchingFile::new(file, prefetcher(cfg))))
            }
            Op::PlainRead | Op::Write => Handle::Plain(Box::new(file)),
        };
        for k in 0..rounds {
            // M_RECORD: the node's k-th call covers record k·nprocs + rank.
            let record = k * nprocs + self.rank as u64;
            let offset = record * u64::from(size);
            let outcome = match (&handle, self.op) {
                (Handle::Plain(f), Op::Write) => {
                    let data = expected(cfg, &self.payloads, record);
                    timed(polls, f.write_at(offset, data)).await.map(|()| None)
                }
                (Handle::Plain(f), _) => timed(polls, f.read(size)).await.map(Some),
                (Handle::Prefetching(f), _) => timed(polls, f.read(size)).await.map(Some),
            };
            match outcome {
                Ok(None) => out.bytes += u64::from(size),
                Ok(Some(data)) => {
                    out.bytes += data.len() as u64;
                    let wrong = data.len() != size as usize
                        || (self.verify && data != expected(cfg, &self.payloads, record));
                    out.failed += u64::from(wrong);
                }
                Err(_) => out.failed += 1,
            }
            if !self.verify && !cfg.delay.is_zero() && k + 1 < rounds {
                self.sim.sleep(cfg.delay).await;
            }
        }
        if let Handle::Prefetching(f) = handle {
            out.prefetch = f.close().await;
        }
        out.end = self.sim.now();
        out
    }
}

/// The depth-1 prefetcher the config asks for, or the paper's prototype
/// for a verification pass of a workload that runs without one.
fn prefetcher(cfg: &ExperimentConfig) -> PrefetchConfig {
    cfg.prefetch.clone().unwrap_or_else(|| {
        let mut pc = PrefetchConfig::paper_prototype();
        pc.copy_bw = cfg.calib.cn_copy_bw;
        pc
    })
}

/// What one pass of every node's program measured.
struct Pass {
    /// Host seconds of the pass's `Sim::run`.
    host_s: f64,
    /// Host seconds inside the I/O call futures (traced passes only).
    poll_s: f64,
    traced: bool,
    events: u64,
    elapsed: SimDuration,
    bytes: u64,
    ops: u64,
    failed: u64,
    prefetch: PrefetchStats,
}

impl Pass {
    fn summary(&self) -> Summary {
        Summary {
            elapsed: self.elapsed,
            bytes: self.bytes,
            prefetch: prefetch_fields(&self.prefetch),
        }
    }
}

fn run_pass(
    world: &World,
    cfg: &Rc<ExperimentConfig>,
    op: Op,
    verify: bool,
    traced: bool,
    payloads: &Rc<Vec<Bytes>>,
) -> Pass {
    let polls = traced.then(|| Rc::new(Cell::new(0)));
    let t0 = world.sim.now();
    let nodes: Vec<_> = (0..cfg.compute_nodes)
        .map(|rank| {
            let node = Node {
                sim: world.sim.clone(),
                pfs: world.pfs.clone(),
                cfg: cfg.clone(),
                file: world.file,
                rank,
                op,
                verify,
                polls: polls.clone(),
                payloads: payloads.clone(),
            };
            world.sim.spawn_named("hostbench-node", node.run())
        })
        .collect();
    let events = world.sim.report().events_processed;
    let start = Instant::now();
    world.sim.run();
    let host_s = start.elapsed().as_secs_f64();
    let mut pass = Pass {
        host_s,
        poll_s: polls.map_or(0.0, |p| nanos_to_s(p.get())),
        traced,
        events: world.sim.report().events_processed - events,
        elapsed: SimDuration::ZERO,
        bytes: 0,
        ops: 0,
        failed: 0,
        prefetch: PrefetchStats::default(),
    };
    let rounds = cfg.rounds_per_node();
    for node in nodes {
        // A node that never finished is deadlocked: all its calls fail.
        let out = node.try_take().unwrap_or(NodeOut {
            end: t0,
            bytes: 0,
            ops: rounds,
            failed: rounds,
            prefetch: PrefetchStats::default(),
        });
        pass.elapsed = pass.elapsed.max(out.end.since(t0));
        pass.bytes += out.bytes;
        pass.ops += out.ops;
        pass.failed += out.failed;
        pass.prefetch.merge(&out.prefetch);
    }
    pass
}

/// Work counters, by metric name.
type Counts = BTreeMap<&'static str, u64>;

/// A world's work counters after its setup and first pass. `sim.events`
/// and the prefetch counters cover the first pass alone.
fn counts(world: &World, first: &Pass) -> Counts {
    let mut pairs = Vec::new();
    for ion in 0..world.machine.io_nodes() {
        let server = world.pfs.server_stats(ion);
        let ufs = world.machine.ufs(ion).stats();
        let disk = world.machine.raid(ion).stats();
        pairs.extend([
            ("pfs.server.reads", server.reads),
            ("pfs.server.writes", server.writes),
            ("pfs.server.bytes_read", server.bytes_read),
            ("pfs.server.bytes_written", server.bytes_written),
            (
                "pfs.server.partial_block_requests",
                server.partial_block_requests,
            ),
            ("ufs.disk_requests", ufs.disk_requests),
            ("ufs.blocks_coalesced", ufs.blocks_coalesced),
            ("ufs.bytes_written", ufs.bytes_written),
            ("disk.requests", disk.requests),
            ("disk.bytes_read", disk.bytes_read),
            ("disk.bytes_written", disk.bytes_written),
            ("disk.busy_ns", disk.busy.as_nanos()),
        ]);
    }
    let rpc = world.pfs.rpc_net().stats();
    let mesh = world.pfs.rpc_net().mesh_stats();
    let p = &first.prefetch;
    pairs.extend([
        ("os.rpc.calls", rpc.calls),
        ("os.rpc.retries", rpc.retries),
        ("os.art.submitted", world.pfs.art_stats().submitted),
        ("mesh.messages", mesh.messages),
        ("mesh.bytes", mesh.bytes),
        ("mesh.hops", mesh.hops),
        ("sim.events", first.events),
        ("core.prefetch.issued", p.issued),
        ("core.prefetch.hits_ready", p.hits_ready),
        ("core.prefetch.hits_inflight", p.hits_inflight),
        ("core.prefetch.misses", p.misses),
        ("core.prefetch.wasted", p.wasted),
        ("core.prefetch.bytes_copied", p.bytes_copied),
        ("core.prefetch.hits", p.hits()),
    ]);
    let mut counts = Counts::new();
    for (name, value) in pairs {
        *counts.entry(name).or_default() += value;
    }
    counts
}

/// The counters on which `a` and `b` differ.
fn count_diff(a: &Counts, b: &Counts) -> String {
    a.iter()
        .filter(|&(name, value)| b.get(name) != Some(value))
        .map(|(name, value)| format!("{name} {value} vs {:?}", b.get(name)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Operations and checks attempted, and those that failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn pass(&mut self, what: &str, pass: &Pass) {
        self.attempted += pass.ops;
        self.failed += pass.failed;
        if pass.failed > 0 {
            self.problems.push(format!(
                "{what}: {} of {} I/O calls failed or returned wrong bytes",
                pass.failed, pass.ops
            ));
        }
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }
}

/// One run's state: the workload, what it measured so far, and its checks.
struct Bench {
    workload: Workload,
    cfg: Rc<ExperimentConfig>,
    trace: bool,
    payloads: Rc<Vec<Bytes>>,
    tally: Tally,
    setups: Vec<Setup>,
    passes: Vec<Pass>,
    /// Every world's first measured pass; on a read workload each must
    /// equal `paragon_workload::run`'s outputs.
    firsts: Vec<Summary>,
    /// The first world's counters; every later world must repeat them.
    counts: Option<Counts>,
    /// VmHWM once the first world has run its passes, MiB.
    peak_rss_mib: f64,
}

impl Bench {
    fn measured_s(&self) -> f64 {
        self.passes.iter().map(|p| p.host_s).sum()
    }

    /// Simulated application MiB a measured pass moved per host second of
    /// its `Sim::run`, for the fastest pass. Contention from the rest of
    /// the host only ever adds time to a pass, so the fastest of many is
    /// the steadiest estimate of what the simulator itself costs.
    fn mib_per_host_s(&self) -> f64 {
        self.passes
            .iter()
            .map(|p| p.bytes as f64 / MIB as f64 / p.host_s)
            .fold(0.0, f64::max)
    }

    /// Run one measured pass on `world` and keep it.
    fn measured_pass(&mut self, world: &World, traced: bool) {
        let op = self.workload.measured_op();
        let pass = run_pass(world, &self.cfg, op, false, traced, &self.payloads);
        self.tally.pass("measured pass", &pass);
        self.passes.push(pass);
    }

    /// Build a fresh world and run its first measured pass. The world's
    /// counters must repeat the first world's exactly.
    fn fresh_world(&mut self, traced: bool) -> Result<World, String> {
        let (world, setup) = build_world(&self.cfg, traced)?;
        self.setups.push(setup);
        self.measured_pass(&world, traced);
        let first = self.passes.last().expect("a pass was just run");
        self.firsts.push(first.summary());
        let counts = counts(&world, first);
        match &self.counts {
            None => self.counts = Some(counts),
            Some(want) => self.tally.check(*want == counts, || {
                format!(
                    "repeated world's counters differ: {}",
                    count_diff(want, &counts)
                )
            }),
        }
        Ok(world)
    }

    fn verify_pass(&mut self, world: &World) -> Pass {
        let op = self.workload.verify_op();
        let pass = run_pass(world, &self.cfg, op, true, self.trace, &self.payloads);
        self.tally.pass("verification pass", &pass);
        pass
    }

    /// [`WORLDS`] fresh worlds in turn. Each runs more passes over its
    /// file, each with fresh opens, until the measured time reaches its
    /// share of `seconds`, so the setups are spread over the whole run. The
    /// last world then runs the verification pass.
    ///
    /// The peak RSS is read once the first world is done: the memory that
    /// a freed world leaves in the allocator raises the peak of the worlds
    /// after it, which is not a cost of one world.
    fn measure(&mut self, seconds: f64) -> Result<Pass, String> {
        // A traced run alternates untraced and traced passes; the gap
        // between their medians is the tracing overhead.
        let mut traced = false;
        let mut world = None;
        for w in 1..=WORLDS {
            // Free the old world before building the next one.
            drop(world.take());
            let fresh = self.fresh_world(self.trace)?;
            let share = seconds * w as f64 / WORLDS as f64;
            let last = w == WORLDS;
            while self.measured_s() < share || (last && self.trace && self.untraced_passes() < 2) {
                self.measured_pass(&fresh, traced);
                traced = self.trace && !traced;
            }
            if w == 1 {
                self.peak_rss_mib = peak_rss_mib()?;
            }
            world = Some(fresh);
        }
        let world = world.expect("at least one world");
        Ok(self.verify_pass(&world))
    }

    fn untraced_passes(&self) -> usize {
        self.passes.iter().filter(|p| !p.traced).count()
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let values = BTreeMap::from([
            (
                "setup_s",
                median(self.setups.iter().map(|s| s.total_s).collect()),
            ),
            ("io_mb_per_host_s", self.mib_per_host_s()),
            ("peak_rss_mb", self.peak_rss_mib),
        ]);
        with_units(END_TO_END, &values)
    }

    fn per_layer(&self, verify: &Pass) -> Vec<(&'static str, f64, &'static str)> {
        let traced: Vec<&Pass> = self.passes.iter().filter(|p| p.traced).collect();
        let over_setups = |f: fn(&Setup) -> f64| median(self.setups.iter().map(f).collect());
        let over_traced = |f: fn(&Pass) -> f64| median(traced.iter().map(|p| f(p)).collect());
        let measured_poll_s = over_traced(|p| p.poll_s);
        let (client_poll_s, core_poll_s) = match self.workload.measured_op() {
            Op::PrefetchRead => (verify.poll_s, measured_poll_s),
            Op::PlainRead | Op::Write => (measured_poll_s, verify.poll_s),
        };
        let untraced_host_s = median(
            self.passes
                .iter()
                .filter(|p| !p.traced)
                .map(|p| p.host_s)
                .collect(),
        );
        let (store_read, store_write) = store_replay(&self.cfg);
        let counts = self.counts.as_ref().expect("every run builds a world");
        let count = |name: &str| counts[name] as f64;
        let mut values = BTreeMap::from([
            ("machine.build_s", over_setups(|s| s.build_s)),
            ("pfs.populate_poll_s", over_setups(|s| s.poll_s)),
            ("pfs.setup_drain_s", over_setups(|s| s.drain_s)),
            ("pfs.client.poll_s", client_poll_s),
            ("pfs.stripe.plan_ns", plan_replay(&self.cfg)),
            ("core.read_poll_s", core_poll_s),
            (
                "core.prefetch.useful_frac",
                count("core.prefetch.hits") / count("core.prefetch.issued").max(1.0),
            ),
            (
                "sim.ns_per_event",
                over_traced(|p| p.host_s * 1e9 / p.events.max(1) as f64),
            ),
            ("sim.run_self_s", over_traced(|p| p.host_s - p.poll_s)),
            ("disk.busy_s", nanos_to_s(counts["disk.busy_ns"])),
            ("disk.store.read_ns_per_mb", store_read),
            ("disk.store.write_ns_per_mb", store_write),
            (
                "trace.overhead_s",
                over_traced(|p| p.host_s) - untraced_host_s,
            ),
        ]);
        for &(name, _) in PER_LAYER {
            if let Some(&value) = counts.get(name) {
                values.insert(name, value as f64);
            }
        }
        with_units(PER_LAYER, &values)
    }
}

/// `metrics` in declaration order, each with its value and unit.
fn with_units(
    metrics: &[(&'static str, &'static str)],
    values: &BTreeMap<&str, f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    metrics
        .iter()
        .map(|&(name, unit)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, value, unit)
        })
        .collect()
}

/// Host nanoseconds per MiB of isolated `BlockStore::read` and
/// `BlockStore::write` calls at the workload's request size: a fresh store
/// is written (allocating its pages), then read back, over up to 64 MiB.
fn store_replay(cfg: &ExperimentConfig) -> (f64, f64) {
    let size = cfg.request_size as usize;
    let calls = cfg.file_size.min(64 * MIB) / size as u64;
    let mib = (calls * size as u64) as f64 / MIB as f64;
    let data = pattern_slice(cfg.seed, 0, size);
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for _ in 0..REPLAY_SAMPLES {
        let mut store = BlockStore::new();
        let start = Instant::now();
        for k in 0..calls {
            store.write(k * size as u64, black_box(&data));
        }
        writes.push(start.elapsed().as_nanos() as f64 / mib);
        let start = Instant::now();
        for k in 0..calls {
            black_box(store.read(black_box(k * size as u64), size));
        }
        reads.push(start.elapsed().as_nanos() as f64 / mib);
    }
    (median(reads), median(writes))
}

/// Host nanoseconds per isolated `StripeAttrs::plan` call at the
/// workload's request size, over every record offset of the file.
fn plan_replay(cfg: &ExperimentConfig) -> f64 {
    let attrs = cfg.layout.attrs(cfg.stripe_unit);
    let size = u64::from(cfg.request_size);
    let records = cfg.file_size / size;
    // Enough calls per sample that the clock's resolution does not matter.
    let sweeps = (20_000 / records).max(1);
    let samples = (0..REPLAY_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..sweeps {
                for r in 0..records {
                    black_box(attrs.plan(black_box(r * size), size));
                }
            }
            start.elapsed().as_nanos() as f64 / (sweeps * records) as f64
        })
        .collect();
    median(samples)
}

/// This process's peak resident set (VmHWM), MiB. Each run is one process
/// running one workload, so no other workload's high-water mark is in it.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
