//! The experiment driver: build a machine, lay the file(s) out, run one
//! synthetic SPMD program per compute node, and measure what the paper
//! measures.
//!
//! Timeline of a run: **setup** (create + populate files — simulated disk
//! time passes but is not measured, exactly like preparing a testbed
//! before starting the clock), then the **measured phase** (all node
//! programs start together; the collective is complete when the slowest
//! node finishes its last read).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use paragon_core::{PrefetchGauges, PrefetchStats, PrefetchingFile};
use paragon_machine::{Machine, MachineConfig};
use paragon_pfs::{
    pattern_byte, pattern_slice, rebuild_after_crash, IoMode, OpenOptions, ParallelFs, PfsFile,
    PfsFileId, RebuildStats, Redundancy,
};
use paragon_sim::{ev, EventKind, Sim, SimDuration, SimTime, Track};

use crate::config::{AccessPattern, ExperimentConfig, FaultSpec};
use crate::result::{NodeResult, RunResult};
use crate::telemetry::{names, Telemetry};

/// Where the driver task deposits its measurements for the host caller.
type DriverOutput = Rc<RefCell<Option<(Vec<NodeResult>, SimDuration)>>>;

/// Run one experiment to completion and return its measurements: one
/// world, built, driven to quiescence and harvested. The result is a
/// pure function of `cfg` (seed included).
pub fn run(cfg: &ExperimentConfig) -> RunResult {
    if let Err(e) = cfg.validate() {
        panic!("invalid experiment config: {e}");
    }
    let sim = Sim::new(cfg.seed);
    let world = build_world(cfg, &sim);
    sim.run();
    finish_world(cfg, &sim, world)
}

/// The world's live state between build and harvest.
struct World {
    machine: Rc<Machine>,
    telemetry: Option<Rc<Telemetry>>,
    out: DriverOutput,
    rebuild_out: Rc<RefCell<Option<RebuildStats>>>,
    rebuild_pending: Rc<Cell<u64>>,
    replica_failovers: Rc<Cell<u64>>,
    replica_reads: Rc<Cell<u64>>,
    verify_failures: Rc<Cell<u64>>,
}

fn build_world(cfg: &ExperimentConfig, sim: &Sim) -> World {
    if cfg.trace_cap > 0 {
        sim.tracer().arm(cfg.trace_cap);
    }
    let machine = Rc::new(Machine::new(
        sim,
        MachineConfig {
            compute_nodes: cfg.compute_nodes,
            io_nodes: cfg.io_nodes,
            calib: cfg.effective_calib(),
        },
    ));
    let pfs = ParallelFs::new_with_redundancy(machine.clone(), cfg.redundancy);
    let telemetry = cfg
        .metrics_cadence
        .map(|cadence| Telemetry::new(sim, &machine, &pfs, cadence));
    // Node programs always get cells to poke; without telemetry they are
    // private dummies and the pokes are inert (no events, no RNG).
    let (in_io, prefetch_gauges) = match &telemetry {
        Some(t) => (t.in_io.clone(), t.prefetch.clone()),
        None => (Rc::new(Cell::new(0)), PrefetchGauges::default()),
    };
    let verify_cell: Rc<Cell<u64>> = Rc::new(Cell::new(0));
    let verify_cell2 = verify_cell.clone();

    let out: DriverOutput = Rc::new(RefCell::new(None));
    let out2 = out.clone();
    let rebuild_out: Rc<RefCell<Option<RebuildStats>>> = Rc::new(RefCell::new(None));
    let rebuild_out2 = rebuild_out.clone();
    let cfg2 = cfg.clone();
    let sim2 = sim.clone();
    let machine2 = machine.clone();
    let telemetry2 = telemetry.clone();
    let replica_failovers = pfs.replica_failovers_cell();
    let replica_reads = pfs.replica_reads_cell();
    let rebuild_pending = pfs.rebuild_pending_cell();
    sim.spawn_named("experiment-driver", async move {
        let files = setup_files(&pfs, &cfg2).await;
        // Setup never draws a fault: the plan is configured and armed
        // only once the files exist, right at the measured phase's start.
        arm_faults(&sim2, &machine2, &cfg2.faults);
        if let (Redundancy::Replicated { .. }, Some((ion, from, _))) =
            (cfg2.redundancy, cfg2.faults.ion_crash)
        {
            // Recovery coordinator: wakes when the node drops and
            // re-replicates every slot that lost a copy, token-bucket
            // throttled, through the normal RPC path — while the
            // foreground programs keep reading.
            let sim3 = sim2.clone();
            let pfs3 = pfs.clone();
            let deposit = rebuild_out2.clone();
            sim2.spawn_named("rebuild-coordinator", async move {
                sim3.sleep(from).await;
                let stats = rebuild_after_crash(&pfs3, ion)
                    .await
                    .expect("online re-replication failed");
                *deposit.borrow_mut() = Some(stats);
            });
        }
        let t0 = sim2.now();
        // Timeline marker: the measured phase starts here; everything
        // before it is testbed setup the paper's clock never sees.
        sim2.emit(|| {
            ev(
                Track::Sys,
                EventKind::Mark,
                0,
                cfg2.compute_nodes as u64,
                cfg2.io_nodes as u64,
            )
        });
        if let Some(t) = &telemetry2 {
            t.begin();
        }
        let mut handles = Vec::with_capacity(cfg2.compute_nodes);
        for rank in 0..cfg2.compute_nodes {
            let file = files[rank.min(files.len() - 1)];
            let ctx = NodeCtx {
                sim: sim2.clone(),
                pfs: pfs.clone(),
                cfg: cfg2.clone(),
                rank,
                file,
                t0,
                in_io: in_io.clone(),
                prefetch_gauges: prefetch_gauges.clone(),
                verify_failures: verify_cell2.clone(),
            };
            handles.push(sim2.spawn_named("node-program", node_program(ctx)));
        }
        let mut per_node = Vec::with_capacity(handles.len());
        for h in handles {
            per_node.push(h.await);
        }
        if let Some(t) = &telemetry2 {
            t.end();
        }
        let elapsed = sim2.now().since(t0);
        *out2.borrow_mut() = Some((per_node, elapsed));
    });
    World {
        machine,
        telemetry,
        out,
        rebuild_out,
        rebuild_pending,
        replica_failovers,
        replica_reads,
        verify_failures: verify_cell,
    }
}

fn finish_world(cfg: &ExperimentConfig, sim: &Sim, w: World) -> RunResult {
    let report = sim.report();
    let trace = sim.tracer().events();
    // Free the world: parked server loops otherwise keep the whole
    // machine (including megabytes of simulated disk contents) alive via
    // an Rc cycle — fatal when a sweep runs many worlds in one process.
    sim.shutdown();
    let (per_node, elapsed) = w.out.borrow_mut().take().unwrap_or_else(|| {
        panic!(
            "experiment deadlocked; pending: {:?}",
            sim.pending_task_labels()
        )
    });

    let total_bytes = per_node.iter().map(|n| n.bytes).sum();
    let mut prefetch = PrefetchStats::default();
    for n in &per_node {
        if let Some(p) = &n.prefetch {
            prefetch.merge(p);
        }
    }
    let mut verify_failures = w.verify_failures.get();
    if cfg.verify_data {
        // Also fsck every I/O node's file system after the run.
        for i in 0..cfg.io_nodes {
            let problems = w.machine.ufs(i).check();
            if !problems.is_empty() {
                eprintln!("fsck failures on I/O node {i}: {problems:?}");
                verify_failures += problems.len() as u64;
            }
        }
    }
    let mut disk = paragon_disk::DiskStats::default();
    let mut raid = paragon_disk::RaidStats::default();
    for i in 0..cfg.io_nodes {
        let s = w.machine.raid(i).stats();
        disk.requests += s.requests;
        disk.bytes_read += s.bytes_read;
        disk.bytes_written += s.bytes_written;
        disk.busy += s.busy;
        disk.sequential_hits += s.sequential_hits;
        disk.near_seeks += s.near_seeks;
        disk.far_seeks += s.far_seeks;
        disk.max_queue_depth = disk.max_queue_depth.max(s.max_queue_depth);
        let r = w.machine.raid(i).raid_stats();
        raid.reconstructed_reads += r.reconstructed_reads;
        raid.reconstructed_bytes += r.reconstructed_bytes;
        raid.parity_rmws += r.parity_rmws;
        raid.store_bytes_copied += r.store_bytes_copied;
    }
    let metrics = w.telemetry.map(|t| {
        // Distributions are recorded post-run from the per-request
        // timers the node programs already keep.
        for n in &per_node {
            for &dt in &n.read_times {
                t.record(names::READ_TIME_S, dt.as_secs_f64());
            }
        }
        t.snapshot()
    });
    let rebuild = w.rebuild_out.borrow_mut().take();
    RunResult {
        read_errors: per_node.iter().map(|n| n.read_errors).sum(),
        per_node,
        elapsed,
        total_bytes,
        prefetch,
        prefetch_enabled: cfg.prefetch.is_some(),
        trace_hash: report.trace_hash,
        polls: report.polls,
        verify_failures,
        fault: sim.faults().stats(),
        raid,
        disk,
        rebuild,
        rebuild_pending: w.rebuild_pending.get(),
        replica_failovers: w.replica_failovers.get(),
        replica_reads: w.replica_reads.get(),
        trace,
        metrics,
    }
}

/// Configure and arm the simulation's fault plan from `spec`. The service
/// node is always exempted: shared-pointer operations are not idempotent,
/// so the client never retries them and a lost one would wedge the run.
fn arm_faults(sim: &Sim, machine: &Machine, spec: &FaultSpec) {
    if spec.is_noop() {
        return;
    }
    let faults = sim.faults();
    faults.protect_node(machine.service_node().0 as u16);
    if spec.disk_error_pm > 0 {
        faults.set_disk_error_rate(spec.disk_error_pm);
    }
    if let Some((ion, member)) = spec.dead_member {
        let track = machine
            .raid(ion)
            .member_track_index(member)
            .unwrap_or_else(|| panic!("I/O node {ion} has no flight-recorder tracks"));
        faults.kill_disk(track);
    }
    if spec.mesh_drop_pm + spec.mesh_dup_pm + spec.mesh_delay_pm > 0 {
        faults.set_mesh_faults(
            spec.mesh_drop_pm,
            spec.mesh_dup_pm,
            spec.mesh_delay_pm,
            spec.mesh_delay,
        );
    }
    if let Some((ion, from, until)) = spec.ion_crash {
        assert!(from < until, "empty I/O-node crash window");
        let node = machine.io_node(ion).0 as u16;
        let now = sim.now();
        faults.crash_node(node, now + from, now + until);
        // Timeline markers so trace analysis can see the window edges.
        // The node's return is an *explicit* state change: the marker
        // task removes the crash window from the plan and records the
        // degraded duration it measured, rather than letting the window
        // silently age out at its configured bound.
        let marker_sim = sim.clone();
        let marker_faults = faults.clone();
        sim.spawn_named("fault-window-marker", async move {
            marker_sim.sleep(from).await;
            marker_sim.emit(|| ev(Track::Sys, EventKind::FaultNodeDown, 0, node as u64, 0));
            marker_sim.sleep(until - from).await;
            marker_sim.emit(|| ev(Track::Sys, EventKind::FaultNodeUp, 0, node as u64, 0));
            let degraded = marker_faults
                .recover_node(node, marker_sim.now())
                .unwrap_or(SimDuration::ZERO);
            marker_sim.emit(|| {
                ev(
                    Track::Sys,
                    EventKind::FaultNodeRecovered,
                    0,
                    node as u64,
                    degraded.as_nanos(),
                )
            });
        });
    }
    faults.arm();
}

/// Create and populate the run's file(s); returns one id per node for
/// separate-files runs, else a single shared id.
async fn setup_files(pfs: &Rc<ParallelFs>, cfg: &ExperimentConfig) -> Vec<PfsFileId> {
    let attrs = cfg.layout.attrs(cfg.stripe_unit);
    if cfg.separate_files {
        let mut files = Vec::with_capacity(cfg.compute_nodes);
        for rank in 0..cfg.compute_nodes {
            // PFS allocates each file's first stripe unit round-robin
            // over the group, so private files do not all start on the
            // same I/O node: rotate the group by rank.
            let mut file_attrs = attrs.clone();
            let rot = rank % file_attrs.group.len();
            file_attrs.group.rotate_left(rot);
            let id = pfs
                .create(&format!("/pfs/data.{rank}"), file_attrs)
                .await
                .expect("create failed");
            let seed = cfg.seed ^ (rank as u64).wrapping_mul(0x9e37);
            pfs.populate_with(id, cfg.file_size, |i| pattern_byte(seed, i))
                .await
                .expect("populate failed");
            files.push(id);
        }
        files
    } else {
        let id = pfs.create("/pfs/data", attrs).await.expect("create failed");
        let seed = cfg.seed;
        pfs.populate_with(id, cfg.file_size, |i| pattern_byte(seed, i))
            .await
            .expect("populate failed");
        vec![id]
    }
}

struct NodeCtx {
    sim: Sim,
    pfs: Rc<ParallelFs>,
    cfg: ExperimentConfig,
    rank: usize,
    file: PfsFileId,
    t0: SimTime,
    /// Telemetry gauge: nodes currently inside a read call.
    in_io: Rc<Cell<i64>>,
    /// Telemetry gauges shared by every prefetch buffer list.
    prefetch_gauges: PrefetchGauges,
    /// Data-verification failures observed by the node programs.
    verify_failures: Rc<Cell<u64>>,
}

/// The demand-read side of one node's program: either a plain PFS handle
/// or the prefetching prototype wrapped around it.
// Both variants boxed: the handles carry whole stripe maps, so inline
// they would make every future that holds a `Reader` hundreds of bytes.
enum Reader {
    Plain(Box<PfsFile>),
    Prefetching(Box<PrefetchingFile>),
}

impl Reader {
    async fn read(&self, len: u32) -> Result<bytes::Bytes, paragon_pfs::PfsError> {
        match self {
            Reader::Plain(f) => f.read(len).await,
            Reader::Prefetching(pf) => pf.read(len).await,
        }
    }

    async fn read_at(&self, offset: u64, len: u32) -> Result<bytes::Bytes, paragon_pfs::PfsError> {
        match self {
            Reader::Plain(f) => {
                f.syscall().await;
                f.transfer_read(offset, len).await
            }
            Reader::Prefetching(pf) => pf.read_at(offset, len).await,
        }
    }

    async fn close(self) -> Option<PrefetchStats> {
        match self {
            Reader::Plain(_) => None,
            Reader::Prefetching(pf) => Some(pf.close().await),
        }
    }
}

async fn node_program(ctx: NodeCtx) -> NodeResult {
    let cfg = &ctx.cfg;
    let sz = cfg.request_size;
    let rounds = cfg.rounds_per_node();
    let (mode_rank, nprocs) = if cfg.separate_files {
        (0, 1)
    } else {
        (ctx.rank, cfg.compute_nodes)
    };
    let file = ctx
        .pfs
        .open_on(
            ctx.rank,
            mode_rank,
            nprocs,
            ctx.file,
            cfg.mode,
            OpenOptions {
                fast_path: cfg.fast_path,
            },
        )
        .expect("open failed");

    // Explicit-pattern reads partition the file by rank.
    let partition = cfg.file_size / nprocs as u64;
    let base = mode_rank as u64 * partition;
    let pattern_seed = if cfg.separate_files {
        cfg.seed ^ (ctx.rank as u64).wrapping_mul(0x9e37)
    } else {
        cfg.seed
    };

    let reader = match &cfg.prefetch {
        Some(pc) => {
            let pf = PrefetchingFile::new(file, pc.clone());
            pf.set_gauges(ctx.prefetch_gauges.clone());
            Reader::Prefetching(Box::new(pf))
        }
        None => Reader::Plain(Box::new(file)),
    };

    let mut rng = ctx.sim.rng(&format!("workload.rank{}", ctx.rank));
    let mut reads = 0u64;
    let mut read_errors = 0u64;
    let mut bytes = 0u64;
    let mut total = SimDuration::ZERO;
    let mut tmax = SimDuration::ZERO;
    let mut tmin = SimDuration::MAX;
    let mut read_times = Vec::new();

    // The per-read offsets the pattern dictates; `None` = mode-driven
    // (offset determined by the pointer machinery, possibly unknowable).
    let total_reads = match cfg.access {
        AccessPattern::Reread { passes } => rounds * passes as u64,
        _ => rounds,
    };
    for k in 0..total_reads {
        let planned: Option<u64> = match cfg.access {
            // The M_ASYNC benchmark reads the shared file as interleaved
            // records — the same disjoint pattern as M_RECORD, but with
            // no coordination or record bookkeeping at all (the mode
            // guarantees nothing, so the benchmark positions each read
            // itself). All other modes follow their pointer machinery.
            AccessPattern::ModeDriven if cfg.mode == IoMode::MAsync => {
                Some((k * nprocs as u64 + mode_rank as u64) * sz as u64)
            }
            AccessPattern::ModeDriven => None,
            AccessPattern::Strided { stride } => {
                Some(base + (k * stride) % partition.saturating_sub(sz as u64 - 1).max(1))
            }
            AccessPattern::Random => {
                let slots = (partition / sz as u64).max(1);
                Some(base + rng.range_u64(0..slots) * sz as u64)
            }
            AccessPattern::Reread { .. } => Some(base + (k % rounds) * sz as u64),
        };
        let before = ctx.sim.now();
        ctx.in_io.set(ctx.in_io.get() + 1);
        let result = match planned {
            None => reader.read(sz).await,
            Some(off) => reader.read_at(off, sz).await,
        };
        ctx.in_io.set(ctx.in_io.get() - 1);
        let dt = ctx.sim.now().since(before);
        let data = match result {
            Ok(data) => data,
            Err(e) => {
                // Under an injected fault a read can fail even after the
                // client's retries (e.g. a dead member without parity
                // cover). A real program would see EIO; the run records
                // the error and keeps going — never panics.
                if ctx.cfg.faults.is_noop() {
                    panic!("read failed with no faults injected: {e}");
                }
                read_errors += 1;
                if !cfg.delay.is_zero() && k + 1 < total_reads {
                    ctx.sim.sleep(cfg.delay).await;
                }
                continue;
            }
        };
        reads += 1;
        bytes += data.len() as u64;
        total += dt;
        tmax = tmax.max(dt);
        tmin = tmin.min(dt);
        read_times.push(dt);

        if cfg.verify_data {
            // Offsets are knowable for every pattern except the
            // arrival-ordered shared-pointer modes.
            let expect = match (planned, cfg.mode) {
                (Some(off), _) => Some(off),
                (None, IoMode::MRecord) | (None, IoMode::MSync) => {
                    Some((k * nprocs as u64 + mode_rank as u64) * sz as u64)
                }
                (None, IoMode::MGlobal) => Some(k * sz as u64),
                // M_ASYNC is always planned; arrival-ordered shared-
                // pointer modes have unknowable offsets.
                (None, _) => None,
            };
            if let Some(off) = expect {
                if data[..] != pattern_slice(pattern_seed, off, sz as usize)[..] {
                    ctx.verify_failures.set(ctx.verify_failures.get() + 1);
                }
            }
        }

        if !cfg.delay.is_zero() && k + 1 < total_reads {
            ctx.sim.sleep(cfg.delay).await;
        }
    }

    let prefetch = reader.close().await;
    NodeResult {
        rank: ctx.rank,
        reads,
        read_errors,
        bytes,
        elapsed: ctx.sim.now().since(ctx.t0),
        read_time_total: total,
        read_time_max: tmax,
        read_time_min: if reads == 0 { SimDuration::ZERO } else { tmin },
        read_times,
        prefetch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StripeLayout;
    use paragon_machine::Calibration;

    /// A small instant-calibration config for fast logic tests.
    fn tiny(mode: IoMode) -> ExperimentConfig {
        ExperimentConfig {
            seed: 7,
            compute_nodes: 4,
            io_nodes: 2,
            calib: Calibration::instant(),
            mode,
            fast_path: true,
            stripe_unit: 16 * 1024,
            layout: StripeLayout::Across { factor: 2 },
            request_size: 16 * 1024,
            file_size: 1 << 20,
            delay: SimDuration::ZERO,
            prefetch: None,
            access: AccessPattern::ModeDriven,
            separate_files: false,
            verify_data: true,
            trace_cap: 0,
            faults: FaultSpec::default(),
            redundancy: paragon_pfs::Redundancy::None,
            metrics_cadence: None,
        }
    }

    #[test]
    fn m_record_run_reads_the_whole_file_correctly() {
        let r = run(&tiny(IoMode::MRecord));
        assert_eq!(r.total_bytes, 1 << 20);
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.per_node.len(), 4);
        for n in &r.per_node {
            assert_eq!(n.reads, 16);
        }
    }

    #[test]
    fn every_mode_runs_clean() {
        for mode in IoMode::all() {
            let r = run(&tiny(mode));
            assert_eq!(r.verify_failures, 0, "corruption under {mode}");
            assert!(r.total_bytes > 0);
        }
    }

    #[test]
    fn prefetch_run_is_correct_and_hits() {
        let cfg = tiny(IoMode::MRecord).with_prefetch();
        let r = run(&cfg);
        assert_eq!(r.verify_failures, 0);
        assert!(r.prefetch_enabled);
        assert!(
            r.prefetch.hits() > 0,
            "prefetch never hit: {:?}",
            r.prefetch
        );
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        let a = run(&tiny(IoMode::MRecord));
        let b = run(&tiny(IoMode::MRecord));
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.elapsed, b.elapsed);
        // A structurally different run must hash differently. (A seed
        // change alone does not perturb the instant calibration: every
        // service time is zero regardless of RNG draws.)
        let c = run(&{
            let mut c = tiny(IoMode::MRecord);
            c.request_size /= 2;
            c
        });
        assert_ne!(a.trace_hash, c.trace_hash);
    }

    #[test]
    fn separate_files_partition_cleanly() {
        let mut cfg = tiny(IoMode::MAsync);
        cfg.separate_files = true;
        cfg.file_size = 256 * 1024; // per node
        let r = run(&cfg);
        assert_eq!(r.total_bytes, 4 * 256 * 1024);
        assert_eq!(r.verify_failures, 0);
    }

    #[test]
    fn random_access_pattern_is_deterministic_and_correct() {
        let mut cfg = tiny(IoMode::MAsync);
        cfg.access = AccessPattern::Random;
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.verify_failures, 0);
        assert_eq!(a.trace_hash, b.trace_hash);
    }

    #[test]
    fn reread_multiplies_delivered_bytes() {
        let mut cfg = tiny(IoMode::MAsync);
        cfg.access = AccessPattern::Reread { passes: 3 };
        let r = run(&cfg);
        assert_eq!(r.total_bytes, 3 << 20);
        assert_eq!(r.verify_failures, 0);
    }

    #[test]
    fn dead_member_with_parity_and_mesh_drops_stays_correct() {
        // The acceptance scenario: one dead RAID member (parity covers
        // it) plus 1% mesh message drops. Every read must still return
        // pattern-correct data — reconstruction serves the dead member,
        // the retry policy rides out the drops — with zero panics.
        let mut cfg = tiny(IoMode::MRecord);
        cfg.calib.raid_parity = true;
        cfg.faults.dead_member = Some((0, 0));
        cfg.faults.mesh_drop_pm = 10;
        cfg.trace_cap = 200_000;
        let r = run(&cfg);
        assert_eq!(r.verify_failures, 0, "corrupt data under faults");
        assert_eq!(r.read_errors, 0, "parity + retries must cover these faults");
        assert_eq!(r.total_bytes, 1 << 20);
        assert!(
            r.raid.reconstructed_reads > 0,
            "the dead member was never reconstructed: {:?}",
            r.raid
        );
        assert!(r.fault.disk_dead_hits > 0);
        assert!(r.fault.mesh_dropped > 0, "1% of many messages must drop");
        assert!(
            r.trace.iter().any(|e| matches!(
                e.kind,
                paragon_sim::EventKind::RaidReconstruct | paragon_sim::EventKind::MeshDrop
            )),
            "fault events must reach the flight recorder"
        );
    }

    #[test]
    fn same_seed_fault_runs_are_byte_identical() {
        let mut cfg = tiny(IoMode::MRecord);
        cfg.calib.raid_parity = true;
        cfg.faults.dead_member = Some((1, 0));
        cfg.faults.mesh_drop_pm = 10;
        cfg.faults.mesh_dup_pm = 10;
        cfg.faults.disk_error_pm = 20;
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(
            a.trace_hash, b.trace_hash,
            "fault runs must be deterministic"
        );
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.fault.mesh_dropped, b.fault.mesh_dropped);
        assert_eq!(a.fault.disk_transients, b.fault.disk_transients);
    }

    #[test]
    fn prefetch_degrades_but_completes_under_disk_errors() {
        let clean = run(&tiny(IoMode::MRecord).with_prefetch());
        let mut cfg = tiny(IoMode::MRecord).with_prefetch();
        cfg.faults.disk_error_pm = 100; // 10% of disk reads fail
        let faulty = run(&cfg);
        // The run completes and surviving reads are pattern-correct.
        assert_eq!(faulty.verify_failures, 0);
        assert!(faulty.prefetch.faults > 0, "no prefetch ever hit a fault");
        // A faulted prefetch wastes its buffer; the demand read that
        // retries and serves the bytes anyway is credited as a
        // *recovered* hit, so the hit ratio holds while the waste and
        // recovery counters record the damage.
        assert!(
            faulty.prefetch.recovered > 0,
            "no faulted prefetch recovered"
        );
        assert!(
            faulty.prefetch.wasted > clean.prefetch.wasted,
            "faults must waste prefetch buffers: clean {} vs faulty {}",
            clean.prefetch.wasted,
            faulty.prefetch.wasted
        );
        assert!(
            faulty.prefetch.hit_ratio() <= clean.prefetch.hit_ratio(),
            "recovered hits must not inflate the ratio past clean: clean {:.2} vs faulty {:.2}",
            clean.prefetch.hit_ratio(),
            faulty.prefetch.hit_ratio()
        );
    }

    #[test]
    fn ion_crash_window_recovers_via_retries() {
        // Crash one I/O node for a slice of the measured phase. The
        // instant calibration's 60 s attempt timeout outlasts the window,
        // so every read eventually lands: the first attempt's request or
        // reply is dropped, a retry after the window succeeds.
        let mut cfg = tiny(IoMode::MRecord);
        cfg.faults.ion_crash = Some((0, SimDuration::ZERO, SimDuration::from_secs(30)));
        cfg.trace_cap = 200_000;
        let r = run(&cfg);
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.read_errors, 0, "retries must ride out the window");
        assert_eq!(r.total_bytes, 1 << 20);
        assert!(
            r.fault.node_down_drops > 0,
            "the window never dropped anything"
        );
        assert!(
            r.trace
                .iter()
                .any(|e| e.kind == paragon_sim::EventKind::FaultNodeDown),
            "missing node-down marker"
        );
        assert!(
            r.trace
                .iter()
                .any(|e| e.kind == paragon_sim::EventKind::RpcRetry),
            "missing rpc-retry event"
        );
    }

    #[test]
    fn delays_extend_elapsed_time() {
        let mut cfg = tiny(IoMode::MRecord);
        cfg.delay = SimDuration::from_millis(10);
        let with_delay = run(&cfg);
        let without = run(&tiny(IoMode::MRecord));
        assert!(with_delay.elapsed > without.elapsed);
        // 16 reads → 15 delays of 10 ms each, minimum.
        assert!(with_delay.elapsed >= SimDuration::from_millis(150));
    }
}
