//! The sharded parallel kernel.
//!
//! One simulation becomes `S` replicated worlds — each a full [`Sim`]
//! with identical construction — that own disjoint slices of the machine
//! (compute-node ranks, I/O nodes, the service node). Worlds advance in
//! *conservative lookahead epochs*: every epoch, each shard publishes its
//! earliest pending event, a leader computes
//! `epoch_end = global_min + lookahead`, and each shard then drains
//! exactly the events with `t < epoch_end`. Cross-shard interactions
//! (mesh sends whose destination lives elsewhere) leave their world as
//! [`OutFrame`]s and are injected into the destination world at the
//! epoch barrier, sorted by `(arrival, src_shard, seq)`.
//!
//! Why this is deterministic and byte-identical across worker counts:
//!
//! * The epoch schedule is a pure function of published minima, which are
//!   themselves pure functions of each world's (deterministic) state —
//!   no thread observes anything that depends on host scheduling.
//! * A frame produced in epoch `e` has
//!   `arrival = send_time + propagation ≥ global_min + lookahead =
//!   epoch_end` (the fabric's minimum cross-shard latency *is* the
//!   lookahead), so its destination — which only drained `t < epoch_end`
//!   — has never advanced past it: no arrival is ever stale.
//! * Frames are injected in a sorted total order and each injection
//!   spawns tasks through the destination kernel's `(time, seq)` queue,
//!   so same-instant arrivals tie-break identically every run.
//!
//! Host threads, host clocks and thread-shared state appear *only* in
//! this module; the root `clippy.toml` bans them everywhere else (rules
//! D2, C1, C2 in DESIGN.md section 8). They are sound here because the
//! worker count only maps worlds to host threads, worlds share no mutable
//! state outside the barrier-fenced inbox handoff, and frames are
//! injected in sorted `(arrival, src, seq)` order, so every interleaving
//! of the OS scheduler yields the same bytes.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the sanctioned parallel kernel; soundness argument in the module docs"
)]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use crate::executor::{RunReport, Sim};
use crate::time::SimTime;

/// A cross-shard interaction in flight between two worlds.
///
/// `payload` is fabric-defined (the mesh ships its typed message frame);
/// the destination world's registered injector downcasts it back.
pub struct OutFrame {
    /// Virtual instant the interaction lands in the destination world.
    pub arrival_ns: u64,
    /// Destination shard (owner of the destination node).
    pub dst_shard: u32,
    /// Shard that produced the frame.
    pub src_shard: u32,
    /// Which fabric injector consumes this frame (see
    /// [`ShardCtx::register_fabric`]).
    pub fabric: u32,
    /// Per-source monotone sequence number; with `src_shard` it makes the
    /// `(arrival, src, seq)` injection sort a total order.
    pub seq: u64,
    /// Fabric-defined content, downcast by the destination injector.
    pub payload: Box<dyn Any + Send>,
}

/// Callback wired by the driver to push an arriving cross-shard frame
/// into the local fabric.
type Injector = Box<dyn Fn(OutFrame)>;

/// Per-world view of the shard partition, installed on the [`Sim`] by
/// [`run_sharded`] before model construction. Fabrics consult it to
/// divert sends whose destination another shard owns.
pub struct ShardCtx {
    shard: u32,
    nshards: u32,
    lookahead_ns: u64,
    /// Raw node id → owning shard.
    owner: Arc<Vec<u32>>,
    outbox: RefCell<Vec<OutFrame>>,
    out_seq: Cell<u64>,
    injectors: RefCell<Vec<Injector>>,
}

impl ShardCtx {
    pub fn new(shard: u32, nshards: u32, lookahead_ns: u64, owner: Arc<Vec<u32>>) -> Rc<ShardCtx> {
        Rc::new(ShardCtx {
            shard,
            nshards,
            lookahead_ns,
            owner,
            outbox: RefCell::new(Vec::new()),
            out_seq: Cell::new(0),
            injectors: RefCell::new(Vec::new()),
        })
    }

    /// This world's shard index.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Total shard count.
    pub fn nshards(&self) -> u32 {
        self.nshards
    }

    /// The conservative lookahead window (minimum cross-shard latency).
    pub fn lookahead_ns(&self) -> u64 {
        self.lookahead_ns
    }

    /// Which shard owns raw node id `node`. Ids beyond the map (never
    /// produced by a well-formed partition) fall to shard 0.
    pub fn owner_of(&self, node: u16) -> u32 {
        self.owner.get(node as usize).copied().unwrap_or(0)
    }

    /// True when this world owns raw node id `node`.
    pub fn owns(&self, node: u16) -> bool {
        self.owner_of(node) == self.shard
    }

    /// Register the injector that consumes this fabric's frames in *this*
    /// world, returning the fabric id to stamp on exported frames.
    ///
    /// Ids are assigned in registration order, and every world constructs
    /// the same model in the same order, so fabric `n` means the same
    /// thing in every shard.
    pub fn register_fabric(&self, inject: impl Fn(OutFrame) + 'static) -> u32 {
        let mut injectors = self.injectors.borrow_mut();
        injectors.push(Box::new(inject));
        (injectors.len() - 1) as u32
    }

    /// Queue a frame for the destination shard; it is handed over at the
    /// next epoch barrier. `arrival` must be at least `lookahead_ns` in
    /// the destination's future — true by construction when the lookahead
    /// is the fabric's minimum cross-shard latency.
    pub fn export(
        &self,
        arrival: SimTime,
        dst_shard: u32,
        fabric: u32,
        payload: Box<dyn Any + Send>,
    ) {
        let seq = self.out_seq.get();
        self.out_seq.set(seq + 1);
        self.outbox.borrow_mut().push(OutFrame {
            arrival_ns: arrival.as_nanos(),
            dst_shard,
            src_shard: self.shard,
            fabric,
            seq,
            payload,
        });
    }

    fn take_outbox(&self) -> Vec<OutFrame> {
        std::mem::take(&mut *self.outbox.borrow_mut())
    }

    fn inject(&self, frame: OutFrame) {
        let injectors = self.injectors.borrow();
        match injectors.get(frame.fabric as usize) {
            Some(inject) => inject(frame),
            None => panic!(
                "shard {}: frame for unregistered fabric {}",
                self.shard, frame.fabric
            ),
        }
    }
}

/// How to cut one machine into epoch-synchronized worlds.
#[derive(Clone)]
pub struct ShardPlan {
    /// Number of worlds. `1` means the classic serial kernel: no shard
    /// context is installed and `run_sharded` degenerates to `Sim::run`.
    pub shards: usize,
    /// Host threads to spread the worlds over (`0` = one per host core,
    /// capped at `shards`). Cannot affect simulation bytes — it only
    /// changes which thread drives which world.
    pub workers: usize,
    /// Conservative lookahead: the minimum virtual latency of any
    /// cross-shard interaction. Must be positive when `shards > 1`.
    pub lookahead_ns: u64,
    /// Raw node id → owning shard.
    pub owner: Arc<Vec<u32>>,
    /// Seed for every world ([`Sim::new`]); worlds are replicas and must
    /// draw identical streams.
    pub seed: u64,
}

impl ShardPlan {
    /// A single-world plan — the serial kernel.
    pub fn serial(seed: u64) -> ShardPlan {
        ShardPlan {
            shards: 1,
            workers: 1,
            lookahead_ns: 0,
            owner: Arc::new(Vec::new()),
            seed,
        }
    }
}

/// Host-side (wall-clock) counters for one shard world, collected only
/// by [`run_sharded_profiled`]. Nothing here ever feeds back into the
/// simulation: bytes are identical with and without profiling. The
/// `_ns` fields are host time and vary run to run; `events_processed`,
/// `frames_*`, `epochs`, and `calendar_rebuilds` are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardKernelProfile {
    /// Shard index.
    pub shard: usize,
    /// Worker thread that drove this world (`shard % workers`).
    pub worker: usize,
    /// Barrier-synchronized epochs this world sat through.
    pub epochs: u64,
    /// Virtual events fired by this world's kernel.
    pub events_processed: u64,
    /// Cross-shard frames this world exported at epoch barriers.
    pub frames_out: u64,
    /// Cross-shard frames injected into this world.
    pub frames_in: u64,
    /// Host time spent draining this world's epochs.
    pub run_ns: u64,
    /// Calendar-queue resize churn (content-driven, deterministic).
    pub calendar_rebuilds: u64,
}

/// Host-side counters for one worker thread of the sharded run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerKernelProfile {
    /// Worker index.
    pub worker: usize,
    /// Host time parked at epoch barriers — the synchronization cost of
    /// the conservative-lookahead protocol on this thread.
    pub barrier_stall_ns: u64,
    /// Host time not parked: building worlds, draining epochs, moving
    /// frames.
    pub busy_ns: u64,
    /// Virtual events fired across this worker's owned worlds.
    pub events_processed: u64,
}

/// What the parallel kernel measured about itself during one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelProfile {
    /// Worlds in the partition.
    pub shards: usize,
    /// Host threads the worlds were spread over.
    pub workers: usize,
    /// End-to-end host time of the run (build through harvest).
    pub wall_ns: u64,
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ShardKernelProfile>,
    /// One entry per worker, in worker order.
    pub per_worker: Vec<WorkerKernelProfile>,
}

impl KernelProfile {
    /// Epochs driven to quiescence (identical across shards by
    /// construction; reported as the max for robustness).
    pub fn epochs(&self) -> u64 {
        self.per_shard.iter().map(|s| s.epochs).max().unwrap_or(0)
    }

    /// Virtual events fired across every world.
    pub fn total_events(&self) -> u64 {
        self.per_shard.iter().map(|s| s.events_processed).sum()
    }

    /// Cross-shard frames handed over at epoch barriers.
    pub fn cross_shard_frames(&self) -> u64 {
        self.per_shard.iter().map(|s| s.frames_out).sum()
    }

    /// Calendar-queue rebuilds summed over every world.
    pub fn calendar_rebuilds(&self) -> u64 {
        self.per_shard.iter().map(|s| s.calendar_rebuilds).sum()
    }

    /// Host time parked at barriers, summed over workers.
    pub fn barrier_stall_ns(&self) -> u64 {
        self.per_worker.iter().map(|w| w.barrier_stall_ns).sum()
    }

    /// Fraction of total worker host time spent parked at epoch
    /// barriers. `0.0` for a serial run (no barriers exist).
    pub fn barrier_stall_frac(&self) -> f64 {
        let stall: u64 = self.barrier_stall_ns();
        let busy: u64 = self.per_worker.iter().map(|w| w.busy_ns).sum();
        let denom = stall + busy;
        if denom == 0 {
            0.0
        } else {
            stall as f64 / denom as f64
        }
    }

    /// Virtual events fired per host second, machine-wide.
    pub fn events_per_host_second(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.total_events() as f64 * 1e9 / self.wall_ns as f64
        }
    }
}

/// Shared epoch state. One instance coordinates all worker threads.
struct EpochCore {
    barrier: Barrier,
    /// Per-shard earliest pending event (`u64::MAX` = quiescent).
    next_event: Vec<AtomicU64>,
    epoch_end: AtomicU64,
    done: AtomicBool,
    /// Per-shard frames awaiting injection at the next barrier.
    inboxes: Vec<Mutex<Vec<OutFrame>>>,
}

/// Merge per-shard run reports into one machine-level report: clock and
/// counters combine by max/sum, and the kernel trace hash folds the
/// per-shard hashes in shard order (order-sensitive, like the serial
/// fold — equal-seed equal-shape runs must still collide).
pub fn merge_reports(reports: &[RunReport]) -> RunReport {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in reports {
        for b in r.trace_hash.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    RunReport {
        end_time: reports
            .iter()
            .map(|r| r.end_time)
            .max()
            .unwrap_or(SimTime::ZERO),
        events_processed: reports.iter().map(|r| r.events_processed).sum(),
        unfinished_tasks: reports.iter().map(|r| r.unfinished_tasks).sum(),
        trace_hash: h,
    }
}

/// Build and drive `plan.shards` replicated worlds to quiescence.
///
/// `build(shard, sim)` constructs one world's model (the shard context is
/// already installed on `sim`) and returns whatever per-world state
/// `finish(shard, sim, state)` needs to harvest after the run. Returned
/// values come back in shard order.
///
/// One worker-owned shard world: its index, the simulation it runs, its
/// shard context, and the driver state handed back to `finish`.
type WorldSlot<W> = (usize, Sim, Rc<ShardCtx>, RefCell<Option<W>>);

/// With `shards == 1` no context is installed and the world runs on the
/// calling thread through the ordinary serial kernel — byte-identical to
/// code that never heard of sharding.
pub fn run_sharded<W, T, B, F>(plan: &ShardPlan, build: B, finish: F) -> Vec<T>
where
    T: Send,
    B: Fn(usize, &Sim) -> W + Sync,
    F: Fn(usize, &Sim, W) -> T + Sync,
{
    run_sharded_inner(plan, build, finish, false).0
}

/// [`run_sharded`] with kernel self-profiling: identical simulation
/// bytes, plus host-side counters (epochs, barrier stall, frame volume,
/// events/sec, calendar churn) harvested from every shard and worker.
///
/// Profiling reads the host clock — something the kernel otherwise never
/// does — which is why it is a separate entry point rather than a
/// [`ShardPlan`] knob: a plan describes the deterministic partition, and
/// no configuration of it may imply wall-clock reads. The counters are
/// write-only from the simulation's point of view, so `--workers` byte
/// identity holds under profiling too.
pub fn run_sharded_profiled<W, T, B, F>(
    plan: &ShardPlan,
    build: B,
    finish: F,
) -> (Vec<T>, KernelProfile)
where
    T: Send,
    B: Fn(usize, &Sim) -> W + Sync,
    F: Fn(usize, &Sim, W) -> T + Sync,
{
    let (out, prof) = run_sharded_inner(plan, build, finish, true);
    (out, prof.unwrap_or_default())
}

fn run_sharded_inner<W, T, B, F>(
    plan: &ShardPlan,
    build: B,
    finish: F,
    profile: bool,
) -> (Vec<T>, Option<KernelProfile>)
where
    T: Send,
    B: Fn(usize, &Sim) -> W + Sync,
    F: Fn(usize, &Sim, W) -> T + Sync,
{
    assert!(plan.shards >= 1, "a machine has at least one shard");
    // Host-clock reads are confined to these two closures and gated on
    // `profile`, so an unprofiled run performs none at all.
    let tick = |on: bool| on.then(std::time::Instant::now);
    let lap =
        |t: &Option<std::time::Instant>| t.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
    if plan.shards == 1 {
        let wall = tick(profile);
        let sim = Sim::new(plan.seed);
        let world = build(0, &sim);
        sim.run();
        let out = vec![finish(0, &sim, world)];
        let prof = profile.then(|| {
            let report = sim.report();
            let wall_ns = lap(&wall);
            KernelProfile {
                shards: 1,
                workers: 1,
                wall_ns,
                per_shard: vec![ShardKernelProfile {
                    shard: 0,
                    worker: 0,
                    epochs: 0,
                    events_processed: report.events_processed,
                    frames_out: 0,
                    frames_in: 0,
                    run_ns: wall_ns,
                    calendar_rebuilds: sim.calendar_rebuilds(),
                }],
                per_worker: vec![WorkerKernelProfile {
                    worker: 0,
                    barrier_stall_ns: 0,
                    busy_ns: wall_ns,
                    events_processed: report.events_processed,
                }],
            }
        });
        return (out, prof);
    }
    assert!(
        plan.lookahead_ns > 0,
        "conservative epochs need a positive lookahead"
    );

    let nshards = plan.shards;
    let workers = match plan.workers {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .min(nshards)
    .max(1);

    let core = EpochCore {
        barrier: Barrier::new(workers),
        next_event: (0..nshards).map(|_| AtomicU64::new(u64::MAX)).collect(),
        epoch_end: AtomicU64::new(0),
        done: AtomicBool::new(false),
        inboxes: (0..nshards).map(|_| Mutex::new(Vec::new())).collect(),
    };
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::new());
    let shard_profs: Mutex<Vec<ShardKernelProfile>> = Mutex::new(Vec::new());
    let worker_profs: Mutex<Vec<WorkerKernelProfile>> = Mutex::new(Vec::new());
    let wall = tick(profile);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let core = &core;
            let results = &results;
            let shard_profs = &shard_profs;
            let worker_profs = &worker_profs;
            let build = &build;
            let finish = &finish;
            let tick = &tick;
            let lap = &lap;
            scope.spawn(move || {
                let worker_t0 = tick(profile);
                // Shards round-robin over workers: thread `w` owns every
                // shard `k` with `k % workers == w`.
                let owned: Vec<usize> = (w..nshards).step_by(workers).collect();
                let worlds: Vec<WorldSlot<W>> = owned
                    .iter()
                    .map(|&k| {
                        let sim = Sim::new(plan.seed);
                        let ctx = ShardCtx::new(
                            k as u32,
                            nshards as u32,
                            plan.lookahead_ns,
                            plan.owner.clone(),
                        );
                        sim.set_shard_ctx(ctx.clone());
                        let world = build(k, &sim);
                        (k, sim, ctx, RefCell::new(Some(world)))
                    })
                    .collect();

                // Per-owned-world (frames_out, frames_in, run_ns)
                // accumulators, indexed like `worlds`; folded into the
                // shard profiles at harvest.
                let mut accs = vec![(0u64, 0u64, 0u64); worlds.len()];
                let mut stall_ns = 0u64;
                let mut epochs = 0u64;

                loop {
                    // Publish: earliest pending event per owned world
                    // (draining ready tasks first, so freshly injected
                    // arrivals have registered their sleeps).
                    for (k, sim, _, _) in &worlds {
                        let t = sim
                            .next_event_time()
                            .map(|t| t.as_nanos())
                            .unwrap_or(u64::MAX);
                        core.next_event[*k].store(t, Ordering::SeqCst);
                    }
                    // The barrier leader turns the minima into one epoch.
                    let t = tick(profile);
                    let leader = core.barrier.wait().is_leader();
                    stall_ns += lap(&t);
                    if leader {
                        let min = core
                            .next_event
                            .iter()
                            .map(|t| t.load(Ordering::SeqCst))
                            .min()
                            .unwrap_or(u64::MAX);
                        if min == u64::MAX {
                            core.done.store(true, Ordering::SeqCst);
                        } else {
                            core.epoch_end
                                .store(min.saturating_add(plan.lookahead_ns), Ordering::SeqCst);
                        }
                    }
                    let t = tick(profile);
                    core.barrier.wait();
                    stall_ns += lap(&t);
                    if core.done.load(Ordering::SeqCst) {
                        break;
                    }
                    epochs += 1;
                    // Drain the epoch; hand produced frames to their
                    // destination shards.
                    let end = SimTime::from_nanos(core.epoch_end.load(Ordering::SeqCst));
                    for (i, (_, sim, ctx, _)) in worlds.iter().enumerate() {
                        let t = tick(profile);
                        sim.run_until_exclusive(end);
                        accs[i].2 += lap(&t);
                        let frames = ctx.take_outbox();
                        accs[i].0 += frames.len() as u64;
                        for frame in frames {
                            let dst = frame.dst_shard as usize;
                            core.inboxes[dst]
                                .lock()
                                .expect("inbox lock poisoned")
                                .push(frame);
                        }
                    }
                    let t = tick(profile);
                    core.barrier.wait();
                    stall_ns += lap(&t);
                    // Inject arrivals in a sorted total order, then let
                    // the spawned delivery tasks register their sleeps.
                    for (i, (k, sim, ctx, _)) in worlds.iter().enumerate() {
                        let mut frames = std::mem::take(
                            &mut *core.inboxes[*k].lock().expect("inbox lock poisoned"),
                        );
                        frames.sort_by_key(|f| (f.arrival_ns, f.src_shard, f.seq));
                        accs[i].1 += frames.len() as u64;
                        for frame in frames {
                            ctx.inject(frame);
                        }
                        sim.flush_ready();
                    }
                }

                if profile {
                    let mut mine = Vec::with_capacity(worlds.len());
                    let mut events = 0u64;
                    for (i, (k, sim, _, _)) in worlds.iter().enumerate() {
                        let report = sim.report();
                        events += report.events_processed;
                        mine.push(ShardKernelProfile {
                            shard: *k,
                            worker: w,
                            epochs,
                            events_processed: report.events_processed,
                            frames_out: accs[i].0,
                            frames_in: accs[i].1,
                            run_ns: accs[i].2,
                            calendar_rebuilds: sim.calendar_rebuilds(),
                        });
                    }
                    shard_profs
                        .lock()
                        .expect("profile lock poisoned")
                        .extend(mine);
                    worker_profs
                        .lock()
                        .expect("profile lock poisoned")
                        .push(WorkerKernelProfile {
                            worker: w,
                            barrier_stall_ns: stall_ns,
                            busy_ns: lap(&worker_t0).saturating_sub(stall_ns),
                            events_processed: events,
                        });
                }

                let mut harvested: Vec<(usize, T)> = Vec::with_capacity(worlds.len());
                for (k, sim, _, world) in &worlds {
                    let world = world.borrow_mut().take().expect("world harvested once");
                    harvested.push((*k, finish(*k, sim, world)));
                }
                results
                    .lock()
                    .expect("results lock poisoned")
                    .extend(harvested);
            });
        }
    });

    let prof = profile.then(|| {
        let mut per_shard = shard_profs.into_inner().expect("profile lock poisoned");
        per_shard.sort_by_key(|p| p.shard);
        let mut per_worker = worker_profs.into_inner().expect("profile lock poisoned");
        per_worker.sort_by_key(|p| p.worker);
        KernelProfile {
            shards: nshards,
            workers,
            wall_ns: lap(&wall),
            per_shard,
            per_worker,
        }
    });
    let mut out = results.into_inner().expect("results lock poisoned");
    out.sort_by_key(|(k, _)| *k);
    (out.into_iter().map(|(_, t)| t).collect(), prof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    const LOOKAHEAD: u64 = 60_000; // 60 µs, paragon-ish

    /// One world's `(receive time, counter value)` log.
    type RingLog = Vec<(u64, u64)>;

    /// A toy fabric: worlds pass a counter around a ring. Shard `k`
    /// receives `v`, logs `(now, v)`, and forwards `v + 1` to shard
    /// `(k + 1) % S` with the minimum latency, until `v` reaches `limit`.
    /// Exercises multi-hop causality across many epochs.
    fn ring_run(shards: usize, workers: usize, limit: u64) -> Vec<(usize, RunReport, RingLog)> {
        let plan = ShardPlan {
            shards,
            workers,
            lookahead_ns: LOOKAHEAD,
            owner: Arc::new((0..shards as u32).collect()),
            seed: 7,
        };
        run_sharded(
            &plan,
            |k, sim| {
                let log: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
                if let Some(ctx) = sim.shard_ctx() {
                    let fabric = {
                        let sim = sim.clone();
                        let ctx2 = ctx.clone();
                        let log = log.clone();
                        ctx.register_fabric(move |frame: OutFrame| {
                            let v = *frame
                                .payload
                                .downcast::<u64>()
                                .expect("ring payload is u64");
                            let at = SimTime::from_nanos(frame.arrival_ns);
                            let s = sim.clone();
                            let ctx = ctx2.clone();
                            let log = log.clone();
                            sim.spawn_named("ring-deliver", async move {
                                s.sleep_until(at).await;
                                log.borrow_mut().push((s.now().as_nanos(), v));
                                if v < limit {
                                    let dst = (ctx.shard() + 1) % ctx.nshards();
                                    ctx.export(
                                        s.now() + SimDuration::from_nanos(LOOKAHEAD),
                                        dst,
                                        0,
                                        Box::new(v + 1),
                                    );
                                }
                            });
                        })
                    };
                    if k == 0 {
                        let s = sim.clone();
                        let ctx = ctx.clone();
                        sim.spawn_named("ring-kick", async move {
                            s.sleep(SimDuration::from_micros(5)).await;
                            ctx.export(
                                s.now() + SimDuration::from_nanos(LOOKAHEAD),
                                1 % ctx.nshards(),
                                fabric,
                                Box::new(0u64),
                            );
                        });
                    }
                }
                log
            },
            |k, sim, log| (k, sim.report(), log.borrow().clone()),
        )
    }

    #[test]
    fn ring_crosses_shards_at_the_fabric_latency() {
        let out = ring_run(2, 2, 5);
        let all: Vec<(u64, u64)> = out.iter().flat_map(|(_, _, log)| log.clone()).collect();
        // Six hops (v = 0..=5), each landing one lookahead after the
        // previous, starting from the 5 µs kick.
        assert_eq!(all.len(), 6);
        for (i, &(t, v)) in {
            let mut sorted = all.clone();
            sorted.sort();
            sorted
        }
        .iter()
        .enumerate()
        {
            assert_eq!(v, i as u64);
            assert_eq!(t, 5_000 + (i as u64 + 1) * LOOKAHEAD);
        }
    }

    #[test]
    fn worker_count_cannot_change_the_bytes() {
        // Same shard count, different host-thread counts: every world's
        // log and kernel report must match exactly.
        let one = ring_run(4, 1, 25);
        let four = ring_run(4, 4, 25);
        let host_cores = ring_run(4, 0, 25);
        assert_eq!(one, four);
        assert_eq!(one, host_cores);
    }

    #[test]
    fn single_shard_plan_is_the_serial_kernel() {
        // shards == 1 installs no context and runs inline; the report
        // must equal a hand-driven serial Sim of the same model.
        let plan = ShardPlan::serial(3);
        let sharded = run_sharded(
            &plan,
            |_, sim| {
                assert!(sim.shard_ctx().is_none(), "serial world got a shard ctx");
                let s = sim.clone();
                sim.spawn(async move {
                    s.sleep(SimDuration::from_micros(10)).await;
                    s.sleep(SimDuration::from_micros(10)).await;
                });
            },
            |_, sim, ()| sim.report(),
        );
        let serial = {
            let sim = Sim::new(3);
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(10)).await;
                s.sleep(SimDuration::from_micros(10)).await;
            });
            sim.run()
        };
        assert_eq!(sharded, vec![serial]);
    }

    #[test]
    fn merged_report_folds_shard_hashes_in_order() {
        let out = ring_run(2, 2, 3);
        let reports: Vec<RunReport> = out.iter().map(|(_, r, _)| r.clone()).collect();
        let merged = merge_reports(&reports);
        assert_eq!(
            merged.end_time,
            reports.iter().map(|r| r.end_time).max().unwrap()
        );
        assert_eq!(
            merged.events_processed,
            reports.iter().map(|r| r.events_processed).sum::<u64>()
        );
        // Order-sensitive: swapping shard hashes must change the fold.
        let mut swapped = reports.clone();
        swapped.swap(0, 1);
        assert_ne!(merged.trace_hash, merge_reports(&swapped).trace_hash);
    }

    #[test]
    fn quiescent_worlds_terminate_without_spinning() {
        // No cross-shard traffic at all: the first publish round sees
        // all-MAX and the run ends with empty logs.
        let plan = ShardPlan {
            shards: 3,
            workers: 2,
            lookahead_ns: LOOKAHEAD,
            owner: Arc::new(vec![0, 1, 2]),
            seed: 1,
        };
        let reports = run_sharded(&plan, |_, _| (), |_, sim, ()| sim.report());
        assert_eq!(reports.len(), 3);
        for r in reports {
            assert_eq!(r.events_processed, 0);
        }
    }
}
