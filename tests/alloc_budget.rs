//! Host allocations per transfer, pinned exactly. The simulation is
//! deterministic, so a given binary makes the same allocations on every
//! host: a counting global allocator turns them into a gate as exact as
//! the work counters.
//!
//! Each kind of operation runs on a fresh mount 16 times and 48 times;
//! the difference, 32 operations' worth, is what the operations allocate
//! once the mount is warm. Setup (machine, mount, populate, payloads) is
//! not counted. The allocator counts per thread, so the test harness's
//! own threads do not leak into the figures.

use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use paragon::machine::{Calibration, Machine, MachineConfig};
use paragon::pfs::{
    pattern_byte, rebuild_after_crash, IoMode, OpenOptions, ParallelFs, PfsFile, Redundancy,
    StripeAttrs,
};
use paragon::prefetch::{PrefetchConfig, PrefetchingFile};
use paragon::sim::{Sim, SimDuration};

const KB: u32 = 1024;
const FILE: u64 = 16 << 20;

/// The system allocator, counting each allocation (a `realloc` is
/// counted as the allocation it falls back to) on the calling thread.
mod counting {
    #![expect(
        clippy::disallowed_types,
        reason = "the count is per host thread, so that the test harness's threads stay out of it; the simulation itself keeps no thread-local state"
    )]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Allocations and bytes requested on this thread so far.
        static COUNTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(crate) struct Counting;

    #[expect(
        unsafe_code,
        reason = "a global allocator is an unsafe trait; each method forwards its arguments unchanged to `System`"
    )]
    // SAFETY: every method forwards to `System`, which upholds the
    // `GlobalAlloc` contract; counting touches only a const-initialized
    // thread-local `Cell`, which never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // `try_with`: a thread being torn down has no counter left.
            let _ = COUNTED.try_with(|c| {
                let (n, bytes) = c.get();
                c.set((n + 1, bytes + layout.size() as u64));
            });
            // SAFETY: the caller's `layout` is passed on as given.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    /// Allocations and bytes this thread has requested so far.
    pub(crate) fn counted() -> (u64, u64) {
        COUNTED.with(Cell::get)
    }
}

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// A paper-calibrated machine of one compute node and `io_nodes` I/O
/// nodes, a file of `size` bytes striped over `factor` of them in 64 KB
/// units and populated, and rank 0's M_ASYNC handle on it.
fn mount(
    sim: &Sim,
    io_nodes: usize,
    factor: usize,
    size: u64,
    redundancy: Redundancy,
) -> (Rc<ParallelFs>, PfsFile) {
    let machine = Machine::new(
        sim,
        MachineConfig {
            compute_nodes: 1,
            io_nodes,
            calib: Calibration::paragon_1995(),
        },
    );
    let pfs = ParallelFs::new_with_redundancy(Rc::new(machine), redundancy);
    let p = pfs.clone();
    let h = sim.spawn(async move {
        let id = p
            .create("/pfs/budget", StripeAttrs::across(factor, 64 * KB as u64))
            .await
            .unwrap();
        p.populate_with(id, size, |i| pattern_byte(5, i))
            .await
            .unwrap();
        p.open(0, 1, id, IoMode::MAsync, OpenOptions::default())
            .unwrap()
    });
    sim.run();
    (pfs, h.try_take().expect("setup finished"))
}

/// The `leg_footprint` mount: 1 CN, 2 IONs, the file striped over both.
fn legs_mount(sim: &Sim) -> (Rc<ParallelFs>, PfsFile) {
    mount(sim, 2, 2, FILE, Redundancy::None)
}

/// Allocations and bytes of running the future `ops` builds for `n`
/// operations on a fresh world, to completion.
fn count<F, Fut>(n: u64, ops: &F) -> (u64, u64)
where
    F: Fn(&Sim, u64) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    let sim = Sim::new(9);
    let run = ops(&sim, n);
    let (n0, b0) = counting::counted();
    let done = sim.spawn(run);
    sim.run();
    let (n1, b1) = counting::counted();
    assert!(done.is_finished(), "{:?}", sim.pending_task_labels());
    sim.shutdown();
    (n1 - n0, b1 - b0)
}

/// What 32 warm operations allocate: `(allocations, bytes)`.
fn warm<F, Fut>(ops: F) -> (u64, u64)
where
    F: Fn(&Sim, u64) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    let (few_n, few_b) = count(16, &ops);
    let (many_n, many_b) = count(48, &ops);
    (many_n - few_n, many_b - few_b)
}

fn plain_read(sim: &Sim, n: u64) -> impl Future<Output = ()> + 'static {
    let (_pfs, f) = legs_mount(sim);
    async move {
        for _ in 0..n {
            f.read(64 * KB).await.unwrap();
        }
    }
}

fn prefetching_read(sim: &Sim, n: u64) -> impl Future<Output = ()> + 'static {
    let (_pfs, f) = legs_mount(sim);
    let s = sim.clone();
    let file = PrefetchingFile::new(f, PrefetchConfig::paper_prototype());
    async move {
        for _ in 0..n {
            file.read(64 * KB).await.unwrap();
            s.sleep(SimDuration::from_millis(25)).await;
        }
        file.close().await;
    }
}

fn aread(sim: &Sim, n: u64) -> impl Future<Output = ()> + 'static {
    let (_pfs, f) = legs_mount(sim);
    async move {
        for _ in 0..n {
            f.aread(64 * KB).await.join().await.unwrap();
        }
    }
}

fn record_write(sim: &Sim, n: u64) -> impl Future<Output = ()> + 'static {
    let (_pfs, f) = legs_mount(sim);
    let record = Bytes::from(vec![1u8; 256 * KB as usize]);
    async move {
        for k in 0..n {
            f.write_at(k * 256 * KB as u64, record.clone())
                .await
                .unwrap();
        }
    }
}

/// One 64 KB chunk of re-replication (a read RPC from the surviving copy
/// and a write RPC to the new one, under the rebuild's throttle). Needs a
/// third I/O node to copy to: the one slot has copies on two of three.
fn rebuild_step(sim: &Sim, n: u64) -> impl Future<Output = ()> + 'static {
    let (pfs, _f) = mount(
        sim,
        3,
        1,
        n * 64 * KB as u64,
        Redundancy::Replicated { rf: 2 },
    );
    async move {
        let stats = rebuild_after_crash(&pfs, 1).await.unwrap();
        assert_eq!(stats.bytes_copied, n * 64 * KB as u64);
    }
}

/// `(kind, allocations, bytes)` of 32 warm operations. Per operation:
/// a read, plain or not, allocates nothing; a prefetching read and an
/// `aread` allocate one ART request (144 B); a 256 KB `write_at`
/// allocates the client's two 128 KB slot gathers, each a `Vec` and its
/// 40 B `Bytes` header. A rebuild step grows its staging copy: the UFS
/// takes the chunk's blocks from its bump pointer, which allocates
/// nothing, and the block store's page map a B-tree node now and then.
const BUDGET: [(&str, u64, u64); 5] = [
    ("plain read", 0, 0),
    ("prefetching read", 32, 32 * 144),
    ("aread", 32, 32 * 144),
    ("write_at 256 KB", 32 * 4, 32 * (2 * 131_072 + 2 * 40)),
    ("rebuild step", 6, 1_936),
];

#[test]
fn each_operation_allocates_within_its_budget() {
    let measured = [
        warm(plain_read),
        warm(prefetching_read),
        warm(aread),
        warm(record_write),
        warm(rebuild_step),
    ];
    let mut off = Vec::new();
    for ((kind, allocs, bytes), got) in BUDGET.into_iter().zip(measured) {
        if got != (allocs, bytes) {
            off.push(format!(
                "{kind}: {} allocations and {} B in 32 operations, pinned at {allocs} and {bytes} B",
                got.0, got.1
            ));
        }
    }
    assert!(off.is_empty(), "{}", off.join("\n"));
}
