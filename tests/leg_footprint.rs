//! What one transfer leaves behind on the host: the futures its legs
//! spawn, pinned on a small paper-calibrated mount, where every data leg
//! runs under the 10 s RPC attempt timeout.

use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use paragon::machine::{Calibration, Machine, MachineConfig};
use paragon::pfs::{pattern_byte, IoMode, OpenOptions, ParallelFs, PfsFile, StripeAttrs};
use paragon::prefetch::{PrefetchConfig, PrefetchingFile};
use paragon::sim::{Sim, SimDuration};

const KB: u32 = 1024;
const FILE: u64 = 4 << 20;

/// One compute node and two I/O nodes; the file is striped over both in
/// 64 KB units and populated.
fn mounted(sim: &Sim) -> (Rc<ParallelFs>, PfsFile) {
    let machine = Machine::new(
        sim,
        MachineConfig {
            compute_nodes: 1,
            io_nodes: 2,
            calib: Calibration::paragon_1995(),
        },
    );
    let pfs = ParallelFs::new(Rc::new(machine));
    let p = pfs.clone();
    let h = sim.spawn(async move {
        let id = p
            .create("/pfs/legs", StripeAttrs::across(2, 64 * KB as u64))
            .await
            .unwrap();
        p.populate_with(id, FILE, |i| pattern_byte(5, i))
            .await
            .unwrap();
        p.open(0, 1, id, IoMode::MAsync, OpenOptions::default())
            .unwrap()
    });
    sim.run();
    (pfs, h.try_take().expect("setup finished"))
}

/// The largest future each task label spawned while an asynchronous
/// read, prefetching reads and a record write ran, sampled every 50 µs
/// of simulated time.
fn largest_futures() -> BTreeMap<&'static str, usize> {
    let sim = Sim::new(9);
    let (_pfs, f) = mounted(&sim);
    let s = sim.clone();
    sim.spawn(async move {
        let pending = f.aread(64 * KB).await;
        pending.join().await.unwrap();
        let prefetching = PrefetchingFile::new(f.clone(), PrefetchConfig::paper_prototype());
        for _ in 0..3 {
            prefetching.read(64 * KB).await.unwrap();
            s.sleep(SimDuration::from_millis(25)).await;
        }
        f.write_at(0, Bytes::from(vec![1u8; 256 * KB as usize]))
            .await
            .unwrap();
    });
    let mut largest = BTreeMap::new();
    let mut horizon = sim.now();
    loop {
        horizon += SimDuration::from_micros(50);
        sim.run_until(horizon);
        for (label, size) in sim.pending_task_sizes() {
            let at = largest.entry(label).or_insert(0);
            *at = size.max(*at);
        }
        if sim.next_event_time().is_none() {
            return largest;
        }
    }
}

/// The per-leg futures, in bytes. A healthy leg stores only what it
/// awaits: the retry/backoff path, RAID reconstruction and parity
/// updates, the M_GLOBAL dedup read and the buffer-cache read are boxed
/// when they are needed instead.
#[test]
fn leg_futures_are_pinned_at_their_sizes() {
    let largest = largest_futures();
    let pinned = [
        ("art", 440),
        ("pfs-read-leg", 432),
        ("pfs-write-leg", 432),
        ("rpc-handler", 528),
        ("ufs-read-run", 200),
        ("ufs-write-run", 216),
        ("raid-read-run", 80),
    ];
    for (label, size) in pinned {
        assert_eq!(largest.get(label), Some(&size), "{label}: {largest:?}");
    }
}
