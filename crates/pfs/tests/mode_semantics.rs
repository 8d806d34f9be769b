//! Executable semantics of the client pointer machinery: M_RECORD
//! partitioning as a property, asynchronous reads in every mode, seek
//! and rewind behaviour.

use std::rc::Rc;

use paragon_machine::{Machine, MachineConfig};
use paragon_pfs::{
    pattern_byte, pattern_slice, IoMode, OpenOptions, ParallelFs, PfsFileId, StripeAttrs,
};
use paragon_sim::{Rng, Sim};

fn mount(sim: &Sim, cn: usize, ion: usize) -> Rc<ParallelFs> {
    let machine = Rc::new(Machine::new(sim, MachineConfig::tiny_instant(cn, ion)));
    ParallelFs::new(machine)
}

async fn make_file(pfs: &ParallelFs, size: u64, seed: u64) -> PfsFileId {
    let id = pfs
        .create("/pfs/sem", StripeAttrs::across(2, 16 * 1024))
        .await
        .unwrap();
    pfs.populate_with(id, size, |i| pattern_byte(seed, i))
        .await
        .unwrap();
    id
}

/// M_RECORD's individual pointers partition the file: over any number
/// of rounds, the union of every rank's offsets tiles the prefix
/// exactly once.
#[test]
fn m_record_offsets_partition_the_file() {
    let mut rng = Rng::seed_from_u64(0x3ec0);
    for _ in 0..24 {
        let nprocs = rng.range_usize(1..7);
        let rounds = rng.range_u64(1..12);
        let len = rng.range_u64(1..100_000) as u32;
        let sim = Sim::new(1);
        let pfs = mount(&sim, nprocs, 2);
        let h = sim.spawn(async move {
            let id = pfs
                .create("/pfs/p", StripeAttrs::across(2, 4096))
                .await
                .unwrap();
            // Size the file so every offset is in range (content unused).
            pfs.populate_with(id, rounds * nprocs as u64 * len as u64, |_| 0)
                .await
                .unwrap();
            let mut offsets = Vec::new();
            for rank in 0..nprocs {
                let f = pfs
                    .open(rank, nprocs, id, IoMode::MRecord, OpenOptions::default())
                    .unwrap();
                for _ in 0..rounds {
                    offsets.push(f.advance_pointer(len).await);
                }
            }
            offsets
        });
        sim.run();
        let mut offsets = h.try_take().expect("completed");
        offsets.sort();
        let expect: Vec<u64> = (0..rounds * nprocs as u64)
            .map(|k| k * len as u64)
            .collect();
        assert_eq!(offsets, expect);
    }
}

#[test]
fn aread_works_in_every_mode() {
    // One node per mode issues an asynchronous read, computes, then joins.
    for mode in IoMode::all() {
        let sim = Sim::new(2);
        let pfs = mount(&sim, 1, 2);
        let h = sim.spawn(async move {
            let id = make_file(&pfs, 256 * 1024, 4).await;
            let f = pfs.open(0, 1, id, mode, OpenOptions::default()).unwrap();
            let req = f.aread(32 * 1024).await;
            let data = req.join().await.unwrap();
            data == pattern_slice(4, 0, 32 * 1024)
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true), "aread failed under {mode}");
    }
}

#[test]
fn seek_repositions_m_async() {
    let sim = Sim::new(3);
    let pfs = mount(&sim, 1, 2);
    let h = sim.spawn(async move {
        let id = make_file(&pfs, 256 * 1024, 5).await;
        let f = pfs
            .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
            .unwrap();
        f.seek(100_000);
        assert_eq!(f.peek_pointer(1000), 100_000);
        let data = f.read(1000).await.unwrap();
        data == pattern_slice(5, 100_000, 1000)
    });
    sim.run();
    assert_eq!(h.try_take(), Some(true));
}

#[test]
fn rewind_restarts_the_stream() {
    let sim = Sim::new(4);
    let pfs = mount(&sim, 1, 2);
    let h = sim.spawn(async move {
        let id = make_file(&pfs, 256 * 1024, 6).await;
        let f = pfs
            .open(0, 1, id, IoMode::MRecord, OpenOptions::default())
            .unwrap();
        let a = f.read(16 * 1024).await.unwrap();
        let _b = f.read(16 * 1024).await.unwrap();
        f.rewind().await.unwrap();
        let again = f.read(16 * 1024).await.unwrap();
        a == again
    });
    sim.run();
    assert_eq!(h.try_take(), Some(true));
}

#[test]
fn shared_pointer_rewind_resets_for_everyone() {
    let sim = Sim::new(5);
    let pfs = mount(&sim, 2, 2);
    let h = sim.spawn(async move {
        let id = make_file(&pfs, 256 * 1024, 7).await;
        let f0 = pfs
            .open(0, 2, id, IoMode::MLog, OpenOptions::default())
            .unwrap();
        let f1 = pfs
            .open(1, 2, id, IoMode::MLog, OpenOptions::default())
            .unwrap();
        let a = f0.read(16 * 1024).await.unwrap();
        let _ = f1.read(16 * 1024).await.unwrap();
        f0.rewind().await.unwrap();
        // After rewind the shared pointer is back at zero; the next read
        // (from either node) gets the first record again.
        let again = f1.read(16 * 1024).await.unwrap();
        a == again
    });
    sim.run();
    assert_eq!(h.try_take(), Some(true));
}

#[test]
#[should_panic(expected = "only meaningful for M_ASYNC")]
fn seek_rejects_other_modes() {
    let sim = Sim::new(6);
    let pfs = mount(&sim, 1, 2);
    let h = sim.spawn(async move {
        let id = make_file(&pfs, 64 * 1024, 8).await;
        let f = pfs
            .open(0, 1, id, IoMode::MRecord, OpenOptions::default())
            .unwrap();
        f.seek(0);
    });
    sim.run();
    drop(h);
}

#[test]
#[should_panic(expected = "advance_pointer on shared-pointer mode")]
fn advance_pointer_rejects_shared_modes() {
    let sim = Sim::new(7);
    let pfs = mount(&sim, 1, 2);
    let h = sim.spawn(async move {
        let id = make_file(&pfs, 64 * 1024, 9).await;
        let f = pfs
            .open(0, 1, id, IoMode::MUnix, OpenOptions::default())
            .unwrap();
        f.advance_pointer(1024).await;
    });
    sim.run();
    drop(h);
}
