//! Executable semantics of the client pointer machinery: M_RECORD
//! partitioning as a property, asynchronous and zero-length I/O, seek
//! and rewind behaviour, and the pinned event order of `aread` and the
//! mode-semantic `write` in every mode.

use std::rc::Rc;

use bytes::Bytes;
use paragon_machine::{Calibration, Machine, MachineConfig};
use paragon_pfs::{
    pattern_byte, pattern_slice, IoMode, OpenOptions, ParallelFs, PfsError, PfsFileId, StripeAttrs,
};
use paragon_sim::{Rng, Sim, SimDuration};

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
            // Zero-length I/O is POSIX `read(fd, buf, 0)`: empty, and the
            // pointer stays where it was for the read below.
            assert!(f.read(0).await.unwrap().is_empty());
            f.write_at(1000, Bytes::new()).await.unwrap();
            let req = f.aread(32 * 1024).await;
            let data = req.join().await.unwrap();
            data == pattern_slice(4, 0, 32 * 1024)
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true), "aread failed under {mode}");
    }
}

#[test]
fn extents_past_the_offset_space_are_typed_errors() {
    let sim = Sim::new(3);
    let pfs = mount(&sim, 1, 2);
    let h = sim.spawn(async move {
        let id = make_file(&pfs, 256 * 1024, 5).await;
        let f = pfs
            .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
            .unwrap();
        let (at, len) = (u64::MAX - 10, 32 * 1024);
        let overflow = |offset| PfsError::OffsetOverflow {
            offset,
            len: 32 * 1024,
        };
        let req = f.sim().mint_req();
        assert_eq!(
            f.transfer_read(at, len, req).await.unwrap_err(),
            overflow(at)
        );
        let data = pattern_slice(5, 0, len as usize);
        assert_eq!(
            f.write_at(at, data.clone()).await.unwrap_err(),
            overflow(at)
        );
        // Through the pointer: the read fails at `at`, and the pointer
        // it advanced saturates instead of wrapping to offset 0.
        f.seek(at);
        assert_eq!(f.read(len).await.unwrap_err(), overflow(at));
        assert_eq!(f.write(data).await.unwrap_err(), overflow(u64::MAX));
    });
    sim.run();
    h.try_take().expect("completed");
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

/// One access path of the pinned event-order runs.
#[derive(Clone, Copy, Debug)]
enum Access {
    Aread,
    Write,
}

/// Four nodes share one file on a 4×2 paper-calibrated mount; each does
/// three rounds of an asynchronous read (or a mode-semantic write), a
/// staggered compute delay and, for reads, the join. Returns the run's
/// trace hash.
fn access_trace_hash(mode: IoMode, access: Access) -> u64 {
    const NODES: usize = 4;
    const LEN: u32 = 16 * 1024;
    let sim = Sim::new(24);
    let machine = Machine::new(
        &sim,
        MachineConfig {
            compute_nodes: NODES,
            io_nodes: 2,
            calib: Calibration::paragon_1995(),
        },
    );
    let pfs = ParallelFs::new(Rc::new(machine));
    let s = sim.clone();
    let h = sim.spawn(async move {
        let id = pfs
            .create("/pfs/order", StripeAttrs::across(2, 16 * 1024))
            .await
            .unwrap();
        pfs.populate_with(id, 256 * 1024, |i| pattern_byte(11, i))
            .await
            .unwrap();
        let mut tasks = Vec::new();
        for rank in 0..NODES {
            let f = pfs
                .open(rank, NODES, id, mode, OpenOptions::default())
                .unwrap();
            let sim = s.clone();
            tasks.push(s.spawn(async move {
                for _ in 0..3 {
                    match access {
                        Access::Aread => {
                            let pending = f.aread(LEN).await;
                            sim.sleep(SimDuration::from_micros(500 * rank as u64 + 100))
                                .await;
                            pending.join().await.unwrap();
                        }
                        Access::Write => {
                            f.write(Bytes::from(vec![rank as u8; LEN as usize]))
                                .await
                                .unwrap();
                            sim.sleep(SimDuration::from_micros(500 * rank as u64 + 100))
                                .await;
                        }
                    }
                }
            }));
        }
        for t in tasks {
            t.await;
        }
    });
    let report = sim.run();
    assert_eq!(h.try_take(), Some(()), "{mode} {access:?} did not finish");
    report.trace_hash
}

/// No determinism golden drives `aread` or the mode-semantic `write`:
/// pin their event order (pointer step, transfer, token release) in all
/// six modes, so a refactor of the pointer step cannot reorder them.
/// Re-pinned once, when dropped sleeps began to cancel their timers and
/// the data legs' stale attempt timeouts left the stream.
#[test]
fn aread_and_write_event_order_is_pinned_in_every_mode() {
    let pins: [(IoMode, u64, u64); 6] = [
        (IoMode::MUnix, 0x013045902d4fe62e, 0xe5825339c4f303d3),
        (IoMode::MLog, 0x18d883b42d25bd44, 0x4854c28aa57587ab),
        (IoMode::MSync, 0x0b784d9ef9648ca2, 0x2d59c8bbb564d789),
        (IoMode::MRecord, 0x7cbcb7b0872daae5, 0x84ec05810aa94b02),
        // Every rank's local M_ASYNC pointer starts at 0, so its writes
        // land where M_GLOBAL's do, at the same times.
        (IoMode::MGlobal, 0xece8d7f6c4f559bb, 0xf16ffdee8cba7c3c),
        (IoMode::MAsync, 0xbdf859896e5edff6, 0xf16ffdee8cba7c3c),
    ];
    let got = pins.map(|(mode, _, _)| {
        (
            mode,
            access_trace_hash(mode, Access::Aread),
            access_trace_hash(mode, Access::Write),
        )
    });
    assert_eq!(got, pins, "(mode, aread hash, write hash)");
}
