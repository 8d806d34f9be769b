//! Mode-semantic writes: the write mirror of the read pointer machinery.

use std::rc::Rc;

use bytes::Bytes;
use paragon_machine::{Machine, MachineConfig};
use paragon_pfs::{IoMode, OpenOptions, ParallelFs, StripeAttrs};
use paragon_sim::{Sim, SimDuration};

fn mount(sim: &Sim, cn: usize, ion: usize) -> Rc<ParallelFs> {
    let machine = Rc::new(Machine::new(sim, MachineConfig::tiny_instant(cn, ion)));
    ParallelFs::new(machine)
}

/// Each writer stamps its payload with its rank; read the file back and
/// return the rank stamp of every 8 KB record in file order.
async fn stamped_write_run(
    pfs: Rc<ParallelFs>,
    mode: IoMode,
    writers: usize,
    rounds: u64,
) -> Vec<u8> {
    const REC: usize = 8 * 1024;
    let id = pfs
        .create("/pfs/w", StripeAttrs::across(2, 4096))
        .await
        .unwrap();
    let sim = pfs.machine().sim().clone();
    let mut tasks = Vec::new();
    for rank in 0..writers {
        let f = pfs
            .open(rank, writers, id, mode, OpenOptions::default())
            .unwrap();
        let sim2 = sim.clone();
        tasks.push(sim.spawn(async move {
            for _ in 0..rounds {
                f.write(Bytes::from(vec![rank as u8 + 1; REC]))
                    .await
                    .unwrap();
                // Stagger so arrival orders vary across modes.
                sim2.sleep(SimDuration::from_micros(rank as u64 + 1)).await;
            }
        }));
    }
    for t in tasks {
        t.await;
    }
    // Read the whole file back (single reader, positioned).
    let reader = pfs
        .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
        .unwrap();
    let total = match mode {
        IoMode::MGlobal => rounds, // everyone wrote the same records
        _ => writers as u64 * rounds,
    };
    let mut stamps = Vec::new();
    for k in 0..total {
        let data = reader
            .transfer_read(k * REC as u64, REC as u32, reader.sim().mint_req())
            .await
            .unwrap();
        // A record must be entirely one writer's bytes (no tearing).
        assert!(
            data.iter().all(|&b| b == data[0]),
            "torn record {k} under {mode}"
        );
        assert!(data[0] >= 1 && data[0] <= writers as u8, "hole at {k}");
        stamps.push(data[0] - 1);
    }
    stamps
}

fn run_mode(mode: IoMode, writers: usize, rounds: u64) -> Vec<u8> {
    let sim = Sim::new(17);
    let pfs = mount(&sim, writers, 2);
    let h = sim.spawn(stamped_write_run(pfs, mode, writers, rounds));
    sim.run();
    h.try_take().expect("finished")
}

#[test]
fn m_log_appends_each_record_exactly_once() {
    let stamps = run_mode(IoMode::MLog, 3, 4);
    // Arrival order is unspecified, but each writer's 4 records all land.
    let mut counts = [0u32; 3];
    for s in stamps {
        counts[s as usize] += 1;
    }
    assert_eq!(counts, [4, 4, 4]);
}

#[test]
fn m_unix_appends_atomically() {
    let stamps = run_mode(IoMode::MUnix, 3, 3);
    let mut counts = [0u32; 3];
    for s in stamps {
        counts[s as usize] += 1;
    }
    assert_eq!(counts, [3, 3, 3]);
}

#[test]
fn m_sync_writes_in_node_order_per_round() {
    let stamps = run_mode(IoMode::MSync, 4, 3);
    // Node order within every collective round.
    assert_eq!(stamps, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
}

#[test]
fn m_record_writes_interleave_by_rank() {
    let stamps = run_mode(IoMode::MRecord, 4, 3);
    assert_eq!(stamps, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
}

#[test]
fn m_global_writers_converge() {
    // All writers write identical rounds; the file holds `rounds` records
    // and each is intact (writers race but payloads per round are equal
    // in this test's usage contract — we only check integrity).
    let stamps = run_mode(IoMode::MGlobal, 3, 4);
    assert_eq!(stamps.len(), 4);
}

#[test]
fn write_returns_the_landing_offset() {
    let sim = Sim::new(18);
    let pfs = mount(&sim, 2, 2);
    let h = sim.spawn(async move {
        let id = pfs
            .create("/pfs/off", StripeAttrs::across(2, 4096))
            .await
            .unwrap();
        let f = pfs
            .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
            .unwrap();
        let a = f.write(Bytes::from(vec![1u8; 1000])).await.unwrap();
        let b = f.write(Bytes::from(vec![2u8; 500])).await.unwrap();
        (a, b)
    });
    sim.run();
    assert_eq!(h.try_take(), Some((0, 1000)));
}

/// Write `len` bytes at `offset` through a buffered (`fast_path: false`)
/// handle, read the range back through a Fast Path handle and through the
/// buffered one, and check both reads and every I/O node's UFS.
fn assert_buffered_write_reads_back(offset: u64, len: usize) {
    let sim = Sim::new(19);
    let pfs = mount(&sim, 1, 2);
    let pfs2 = pfs.clone();
    let data = Bytes::from((0..len).map(|i| (i % 251) as u8 + 1).collect::<Vec<u8>>());
    let written = data.clone();
    let h = sim.spawn(async move {
        let id = pfs2
            .create("/pfs/buffered", StripeAttrs::across(2, 64 * 1024))
            .await
            .unwrap();
        let buffered = OpenOptions { fast_path: false };
        let writer = pfs2.open(0, 1, id, IoMode::MAsync, buffered).unwrap();
        writer.write_at(offset, written).await.unwrap();
        let fast = pfs2
            .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
            .unwrap();
        let via_fast = fast
            .transfer_read(offset, len as u32, fast.sim().mint_req())
            .await
            .unwrap();
        let via_cache = writer
            .transfer_read(offset, len as u32, writer.sim().mint_req())
            .await
            .unwrap();
        (via_fast, via_cache)
    });
    sim.run();
    let (via_fast, via_cache) = h.try_take().expect("finished");
    assert_eq!(via_fast, data, "Fast Path read of {len} B at {offset}");
    assert_eq!(via_cache, data, "buffered read of {len} B at {offset}");
    for ion in 0..2 {
        assert_eq!(pfs.machine().ufs(ion).check(), Vec::<String>::new());
    }
}

#[test]
fn buffered_unaligned_write_reads_back_on_both_paths() {
    assert_buffered_write_reads_back(5000, 1000);
}

#[test]
fn buffered_whole_block_write_reads_back_on_both_paths() {
    assert_buffered_write_reads_back(64 * 1024, 64 * 1024);
}
