//! Randomized tests: the disk and RAID layers preserve data under
//! arbitrary operation mixes, and the RAID stripe map is a bijection.
//! Cases come from the in-repo [`Rng`].

use bytes::Bytes;

use paragon_disk::{Disk, DiskParams, RaidArray, SchedPolicy, StripeMap};
use paragon_sim::{Rng, Sim};

#[derive(Debug, Clone)]
struct Op {
    offset: u64,
    len: usize,
    fill: u8,
}

fn ops(rng: &mut Rng) -> Vec<Op> {
    (0..rng.range_usize(1..10))
        .map(|_| Op {
            offset: rng.range_u64(0..300_000),
            len: rng.range_usize(1..50_000),
            fill: rng.next_u32() as u8,
        })
        .collect()
}

/// Sequential write script then read-back equals a flat model, on a
/// raw disk under both scheduling policies.
#[test]
fn disk_preserves_data() {
    let mut rng = Rng::seed_from_u64(0xd15c);
    for _ in 0..48 {
        let script = ops(&mut rng);
        let elevator = rng.gen_bool(0.5);
        let sim = Sim::new(5);
        let policy = if elevator {
            SchedPolicy::Elevator
        } else {
            SchedPolicy::Fifo
        };
        let disk = Disk::new(&sim, DiskParams::scsi_1995(), policy, "prop");
        let d = disk.clone();
        let h = sim.spawn(async move {
            let mut model: Vec<u8> = Vec::new();
            for op in &script {
                let end = op.offset as usize + op.len;
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[op.offset as usize..end].fill(op.fill);
                d.write(op.offset, Bytes::from(vec![op.fill; op.len]))
                    .await
                    .unwrap();
            }
            let back = d.read(0, model.len() as u32).await.unwrap();
            back[..] == model[..]
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }
}

/// Same, through a RAID array (which splits every request over
/// members and reassembles).
#[test]
fn raid_preserves_data() {
    let mut rng = Rng::seed_from_u64(0x4a1d);
    for _ in 0..48 {
        let script = ops(&mut rng);
        let width = rng.range_usize(1..6);
        let interleave = rng.range_u64(1..40_000);
        let parity = rng.gen_bool(0.5);
        let sim = Sim::new(6);
        let raid = RaidArray::new_with_parity(
            &sim,
            DiskParams::ideal(1e9),
            SchedPolicy::Fifo,
            width,
            interleave,
            parity,
            "prop",
        );
        let r = raid.clone();
        let h = sim.spawn(async move {
            let mut model: Vec<u8> = Vec::new();
            for op in &script {
                let end = op.offset as usize + op.len;
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[op.offset as usize..end].fill(op.fill);
                r.write(op.offset, Bytes::from(vec![op.fill; op.len]))
                    .await
                    .unwrap();
            }
            let back = r.read(0, model.len() as u32).await.unwrap();
            back[..] == model[..]
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }
}

/// The stripe map is a bijection: split pieces tile the extent, map
/// to disjoint member ranges, and invert through `to_logical`.
#[test]
fn stripe_map_bijection() {
    let mut rng = Rng::seed_from_u64(0xb17e);
    for _ in 0..256 {
        let interleave = rng.range_u64(1..100_000);
        let width = rng.range_usize(1..9);
        let offset = rng.range_u64(0..1 << 30);
        let len = rng.range_u64(1..1 << 20);
        let map = StripeMap::new(interleave, width);
        let pieces = map.split(offset, len);
        let mut pos = 0u64;
        for p in &pieces {
            assert_eq!(p.logical_offset, pos);
            pos += p.len;
            assert!(p.member < width);
            // First and last byte of the piece invert correctly.
            assert_eq!(
                map.to_logical(p.member, p.offset),
                offset + p.logical_offset
            );
            assert_eq!(
                map.to_logical(p.member, p.offset + p.len - 1),
                offset + p.logical_offset + p.len - 1
            );
        }
        assert_eq!(pos, len);
    }
}
