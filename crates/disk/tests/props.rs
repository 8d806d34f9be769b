//! Randomized tests: the block store and RAID layers preserve data
//! under arbitrary operation mixes, and the RAID stripe map is a
//! bijection. Cases come from the in-repo [`Rng`].

use bytes::Bytes;

use paragon_disk::{BlockStore, DiskParams, RaidArray, SchedPolicy, StripeMap, STORE_PAGE};
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

/// Bytes no two writes are likely to share: `tag` picks the write, `i`
/// the position in it.
fn payload(tag: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| ((i + tag).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
        .collect()
}

/// The store against a flat `Vec<u8>` model, under seeded whole-page,
/// partial, unaligned and multi-page writes and reads. Read views and
/// write payloads are held across later writes and must never change:
/// page adoption and the in-place merge keep the copy-on-write promise.
#[test]
fn store_matches_a_flat_model_and_never_changes_held_views() {
    const PAGE: usize = STORE_PAGE as usize;
    const PAGES: usize = 16;
    let mut rng = Rng::seed_from_u64(0x5701e);
    for _ in 0..8 {
        let mut store = BlockStore::new();
        let mut model = vec![0u8; PAGES * PAGE];
        // (view, the bytes it showed when taken)
        let mut held: Vec<(Bytes, Vec<u8>)> = Vec::new();
        let mut written = 0u64;
        for step in 0..160 {
            let copied = store.bytes_copied();
            let (offset, len) = match rng.range_usize(0..5) {
                // Whole pages, page-aligned.
                0 => (
                    rng.range_usize(0..PAGES - 3) * PAGE,
                    rng.range_usize(1..4) * PAGE,
                ),
                // Inside one page.
                1 => {
                    let at = rng.range_usize(0..PAGES * PAGE - 1);
                    (at, rng.range_usize(1..PAGE - at % PAGE + 1))
                }
                // Unaligned, possibly spanning pages.
                _ => (
                    rng.range_usize(0..(PAGES - 3) * PAGE),
                    rng.range_usize(1..3 * PAGE),
                ),
            };
            if rng.gen_bool(0.6) {
                // Write a slice of a larger buffer, so adopted pages view
                // an allocation at a nonzero start.
                let lead = rng.range_usize(0..3) * 4096;
                let data = Bytes::from(payload(rng.next_u64(), lead + len)).slice(lead..);
                store.write(offset as u64, &data);
                model[offset..offset + len].copy_from_slice(&data);
                written += len as u64;
                if offset % PAGE == 0 && len % PAGE == 0 {
                    assert_eq!(store.bytes_copied(), copied, "whole pages are adopted");
                }
                if rng.gen_bool(0.3) {
                    held.push((data.clone(), data.to_vec()));
                }
            } else {
                let view = store.read(offset as u64, len);
                assert_eq!(&view[..], &model[offset..offset + len], "step {step}");
                let gathered = store.bytes_copied() - copied;
                if offset % PAGE + len <= PAGE {
                    assert_eq!(gathered, 0, "a one-page read is a view");
                } else {
                    assert!(
                        gathered <= len as u64,
                        "a gather copies each byte at most once"
                    );
                }
                if rng.gen_bool(0.5) {
                    held.push((view.clone(), view.to_vec()));
                }
            }
            if held.len() > 24 {
                held.swap_remove(rng.range_usize(0..held.len()));
            }
            for (view, seen) in &held {
                assert_eq!(&view[..], &seen[..], "a held view changed at step {step}");
            }
        }
        assert_eq!(&store.read(0, model.len())[..], &model[..]);
        assert_eq!(store.bytes_written(), written);
        assert!(store.resident_pages() <= PAGES);
    }
}

/// A sequential write script, then a read-back, equals a flat model
/// through a RAID array (which splits every request over members and
/// reassembles) under both scheduling policies.
#[test]
fn raid_preserves_data() {
    let mut rng = Rng::seed_from_u64(0x4a1d);
    for _ in 0..48 {
        let script = ops(&mut rng);
        let width = rng.range_usize(1..6);
        let interleave = rng.range_u64(1..40_000);
        let parity = rng.gen_bool(0.5);
        let policy = if rng.gen_bool(0.5) {
            SchedPolicy::Elevator
        } else {
            SchedPolicy::Fifo
        };
        let sim = Sim::new(6);
        let raid = RaidArray::new_with_parity(
            &sim,
            DiskParams::ideal(1e9),
            policy,
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
            let back = r.read(0, model.len() as u32, 0).await.unwrap();
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
