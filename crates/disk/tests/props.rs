//! Randomized tests: the block store and RAID layers preserve data
//! under arbitrary operation mixes, and the RAID stripe map is a
//! bijection. Cases come from the in-repo [`Rng`].

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;

use paragon_disk::{BlockStore, DiskParams, RaidArray, StripeMap, STORE_PAGE};
use paragon_sim::{Rng, Sim, SimDuration};

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
        assert!(store.resident_pages() <= PAGES);
    }
}

/// A sequential write script, then a read-back, equals a flat model
/// through a RAID array (which splits every request over members and
/// reassembles).
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
/// to disjoint member ranges, and invert through `to_logical`. The
/// production `runs` agrees with `split`: exactly one run per member the
/// extent touches, starting at that member's first piece and covering
/// all of its pieces.
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
        let runs: Vec<(usize, u64, u64)> = map.runs(offset, len).collect();
        let case = format!("{interleave}x{width} at {offset}+{len}");
        let mut touched: Vec<usize> = pieces.iter().map(|p| p.member).collect();
        touched.sort_unstable();
        touched.dedup();
        let run_members: Vec<usize> = runs.iter().map(|r| r.0).collect();
        assert_eq!(run_members, touched, "{case}: one run per touched member");
        for &(member, start, run_len) in &runs {
            let mine = pieces.iter().filter(|p| p.member == member);
            let first = mine.clone().map(|p| p.offset).min();
            assert_eq!(Some(start), first, "{case}: member {member}'s run start");
            // The pieces are disjoint, so the run holds them all exactly
            // when each ends inside it and their lengths sum to its own.
            let end = start + run_len;
            assert!(mine.clone().all(|p| p.offset + p.len <= end), "{case}");
            let covered: u64 = mine.map(|p| p.len).sum();
            assert_eq!(run_len, covered, "{case}: member {member}'s run length");
        }
    }
}

/// One request of an elevator script: when it reaches the disk, where,
/// and how many bytes it moves.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimDuration,
    offset: u64,
    len: u32,
}

/// The member disks' media rate in [`elevator_matches_an_n_step_scan_model`].
const SCAN_BW: f64 = 1e6;

/// Reference N-step SCAN over a script sorted by arrival: when the
/// previous sweep drains (or the idle disk sees its next arrival), snapshot
/// every request that has arrived and serve the snapshot by (offset,
/// arrival); requests that arrive mid-sweep wait for the next snapshot.
/// Returns script indices in service order.
fn n_step_scan(script: &[Arrival]) -> Vec<usize> {
    let mut order = Vec::with_capacity(script.len());
    let mut now = SimDuration::ZERO;
    let mut admitted = 0;
    while let Some(first) = script.get(admitted) {
        now = now.max(first.at);
        let arrived = script[admitted..]
            .iter()
            .take_while(|a| a.at <= now)
            .count();
        let mut sweep: Vec<usize> = (admitted..admitted + arrived).collect();
        sweep.sort_by_key(|&i| (script[i].offset, i));
        for i in sweep {
            now += SimDuration::for_bytes(script[i].len as u64, SCAN_BW);
            order.push(i);
        }
        admitted += arrived;
    }
    order
}

/// Runs `script` (sorted by arrival) on one disk, a one-member array.
/// Requests that share an arrival time are issued by one task from one
/// wake, so all of them reach the disk before it next runs. Returns
/// script indices in service order.
fn serve(seed: u64, script: &[Arrival]) -> Vec<usize> {
    let sim = Sim::new(seed);
    let raid = RaidArray::new(&sim, DiskParams::ideal(SCAN_BW), 1, 1 << 30, "scan");
    let served = Rc::new(RefCell::new(Vec::new()));
    let mut first = 0;
    for burst in script.chunk_by(|a, b| a.at == b.at) {
        let at = burst[0].at;
        let burst: Vec<(usize, Arrival)> = (first..).zip(burst.iter().copied()).collect();
        first += burst.len();
        let (s, raid, served) = (sim.clone(), raid.clone(), served.clone());
        sim.spawn(async move {
            s.sleep(at).await;
            for (i, a) in burst {
                let (raid, served) = (raid.clone(), served.clone());
                s.spawn(async move {
                    raid.read(a.offset, a.len, 0).await.unwrap();
                    served.borrow_mut().push(i);
                });
            }
        });
    }
    sim.run();
    served.take()
}

/// One disk serves arrival scripts in the reference N-step SCAN order:
/// ties at one offset go by arrival, bursts of up to 8 simultaneous
/// requests (an 8-way collective on one I/O node) form one sweep, and
/// arrivals during a sweep wait for the next. Transfers are whole
/// milliseconds and each arrival instant has its own microsecond phase,
/// so no arrival coincides with a completion.
#[test]
fn elevator_matches_an_n_step_scan_model() {
    // Fixed first case: three scattered reads queue behind a 100 ms read
    // and form the next sweep, served in offset order.
    let fixed = [
        (1, 0, 100),
        (10_000, 900_000, 1),
        (10_000, 200_000, 1),
        (10_000, 500_000, 1),
    ]
    .map(|(us, offset, kb)| Arrival {
        at: SimDuration::from_micros(us),
        offset,
        len: kb * 1000,
    });
    assert_eq!(serve(0, &fixed), [0, 2, 3, 1]);
    assert_eq!(n_step_scan(&fixed), [0, 2, 3, 1]);

    let mut rng = Rng::seed_from_u64(0x5ca7);
    for trial in 0..200 {
        let mut script = Vec::new();
        let mut ms = 0u64;
        for instant in 0..rng.range_u64(1..12) {
            ms += rng.range_u64(0..6);
            let at = SimDuration::from_micros(ms * 1000 + instant + 1);
            for _ in 0..rng.range_usize(1..9) {
                script.push(Arrival {
                    at,
                    offset: rng.range_u64(0..5) * 64 * 1024,
                    len: rng.range_u64(1..5) as u32 * 1000,
                });
            }
        }
        assert_eq!(
            serve(trial, &script),
            n_step_scan(&script),
            "trial {trial}: {script:?}"
        );
    }
}
