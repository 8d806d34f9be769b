//! Randomized tests for the UFS building blocks: the extent allocator
//! never double-allocates, the cache never exceeds capacity or loses
//! dirty data, and the file system round-trips arbitrary write/read
//! scripts byte-for-byte. Cases come from the in-repo [`Rng`].

use bytes::Bytes;

use paragon_disk::{DiskParams, RaidArray, SchedPolicy};
use paragon_sim::{Rng, Sim};
use paragon_ufs::{BlockCache, BlockKey, Extent, ExtentAllocator, InodeId, Ufs, UfsParams};

// ---------------------------------------------------------------- allocator

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc(u64),
    FreeNth(usize),
}

fn alloc_ops(rng: &mut Rng) -> Vec<AllocOp> {
    (0..rng.range_usize(1..80))
        .map(|_| {
            if rng.gen_bool(0.5) {
                AllocOp::Alloc(rng.range_u64(1..50))
            } else {
                AllocOp::FreeNth(rng.range_usize(0..64))
            }
        })
        .collect()
}

#[test]
fn allocator_never_overlaps_and_conserves() {
    let mut rng = Rng::seed_from_u64(0xa110);
    for _ in 0..256 {
        let ops = alloc_ops(&mut rng);
        let capacity = 500u64;
        let mut a = ExtentAllocator::new(capacity);
        let mut live: Vec<Extent> = Vec::new();
        for op in ops {
            match op {
                AllocOp::Alloc(n) => {
                    if let Ok(extents) = a.alloc(n) {
                        assert_eq!(extents.iter().map(|e| e.len).sum::<u64>(), n);
                        for e in &extents {
                            assert!(e.end() <= capacity);
                            for other in &live {
                                assert!(!e.overlaps(other), "{e} overlaps {other}");
                            }
                        }
                        live.extend(extents);
                    }
                }
                AllocOp::FreeNth(i) => {
                    if !live.is_empty() {
                        let e = live.swap_remove(i % live.len());
                        a.free(e);
                    }
                }
            }
            let live_blocks: u64 = live.iter().map(|e| e.len).sum();
            assert_eq!(a.free_blocks() + live_blocks, capacity);
        }
    }
}

// -------------------------------------------------------------------- cache

#[derive(Debug, Clone)]
enum CacheOp {
    Get(u64),
    InsertClean(u64),
    InsertDirty(u64),
    TakeDirty,
}

fn cache_ops(rng: &mut Rng) -> Vec<CacheOp> {
    (0..rng.range_usize(1..120))
        .map(|_| match rng.range_u64(0..4) {
            0 => CacheOp::Get(rng.range_u64(0..32)),
            1 => CacheOp::InsertClean(rng.range_u64(0..32)),
            2 => CacheOp::InsertDirty(rng.range_u64(0..32)),
            _ => CacheOp::TakeDirty,
        })
        .collect()
}

/// The cache never exceeds capacity, and every dirty block inserted
/// is eventually surfaced (via eviction or take_dirty) exactly once.
#[test]
fn cache_bounds_and_dirty_conservation() {
    let mut rng = Rng::seed_from_u64(0xcac4e);
    for _ in 0..256 {
        let ops = cache_ops(&mut rng);
        let cap = rng.range_usize(1..8);
        let mut c = BlockCache::new(cap);
        let mut dirty_in = 0u64;
        let mut dirty_out = 0u64;
        let key = |b: u64| BlockKey {
            inode: InodeId(0),
            block: b,
        };
        let mut dirty_now: std::collections::BTreeSet<u64> = Default::default();
        for op in ops {
            match op {
                CacheOp::Get(b) => {
                    c.get(key(b));
                }
                CacheOp::InsertClean(b) => {
                    if let Some(ev) = c.insert_clean(key(b), Bytes::from_static(b"x")) {
                        if ev.dirty {
                            dirty_out += 1;
                            dirty_now.remove(&ev.key.block);
                        }
                    }
                }
                CacheOp::InsertDirty(b) => {
                    if dirty_now.insert(b) {
                        dirty_in += 1;
                    }
                    if let Some(ev) = c.insert_dirty(key(b), Bytes::from_static(b"y")) {
                        if ev.dirty {
                            dirty_out += 1;
                            dirty_now.remove(&ev.key.block);
                        }
                    }
                }
                CacheOp::TakeDirty => {
                    let taken = c.take_dirty();
                    dirty_out += taken.len() as u64;
                    for (k, _) in taken {
                        dirty_now.remove(&k.block);
                    }
                }
            }
            assert!(c.len() <= cap);
        }
        dirty_out += c.take_dirty().len() as u64;
        assert_eq!(dirty_in, dirty_out, "dirty data lost or duplicated");
    }
}

// ------------------------------------------------------------------- the fs

#[derive(Debug, Clone)]
struct WriteOp {
    offset: u64,
    len: usize,
    fill: u8,
}

fn write_script(rng: &mut Rng) -> Vec<WriteOp> {
    (0..rng.range_usize(1..12))
        .map(|_| WriteOp {
            offset: rng.range_u64(0..200_000),
            len: rng.range_usize(1..40_000),
            fill: rng.next_u32() as u8,
        })
        .collect()
}

/// Arbitrary overlapping writes followed by reads reproduce exactly
/// what a flat in-memory model says, on both read paths.
#[test]
fn fs_matches_flat_model() {
    let mut rng = Rng::seed_from_u64(0xf5f5);
    for _ in 0..32 {
        let script = write_script(&mut rng);
        let sim = Sim::new(3);
        let raid = RaidArray::new(
            &sim,
            DiskParams::ideal(1e9),
            SchedPolicy::Fifo,
            3,
            8192,
            "p",
        );
        let mut params = UfsParams::paragon();
        params.block_size = 4096;
        params.cache_blocks = 4;
        let fs = Ufs::new(&sim, raid, params);
        let fs2 = fs.clone();
        let h = sim.spawn(async move {
            let id = fs2.create("f").await.unwrap();
            let mut model: Vec<u8> = Vec::new();
            for w in &script {
                let end = w.offset as usize + w.len;
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[w.offset as usize..end].fill(w.fill);
                fs2.write(id, w.offset, Bytes::from(vec![w.fill; w.len]))
                    .await
                    .unwrap();
            }
            let direct = fs2.read_direct(id, 0, model.len() as u32).await.unwrap();
            let cached = fs2.read_cached(id, 0, model.len() as u32).await.unwrap();
            (model, direct, cached)
        });
        sim.run();
        let (model, direct, cached) = h.try_take().expect("script completed");
        assert_eq!(&direct[..], &model[..], "fast path diverged");
        assert_eq!(&cached[..], &model[..], "buffered path diverged");
    }
}
