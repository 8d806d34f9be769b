//! Randomized tests for the UFS building blocks: the cache is a bounded
//! LRU, and the file system round-trips arbitrary write/read scripts
//! byte-for-byte. Cases come from the in-repo [`Rng`].

use bytes::Bytes;

use paragon_disk::{DiskParams, RaidArray};
use paragon_sim::{Rng, Sim};
use paragon_ufs::{BlockCache, BlockKey, InodeId, Ufs, UfsParams};

// -------------------------------------------------------------------- cache

#[derive(Debug, Clone)]
enum CacheOp {
    Get(u64),
    Insert(u64),
}

fn cache_ops(rng: &mut Rng) -> Vec<CacheOp> {
    (0..rng.range_usize(1..120))
        .map(|_| {
            let block = rng.range_u64(0..32);
            if rng.gen_bool(0.5) {
                CacheOp::Get(block)
            } else {
                CacheOp::Insert(block)
            }
        })
        .collect()
}

/// The cache never exceeds capacity, and it holds exactly the blocks an
/// LRU list of that capacity holds (most recent last).
#[test]
fn cache_is_a_bounded_lru() {
    let mut rng = Rng::seed_from_u64(0xcac4e);
    for _ in 0..256 {
        let ops = cache_ops(&mut rng);
        let cap = rng.range_usize(1..8);
        let mut c = BlockCache::new(cap);
        let mut lru: Vec<u64> = Vec::new();
        let key = |b: u64| BlockKey {
            inode: InodeId(0),
            block: b,
        };
        for op in ops {
            match op {
                CacheOp::Get(b) => {
                    let hit = c.get(key(b));
                    let resident = lru.iter().position(|&k| k == b);
                    assert_eq!(hit.is_some(), resident.is_some(), "residency of {b}");
                    if let Some(i) = resident {
                        assert_eq!(hit, Some(Bytes::from(vec![b as u8])));
                        lru.remove(i);
                        lru.push(b);
                    }
                }
                CacheOp::Insert(b) => {
                    c.insert(key(b), Bytes::from(vec![b as u8]));
                    match lru.iter().position(|&k| k == b) {
                        Some(i) => {
                            lru.remove(i);
                        }
                        None if lru.len() == cap => {
                            lru.remove(0);
                        }
                        None => {}
                    }
                    lru.push(b);
                }
            }
            assert!(c.len() <= cap);
            assert_eq!(c.len(), lru.len());
        }
    }
}

// ------------------------------------------------------------------- the fs

#[derive(Debug, Clone)]
struct WriteOp {
    offset: u64,
    len: usize,
    fill: u8,
    /// Reads issued after this write, as raw draws; each is clamped into
    /// the file at run time (offset modulo the size, length at most the
    /// rest of the file). One draw in eight is zero-length.
    reads: Vec<(u64, u64)>,
}

fn write_script(rng: &mut Rng) -> Vec<WriteOp> {
    (0..rng.range_usize(1..12))
        .map(|_| WriteOp {
            offset: rng.range_u64(0..200_000),
            len: rng.range_usize(1..40_000),
            fill: rng.next_u32() as u8,
            reads: (0..rng.range_usize(0..4))
                .map(|_| {
                    let at = rng.next_u64();
                    let len = if rng.gen_bool(0.125) {
                        0
                    } else {
                        rng.range_u64(1..40_000)
                    };
                    (at, len)
                })
                .collect(),
        })
        .collect()
}

/// Arbitrary overlapping writes, each followed by reads at random offsets
/// and lengths, reproduce exactly what a flat in-memory model says, on
/// both read paths. The reads between writes leave the cache warm and
/// partly purged when the next write lands, and cross block boundaries.
#[test]
fn fs_matches_flat_model() {
    let mut rng = Rng::seed_from_u64(0xf5f5);
    for _ in 0..32 {
        let script = write_script(&mut rng);
        let sim = Sim::new(3);
        let raid = RaidArray::new(&sim, DiskParams::ideal(1e9), 3, 8192, "p");
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
                for &(at, len) in &w.reads {
                    let at = at % model.len() as u64;
                    let len = len % (model.len() as u64 - at + 1);
                    let want = &model[at as usize..(at + len) as usize];
                    let direct = fs2.read_direct(id, at, len as u32, 0).await.unwrap();
                    assert_eq!(&direct[..], want, "fast path diverged at {at}+{len}");
                    let cached = fs2.read_cached(id, at, len as u32, 0).await.unwrap();
                    assert_eq!(&cached[..], want, "buffered path diverged at {at}+{len}");
                }
            }
            let direct = fs2.read_direct(id, 0, model.len() as u32, 0).await.unwrap();
            let cached = fs2.read_cached(id, 0, model.len() as u32, 0).await.unwrap();
            (model, direct, cached)
        });
        sim.run();
        let (model, direct, cached) = h.try_take().expect("script completed");
        assert_eq!(&direct[..], &model[..], "fast path diverged");
        assert_eq!(&cached[..], &model[..], "buffered path diverged");
    }
}
