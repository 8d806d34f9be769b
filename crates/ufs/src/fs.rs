//! The per-I/O-node file system.
//!
//! One `Ufs` instance sits on one I/O node's RAID array and provides the
//! two read paths the PFS server chooses between:
//!
//! * [`Ufs::read_direct`] — **Fast Path**: bypass the buffer cache, map the
//!   byte range to disk runs (coalescing file-contiguous blocks that are
//!   also disk-contiguous into single device requests), and move data
//!   disk → caller with no intermediate copy.
//! * [`Ufs::read_cached`] — buffered: per-block LRU cache lookups, misses
//!   filled from disk (with the same run coalescing), plus a charged
//!   memory-copy from cache to the caller's buffer.
//!
//! There is one write path, [`Ufs::write`]: the data goes to disk and the
//! cached copies of the blocks it overwrote are purged, so the cache only
//! ever holds clean blocks.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use paragon_disk::{DiskError, RaidArray};
use paragon_sim::{JoinHandle, ReqId, Sim, SimDuration, VecPool};

use crate::cache::{BlockCache, BlockKey};
use crate::inode::{DiskRun, Extent, InodeId, InodeTable};

/// Configuration of one UFS instance.
#[derive(Debug, Clone)]
pub struct UfsParams {
    /// File-system block size in bytes (the PFS unit of transfer).
    pub block_size: u64,
    /// Disk partition capacity in blocks.
    pub capacity_blocks: u64,
    /// Buffer cache capacity in blocks (0 = cache nothing).
    pub cache_blocks: usize,
    /// Server-side memory bandwidth for cache→buffer copies, bytes/sec.
    pub copy_bw: f64,
    /// Charged per metadata operation (create, allocation, lookup miss).
    pub metadata_op: SimDuration,
}

impl UfsParams {
    /// Paragon-flavoured defaults: 64 KB blocks, 512 MB partition, 64-block
    /// (4 MB) cache, ~60 MB/s server memcpy, 500 µs metadata ops.
    pub fn paragon() -> Self {
        UfsParams {
            block_size: 64 * 1024,
            capacity_blocks: 8192,
            cache_blocks: 64,
            copy_bw: 60e6,
            metadata_op: SimDuration::from_micros(500),
        }
    }
}

/// Out of disk space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSpace {
    /// Blocks requested.
    pub wanted: u64,
    /// Largest free run available.
    pub largest_free: u64,
}

/// UFS failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UfsError {
    /// No such file.
    NotFound,
    /// Read past end of file.
    Eof { size: u64, requested_end: u64 },
    /// Allocation failed.
    NoSpace(NoSpace),
    /// File already exists (create).
    Exists(InodeId),
    /// The device under the file system failed the request.
    Disk(DiskError),
    /// A file block inside the checked size had no disk mapping — the
    /// inode's block map is inconsistent.
    Unmapped { block: u64 },
}

impl std::fmt::Display for UfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UfsError::NotFound => write!(f, "file not found"),
            UfsError::Eof {
                size,
                requested_end,
            } => write!(f, "read past EOF (size {size}, wanted {requested_end})"),
            UfsError::NoSpace(n) => write!(
                f,
                "no space: wanted {} blocks, largest free run {}",
                n.wanted, n.largest_free
            ),
            UfsError::Exists(id) => write!(f, "file exists as inode {}", id.0),
            UfsError::Disk(e) => write!(f, "disk error: {e}"),
            UfsError::Unmapped { block } => write!(f, "file block {block} has no disk mapping"),
        }
    }
}

impl std::error::Error for UfsError {}

/// Cumulative UFS counters.
#[derive(Debug, Default, Clone)]
pub struct UfsStats {
    /// Fast-path reads served.
    pub direct_reads: u64,
    /// Cached reads served.
    pub cached_reads: u64,
    /// Device read requests actually issued (after coalescing).
    pub disk_requests: u64,
    /// Blocks whose device read was merged into a preceding request.
    pub blocks_coalesced: u64,
    /// Bytes returned to callers.
    pub bytes_read: u64,
    /// Bytes written through.
    pub bytes_written: u64,
}

struct Inner {
    inodes: InodeTable,
    /// The next unallocated block: files only grow, so blocks
    /// `[next, capacity_blocks)` are the one free run.
    next: u64,
    cache: BlockCache,
    stats: UfsStats,
    /// Join-handle lists of the fast-path reads in flight: each run's
    /// offset in the caller's range, and its task.
    read_legs: VecPool<(usize, JoinHandle<Result<Bytes, DiskError>>)>,
    /// Join-handle lists of the writes in flight.
    write_legs: VecPool<JoinHandle<Result<(), DiskError>>>,
}

/// One I/O node's file system. Clone freely; clones share state.
#[derive(Clone)]
pub struct Ufs {
    sim: Sim,
    raid: RaidArray,
    params: Rc<UfsParams>,
    inner: Rc<RefCell<Inner>>,
}

impl Ufs {
    /// Mount a file system on `raid`.
    pub fn new(sim: &Sim, raid: RaidArray, params: UfsParams) -> Self {
        assert!(params.block_size > 0, "zero block size");
        assert!(params.capacity_blocks > 0, "zero-capacity disk");
        Ufs {
            sim: sim.clone(),
            raid,
            inner: Rc::new(RefCell::new(Inner {
                inodes: InodeTable::new(),
                next: 0,
                cache: BlockCache::new(params.cache_blocks),
                stats: UfsStats::default(),
                read_legs: VecPool::default(),
                write_legs: VecPool::default(),
            })),
            params: Rc::new(params),
        }
    }

    /// Create an empty file; charges one metadata operation.
    pub async fn create(&self, name: &str) -> Result<InodeId, UfsError> {
        self.sim.sleep(self.params.metadata_op).await;
        self.inner
            .borrow_mut()
            .inodes
            .create(name)
            .map_err(UfsError::Exists)
    }

    /// Find a file by name (no charge: the PFS server caches handles).
    pub fn lookup(&self, name: &str) -> Option<InodeId> {
        self.inner.borrow().inodes.lookup(name)
    }

    /// Current size of `id` in bytes.
    pub fn size(&self, id: InodeId) -> Result<u64, UfsError> {
        self.inner
            .borrow()
            .inodes
            .get(id)
            .map(|i| i.size)
            .ok_or(UfsError::NotFound)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> UfsStats {
        self.inner.borrow().stats.clone()
    }

    fn bs(&self) -> u64 {
        self.params.block_size
    }

    /// Ensure blocks covering `[0, end_byte)` are mapped, allocating the
    /// tail as one extent.
    fn ensure_mapped(&self, id: InodeId, end_byte: u64) -> Result<(), UfsError> {
        let bs = self.bs();
        let need_blocks = end_byte.div_ceil(bs);
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let inode = inner.inodes.get_mut(id).ok_or(UfsError::NotFound)?;
        let have = inode.mapped_blocks();
        if need_blocks > have {
            let n = need_blocks - have;
            let got = take_blocks(&mut inner.next, self.params.capacity_blocks, n)
                .map_err(UfsError::NoSpace)?;
            inode.push_extent(got);
        }
        Ok(())
    }

    /// Write at `offset`, growing the file as needed. The data goes to disk
    /// whatever the read path; cached copies of the overwritten blocks are
    /// purged.
    #[expect(
        clippy::manual_async_fn,
        reason = "an async fn stores each argument twice; the block owns them once"
    )]
    pub fn write(
        &self,
        id: InodeId,
        offset: u64,
        data: Bytes,
    ) -> impl Future<Output = Result<(), UfsError>> + '_ {
        async move {
            if data.is_empty() {
                return Ok(());
            }
            let end = offset + data.len() as u64;
            self.ensure_mapped(id, end)?;
            let bs = self.bs();
            let first_block = offset / bs;
            let last_block = (end - 1) / bs;
            // Issue per-run device writes concurrently. Partial first/last
            // blocks are handled by writing at the exact byte offset; the
            // sparse store underneath merges correctly.
            let mut legs = self.inner.borrow().write_legs.take();
            {
                let mut inner = self.inner.borrow_mut();
                let inner = &mut *inner;
                let inode = inner.inodes.get_mut(id).ok_or(UfsError::NotFound)?;
                inode.size = inode.size.max(end);
                inner.stats.bytes_written += data.len() as u64;
                let runs = inode
                    .map_blocks(first_block, last_block - first_block + 1)
                    .ok_or(UfsError::Unmapped { block: first_block })?;
                for run in runs {
                    let (piece, disk_off) = self.slice_for_run(&run, offset, &data);
                    let run = self.raid.write(disk_off, piece);
                    legs.push(self.sim.spawn_named("ufs-write-run", run));
                }
                inner.stats.disk_requests += legs.len() as u64;
            }
            for h in legs.drain(..) {
                h.await.map_err(UfsError::Disk)?;
            }
            self.inner.borrow().write_legs.give(legs);
            // Keep the cache coherent: drop the blocks we overwrote.
            let mut inner = self.inner.borrow_mut();
            for block in first_block..=last_block {
                inner.cache.purge_block(BlockKey { inode: id, block });
            }
            Ok(())
        }
    }

    /// Byte slice of `data` covered by `run`, plus the device byte offset
    /// it lands at, clipped to the write range.
    fn slice_for_run(&self, run: &DiskRun, write_off: u64, data: &Bytes) -> (Bytes, u64) {
        let bs = self.bs();
        let run_start_byte = run.file_block * bs;
        let run_end_byte = (run.file_block + run.len) * bs;
        let write_end = write_off + data.len() as u64;
        let lo = run_start_byte.max(write_off);
        let hi = run_end_byte.min(write_end);
        let piece = data.slice((lo - write_off) as usize..(hi - write_off) as usize);
        let disk_off = run.disk_block * bs + (lo - run_start_byte);
        (piece, disk_off)
    }

    /// Fast-path read: no cache, disk runs coalesced, zero extra copies.
    /// `req` is the flight-recorder request context (`0` = none), threaded
    /// down to the per-spindle DiskStart/DiskDone events. Like POSIX
    /// `read(fd, buf, 0)`, a zero-length read returns empty and does
    /// nothing; so does one through [`Ufs::read_cached`].
    #[expect(
        clippy::manual_async_fn,
        reason = "an async fn stores each argument twice; the block owns them once"
    )]
    pub fn read_direct(
        &self,
        id: InodeId,
        offset: u64,
        len: u32,
        req: ReqId,
    ) -> impl Future<Output = Result<Bytes, UfsError>> + '_ {
        async move {
            if len == 0 {
                return Ok(Bytes::new());
            }
            self.check_bounds(id, offset, len)?;
            let bs = self.bs();
            let end = offset + len as u64;
            let first_block = offset / bs;
            let last_block = (end - 1) / bs;
            let mut legs = self.inner.borrow().read_legs.take();
            {
                let mut inner = self.inner.borrow_mut();
                let inner = &mut *inner;
                let inode = inner.inodes.get(id).ok_or(UfsError::NotFound)?;
                let runs = inode
                    .map_blocks(first_block, last_block - first_block + 1)
                    .ok_or(UfsError::Unmapped { block: first_block })?;
                for run in runs {
                    let run_start_byte = run.file_block * bs;
                    let run_end_byte = (run.file_block + run.len) * bs;
                    let lo = run_start_byte.max(offset);
                    let hi = run_end_byte.min(end);
                    let disk_off = run.disk_block * bs + (lo - run_start_byte);
                    let run = self.raid.read(disk_off, (hi - lo) as u32, req);
                    legs.push((
                        (lo - offset) as usize,
                        self.sim.spawn_named("ufs-read-run", run),
                    ));
                }
                let stats = &mut inner.stats;
                stats.direct_reads += 1;
                stats.bytes_read += len as u64;
                stats.disk_requests += legs.len() as u64;
                stats.blocks_coalesced += last_block - first_block + 1 - legs.len() as u64;
            }
            // Zero-copy fast path: a single device run covers the whole byte
            // range, so its reply *is* the result — no gather buffer. The run
            // still goes through the same spawned task as the general path so
            // event interleaving (and the trace hash) is unchanged.
            if matches!(legs.as_slice(), [(0, _)]) {
                if let Some((_, h)) = legs.pop() {
                    let data = h.await.map_err(UfsError::Disk)?;
                    debug_assert_eq!(data.len(), len as usize);
                    self.inner.borrow().read_legs.give(legs);
                    return Ok(data);
                }
            }
            let mut out = BytesMut::zeroed(len as usize);
            for (at, h) in legs.drain(..) {
                let data = h.await.map_err(UfsError::Disk)?;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "each run covers its own part of [offset, end), so at + data.len() <= len"
                )]
                out[at..at + data.len()].copy_from_slice(&data);
            }
            self.inner.borrow().read_legs.give(legs);
            Ok(out.freeze())
        }
    }

    /// Buffered read through the LRU cache under flight-recorder request
    /// context `req` (`0` = none); charges a cache→buffer copy.
    pub async fn read_cached(
        &self,
        id: InodeId,
        offset: u64,
        len: u32,
        req: ReqId,
    ) -> Result<Bytes, UfsError> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        let bs = self.bs();
        let end = offset + len as u64;
        self.check_bounds(id, offset, len)?;
        let first_block = offset / bs;
        let last_block = (end - 1) / bs;
        self.inner.borrow_mut().stats.cached_reads += 1;
        let key = |block| BlockKey { inode: id, block };

        // Look every block up first, then fill the misses in coalesced
        // device runs.
        let mut blocks: Vec<Option<Bytes>> = (first_block..=last_block)
            .map(|b| self.inner.borrow_mut().cache.get(key(b)))
            .collect();
        let missing: Vec<u64> = (first_block..)
            .zip(&blocks)
            .filter(|(_, data)| data.is_none())
            .map(|(b, _)| b)
            .collect();
        for missing_run in missing.chunk_by(|a, b| *b == a + 1) {
            let Some(&run_first) = missing_run.first() else {
                continue;
            };
            let run_len = missing_run.len() as u64;
            let runs: Vec<DiskRun> = {
                let inner = self.inner.borrow();
                let inode = inner.inodes.get(id).ok_or(UfsError::NotFound)?;
                let runs = inode
                    .map_blocks(run_first, run_len)
                    .ok_or(UfsError::Unmapped { block: run_first })?;
                runs.collect()
            };
            {
                let mut inner = self.inner.borrow_mut();
                inner.stats.disk_requests += runs.len() as u64;
                inner.stats.blocks_coalesced += run_len - runs.len() as u64;
            }
            for run in runs {
                let data = self
                    .raid
                    .read(run.disk_block * bs, (run.len * bs) as u32, req)
                    .await
                    .map_err(UfsError::Disk)?;
                for k in 0..run.len {
                    let b = run.file_block + k;
                    let block_data = data.slice((k * bs) as usize..((k + 1) * bs) as usize);
                    self.inner
                        .borrow_mut()
                        .cache
                        .insert(key(b), block_data.clone());
                    if let Some(slot) = blocks.get_mut((b - first_block) as usize) {
                        *slot = Some(block_data);
                    }
                }
            }
        }
        let blocks = (first_block..)
            .zip(blocks)
            .map(|(block, data)| data.ok_or(UfsError::Unmapped { block }))
            .collect::<Result<Vec<Bytes>, UfsError>>()?;

        // The buffered path pays a memory copy cache → caller.
        self.sim
            .sleep(SimDuration::for_bytes(len as u64, self.params.copy_bw))
            .await;
        self.inner.borrow_mut().stats.bytes_read += len as u64;
        // A range inside one block — the dominant shape, since the PFS
        // transfer unit equals the block size — is a view of that block;
        // only a range across blocks is gathered into a fresh buffer.
        if let [one] = blocks.as_slice() {
            let at = (offset - first_block * bs) as usize;
            return Ok(one.slice(at..at + len as usize));
        }
        let mut out = BytesMut::zeroed(len as usize);
        for (b, data) in (first_block..).zip(&blocks) {
            self.place_block(&mut out, b, data, offset, end);
        }
        Ok(out.freeze())
    }

    fn check_bounds(&self, id: InodeId, offset: u64, len: u32) -> Result<(), UfsError> {
        let size = self.size(id)?;
        let end = offset + len as u64;
        if end > size {
            return Err(UfsError::Eof {
                size,
                requested_end: end,
            });
        }
        Ok(())
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "lo..hi lies inside both this block and [offset, end)"
    )]
    fn place_block(&self, out: &mut BytesMut, block: u64, data: &Bytes, offset: u64, end: u64) {
        let bs = self.bs();
        let block_start = block * bs;
        let lo = block_start.max(offset);
        let hi = (block_start + bs).min(end);
        let src = &data[(lo - block_start) as usize..(hi - block_start) as usize];
        out[(lo - offset) as usize..(hi - offset) as usize].copy_from_slice(src);
    }

    /// File-system consistency check (an `fsck`): verifies that no two
    /// inodes share a disk block, that every mapped block is inside the
    /// partition, and that the free run's length matches the space
    /// the inodes do not use. Returns the list of violations (empty =
    /// consistent). Cheap enough to run after failure-injection tests.
    pub fn check(&self) -> Vec<String> {
        use std::collections::BTreeMap as Map;
        let inner = self.inner.borrow();
        let mut problems = Vec::new();
        let mut owner: Map<u64, InodeId> = Map::new();
        let mut mapped_total = 0u64;
        let capacity = self.params.capacity_blocks;
        for (id, inode) in inner.inodes.iter() {
            let bs = self.params.block_size;
            if inode.size > inode.mapped_blocks() * bs {
                problems.push(format!(
                    "inode {}: size {} exceeds mapped bytes {}",
                    id.0,
                    inode.size,
                    inode.mapped_blocks() * bs
                ));
            }
            for e in &inode.extents {
                if e.end() > capacity {
                    problems.push(format!("inode {}: extent {e} beyond partition", id.0));
                }
                for b in e.start..e.end() {
                    if let Some(prev) = owner.insert(b, id) {
                        if prev != id {
                            problems
                                .push(format!("block {b} owned by inodes {} and {}", prev.0, id.0));
                        }
                    }
                }
                mapped_total += e.len;
            }
        }
        let free = capacity.saturating_sub(inner.next);
        if free + mapped_total != capacity {
            problems.push(format!(
                "accounting: {free} free + {mapped_total} mapped != {capacity} capacity"
            ));
        }
        problems
    }
}

/// Take `n` blocks for a growing file. Files never shrink, so the free
/// space is one run, `[*next, capacity)`, and the blocks are its start:
/// the first fit.
fn take_blocks(next: &mut u64, capacity: u64, n: u64) -> Result<Extent, NoSpace> {
    let free = capacity - *next;
    if free < n {
        return Err(NoSpace {
            wanted: n,
            largest_free: free,
        });
    }
    let got = Extent {
        start: *next,
        len: n,
    };
    *next += n;
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_disk::DiskParams;

    fn test_fs(sim: &Sim) -> Ufs {
        let raid = RaidArray::new(sim, DiskParams::ideal(10e6), 3, 16 * 1024, "ufs-test");
        let mut p = UfsParams::paragon();
        p.block_size = 4096;
        p.cache_blocks = 8;
        p.metadata_op = SimDuration::ZERO;
        Ufs::new(sim, raid, p)
    }

    fn pattern(len: usize, salt: u8) -> Bytes {
        Bytes::from(
            (0..len)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
                .collect::<Vec<u8>>(),
        )
    }

    /// Successive allocations tile the partition in call order; one that
    /// does not fit fails naming the free run's length and moves nothing.
    #[test]
    fn blocks_tile_the_partition_in_call_order() {
        let capacity = 100;
        let (mut next, mut end) = (0, 0);
        for n in [30, 71, 1, 49, 21, 20, 1] {
            let free = capacity - next;
            match take_blocks(&mut next, capacity, n) {
                Ok(got) => {
                    assert!(n <= free, "{n} blocks from a run of {free}");
                    assert_eq!(got, Extent { start: end, len: n });
                    end += n;
                }
                Err(e) => {
                    assert!(n > free, "{n} blocks refused from a run of {free}");
                    let want = NoSpace {
                        wanted: n,
                        largest_free: free,
                    };
                    assert_eq!(e, want);
                }
            }
            assert_eq!(next, end);
        }
        assert_eq!(next, capacity);
    }

    #[test]
    fn write_then_direct_read_roundtrips() {
        let sim = Sim::new(1);
        let fs = test_fs(&sim);
        let f2 = fs.clone();
        let h = sim.spawn(async move {
            let id = f2.create("f").await.unwrap();
            let data = pattern(20_000, 3);
            f2.write(id, 0, data.clone()).await.unwrap();
            let back = f2.read_direct(id, 0, 20_000, 0).await.unwrap();
            back == data
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }

    #[test]
    fn unaligned_reads_slice_correctly() {
        let sim = Sim::new(1);
        let fs = test_fs(&sim);
        let f2 = fs.clone();
        let h = sim.spawn(async move {
            let id = f2.create("f").await.unwrap();
            let data = pattern(30_000, 9);
            f2.write(id, 0, data.clone()).await.unwrap();
            let back = f2.read_direct(id, 5_000, 9_000, 0).await.unwrap();
            back[..] == data[5_000..14_000]
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }

    #[test]
    fn cached_read_roundtrips_and_hits_on_reread() {
        let sim = Sim::new(1);
        let fs = test_fs(&sim);
        let f2 = fs.clone();
        let h = sim.spawn(async move {
            let id = f2.create("f").await.unwrap();
            let data = pattern(8192, 1);
            f2.write(id, 0, data.clone()).await.unwrap();
            let before = f2.stats().disk_requests;
            let a = f2.read_cached(id, 0, 8192, 0).await.unwrap();
            let after_miss = f2.stats().disk_requests;
            let b = f2.read_cached(id, 0, 8192, 0).await.unwrap();
            // Two reads of one block are views of the one cached copy.
            let x = f2.read_cached(id, 4096, 4096, 0).await.unwrap();
            let y = f2.read_cached(id, 4096, 4096, 0).await.unwrap();
            // The first read goes to disk; the re-reads hit the cache.
            (
                a == data && b == data && x[..] == data[4096..],
                after_miss > before,
                f2.stats().disk_requests == after_miss,
                x.as_ptr() == y.as_ptr(),
            )
        });
        sim.run();
        assert_eq!(h.try_take(), Some((true, true, true, true)));
    }

    #[test]
    fn read_past_eof_is_an_error() {
        let sim = Sim::new(1);
        let fs = test_fs(&sim);
        let f2 = fs.clone();
        let h = sim.spawn(async move {
            let id = f2.create("f").await.unwrap();
            f2.write(id, 0, pattern(100, 0)).await.unwrap();
            f2.read_direct(id, 50, 100, 0).await
        });
        sim.run();
        assert_eq!(
            h.try_take(),
            Some(Err(UfsError::Eof {
                size: 100,
                requested_end: 150
            }))
        );
    }

    #[test]
    fn contiguous_file_reads_are_coalesced() {
        let sim = Sim::new(1);
        let fs = test_fs(&sim);
        let f2 = fs.clone();
        sim.spawn(async move {
            let id = f2.create("f").await.unwrap();
            f2.write(id, 0, pattern(64 * 1024, 2)).await.unwrap();
            // 16 file blocks in one extent: a full-file direct read must be
            // a single device request.
            f2.read_direct(id, 0, 64 * 1024, 0).await.unwrap();
        });
        sim.run();
        let st = fs.stats();
        assert_eq!(st.direct_reads, 1);
        assert_eq!(st.blocks_coalesced, 15);
    }

    #[test]
    fn write_invalidates_stale_cache() {
        let sim = Sim::new(1);
        let fs = test_fs(&sim);
        let f2 = fs.clone();
        let h = sim.spawn(async move {
            let id = f2.create("f").await.unwrap();
            f2.write(id, 0, pattern(4096, 1)).await.unwrap();
            let _warm = f2.read_cached(id, 0, 4096, 0).await.unwrap();
            let fresh = pattern(4096, 99);
            f2.write(id, 0, fresh.clone()).await.unwrap();
            let back = f2.read_cached(id, 0, 4096, 0).await.unwrap();
            back == fresh
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }

    #[test]
    fn fsck_passes_on_a_busy_filesystem() {
        let sim = Sim::new(1);
        let fs = test_fs(&sim);
        let f2 = fs.clone();
        sim.spawn(async move {
            let a = f2.create("a").await.unwrap();
            f2.write(a, 0, pattern(40_000, 1)).await.unwrap();
            let b = f2.create("b").await.unwrap();
            f2.write(b, 10_000, pattern(30_000, 2)).await.unwrap();
            let c = f2.create("c").await.unwrap();
            f2.write(c, 0, pattern(50_000, 3)).await.unwrap();
        });
        sim.run();
        assert_eq!(fs.check(), Vec::<String>::new());
    }

    #[test]
    fn sparse_write_reads_zero_holes() {
        let sim = Sim::new(1);
        let fs = test_fs(&sim);
        let f2 = fs.clone();
        let h = sim.spawn(async move {
            let id = f2.create("f").await.unwrap();
            // Write at 16 KB, leaving a 16 KB hole at the front.
            f2.write(id, 16 * 1024, pattern(4096, 5)).await.unwrap();
            let hole = f2.read_direct(id, 0, 4096, 0).await.unwrap();
            hole.iter().all(|&b| b == 0)
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }
}
