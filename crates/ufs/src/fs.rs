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
//! Writes are write-through (the pre-population path of every experiment);
//! `write_cached` exercises dirty-block bookkeeping for the cache tests.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use paragon_disk::{DiskError, RaidArray};
use paragon_sim::{ReqId, Sim, SimDuration};

use crate::alloc::{ExtentAllocator, NoSpace};
use crate::cache::{BlockCache, BlockKey};
use crate::inode::{DiskRun, InodeId, InodeTable};

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
    /// Dirty blocks written back on eviction or sync.
    pub writebacks: u64,
}

struct Inner {
    inodes: InodeTable,
    alloc: ExtentAllocator,
    cache: BlockCache,
    stats: UfsStats,
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
        Ufs {
            sim: sim.clone(),
            raid,
            inner: Rc::new(RefCell::new(Inner {
                inodes: InodeTable::new(),
                alloc: ExtentAllocator::new(params.capacity_blocks),
                cache: BlockCache::new(params.cache_blocks),
                stats: UfsStats::default(),
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
    /// tail as contiguously as the allocator allows.
    fn ensure_mapped(&self, id: InodeId, end_byte: u64) -> Result<(), UfsError> {
        let bs = self.bs();
        let need_blocks = end_byte.div_ceil(bs);
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let inode = inner.inodes.get_mut(id).ok_or(UfsError::NotFound)?;
        let have = inode.mapped_blocks();
        if need_blocks > have {
            let extents = inner
                .alloc
                .alloc(need_blocks - have)
                .map_err(UfsError::NoSpace)?;
            for e in extents {
                inode.push_extent(e);
            }
        }
        Ok(())
    }

    /// Write-through write at `offset`, growing the file as needed.
    pub async fn write(&self, id: InodeId, offset: u64, data: Bytes) -> Result<(), UfsError> {
        if data.is_empty() {
            return Ok(());
        }
        let end = offset + data.len() as u64;
        self.ensure_mapped(id, end)?;
        let bs = self.bs();
        let first_block = offset / bs;
        let last_block = (end - 1) / bs;
        let runs = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let inode = inner.inodes.get_mut(id).ok_or(UfsError::NotFound)?;
            inode.size = inode.size.max(end);
            inner.stats.bytes_written += data.len() as u64;
            inode
                .map_blocks(first_block, last_block - first_block + 1)
                .ok_or(UfsError::Unmapped { block: first_block })?
        };
        // Issue per-run device writes concurrently. Partial first/last
        // blocks are handled by writing at the exact byte offset; the
        // sparse store underneath merges correctly.
        let mut handles = Vec::with_capacity(runs.len());
        for run in &runs {
            let (piece, disk_off) = self.slice_for_run(run, offset, &data);
            let raid = self.raid.clone();
            handles.push(self.sim.spawn_named("ufs-write-run", async move {
                raid.write(disk_off, piece).await
            }));
        }
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.disk_requests += runs.len() as u64;
        }
        for h in handles {
            h.await.map_err(UfsError::Disk)?;
        }
        // Keep the cache coherent: refresh any resident blocks we overwrote.
        {
            let mut inner = self.inner.borrow_mut();
            for b in first_block..=last_block {
                let key = BlockKey {
                    inode: id,
                    block: b,
                };
                if inner.cache.peek(key).is_some() {
                    // Simplest coherent action: drop the stale block.
                    inner.cache.purge_block(key);
                }
            }
        }
        Ok(())
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
    pub async fn read_direct(&self, id: InodeId, offset: u64, len: u32) -> Result<Bytes, UfsError> {
        self.read_direct_req(id, offset, len, 0).await
    }

    /// [`Ufs::read_direct`] under flight-recorder request context `req`
    /// (threaded down to the per-spindle DiskStart/DiskDone events).
    pub async fn read_direct_req(
        &self,
        id: InodeId,
        offset: u64,
        len: u32,
        req: ReqId,
    ) -> Result<Bytes, UfsError> {
        let runs = self.plan_read(id, offset, len)?;
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.direct_reads += 1;
            inner.stats.bytes_read += len as u64;
            inner.stats.disk_requests += runs.len() as u64;
            let total_blocks: u64 = runs.iter().map(|r| r.len).sum();
            inner.stats.blocks_coalesced += total_blocks - runs.len() as u64;
        }
        let bs = self.bs();
        let end = offset + len as u64;
        let mut handles = Vec::with_capacity(runs.len());
        for run in &runs {
            let run_start_byte = run.file_block * bs;
            let run_end_byte = (run.file_block + run.len) * bs;
            let lo = run_start_byte.max(offset);
            let hi = run_end_byte.min(end);
            let disk_off = run.disk_block * bs + (lo - run_start_byte);
            let raid = self.raid.clone();
            let plen = (hi - lo) as u32;
            handles.push((
                (lo - offset) as usize,
                self.sim.spawn_named("ufs-read-run", async move {
                    raid.read_req(disk_off, plen, req).await
                }),
            ));
        }
        // Zero-copy fast path: a single device run covers the whole byte
        // range, so its reply *is* the result — no gather buffer. The run
        // still goes through the same spawned task as the general path so
        // event interleaving (and the trace hash) is unchanged.
        if matches!(handles.as_slice(), [(0, _)]) {
            if let Some((_, h)) = handles.pop() {
                let data = h.await.map_err(UfsError::Disk)?;
                debug_assert_eq!(data.len(), len as usize);
                return Ok(data);
            }
        }
        let mut out = BytesMut::zeroed(len as usize);
        for (at, h) in handles {
            let data = h.await.map_err(UfsError::Disk)?;
            #[expect(
                clippy::indexing_slicing,
                reason = "each run covers its own part of [offset, end), so at + data.len() <= len"
            )]
            out[at..at + data.len()].copy_from_slice(&data);
        }
        Ok(out.freeze())
    }

    /// Buffered read through the LRU cache; charges a cache→buffer copy.
    pub async fn read_cached(&self, id: InodeId, offset: u64, len: u32) -> Result<Bytes, UfsError> {
        self.read_cached_req(id, offset, len, 0).await
    }

    /// [`Ufs::read_cached`] under flight-recorder request context `req`.
    pub async fn read_cached_req(
        &self,
        id: InodeId,
        offset: u64,
        len: u32,
        req: ReqId,
    ) -> Result<Bytes, UfsError> {
        let bs = self.bs();
        let end = offset + len as u64;
        self.check_bounds(id, offset, len)?;
        let first_block = offset / bs;
        let last_block = (end - 1) / bs;
        self.inner.borrow_mut().stats.cached_reads += 1;

        // Single-block fast path — the dominant buffered shape, since the
        // PFS transfer unit equals the UFS block size: serve hit or miss
        // with a zero-copy slice of the cached block instead of gathering
        // through a fresh buffer. Device reads, cache accounting, and the
        // copy charge all happen exactly as on the general path below.
        if first_block == last_block {
            let key = BlockKey {
                inode: id,
                block: first_block,
            };
            let at = (offset - first_block * bs) as usize;
            let cached = self.inner.borrow_mut().cache.get(key);
            let block_data = match cached {
                Some(data) => data,
                None => {
                    let runs = {
                        let inner = self.inner.borrow();
                        let inode = inner.inodes.get(id).ok_or(UfsError::NotFound)?;
                        inode
                            .map_blocks(first_block, 1)
                            .ok_or(UfsError::Unmapped { block: first_block })?
                    };
                    {
                        let mut inner = self.inner.borrow_mut();
                        inner.stats.disk_requests += runs.len() as u64;
                        inner.stats.blocks_coalesced += 1 - runs.len() as u64;
                    }
                    let mut fetched = None;
                    for run in runs {
                        let data = self
                            .raid
                            .read_req(run.disk_block * bs, (run.len * bs) as u32, req)
                            .await
                            .map_err(UfsError::Disk)?;
                        let victim = self
                            .inner
                            .borrow_mut()
                            .cache
                            .insert_clean(key, data.clone());
                        fetched = Some(data);
                        if let Some(v) = victim {
                            if v.dirty {
                                self.write_back(v.key, v.data).await?;
                            }
                        }
                    }
                    fetched.ok_or(UfsError::Unmapped { block: first_block })?
                }
            };
            self.sim
                .sleep(SimDuration::for_bytes(len as u64, self.params.copy_bw))
                .await;
            self.inner.borrow_mut().stats.bytes_read += len as u64;
            return Ok(block_data.slice(at..at + len as usize));
        }

        let mut out = BytesMut::zeroed(len as usize);
        // Identify misses first (batch them into runs), then fill.
        let mut missing: Vec<u64> = Vec::new();
        for b in first_block..=last_block {
            let key = BlockKey {
                inode: id,
                block: b,
            };
            let cached = self.inner.borrow_mut().cache.get(key);
            match cached {
                Some(data) => self.place_block(&mut out, b, &data, offset, end),
                None => missing.push(b),
            }
        }
        // Coalesce missing blocks into device runs and fill the cache.
        for missing_run in missing.chunk_by(|a, b| *b == a + 1) {
            let Some(&run_first) = missing_run.first() else {
                continue;
            };
            let run_len = missing_run.len() as u64;
            let runs = {
                let inner = self.inner.borrow();
                let inode = inner.inodes.get(id).ok_or(UfsError::NotFound)?;
                inode
                    .map_blocks(run_first, run_len)
                    .ok_or(UfsError::Unmapped { block: run_first })?
            };
            {
                let mut inner = self.inner.borrow_mut();
                inner.stats.disk_requests += runs.len() as u64;
                inner.stats.blocks_coalesced += run_len - runs.len() as u64;
            }
            for run in runs {
                let data = self
                    .raid
                    .read_req(run.disk_block * bs, (run.len * bs) as u32, req)
                    .await
                    .map_err(UfsError::Disk)?;
                for k in 0..run.len {
                    let b = run.file_block + k;
                    let block_data = data.slice((k * bs) as usize..((k + 1) * bs) as usize);
                    self.place_block(&mut out, b, &block_data, offset, end);
                    let victim = self.inner.borrow_mut().cache.insert_clean(
                        BlockKey {
                            inode: id,
                            block: b,
                        },
                        block_data,
                    );
                    if let Some(v) = victim {
                        if v.dirty {
                            self.write_back(v.key, v.data).await?;
                        }
                    }
                }
            }
        }
        // The buffered path pays a memory copy cache → caller.
        self.sim
            .sleep(SimDuration::for_bytes(len as u64, self.params.copy_bw))
            .await;
        self.inner.borrow_mut().stats.bytes_read += len as u64;
        Ok(out.freeze())
    }

    /// Buffered write: dirty the cache only; data reaches disk when the
    /// block is evicted. Whole-block writes only (the PFS write path always
    /// writes block multiples when buffering is enabled).
    pub async fn write_cached(
        &self,
        id: InodeId,
        offset: u64,
        data: Bytes,
    ) -> Result<(), UfsError> {
        let bs = self.bs();
        assert!(
            offset.is_multiple_of(bs) && (data.len() as u64).is_multiple_of(bs),
            "write_cached requires block-aligned extents"
        );
        let end = offset + data.len() as u64;
        self.ensure_mapped(id, end)?;
        {
            let mut inner = self.inner.borrow_mut();
            let inode = inner.inodes.get_mut(id).ok_or(UfsError::NotFound)?;
            inode.size = inode.size.max(end);
            inner.stats.bytes_written += data.len() as u64;
        }
        let nblocks = data.len() as u64 / bs;
        for k in 0..nblocks {
            let b = offset / bs + k;
            let block_data = data.slice((k * bs) as usize..((k + 1) * bs) as usize);
            let victim = self.inner.borrow_mut().cache.insert_dirty(
                BlockKey {
                    inode: id,
                    block: b,
                },
                block_data,
            );
            if let Some(v) = victim {
                if v.dirty {
                    self.write_back(v.key, v.data).await?;
                }
            }
        }
        // Cache write costs one memcpy.
        self.sim
            .sleep(SimDuration::for_bytes(
                data.len() as u64,
                self.params.copy_bw,
            ))
            .await;
        Ok(())
    }

    async fn write_back(&self, key: BlockKey, data: Bytes) -> Result<(), UfsError> {
        let bs = self.bs();
        let disk_block = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.writebacks += 1;
            inner
                .inodes
                .get(key.inode)
                .and_then(|i| i.map_block(key.block))
        };
        if let Some(db) = disk_block {
            self.raid
                .write(db * bs, data)
                .await
                .map_err(UfsError::Disk)?;
        }
        // A block with no disk mapping has nowhere to go; drop the data.
        Ok(())
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

    fn plan_read(&self, id: InodeId, offset: u64, len: u32) -> Result<Vec<DiskRun>, UfsError> {
        assert!(len > 0, "zero-length read");
        self.check_bounds(id, offset, len)?;
        let bs = self.bs();
        let end = offset + len as u64;
        let first_block = offset / bs;
        let last_block = (end - 1) / bs;
        let inner = self.inner.borrow();
        let inode = inner.inodes.get(id).ok_or(UfsError::NotFound)?;
        inode
            .map_blocks(first_block, last_block - first_block + 1)
            .ok_or(UfsError::Unmapped { block: first_block })
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
    /// partition, and that the allocator's free count matches the space
    /// the inodes do not use. Returns the list of violations (empty =
    /// consistent). Cheap enough to run after failure-injection tests.
    pub fn check(&self) -> Vec<String> {
        use std::collections::BTreeMap as Map;
        let inner = self.inner.borrow();
        let mut problems = Vec::new();
        let mut owner: Map<u64, InodeId> = Map::new();
        let mut mapped_total = 0u64;
        // Walk all inodes via the name table is not possible (names can
        // alias); walk ids 0..next by probing.
        for id in 0..u64::MAX {
            let id = InodeId(id);
            match inner.inodes.get(id) {
                Some(inode) => {
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
                        if e.end() > inner.alloc.capacity() {
                            problems.push(format!("inode {}: extent {e} beyond partition", id.0));
                        }
                        for b in e.start..e.end() {
                            if let Some(prev) = owner.insert(b, id) {
                                if prev != id {
                                    problems.push(format!(
                                        "block {b} owned by inodes {} and {}",
                                        prev.0, id.0
                                    ));
                                }
                            }
                        }
                        mapped_total += e.len;
                    }
                }
                // Ids are allocated densely, so the first gap ends the scan.
                None => break,
            }
        }
        let free = inner.alloc.free_blocks();
        if free + mapped_total != inner.alloc.capacity() {
            problems.push(format!(
                "accounting: {free} free + {mapped_total} mapped != {} capacity",
                inner.alloc.capacity()
            ));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_disk::{DiskParams, SchedPolicy};

    fn test_fs(sim: &Sim) -> Ufs {
        let raid = RaidArray::new(
            sim,
            DiskParams::ideal(10e6),
            SchedPolicy::Fifo,
            3,
            16 * 1024,
            "ufs-test",
        );
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

    #[test]
    fn write_then_direct_read_roundtrips() {
        let sim = Sim::new(1);
        let fs = test_fs(&sim);
        let f2 = fs.clone();
        let h = sim.spawn(async move {
            let id = f2.create("f").await.unwrap();
            let data = pattern(20_000, 3);
            f2.write(id, 0, data.clone()).await.unwrap();
            let back = f2.read_direct(id, 0, 20_000).await.unwrap();
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
            let back = f2.read_direct(id, 5_000, 9_000).await.unwrap();
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
            let a = f2.read_cached(id, 0, 8192).await.unwrap();
            let after_miss = f2.stats().disk_requests;
            let b = f2.read_cached(id, 0, 8192).await.unwrap();
            // The first read goes to disk; the re-read hits the cache.
            (
                a == data && b == data,
                after_miss > before,
                f2.stats().disk_requests == after_miss,
            )
        });
        sim.run();
        assert_eq!(h.try_take(), Some((true, true, true)));
    }

    #[test]
    fn read_past_eof_is_an_error() {
        let sim = Sim::new(1);
        let fs = test_fs(&sim);
        let f2 = fs.clone();
        let h = sim.spawn(async move {
            let id = f2.create("f").await.unwrap();
            f2.write(id, 0, pattern(100, 0)).await.unwrap();
            f2.read_direct(id, 50, 100).await
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
            f2.read_direct(id, 0, 64 * 1024).await.unwrap();
        });
        sim.run();
        let st = fs.stats();
        assert_eq!(st.direct_reads, 1);
        assert_eq!(st.blocks_coalesced, 15);
    }

    #[test]
    fn cached_write_reaches_disk_on_writeback() {
        let sim = Sim::new(1);
        let fs = test_fs(&sim);
        let f2 = fs.clone();
        let h = sim.spawn(async move {
            let id = f2.create("f").await.unwrap();
            let data = pattern(8192, 7);
            f2.write_cached(id, 0, data.clone()).await.unwrap();
            let dirty = f2.inner.borrow_mut().cache.take_dirty();
            for (key, data) in dirty {
                f2.write_back(key, data).await.unwrap();
            }
            // Fast path bypasses the cache, so this proves disk content.
            let back = f2.read_direct(id, 0, 8192).await.unwrap();
            back == data
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
        assert!(fs.stats().writebacks >= 2);
    }

    #[test]
    fn write_invalidates_stale_cache() {
        let sim = Sim::new(1);
        let fs = test_fs(&sim);
        let f2 = fs.clone();
        let h = sim.spawn(async move {
            let id = f2.create("f").await.unwrap();
            f2.write(id, 0, pattern(4096, 1)).await.unwrap();
            let _warm = f2.read_cached(id, 0, 4096).await.unwrap();
            let fresh = pattern(4096, 99);
            f2.write(id, 0, fresh.clone()).await.unwrap();
            let back = f2.read_cached(id, 0, 4096).await.unwrap();
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
            let hole = f2.read_direct(id, 0, 4096).await.unwrap();
            hole.iter().all(|&b| b == 0)
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }
}
