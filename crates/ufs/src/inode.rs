//! Inode table: file identity, size, and the block map.
//!
//! Files are extent-mapped: the inode holds an ordered list of disk extents
//! whose total length covers the file, block-granular. `map_blocks` turns a
//! run of file blocks into as few disk runs as the layout allows — the
//! lookup that both the Fast Path and the buffer cache share.

use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a file within one UFS instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InodeId(pub u64);

/// A contiguous run of file-system blocks on the local disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Extent {
    /// First block number.
    pub start: u64,
    /// Length in blocks; never zero.
    pub len: u64,
}

impl Extent {
    /// One past the last block.
    pub(crate) fn end(&self) -> u64 {
        self.start + self.len
    }
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.start, self.end())
    }
}

/// A contiguous run of *disk* blocks backing a run of *file* blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DiskRun {
    /// First disk block.
    pub disk_block: u64,
    /// First file block this run backs.
    pub file_block: u64,
    /// Length in blocks.
    pub len: u64,
}

/// One file's metadata.
#[derive(Debug, Clone)]
pub(crate) struct Inode {
    /// File size in bytes (may end mid-block).
    pub size: u64,
    /// Disk extents, in file order.
    pub extents: Vec<Extent>,
}

impl Inode {
    /// Blocks currently mapped.
    pub(crate) fn mapped_blocks(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Append a disk extent to the end of the file's block map, merging
    /// with the previous extent when they are disk-adjacent.
    pub(crate) fn push_extent(&mut self, ext: Extent) {
        if let Some(last) = self.extents.last_mut() {
            if last.end() == ext.start {
                last.len += ext.len;
                return;
            }
        }
        self.extents.push(ext);
    }

    /// Map file blocks `[first, first+len)` to disk runs, in file order:
    /// one run per stretch of the range that is contiguous on disk (each
    /// extent's part of it, merged with its neighbour's when the two
    /// abut on disk). Returns `None` if any block is unmapped (callers
    /// check size first, so a `None` means the inode's block map is
    /// inconsistent with its size). A zero-length range maps to no runs.
    pub(crate) fn map_blocks(
        &self,
        first: u64,
        len: u64,
    ) -> Option<impl Iterator<Item = DiskRun> + '_> {
        let end = first.checked_add(len)?;
        if len > 0 && end > self.mapped_blocks() {
            return None;
        }
        let mut extents = self.extents.iter();
        // File block at which the next extent starts.
        let mut base = 0u64;
        let mut open: Option<DiskRun> = None;
        Some(std::iter::from_fn(move || {
            while base < end {
                let Some(e) = extents.next() else { break };
                let (lo, hi) = (base.max(first), (base + e.len).min(end));
                let at = base;
                base += e.len;
                if lo >= hi {
                    continue;
                }
                let run = DiskRun {
                    disk_block: e.start + (lo - at),
                    file_block: lo,
                    len: hi - lo,
                };
                match &mut open {
                    Some(o) if o.disk_block + o.len == run.disk_block => o.len += run.len,
                    _ => {
                        if let Some(done) = open.replace(run) {
                            return Some(done);
                        }
                    }
                }
            }
            open.take()
        }))
    }
}

/// The inode table of one UFS instance, with a flat name directory.
#[derive(Debug, Default)]
pub(crate) struct InodeTable {
    /// Indexed by id: ids are dense and never freed, so the length is
    /// the next id.
    inodes: Vec<Inode>,
    names: BTreeMap<String, InodeId>,
}

impl InodeTable {
    /// Empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Create a file. Fails (returns existing id) if the name exists.
    pub(crate) fn create(&mut self, name: &str) -> Result<InodeId, InodeId> {
        if let Some(&id) = self.names.get(name) {
            return Err(id);
        }
        let id = InodeId(self.inodes.len() as u64);
        self.inodes.push(Inode {
            size: 0,
            extents: Vec::new(),
        });
        self.names.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Look a file up by name.
    pub(crate) fn lookup(&self, name: &str) -> Option<InodeId> {
        self.names.get(name).copied()
    }

    /// Borrow an inode.
    pub(crate) fn get(&self, id: InodeId) -> Option<&Inode> {
        self.inodes.get(usize::try_from(id.0).ok()?)
    }

    /// Mutably borrow an inode.
    pub(crate) fn get_mut(&mut self, id: InodeId) -> Option<&mut Inode> {
        self.inodes.get_mut(usize::try_from(id.0).ok()?)
    }

    /// Every inode, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (InodeId, &Inode)> {
        (0..).map(InodeId).zip(&self.inodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inode_with(extents: &[(u64, u64)]) -> Inode {
        let mut ino = Inode {
            size: 0,
            extents: Vec::new(),
        };
        for &(start, len) in extents {
            ino.push_extent(Extent { start, len });
        }
        ino
    }

    #[test]
    fn push_extent_merges_adjacent() {
        let ino = inode_with(&[(10, 5), (15, 5), (40, 2)]);
        assert_eq!(ino.extents.len(), 2);
        assert_eq!(ino.extents[0], Extent { start: 10, len: 10 });
        assert_eq!(ino.mapped_blocks(), 12);
    }

    #[test]
    fn map_block_walks_extents() {
        let ino = inode_with(&[(100, 3), (50, 2)]);
        let block = |b| Some(ino.map_blocks(b, 1)?.next()?.disk_block);
        assert_eq!(block(0), Some(100));
        assert_eq!(block(2), Some(102));
        assert_eq!(block(3), Some(50));
        assert_eq!(block(4), Some(51));
        assert_eq!(block(5), None);
        // A zero-length range maps to nothing, anywhere in the file.
        assert_eq!(ino.map_blocks(2, 0).map(Iterator::count), Some(0));
    }

    #[test]
    fn map_blocks_coalesces_contiguous_disk_runs() {
        // File blocks 0..5 on disk 100..105 even though built as two extents.
        let ino = inode_with(&[(100, 3), (103, 2)]);
        let runs: Vec<_> = ino.map_blocks(0, 5).unwrap().collect();
        assert_eq!(
            runs,
            vec![DiskRun {
                disk_block: 100,
                file_block: 0,
                len: 5
            }]
        );
    }

    #[test]
    fn map_blocks_splits_at_discontinuity() {
        let ino = inode_with(&[(100, 2), (500, 2)]);
        let runs: Vec<_> = ino.map_blocks(1, 3).unwrap().collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].disk_block, 101);
        assert_eq!(runs[0].len, 1);
        assert_eq!(runs[1].disk_block, 500);
        assert_eq!(runs[1].file_block, 2);
        assert_eq!(runs[1].len, 2);
    }

    /// The extent walk equals a block-by-block reference: look every
    /// block up, and extend the last run while the next block follows it
    /// on disk.
    #[test]
    fn map_blocks_matches_a_per_block_model() {
        let mut rng = paragon_sim::Rng::seed_from_u64(0x3a9);
        for _ in 0..500 {
            let extents: Vec<Extent> = (0..rng.range_u64(1..6))
                .map(|_| Extent {
                    start: rng.range_u64(0..40),
                    len: rng.range_u64(1..5),
                })
                .collect();
            // Built directly, so disk-adjacent extents stay separate.
            let ino = Inode { size: 0, extents };
            let blocks: Vec<u64> = ino
                .extents
                .iter()
                .flat_map(|e| e.start..e.start + e.len)
                .collect();
            let first = rng.range_u64(0..blocks.len() as u64 + 2);
            let len = rng.range_u64(0..blocks.len() as u64 + 2);
            let want = (first..first + len)
                .map(|fb| blocks.get(fb as usize).map(|&db| (fb, db)))
                .collect::<Option<Vec<_>>>()
                .map(|pairs| {
                    let mut runs: Vec<DiskRun> = Vec::new();
                    for (fb, db) in pairs {
                        match runs.last_mut() {
                            Some(r) if r.disk_block + r.len == db => r.len += 1,
                            _ => runs.push(DiskRun {
                                disk_block: db,
                                file_block: fb,
                                len: 1,
                            }),
                        }
                    }
                    runs
                });
            let got = ino.map_blocks(first, len).map(Iterator::collect::<Vec<_>>);
            assert_eq!(got, want, "{:?} [{first}, +{len})", ino.extents);
        }
    }

    #[test]
    fn table_create_and_lookup() {
        let mut t = InodeTable::new();
        let a = t.create("/pfs/data").unwrap();
        assert_eq!(t.create("/pfs/data"), Err(a));
        assert_eq!(t.lookup("/pfs/data"), Some(a));
        let b = t.create("/pfs/other").unwrap();
        assert_ne!(a, b);
        assert_eq!(t.inodes.len(), 2);
    }
}
