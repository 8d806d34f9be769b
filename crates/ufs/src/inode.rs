//! Inode table: file identity, size, and the block map.
//!
//! Files are extent-mapped: the inode holds an ordered list of disk extents
//! whose total length covers the file, block-granular. `map_blocks` turns a
//! run of file blocks into as few disk runs as the layout allows — the
//! lookup that both the Fast Path and the buffer cache share.

use std::collections::BTreeMap;

use crate::alloc::Extent;

/// Identifier of a file within one UFS instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InodeId(pub u64);

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

    /// Disk block backing `file_block`, or `None` past the mapped range.
    pub(crate) fn map_block(&self, file_block: u64) -> Option<u64> {
        let mut base = 0u64;
        for e in &self.extents {
            if file_block < base + e.len {
                return Some(e.start + (file_block - base));
            }
            base += e.len;
        }
        None
    }

    /// Map file blocks `[first, first+len)` to disk runs, coalescing
    /// whenever consecutive file blocks are consecutive on disk. Returns
    /// `None` if any block is unmapped (callers check size first, so a
    /// `None` means the inode's block map is inconsistent with its size).
    pub(crate) fn map_blocks(&self, first: u64, len: u64) -> Option<Vec<DiskRun>> {
        assert!(len > 0);
        let mut runs: Vec<DiskRun> = Vec::new();
        for fb in first..first + len {
            let db = self.map_block(fb)?;
            match runs.last_mut() {
                Some(run) if run.disk_block + run.len == db => run.len += 1,
                _ => runs.push(DiskRun {
                    disk_block: db,
                    file_block: fb,
                    len: 1,
                }),
            }
        }
        Some(runs)
    }
}

/// The inode table of one UFS instance, with a flat name directory.
#[derive(Debug, Default)]
pub(crate) struct InodeTable {
    next: u64,
    inodes: BTreeMap<InodeId, Inode>,
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
        let id = InodeId(self.next);
        self.next += 1;
        self.inodes.insert(
            id,
            Inode {
                size: 0,
                extents: Vec::new(),
            },
        );
        self.names.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Look a file up by name.
    pub(crate) fn lookup(&self, name: &str) -> Option<InodeId> {
        self.names.get(name).copied()
    }

    /// Borrow an inode.
    pub(crate) fn get(&self, id: InodeId) -> Option<&Inode> {
        self.inodes.get(&id)
    }

    /// Mutably borrow an inode.
    pub(crate) fn get_mut(&mut self, id: InodeId) -> Option<&mut Inode> {
        self.inodes.get_mut(&id)
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
        assert_eq!(ino.map_block(0), Some(100));
        assert_eq!(ino.map_block(2), Some(102));
        assert_eq!(ino.map_block(3), Some(50));
        assert_eq!(ino.map_block(4), Some(51));
        assert_eq!(ino.map_block(5), None);
    }

    #[test]
    fn map_blocks_coalesces_contiguous_disk_runs() {
        // File blocks 0..5 on disk 100..105 even though built as two extents.
        let ino = inode_with(&[(100, 3), (103, 2)]);
        let runs = ino.map_blocks(0, 5).unwrap();
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
        let runs = ino.map_blocks(1, 3).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].disk_block, 101);
        assert_eq!(runs[0].len, 1);
        assert_eq!(runs[1].disk_block, 500);
        assert_eq!(runs[1].file_block, 2);
        assert_eq!(runs[1].len, 2);
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
