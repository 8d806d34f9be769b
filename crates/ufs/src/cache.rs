//! LRU read cache of file-system blocks.
//!
//! This is the cache that PFS *bypasses* when buffering is disabled (the
//! Fast Path). It holds only clean copies of disk blocks: writes go to
//! disk and purge the blocks they overwrite, so an evicted block is simply
//! dropped. It is a passive structure that never touches the disk itself.
//! Keys are `(inode, file block)`.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::inode::InodeId;

/// Key of one cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockKey {
    pub inode: InodeId,
    pub block: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    data: Bytes,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
}

/// Fixed-capacity LRU block cache.
#[derive(Debug)]
pub struct BlockCache {
    capacity: usize,
    clock: u64,
    map: BTreeMap<BlockKey, Entry>,
}

impl BlockCache {
    /// A cache holding at most `capacity` blocks. Zero capacity is legal
    /// and means "cache nothing" (every lookup misses, inserts are
    /// dropped) — used to model buffering-disabled ablations.
    pub fn new(capacity: usize) -> Self {
        BlockCache {
            capacity,
            clock: 0,
            map: BTreeMap::new(),
        }
    }

    /// Currently resident blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look a block up, refreshing its recency on hit.
    pub fn get(&mut self, key: BlockKey) -> Option<Bytes> {
        self.clock += 1;
        let clock = self.clock;
        let e = self.map.get_mut(&key)?;
        e.stamp = clock;
        Some(e.data.clone())
    }

    /// Insert or replace a block just read from disk, dropping the least
    /// recently used block if the cache is full.
    pub fn insert(&mut self, key: BlockKey, data: Bytes) {
        self.clock += 1;
        if self.capacity == 0 {
            return;
        }
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k);
            if let Some(victim) = victim {
                self.map.remove(&victim);
            }
        }
        self.map.insert(
            key,
            Entry {
                data,
                stamp: self.clock,
            },
        );
    }

    /// Drop one block if resident: the caller just overwrote it on disk.
    pub(crate) fn purge_block(&mut self, key: BlockKey) {
        self.map.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u64) -> BlockKey {
        BlockKey {
            inode: InodeId(1),
            block: b,
        }
    }

    fn block(fill: u8) -> Bytes {
        Bytes::from(vec![fill; 16])
    }

    #[test]
    fn get_misses_until_inserted() {
        let mut c = BlockCache::new(4);
        assert!(c.get(key(0)).is_none());
        c.insert(key(0), block(7));
        assert_eq!(c.get(key(0)).unwrap(), block(7));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = BlockCache::new(2);
        c.insert(key(0), block(0));
        c.insert(key(1), block(1));
        c.get(key(0)); // refresh 0; victim should be 1
        c.insert(key(2), block(2));
        assert!(c.get(key(1)).is_none());
        assert_eq!(c.get(key(0)).unwrap(), block(0));
        assert_eq!(c.get(key(2)).unwrap(), block(2));
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = BlockCache::new(3);
        for i in 0..10 {
            c.insert(key(i), block(i as u8));
            assert_eq!(c.len(), (i as usize + 1).min(3));
        }
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let mut c = BlockCache::new(1);
        c.insert(key(0), block(1));
        c.insert(key(0), block(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(key(0)).unwrap(), block(2));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = BlockCache::new(0);
        c.insert(key(0), block(1));
        assert!(c.get(key(0)).is_none());
        assert!(c.is_empty());
    }
}
