//! LRU buffer cache of file-system blocks.
//!
//! This is the cache that PFS *bypasses* when buffering is disabled (the
//! Fast Path). It is a passive structure: it never touches the disk itself;
//! `insert` reports the evicted victim so the file system can write dirty
//! data back before reuse. Keys are `(inode, file block)`.

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
    dirty: bool,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
}

/// A block evicted to make room; dirty victims must be written back.
#[derive(Debug, Clone)]
pub struct Evicted {
    pub key: BlockKey,
    pub data: Bytes,
    pub dirty: bool,
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
    /// and means "cache nothing" (every lookup misses, inserts evict
    /// immediately) — used to model buffering-disabled ablations.
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

    /// Peek without a recency update (used by tests and the dirty scan).
    pub(crate) fn peek(&self, key: BlockKey) -> Option<&Bytes> {
        self.map.get(&key).map(|e| &e.data)
    }

    /// Insert a clean block (e.g. just read from disk), evicting the LRU
    /// victim if full. Returns the victim so dirty data can be written back.
    pub fn insert_clean(&mut self, key: BlockKey, data: Bytes) -> Option<Evicted> {
        self.insert(key, data, false)
    }

    /// Insert or overwrite a block and mark it dirty (write path).
    pub fn insert_dirty(&mut self, key: BlockKey, data: Bytes) -> Option<Evicted> {
        self.insert(key, data, true)
    }

    fn insert(&mut self, key: BlockKey, data: Bytes, dirty: bool) -> Option<Evicted> {
        self.clock += 1;
        if self.capacity == 0 {
            // Degenerate cache: the inserted block itself is the victim.
            return Some(Evicted { key, data, dirty });
        }
        if let Some(e) = self.map.get_mut(&key) {
            e.data = data;
            e.dirty = e.dirty || dirty;
            e.stamp = self.clock;
            return None;
        }
        let victim = if self.map.len() >= self.capacity {
            let vkey = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k);
            vkey.and_then(|k| self.map.remove(&k).map(|e| (k, e)))
                .map(|(vkey, ventry)| Evicted {
                    key: vkey,
                    data: ventry.data,
                    dirty: ventry.dirty,
                })
        } else {
            None
        };
        self.map.insert(
            key,
            Entry {
                data,
                dirty,
                stamp: self.clock,
            },
        );
        victim
    }

    /// Drain every dirty block (for `sync`); entries stay resident but are
    /// marked clean.
    pub fn take_dirty(&mut self) -> Vec<(BlockKey, Bytes)> {
        let mut out: Vec<(BlockKey, Bytes)> = Vec::new();
        for (k, e) in self.map.iter_mut() {
            if e.dirty {
                e.dirty = false;
                out.push((*k, e.data.clone()));
            }
        }
        // Deterministic order for the simulation.
        out.sort_by_key(|(k, _)| (k.inode, k.block));
        out
    }

    /// Drop one block if resident (write-through coherence). Dirty data is
    /// intentionally discarded: the caller just overwrote the block on disk.
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
        c.insert_clean(key(0), block(7));
        assert_eq!(c.get(key(0)).unwrap(), block(7));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = BlockCache::new(2);
        c.insert_clean(key(0), block(0));
        c.insert_clean(key(1), block(1));
        c.get(key(0)); // refresh 0; victim should be 1
        let ev = c.insert_clean(key(2), block(2)).unwrap();
        assert_eq!(ev.key, key(1));
        assert!(!ev.dirty);
        assert!(c.peek(key(0)).is_some());
        assert!(c.peek(key(1)).is_none());
    }

    #[test]
    fn dirty_eviction_is_flagged() {
        let mut c = BlockCache::new(1);
        c.insert_dirty(key(0), block(9));
        let ev = c.insert_clean(key(1), block(1)).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.data, block(9));
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = BlockCache::new(3);
        let mut evicted = 0;
        for i in 0..10 {
            evicted += usize::from(c.insert_clean(key(i), block(i as u8)).is_some());
            assert!(c.len() <= 3);
        }
        assert_eq!(evicted, 7);
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let mut c = BlockCache::new(1);
        c.insert_clean(key(0), block(1));
        assert!(c.insert_dirty(key(0), block(2)).is_none());
        assert_eq!(c.peek(key(0)).unwrap(), &block(2));
    }

    #[test]
    fn take_dirty_cleans_entries() {
        let mut c = BlockCache::new(4);
        c.insert_dirty(key(2), block(2));
        c.insert_dirty(key(1), block(1));
        c.insert_clean(key(3), block(3));
        let dirty = c.take_dirty();
        let blocks: Vec<u64> = dirty.iter().map(|(k, _)| k.block).collect();
        assert_eq!(blocks, vec![1, 2]); // deterministic order
        assert!(c.take_dirty().is_empty());
        assert_eq!(c.len(), 3); // still resident
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = BlockCache::new(0);
        let ev = c.insert_clean(key(0), block(1)).unwrap();
        assert_eq!(ev.key, key(0));
        assert!(c.get(key(0)).is_none());
        assert!(c.is_empty());
    }
}
