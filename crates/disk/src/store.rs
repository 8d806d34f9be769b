//! Sparse in-memory byte store backing a simulated disk.
//!
//! The simulation carries *real data* end to end so that integration tests
//! can assert byte-for-byte integrity through striping, caching, and
//! prefetching. Unwritten regions read back as zeros, like a fresh disk.
//!
//! Pages are reference-counted (`Arc<[u8]>`) so a read that falls inside a
//! single page hands back a zero-copy view instead of allocating and
//! copying a fresh buffer — the dominant cost of the data path once the
//! scheduler is out of the way. Writes copy-on-write: a page still
//! referenced by an outstanding read view is cloned before mutation, so
//! previously returned `Bytes` never change underneath their holders.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

/// Internal page size of the sparse store (independent of any file-system
/// block size above it). Sized to the machine's 64 KB transfer unit so the
/// common stripe-unit-aligned read is served by one shared page.
pub const STORE_PAGE: u64 = 64 * 1024;

/// A sparse, page-granular byte store addressed by absolute disk offset.
#[derive(Default)]
pub struct BlockStore {
    pages: BTreeMap<u64, Arc<[u8]>>,
    /// Shared all-zero page backing single-page reads of holes.
    zero: OnceCell<Arc<[u8]>>,
    /// Total bytes ever written (for capacity accounting in tests).
    bytes_written: u64,
}

impl BlockStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn zero_page(&self) -> Arc<[u8]> {
        self.zero
            .get_or_init(|| Arc::from(vec![0u8; STORE_PAGE as usize]))
            .clone()
    }

    /// Read `len` bytes starting at `offset`. Holes read as zeros.
    ///
    /// A read contained in one page is zero-copy: it returns a view of the
    /// resident page (or of a shared zero page for a hole).
    #[expect(
        clippy::indexing_slicing,
        reason = "hot copy loop: chunk <= STORE_PAGE - in_page and pos + chunk <= len"
    )]
    pub fn read(&self, offset: u64, len: usize) -> Bytes {
        let in_page = (offset % STORE_PAGE) as usize;
        if in_page + len <= STORE_PAGE as usize {
            let page = match self.pages.get(&(offset / STORE_PAGE)) {
                Some(page) => page.clone(),
                None => self.zero_page(),
            };
            return Bytes::from_shared(page).slice(in_page..in_page + len);
        }
        let mut out = vec![0u8; len];
        let mut pos = 0usize;
        while pos < len {
            let abs = offset + pos as u64;
            let page_idx = abs / STORE_PAGE;
            let in_page = (abs % STORE_PAGE) as usize;
            let chunk = ((STORE_PAGE as usize) - in_page).min(len - pos);
            if let Some(page) = self.pages.get(&page_idx) {
                out[pos..pos + chunk].copy_from_slice(&page[in_page..in_page + chunk]);
            }
            pos += chunk;
        }
        Bytes::from(out)
    }

    /// Write `data` starting at `offset`.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot copy loop: chunk <= STORE_PAGE - in_page and pos + chunk <= data.len()"
    )]
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let page_idx = abs / STORE_PAGE;
            let in_page = (abs % STORE_PAGE) as usize;
            let chunk = ((STORE_PAGE as usize) - in_page).min(data.len() - pos);
            let slot = self
                .pages
                .entry(page_idx)
                .or_insert_with(|| Arc::from(vec![0u8; STORE_PAGE as usize]));
            if Arc::get_mut(slot).is_none() {
                // Copy-on-write: an outstanding read view still shares this
                // page; give the store a private copy before mutating.
                let private: Arc<[u8]> = Arc::from(&slot[..]);
                *slot = private;
            }
            if let Some(page) = Arc::get_mut(slot) {
                page[in_page..in_page + chunk].copy_from_slice(&data[pos..pos + chunk]);
            }
            pos += chunk;
        }
        self.bytes_written += data.len() as u64;
    }

    /// Number of resident pages (sparse footprint).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes written over the store's lifetime.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holes_read_as_zeros() {
        let store = BlockStore::new();
        let data = store.read(12_345, 100);
        assert!(data.iter().all(|&b| b == 0));
        assert_eq!(data.len(), 100);
        // A hole read spanning pages also reads zero.
        let wide = store.read(STORE_PAGE - 7, 50);
        assert!(wide.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_roundtrip_unaligned() {
        let mut store = BlockStore::new();
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        // Deliberately straddle several pages at an odd offset.
        store.write(STORE_PAGE * 3 + 17, &payload);
        let back = store.read(STORE_PAGE * 3 + 17, payload.len());
        assert_eq!(&back[..], &payload[..]);
        // Just before and after are still zero.
        assert_eq!(store.read(STORE_PAGE * 3 + 16, 1)[0], 0);
        assert_eq!(
            store.read(STORE_PAGE * 3 + 17 + payload.len() as u64, 1)[0],
            0
        );
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let mut store = BlockStore::new();
        store.write(100, &[1u8; 200]);
        store.write(150, &[2u8; 50]);
        let back = store.read(100, 200);
        assert!(back[..50].iter().all(|&b| b == 1));
        assert!(back[50..100].iter().all(|&b| b == 2));
        assert!(back[100..].iter().all(|&b| b == 1));
    }

    #[test]
    fn sparse_footprint_stays_small() {
        let mut store = BlockStore::new();
        store.write(0, &[7u8; 1]);
        store.write(STORE_PAGE * 1000, &[7u8; 1]);
        assert_eq!(store.resident_pages(), 2);
        assert_eq!(store.bytes_written(), 2);
    }

    #[test]
    fn single_page_read_shares_the_page() {
        let mut store = BlockStore::new();
        store.write(0, &[9u8; 1024]);
        let a = store.read(0, 512);
        let b = store.read(256, 512);
        assert!(a.iter().all(|&x| x == 9));
        assert_eq!(&b[..256], &[9u8; 256][..]);
        // Both reads share the resident page rather than copying it:
        // strong count = store + a + b.
        let page = store.pages.get(&0).unwrap();
        assert_eq!(Arc::strong_count(page), 3);
    }

    #[test]
    fn write_after_read_does_not_mutate_outstanding_views() {
        let mut store = BlockStore::new();
        store.write(0, &[1u8; 100]);
        let view = store.read(0, 100);
        store.write(0, &[2u8; 100]);
        // The earlier view still sees the old bytes (copy-on-write)…
        assert!(view.iter().all(|&b| b == 1));
        // …while a fresh read sees the new ones.
        assert!(store.read(0, 100).iter().all(|&b| b == 2));
    }

    #[test]
    fn hole_reads_share_one_zero_page() {
        let store = BlockStore::new();
        let a = store.read(0, 64);
        let b = store.read(STORE_PAGE * 5 + 3, 64);
        assert!(a.iter().chain(b.iter()).all(|&x| x == 0));
        // Both are views of the same lazily created zero page.
        assert_eq!(Arc::strong_count(store.zero.get().unwrap()), 3);
        assert_eq!(store.resident_pages(), 0);
    }
}
