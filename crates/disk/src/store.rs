//! Sparse in-memory byte store backing a simulated disk.
//!
//! The simulation carries *real data* end to end so that integration tests
//! can assert byte-for-byte integrity through striping, caching, and
//! prefetching. Unwritten regions read back as zeros, like a fresh disk.
//!
//! Pages are immutable [`Bytes`], so the host data path copies as little
//! as the simulated one is charged for:
//!
//! - A write chunk that covers a whole page *adopts* it: the page becomes
//!   a view of the payload (`data.slice(..)`), with no copy. The trade-off
//!   is that an adopted page keeps its whole source allocation alive
//!   until every page viewing it is overwritten; in practice the sources
//!   are populate's per-slot buffers and write payloads.
//! - A partial-page write merges copy-on-write: it mutates the page in
//!   place when the store holds the only reference to a page-sized
//!   allocation, and otherwise merges into a private copy.
//! - A read inside one page is a zero-copy view of it (or of a shared
//!   zero page for a hole); a read across pages gathers into one buffer.
//!
//! Since a page is never mutated while anyone else holds it, previously
//! returned `Bytes` never change underneath their holders.
//! [`BlockStore::bytes_copied`] counts the bytes the gather and the merge
//! copy.

use std::cell::{Cell, OnceCell};
use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};

/// Internal page size of the sparse store (independent of any file-system
/// block size above it). Sized to the machine's 64 KB transfer unit so the
/// common stripe-unit-aligned read is served by one shared page.
pub const STORE_PAGE: u64 = 64 * 1024;

const PAGE: usize = STORE_PAGE as usize;

/// A sparse, page-granular byte store addressed by absolute disk offset.
#[derive(Default)]
pub struct BlockStore {
    /// Every page is exactly [`STORE_PAGE`] bytes long.
    pages: BTreeMap<u64, Bytes>,
    /// Shared all-zero page backing single-page reads of holes.
    zero: OnceCell<Bytes>,
    /// Total bytes ever written (for capacity accounting in tests).
    bytes_written: u64,
    /// Bytes copied by the multi-page read gather and the partial-page
    /// merge.
    bytes_copied: Cell<u64>,
}

impl BlockStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read `len` bytes starting at `offset`. Holes read as zeros.
    ///
    /// A read contained in one page is zero-copy: it returns a view of the
    /// resident page (or of a shared zero page for a hole).
    #[expect(
        clippy::indexing_slicing,
        reason = "hot copy loop: chunk <= STORE_PAGE - in_page and every page is STORE_PAGE long"
    )]
    pub fn read(&self, offset: u64, len: usize) -> Bytes {
        let in_page = (offset % STORE_PAGE) as usize;
        if in_page + len <= PAGE {
            let page = match self.pages.get(&(offset / STORE_PAGE)) {
                Some(page) => page,
                None => self.zero.get_or_init(|| Bytes::from(vec![0u8; PAGE])),
            };
            return page.slice(in_page..in_page + len);
        }
        let mut out = Vec::with_capacity(len);
        let mut copied = 0;
        while out.len() < len {
            let abs = offset + out.len() as u64;
            let in_page = (abs % STORE_PAGE) as usize;
            let chunk = (PAGE - in_page).min(len - out.len());
            match self.pages.get(&(abs / STORE_PAGE)) {
                Some(page) => {
                    out.extend_from_slice(&page[in_page..in_page + chunk]);
                    copied += chunk as u64;
                }
                None => out.resize(out.len() + chunk, 0),
            }
        }
        self.bytes_copied.set(self.bytes_copied.get() + copied);
        Bytes::from(out)
    }

    /// Write `data` starting at `offset`. Whole pages adopt views of
    /// `data`; partial pages merge copy-on-write.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot copy loop: chunk <= STORE_PAGE - in_page and pos + chunk <= data.len()"
    )]
    pub fn write(&mut self, offset: u64, data: &Bytes) {
        let mut pos = 0usize;
        let mut copied = 0;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let page_idx = abs / STORE_PAGE;
            let in_page = (abs % STORE_PAGE) as usize;
            let chunk = (PAGE - in_page).min(data.len() - pos);
            if chunk == PAGE {
                self.pages.insert(page_idx, data.slice(pos..pos + PAGE));
            } else {
                let slot = self
                    .pages
                    .entry(page_idx)
                    .or_insert_with(|| Bytes::from(vec![0u8; PAGE]));
                let mut page = match std::mem::take(slot).try_into_mut() {
                    Ok(page) => page,
                    // An outstanding read view, or the rest of an adopted
                    // payload, still shares this page: merge into a copy.
                    Err(shared) => {
                        copied += PAGE as u64;
                        BytesMut::from(shared.to_vec())
                    }
                };
                page[in_page..in_page + chunk].copy_from_slice(&data[pos..pos + chunk]);
                copied += chunk as u64;
                *slot = page.freeze();
            }
            pos += chunk;
        }
        self.bytes_written += data.len() as u64;
        self.bytes_copied.set(self.bytes_copied.get() + copied);
    }

    /// Number of resident pages (sparse footprint).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes written over the store's lifetime.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Bytes copied over the store's lifetime by the multi-page read
    /// gather and the partial-page write merge. Whole-page writes and
    /// single-page reads copy nothing.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(byte: u8, len: usize) -> Bytes {
        Bytes::from(vec![byte; len])
    }

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
        store.write(STORE_PAGE * 3 + 17, &Bytes::from(payload.clone()));
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
        store.write(100, &fill(1, 200));
        store.write(150, &fill(2, 50));
        let back = store.read(100, 200);
        assert!(back[..50].iter().all(|&b| b == 1));
        assert!(back[50..100].iter().all(|&b| b == 2));
        assert!(back[100..].iter().all(|&b| b == 1));
    }

    #[test]
    fn sparse_footprint_stays_small() {
        let mut store = BlockStore::new();
        store.write(0, &fill(7, 1));
        store.write(STORE_PAGE * 1000, &fill(7, 1));
        assert_eq!(store.resident_pages(), 2);
        assert_eq!(store.bytes_written(), 2);
    }

    #[test]
    fn single_page_read_shares_the_page() {
        let mut store = BlockStore::new();
        store.write(0, &fill(9, 1024));
        let a = store.read(0, 512);
        let b = store.read(256, 512);
        assert!(a.iter().all(|&x| x == 9));
        assert_eq!(&b[..256], &[9u8; 256][..]);
        // Both reads view the resident page rather than copying it.
        let page = store.pages.get(&0).unwrap().as_ptr();
        assert_eq!((a.as_ptr(), b.as_ptr()), (page, page.wrapping_add(256)));
        assert_eq!(store.bytes_copied(), 1024);
    }

    #[test]
    fn write_after_read_does_not_mutate_outstanding_views() {
        let mut store = BlockStore::new();
        store.write(0, &fill(1, 100));
        let view = store.read(0, 100);
        store.write(0, &fill(2, 100));
        // The earlier view still sees the old bytes (copy-on-write)…
        assert!(view.iter().all(|&b| b == 1));
        // …while a fresh read sees the new ones.
        assert!(store.read(0, 100).iter().all(|&b| b == 2));
    }

    #[test]
    fn partial_write_merges_in_place_when_unshared() {
        let mut store = BlockStore::new();
        store.write(10, &fill(1, 100));
        let page = store.pages.get(&0).unwrap().as_ptr();
        // Only the store holds the page: the merge mutates it in place.
        store.write(20, &fill(2, 10));
        assert_eq!(store.pages.get(&0).unwrap().as_ptr(), page);
        assert_eq!(store.bytes_copied(), 110);
        // With a read view outstanding, the merge copies the page first.
        let view = store.read(0, 64);
        store.write(30, &fill(3, 10));
        assert_ne!(store.pages.get(&0).unwrap().as_ptr(), view.as_ptr());
        assert_eq!(store.bytes_copied(), 110 + STORE_PAGE + 10);
    }

    #[test]
    fn hole_reads_share_one_zero_page() {
        let store = BlockStore::new();
        let a = store.read(0, 64);
        let b = store.read(STORE_PAGE * 5 + 3, 64);
        assert!(a.iter().chain(b.iter()).all(|&x| x == 0));
        // Both are views of the same lazily created zero page.
        let zero = store.zero.get().unwrap().as_ptr();
        assert_eq!((a.as_ptr(), b.as_ptr()), (zero, zero.wrapping_add(3)));
        assert_eq!(store.resident_pages(), 0);
    }

    #[test]
    fn aligned_write_adopts_the_payload_without_copying() {
        let mut store = BlockStore::new();
        let payload = Bytes::from((0..256 * 1024u32).map(|i| i as u8).collect::<Vec<_>>());
        store.write(STORE_PAGE * 8, &payload);
        assert_eq!(store.bytes_copied(), 0);
        for k in 0..4 {
            // Each page is a view of the payload's own allocation.
            let page = store.pages.get(&(8 + k)).unwrap();
            assert_eq!(page.as_ptr(), payload[k as usize * PAGE..].as_ptr());
        }
        // A 256 KB read across the four pages copies each byte once.
        let back = store.read(STORE_PAGE * 8, payload.len());
        assert_eq!(back, payload);
        assert_eq!(store.bytes_copied(), 256 * 1024);
    }
}
