//! Block-extent allocator for one I/O node's disk partition.
//!
//! First-fit over a sorted free list with eager coalescing on free. The
//! allocator works in whole file-system blocks; contiguity matters because
//! the disk model rewards sequential access (and PFS "block coalescing"
//! merges reads of adjacent disk blocks into one request).

use std::fmt;

/// A contiguous run of file-system blocks on the local disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// First block number.
    pub start: u64,
    /// Length in blocks; never zero.
    pub len: u64,
}

impl Extent {
    /// One past the last block.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// True if the two extents share any block.
    pub fn overlaps(&self, other: &Extent) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.start, self.end())
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

/// First-fit extent allocator over `capacity` blocks.
#[derive(Debug, Clone)]
pub struct ExtentAllocator {
    capacity: u64,
    /// Free runs, sorted by start, non-adjacent (always coalesced).
    free: Vec<Extent>,
}

impl ExtentAllocator {
    /// A fresh allocator with every block free.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "zero-capacity disk");
        ExtentAllocator {
            capacity,
            free: vec![Extent {
                start: 0,
                len: capacity,
            }],
        }
    }

    /// Total block capacity.
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> u64 {
        self.free.iter().map(|e| e.len).sum()
    }

    /// Largest single free run (what a contiguous allocation can get).
    pub(crate) fn largest_free_run(&self) -> u64 {
        self.free.iter().map(|e| e.len).max().unwrap_or(0)
    }

    /// Allocate `n` blocks as few extents as possible (first-fit; a single
    /// extent when any free run is big enough, otherwise the request is
    /// split across runs in address order).
    pub fn alloc(&mut self, n: u64) -> Result<Vec<Extent>, NoSpace> {
        assert!(n > 0, "zero-length allocation");
        if self.free_blocks() < n {
            return Err(NoSpace {
                wanted: n,
                largest_free: self.largest_free_run(),
            });
        }
        // Prefer one contiguous run: first fit.
        if let Some((idx, run)) = self.free.iter_mut().enumerate().find(|(_, e)| e.len >= n) {
            let got = Extent {
                start: run.start,
                len: n,
            };
            if run.len == n {
                self.free.remove(idx);
            } else {
                run.start += n;
                run.len -= n;
            }
            return Ok(vec![got]);
        }
        // Fragmented path: take whole runs in address order until satisfied.
        let mut out = Vec::new();
        let mut need = n;
        while need > 0 {
            let mut run = self.free.remove(0);
            if run.len > need {
                out.push(Extent {
                    start: run.start,
                    len: need,
                });
                run.start += need;
                run.len -= need;
                self.free.insert(0, run);
                need = 0;
            } else {
                need -= run.len;
                out.push(run);
            }
        }
        Ok(out)
    }

    /// Return an extent to the free pool, coalescing with neighbours.
    ///
    /// Panics on double-free or out-of-range extents — both are file-system
    /// bugs we want loudly.
    pub fn free(&mut self, ext: Extent) {
        assert!(ext.len > 0 && ext.end() <= self.capacity, "bad free {ext}");
        let pos = self.free.partition_point(|e| e.start < ext.start);
        let left = pos.checked_sub(1);
        if let Some(l) = left.and_then(|i| self.free.get(i)) {
            assert!(l.end() <= ext.start, "double free: {ext} overlaps {l}");
        }
        // Coalesce with the right neighbour, then the left.
        let mut merged = ext;
        if let Some(&r) = self.free.get(pos) {
            assert!(ext.end() <= r.start, "double free: {ext} overlaps {r}");
            if ext.end() == r.start {
                merged.len += r.len;
                self.free.remove(pos);
            }
        }
        if let Some(l) = left.and_then(|i| self.free.get_mut(i)) {
            if l.end() == merged.start {
                l.len += merged.len;
                return;
            }
        }
        self.free.insert(pos, merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_allocator_is_one_run() {
        let a = ExtentAllocator::new(100);
        assert_eq!(a.free_blocks(), 100);
        assert_eq!(a.free.len(), 1);
        assert_eq!(a.largest_free_run(), 100);
    }

    #[test]
    fn alloc_is_contiguous_when_possible() {
        let mut a = ExtentAllocator::new(100);
        let e = a.alloc(30).unwrap();
        assert_eq!(e, vec![Extent { start: 0, len: 30 }]);
        let e = a.alloc(70).unwrap();
        assert_eq!(e, vec![Extent { start: 30, len: 70 }]);
        assert_eq!(a.free_blocks(), 0);
    }

    #[test]
    fn exhaustion_reports_largest_run() {
        let mut a = ExtentAllocator::new(10);
        a.alloc(8).unwrap();
        let err = a.alloc(5).unwrap_err();
        assert_eq!(
            err,
            NoSpace {
                wanted: 5,
                largest_free: 2
            }
        );
    }

    #[test]
    fn fragmented_alloc_spans_runs() {
        let mut a = ExtentAllocator::new(30);
        let e1 = a.alloc(10).unwrap()[0];
        let _e2 = a.alloc(10).unwrap()[0];
        let e3 = a.alloc(10).unwrap()[0];
        a.free(e1);
        a.free(e3);
        // Free runs: [0..10) and [20..30); a 15-block alloc must split.
        let got = a.alloc(15).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got.iter().map(|e| e.len).sum::<u64>(), 15);
        assert!(!got[0].overlaps(&got[1]));
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut a = ExtentAllocator::new(30);
        let e1 = a.alloc(10).unwrap()[0];
        let e2 = a.alloc(10).unwrap()[0];
        let e3 = a.alloc(10).unwrap()[0];
        a.free(e1);
        a.free(e3);
        assert_eq!(a.free.len(), 2);
        a.free(e2);
        assert_eq!(a.free.len(), 1);
        assert_eq!(a.largest_free_run(), 30);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = ExtentAllocator::new(10);
        let e = a.alloc(5).unwrap()[0];
        a.free(e);
        a.free(e);
    }
}
