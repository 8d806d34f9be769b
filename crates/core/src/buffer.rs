//! The prefetch buffer list.
//!
//! Prefetched data lands in per-file buffers in **compute-node memory**
//! (not the I/O nodes): a list of `(offset, size, data)` entries hanging
//! off the open file, initialized at open, freed at close — exactly the
//! structure §3 of the paper describes. An entry holds the ART handle of
//! its asynchronous read, so a demand read that arrives early can wait on
//! the in-flight request instead of reissuing it.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use paragon_os::AsyncHandle;
use paragon_pfs::PfsError;
use paragon_sim::ReqId;

/// Live occupancy cells shared between prefetch lists and the telemetry
/// registry: every insert/hit/eviction/drain updates them, so at any
/// simulated instant they read the buffers held and the compute-node
/// bytes they pin. Cloning shares the cells; wire one instance to every
/// list whose occupancy should aggregate.
#[derive(Clone, Default)]
pub struct PrefetchGauges {
    /// Buffers currently held across all wired lists.
    pub entries: Rc<Cell<i64>>,
    /// Compute-node bytes those buffers pin.
    pub bytes: Rc<Cell<i64>>,
}

impl PrefetchGauges {
    fn add(&self, entries: i64, bytes: i64) {
        self.entries.set(self.entries.get() + entries);
        self.bytes.set(self.bytes.get() + bytes);
    }
}

/// One prefetch buffer: the anticipated request and its asynchronous read.
pub(crate) struct PrefetchEntry {
    /// Anticipated request offset.
    pub offset: u64,
    /// Anticipated request length.
    pub len: u32,
    /// Flight-recorder request id minted at issue (`0` in tests).
    pub req: ReqId,
    /// The asynchronous read filling this buffer.
    pub handle: AsyncHandle<Result<Bytes, PfsError>>,
}

impl PrefetchEntry {
    /// True once the data has arrived.
    pub(crate) fn is_ready(&self) -> bool {
        self.handle.is_done()
    }
}

/// FIFO-bounded list of prefetch buffers for one open file.
pub(crate) struct PrefetchList {
    entries: VecDeque<PrefetchEntry>,
    max_entries: usize,
    /// Byte budget for pinned compute-node memory (the paper's buffers
    /// live in the compute node's 16–32 MB).
    max_bytes: u64,
    /// Occupancy gauges; private unshared cells until [`set_gauges`]
    /// wires the list to the telemetry registry's.
    ///
    /// [`set_gauges`]: PrefetchList::set_gauges
    gauges: PrefetchGauges,
}

impl PrefetchList {
    /// A list holding at most `max_entries` buffers and `max_bytes` of
    /// pinned memory (compute-node memory is finite; the prototype's
    /// depth-1 engine needs only one buffer).
    pub(crate) fn new(max_entries: usize, max_bytes: u64) -> Self {
        assert!(max_entries > 0, "prefetch list needs at least one slot");
        assert!(max_bytes > 0, "prefetch list needs a nonzero byte budget");
        PrefetchList {
            entries: VecDeque::with_capacity(max_entries.min(64)),
            max_entries,
            max_bytes,
            gauges: PrefetchGauges::default(),
        }
    }

    /// Wire this list to shared occupancy `gauges`; its current
    /// occupancy moves from the old cells onto the new ones.
    pub(crate) fn set_gauges(&mut self, gauges: PrefetchGauges) {
        let (n, b) = (self.len() as i64, self.pinned_bytes() as i64);
        self.gauges.add(-n, -b);
        gauges.add(n, b);
        self.gauges = gauges;
    }

    /// Live buffers.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Bytes of compute-node memory the list pins (anticipated sizes; an
    /// in-flight buffer's memory is already allocated).
    pub(crate) fn pinned_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len as u64).sum()
    }

    /// True if some buffer already covers a request at `offset`.
    pub(crate) fn covers(&self, offset: u64, len: u32) -> bool {
        self.entries
            .iter()
            .any(|e| e.offset == offset && e.len >= len)
    }

    /// Insert a new buffer; if the list is over its entry or byte limit,
    /// the oldest entries are evicted and returned (the caller counts
    /// them wasted). An entry bigger than the whole byte budget still
    /// occupies the list alone — refusing it would silently disable
    /// prefetching.
    pub(crate) fn insert(&mut self, entry: PrefetchEntry) -> Vec<PrefetchEntry> {
        let mut evicted = Vec::new();
        self.gauges.add(1, entry.len as i64);
        self.entries.push_back(entry);
        while self.entries.len() > self.max_entries
            || (self.pinned_bytes() > self.max_bytes && self.entries.len() > 1)
        {
            // The loop condition implies the list is nonempty.
            let Some(old) = self.entries.pop_front() else {
                break;
            };
            self.gauges.add(-1, -(old.len as i64));
            evicted.push(old);
        }
        evicted
    }

    /// Remove and return the buffer answering a demand read at `offset`
    /// of `len` bytes, if one exists.
    pub(crate) fn take_match(&mut self, offset: u64, len: u32) -> Option<PrefetchEntry> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.offset == offset && e.len >= len)?;
        let e = self.entries.remove(idx)?;
        self.gauges.add(-1, -(e.len as i64));
        Some(e)
    }

    /// Drain every remaining buffer (file close frees the list).
    pub(crate) fn drain(&mut self) -> Vec<PrefetchEntry> {
        let drained: Vec<PrefetchEntry> = self.entries.drain(..).collect();
        for e in &drained {
            self.gauges.add(-1, -(e.len as i64));
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_os::{ArtConfig, ArtPool};
    use paragon_sim::Sim;

    fn entry(sim: &Sim, pool: &ArtPool, offset: u64, len: u32) -> PrefetchEntry {
        let pool = pool.clone();
        let sim2 = sim.clone();
        let h = sim.spawn(async move {
            pool.submit(async move { Ok(Bytes::from(vec![0u8; 4])) })
                .await
        });
        sim2.run();
        PrefetchEntry {
            offset,
            len,
            req: 0,
            handle: h.try_take().unwrap(),
        }
    }

    fn fixture() -> (Sim, ArtPool) {
        let sim = Sim::new(1);
        let pool = ArtPool::new(&sim, ArtConfig::instant());
        (sim, pool)
    }

    #[test]
    fn exact_match_is_taken_once() {
        let (sim, pool) = fixture();
        let mut list = PrefetchList::new(4, u64::MAX);
        list.insert(entry(&sim, &pool, 1000, 64));
        assert!(list.covers(1000, 64));
        assert!(!list.covers(1000, 128)); // longer than buffered
        assert!(!list.covers(999, 64));
        let e = list.take_match(1000, 64).unwrap();
        assert_eq!(e.offset, 1000);
        assert!(list.take_match(1000, 64).is_none());
        assert_eq!(list.len(), 0);
    }

    #[test]
    fn shorter_demand_reads_match_longer_buffers() {
        let (sim, pool) = fixture();
        let mut list = PrefetchList::new(4, u64::MAX);
        list.insert(entry(&sim, &pool, 0, 128));
        assert!(list.take_match(0, 64).is_some());
    }

    #[test]
    fn full_list_evicts_fifo() {
        let (sim, pool) = fixture();
        let mut list = PrefetchList::new(2, u64::MAX);
        assert!(list.insert(entry(&sim, &pool, 0, 10)).is_empty());
        assert!(list.insert(entry(&sim, &pool, 10, 10)).is_empty());
        let evicted = list.insert(entry(&sim, &pool, 20, 10));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].offset, 0);
        assert_eq!(list.len(), 2);
        assert_eq!(list.pinned_bytes(), 20);
    }

    #[test]
    fn byte_cap_evicts_several_small_for_one_large() {
        let (sim, pool) = fixture();
        let mut list = PrefetchList::new(16, 100);
        for i in 0..4u64 {
            assert!(list.insert(entry(&sim, &pool, i * 25, 25)).is_empty());
        }
        // An 80-byte entry forces all four 25-byte evictions: even
        // 80 + 25 = 105 still exceeds the 100-byte budget.
        let evicted = list.insert(entry(&sim, &pool, 1000, 80));
        assert_eq!(evicted.len(), 4);
        assert_eq!(list.pinned_bytes(), 80);
    }

    #[test]
    fn oversized_entry_occupies_the_list_alone() {
        let (sim, pool) = fixture();
        let mut list = PrefetchList::new(16, 100);
        list.insert(entry(&sim, &pool, 0, 50));
        let evicted = list.insert(entry(&sim, &pool, 100, 500));
        assert_eq!(evicted.len(), 1); // the small one goes
        assert_eq!(list.len(), 1); // the big one stays, alone
    }

    #[test]
    fn byte_budget_evictions_come_oldest_first() {
        let (sim, pool) = fixture();
        let mut list = PrefetchList::new(16, 100);
        for (i, len) in [40u32, 30, 20].into_iter().enumerate() {
            assert!(list
                .insert(entry(&sim, &pool, i as u64 * 1000, len))
                .is_empty());
        }
        // 90 pinned; adding 55 makes 145. Eviction must walk the FIFO
        // from the oldest end: the 40 at offset 0 (145 → 105, still
        // over), then the 30 at offset 1000 (105 → 75, under budget) —
        // and must stop there.
        let evicted = list.insert(entry(&sim, &pool, 9000, 55));
        let order: Vec<u64> = evicted.iter().map(|e| e.offset).collect();
        assert_eq!(order, vec![0, 1000]);
        assert_eq!(list.pinned_bytes(), 75);
        assert!(list.covers(2000, 20), "newest survivors stay");
        assert!(list.covers(9000, 55));
    }

    #[test]
    fn entry_cap_and_byte_cap_each_bind_when_tighter() {
        let (sim, pool) = fixture();
        // Byte budget is loose: the 2-entry cap binds.
        let mut list = PrefetchList::new(2, 1_000_000);
        list.insert(entry(&sim, &pool, 0, 10));
        list.insert(entry(&sim, &pool, 10, 10));
        let evicted = list.insert(entry(&sim, &pool, 20, 10));
        assert_eq!(evicted.len(), 1);
        assert_eq!(list.pinned_bytes(), 20);
        // Entry cap is loose: the byte budget binds, and one insert can
        // evict more entries than the count cap alone ever would.
        let mut list = PrefetchList::new(100, 25);
        list.insert(entry(&sim, &pool, 0, 10));
        list.insert(entry(&sim, &pool, 10, 10));
        let evicted = list.insert(entry(&sim, &pool, 20, 20));
        assert_eq!(evicted.len(), 2, "byte cap evicted past the entry slack");
        assert_eq!(list.len(), 1);
        assert_eq!(list.pinned_bytes(), 20);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_entry_capacity_is_rejected() {
        PrefetchList::new(0, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "nonzero byte budget")]
    fn zero_byte_budget_is_rejected() {
        PrefetchList::new(4, 0);
    }

    #[test]
    fn drain_empties_the_list() {
        let (sim, pool) = fixture();
        let mut list = PrefetchList::new(4, u64::MAX);
        list.insert(entry(&sim, &pool, 0, 10));
        list.insert(entry(&sim, &pool, 10, 10));
        let drained = list.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(list.len(), 0);
        assert_eq!(list.pinned_bytes(), 0);
    }
}
