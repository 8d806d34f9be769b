//! A calendar (bucket) queue: the kernel's future event list.
//!
//! Events land in `nbuckets` time-sliced buckets, where bucket width is a
//! power of two (`1 << shift` nanoseconds) so indexing is a shift and mask.
//! A drain frontier (`cur_vb`, a *virtual* bucket number `time >> shift`)
//! walks forward one bucket-width at a time; `pop` returns the minimum
//! `(time, seq)` entry of the frontier bucket, which is the global minimum
//! because earlier buckets are already empty and later buckets hold only
//! later times.
//!
//! Determinism invariants (relied on by the trace hash and the byte-identity
//! tests):
//! - `pop` yields entries in exactly nondecreasing `(time, seq)` order —
//!   identical to a binary heap keyed on `(time, seq)`.
//! - equal timestamps always map to the same bucket, so the monotone `seq`
//!   tie-break gives FIFO order within a timestamp.
//! - resize and width heuristics depend only on queue contents, never on
//!   host state, so equal-seed runs resize identically.

use crate::time::SimTime;

/// Buckets never shrink below this; also the initial size.
const MIN_BUCKETS: usize = 16;
/// Bucket width is `1 << shift` ns; bounded so `time >> shift` stays useful.
const MAX_SHIFT: u32 = 62;
/// Initial bucket width: 2^17 ns ≈ 131 µs, the right order for a machine
/// whose message overheads are ~60 µs. Resizes retune it from live content.
const INITIAL_SHIFT: u32 = 17;

struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

/// Location + key of the current minimum, cached between `peek` and `pop`.
#[derive(Clone, Copy)]
struct Cached {
    bucket: usize,
    slot: usize,
    time: SimTime,
    seq: u64,
}

/// Calendar queue over `(time, seq)`-keyed entries carrying a `T` payload.
pub struct CalendarQueue<T> {
    buckets: Vec<Vec<Entry<T>>>,
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    len: usize,
    /// Virtual bucket number (`time >> shift`) of the drain frontier. No
    /// entry has a smaller virtual bucket number.
    cur_vb: u64,
    cached: Option<Cached>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            shift: INITIAL_SHIFT,
            len: 0,
            cur_vb: 0,
            cached: None,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn nbuckets(&self) -> usize {
        self.buckets.len()
    }

    fn mask(&self) -> u64 {
        (self.buckets.len() - 1) as u64
    }

    /// Insert an entry. `seq` must be unique per queue (the kernel's monotone
    /// counter guarantees it); ordering is by `(time, seq)`.
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) {
        let vb = time.as_nanos() >> self.shift;
        if self.len == 0 || vb < self.cur_vb {
            self.cur_vb = vb;
        }
        let bucket = (vb & self.mask()) as usize;
        self.buckets[bucket].push(Entry { time, seq, item });
        self.len += 1;
        if let Some(c) = self.cached {
            if (time, seq) < (c.time, c.seq) {
                self.cached = Some(Cached {
                    bucket,
                    slot: self.buckets[bucket].len() - 1,
                    time,
                    seq,
                });
            }
        }
        if self.len > 2 * self.nbuckets() {
            let doubled = self.nbuckets() * 2;
            self.rebuild(doubled);
        }
    }

    /// Key of the minimum entry without removing it.
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        self.locate()?;
        let c = self.cached.as_ref().expect("locate filled the cache");
        Some((c.time, c.seq))
    }

    /// Remove and return the minimum entry.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.locate()?;
        let c = self.cached.take().expect("locate filled the cache");
        let e = self.buckets[c.bucket].swap_remove(c.slot);
        self.len -= 1;
        // The popped entry was the global minimum, so every survivor's
        // virtual bucket number is >= its bucket: the frontier may jump here.
        self.cur_vb = e.time.as_nanos() >> self.shift;
        self.maybe_shrink();
        Some((e.time, e.seq, e.item))
    }

    /// Remove the entry with exactly this `(time, seq)` key, if present.
    pub fn cancel(&mut self, time: SimTime, seq: u64) -> Option<T> {
        let bucket = ((time.as_nanos() >> self.shift) & self.mask()) as usize;
        let slot = self.buckets[bucket]
            .iter()
            .position(|e| e.time == time && e.seq == seq)?;
        let e = self.buckets[bucket].swap_remove(slot);
        self.len -= 1;
        // swap_remove may have moved the cached entry; recompute lazily.
        self.cached = None;
        self.maybe_shrink();
        Some(e.item)
    }

    /// Find the global minimum and cache its location, advancing the
    /// frontier past empty buckets. Amortized O(1) when the width matches
    /// the event density; a full empty lap falls back to a direct search.
    fn locate(&mut self) -> Option<()> {
        if self.cached.is_some() {
            return Some(());
        }
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut vb = self.cur_vb;
        for _ in 0..self.nbuckets() {
            let bi = (vb & mask) as usize;
            let mut best: Option<Cached> = None;
            for (slot, e) in self.buckets[bi].iter().enumerate() {
                if e.time.as_nanos() >> self.shift != vb {
                    continue; // a later lap's entry sharing this bucket
                }
                let better = match &best {
                    Some(b) => (e.time, e.seq) < (b.time, b.seq),
                    None => true,
                };
                if better {
                    best = Some(Cached {
                        bucket: bi,
                        slot,
                        time: e.time,
                        seq: e.seq,
                    });
                }
            }
            if best.is_some() {
                self.cur_vb = vb;
                self.cached = best;
                return Some(());
            }
            vb += 1;
        }
        // A whole lap was empty: the next event is more than
        // nbuckets × width away. Direct-search for the global minimum and
        // jump the frontier to it.
        let mut best: Option<Cached> = None;
        for (bi, bucket) in self.buckets.iter().enumerate() {
            for (slot, e) in bucket.iter().enumerate() {
                let better = match &best {
                    Some(b) => (e.time, e.seq) < (b.time, b.seq),
                    None => true,
                };
                if better {
                    best = Some(Cached {
                        bucket: bi,
                        slot,
                        time: e.time,
                        seq: e.seq,
                    });
                }
            }
        }
        let b = best.expect("len > 0 but buckets were empty");
        self.cur_vb = b.time.as_nanos() >> self.shift;
        self.cached = Some(b);
        Some(())
    }

    fn maybe_shrink(&mut self) {
        if self.nbuckets() > MIN_BUCKETS && self.len * 4 < self.nbuckets() {
            let halved = self.nbuckets() / 2;
            self.rebuild(halved);
        }
    }

    /// Re-bucket every entry into `new_n` buckets, retuning the width to
    /// roughly twice the mean inter-event gap of the current content.
    fn rebuild(&mut self, new_n: usize) {
        let new_n = new_n.max(MIN_BUCKETS).next_power_of_two();
        let mut entries: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.append(b);
        }
        if !entries.is_empty() {
            let mut min_t = u64::MAX;
            let mut max_t = 0u64;
            for e in &entries {
                let t = e.time.as_nanos();
                min_t = min_t.min(t);
                max_t = max_t.max(t);
            }
            // Degenerate content — e.g. a barrier releasing thousands of
            // wakes at one instant — makes `max_t == min_t` and collapses
            // the mean-gap estimate to zero. An unclamped zero gap would
            // drive `shift` to its minimum on every resize scan, so the
            // width is floored at one tick: every rebuild, including an
            // all-equal-timestamp cluster, yields a usable bucket width.
            let span = max_t - min_t;
            let gap = (span / entries.len() as u64).max(1);
            // floor(log2(gap)) + 1: a power-of-two width in [gap, 2·gap).
            self.shift = (64 - gap.leading_zeros()).min(MAX_SHIFT);
            self.cur_vb = min_t >> self.shift;
        }
        if self.buckets.len() != new_n {
            self.buckets = (0..new_n).map(|_| Vec::new()).collect();
        }
        self.cached = None;
        let mask = (new_n - 1) as u64;
        for e in entries {
            let bi = ((e.time.as_nanos() >> self.shift) & mask) as usize;
            self.buckets[bi].push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, v)) = q.pop() {
            out.push((t.as_nanos(), s, v));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_nanos(50), 0, 0);
        q.push(SimTime::from_nanos(10), 1, 1);
        q.push(SimTime::from_nanos(10), 2, 2);
        q.push(SimTime::from_nanos(7), 3, 3);
        assert_eq!(q.peek(), Some((SimTime::from_nanos(7), 3)));
        let order: Vec<u32> = drain(&mut q).iter().map(|&(_, _, v)| v).collect();
        assert_eq!(order, vec![3, 1, 2, 0]);
        assert!(q.is_empty());
    }

    #[test]
    fn survives_growth_and_far_future_jumps() {
        let mut q = CalendarQueue::new();
        // Enough entries to force several doublings, spread over a huge
        // range so the direct-search fallback also triggers.
        let mut keys = Vec::new();
        for i in 0..500u64 {
            let t = (i * 7919) % 1000 * 1_000 + (i % 3) * 4_000_000_000_000;
            keys.push((t, i));
            q.push(SimTime::from_nanos(t), i, i as u32);
        }
        keys.sort();
        let popped: Vec<(u64, u64)> = drain(&mut q).iter().map(|&(t, s, _)| (t, s)).collect();
        assert_eq!(popped, keys);
    }

    #[test]
    fn cancel_removes_exactly_one_entry() {
        let mut q = CalendarQueue::new();
        for i in 0..10u64 {
            q.push(SimTime::from_nanos(i * 100), i, i as u32);
        }
        assert_eq!(q.cancel(SimTime::from_nanos(300), 3), Some(3));
        assert_eq!(q.cancel(SimTime::from_nanos(300), 3), None);
        assert_eq!(q.len(), 9);
        let order: Vec<u64> = drain(&mut q).iter().map(|&(_, s, _)| s).collect();
        assert_eq!(order, vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn push_below_frontier_is_found_first() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_nanos(1_000_000), 0, 0);
        assert_eq!(q.pop().map(|(_, s, _)| s), Some(0));
        // The frontier sits at 1 ms now; an earlier push must still win.
        q.push(SimTime::from_nanos(2_000_000), 1, 1);
        q.push(SimTime::from_nanos(5), 2, 2);
        assert_eq!(q.pop().map(|(_, s, _)| s), Some(2));
        assert_eq!(q.pop().map(|(_, s, _)| s), Some(1));
    }

    #[test]
    fn equal_timestamp_cluster_keeps_a_nonzero_width_and_fifo_order() {
        // Regression for the resize degenerate case: 10k entries sharing
        // one timestamp force several doubling rebuilds whose mean-gap
        // estimate is exactly zero. The width clamp must hold (shift >= 1)
        // and the monotone seq tie-break must still drain FIFO.
        let mut q = CalendarQueue::new();
        let t = 123_456_789u64;
        for s in 0..10_000u64 {
            q.push(SimTime::from_nanos(t), s, s as u32);
        }
        assert!(q.shift >= 1, "bucket width collapsed to zero");
        assert_eq!(q.len(), 10_000);
        // Drain half, land one later event, then drain the rest: the
        // cluster must come out in seq order with the tail event last.
        let mut got = Vec::new();
        for _ in 0..5_000 {
            got.push(q.pop().expect("cluster half"));
        }
        q.push(SimTime::from_nanos(t + 1), 10_000, 10_000);
        while let Some(e) = q.pop() {
            got.push(e);
        }
        assert_eq!(got.len(), 10_001);
        for (i, (time, seq, item)) in got.iter().take(10_000).enumerate() {
            assert_eq!(time.as_nanos(), t);
            assert_eq!(*seq, i as u64);
            assert_eq!(*item, i as u32);
        }
        assert_eq!(got[10_000].1, 10_000);
    }

    #[test]
    fn shrink_preserves_content() {
        let mut q = CalendarQueue::new();
        for i in 0..200u64 {
            q.push(SimTime::from_nanos(i * 333), i, i as u32);
        }
        for i in 0..195u64 {
            assert_eq!(q.pop().map(|(_, s, _)| s), Some(i));
        }
        let rest: Vec<u64> = drain(&mut q).iter().map(|&(_, s, _)| s).collect();
        assert_eq!(rest, vec![195, 196, 197, 198, 199]);
    }
}
