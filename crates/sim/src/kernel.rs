//! The event queue at the heart of the simulation.
//!
//! Every future that needs to wait for virtual time registers a [`Waker`]
//! at a deadline. The kernel pops entries in `(time, seq)` order — `seq` is
//! a monotone counter, so simultaneous events fire in registration order and
//! the whole simulation is deterministic.
//!
//! Storage is a [`BinaryHeap`] (of [`Reverse`]d keys) beside a FIFO lane;
//! both hold `(time, seq, slot)` keys. A wake whose deadline is no
//! earlier than the lane's last one is appended to the lane; any other
//! goes to the heap. `seq` grows with every registration, so an appended
//! entry's `(time, seq)` is greater than every lane entry's and the lane
//! stays sorted; popping the smaller of heap top and lane front therefore
//! fires exactly the order a single heap would, with the same count and
//! hash. Most far deadlines (every RPC attempt timeout is `now + 10 s`)
//! arrive in deadline order, so they queue in the lane at O(1) and never
//! sift through the heap.
//!
//! A registration can be cancelled: [`Kernel::schedule_wake`] returns a
//! [`TimerKey`], and [`Kernel::cancel`] drops the registered waker at once.
//! Every queued registration's waker waits in one slab, and both queues
//! hold `(time, seq, slot)` keys that name its slot, so a cancel is the
//! same wherever the key sits: entries leave in `(time, seq)` order, so
//! one comparison with the last fired key tells whether the entry is
//! still queued, and if it is, the cancel empties its slot and leaves the
//! key as a tombstone. [`Kernel::fire_next`] and
//! [`Kernel::next_event_time`] pop tombstones from either queue's front,
//! freeing their slots, without counting or hashing them, advancing the
//! clock or waking anything, and every surviving entry keeps the
//! `(time, seq)` it was registered with: the event stream is exactly the
//! one without the cancelled registrations. No cancel scans a queue.
//! A [`Sleep`](crate::executor::Sleep) cancels its entry when it is
//! dropped, so a timeout whose future wins (every healthy RPC attempt)
//! leaves no event behind.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::num::NonZeroU32;
use std::task::Waker;

use crate::time::SimTime;

/// A waker's index in the slab. Slot 0 is a permanent placeholder, so a
/// [`TimerKey`] has a niche: `Sleep`'s registration state stores its tag
/// there, and every future holding a `Sleep` keeps its size.
type Slot = NonZeroU32;

/// A queued registration: `seq` is unique, so the slot never takes part in
/// the order. A key whose slot is empty is a tombstone.
type Key = (SimTime, u64, Slot);

/// Names one registration for [`Kernel::cancel`]: its `(time, seq)` (the
/// deadline clamped to the registration instant) and its waker's slot.
/// Not `Clone`: a key is cancelled at most once, so a slot reused after
/// its tombstone left cannot be emptied by a stale key.
#[derive(Debug)]
pub(crate) struct TimerKey {
    pub(crate) time: SimTime,
    seq: u64,
    slot: Slot,
}

/// Event queue + virtual clock. Owned by the executor behind a `RefCell`.
pub(crate) struct Kernel {
    pub(crate) now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Key>>,
    /// Sorted on `(time, seq)`: see the module docs.
    lane: VecDeque<Key>,
    /// The wakers of every queued registration, by slot.
    slots: Vec<Option<Waker>>,
    /// Slots whose key has left its queue.
    free_slots: Vec<Slot>,
    /// `(time, seq)` of the last entry fired: every entry at or below it
    /// has left the queue.
    last_fired: Option<(SimTime, u64)>,
    pub(crate) events_processed: u64,
    /// FNV-1a hash folded over every `(time, seq)` fired; lets tests assert
    /// that two runs with the same seed took the identical event path.
    pub(crate) trace_hash: u64,
}

impl Kernel {
    pub(crate) fn new() -> Self {
        Kernel {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            slots: vec![None],
            free_slots: Vec::new(),
            last_fired: None,
            events_processed: 0,
            trace_hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Register `waker` to fire at `deadline` (clamped to not be in the past).
    pub(crate) fn schedule_wake(&mut self, deadline: SimTime, waker: Waker) -> TimerKey {
        let time = deadline.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                *self.waker(slot) = Some(waker);
                slot
            }
            None => {
                self.slots.push(Some(waker));
                Slot::new((self.slots.len() - 1) as u32).expect("slot 0 is the placeholder")
            }
        };
        if self.lane.back().is_none_or(|&(last, _, _)| time >= last) {
            self.lane.push_back((time, seq, slot));
        } else {
            self.heap.push(Reverse((time, seq, slot)));
        }
        TimerKey { time, seq, slot }
    }

    /// Cancel the registration `key` and drop its waker now. A no-op when
    /// the entry already fired.
    pub(crate) fn cancel(&mut self, key: TimerKey) {
        if self
            .last_fired
            .is_none_or(|last| (key.time, key.seq) > last)
        {
            *self.waker(key.slot) = None;
        }
    }

    /// Pop the tombstones at the lane's front and the heap's top, freeing
    /// their slots, then return the earliest entry's key and whether it is
    /// the lane's front.
    fn peek_live(&mut self) -> Option<(Key, bool)> {
        while let Some(&(_, _, slot)) = self.lane.front() {
            if self.waker(slot).is_some() {
                break;
            }
            self.lane.pop_front();
            self.free_slots.push(slot);
        }
        while let Some(&Reverse((_, _, slot))) = self.heap.peek() {
            if self.waker(slot).is_some() {
                break;
            }
            self.heap.pop();
            self.free_slots.push(slot);
        }
        match (self.heap.peek(), self.lane.front()) {
            (Some(&Reverse(h)), Some(&l)) if h < l => Some((h, false)),
            (_, Some(&l)) => Some((l, true)),
            (Some(&Reverse(h)), None) => Some((h, false)),
            (None, None) => None,
        }
    }

    /// The instant of the earliest live entry.
    pub(crate) fn next_event_time(&mut self) -> Option<SimTime> {
        self.peek_live().map(|((time, _, _), _)| time)
    }

    /// Pop the earliest live entry if it is due by `horizon`, advance the
    /// clock, and return its waker.
    pub(crate) fn fire_next(&mut self, horizon: SimTime) -> Option<Waker> {
        let ((time, seq, slot), from_lane) = self.peek_live()?;
        if time > horizon {
            return None;
        }
        if from_lane {
            self.lane.pop_front();
        } else {
            self.heap.pop();
        }
        self.free_slots.push(slot);
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.last_fired = Some((time, seq));
        self.events_processed += 1;
        self.fold_trace(time.as_nanos());
        self.fold_trace(seq);
        self.waker(slot).take()
    }

    fn waker(&mut self, slot: Slot) -> &mut Option<Waker> {
        &mut self.slots[slot.get() as usize]
    }

    fn fold_trace(&mut self, v: u64) {
        // FNV-1a over the 8 bytes of v.
        let mut h = self.trace_hash;
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.trace_hash = h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel only stores and hands back wakers; it never wakes one.
    fn waker() -> Waker {
        Waker::noop().clone()
    }

    #[test]
    fn fires_in_time_then_seq_order() {
        let mut k = Kernel::new();
        let w = waker();
        k.schedule_wake(SimTime::from_nanos(20), w.clone());
        k.schedule_wake(SimTime::from_nanos(10), w.clone());
        k.schedule_wake(SimTime::from_nanos(10), w);
        // First fire: earliest time.
        k.fire_next(SimTime::MAX).unwrap();
        assert_eq!(k.now, SimTime::from_nanos(10));
        k.fire_next(SimTime::MAX).unwrap();
        assert_eq!(k.now, SimTime::from_nanos(10));
        k.fire_next(SimTime::MAX).unwrap();
        assert_eq!(k.now, SimTime::from_nanos(20));
        assert!(k.fire_next(SimTime::MAX).is_none());
        assert_eq!(k.events_processed, 3);
    }

    #[test]
    fn past_deadlines_are_clamped_to_now() {
        let mut k = Kernel::new();
        let w = waker();
        k.schedule_wake(SimTime::from_nanos(100), w.clone());
        k.fire_next(SimTime::MAX).unwrap();
        assert_eq!(k.now, SimTime::from_nanos(100));
        // Deadline in the past must not move the clock backwards.
        k.schedule_wake(SimTime::from_nanos(5), w);
        k.fire_next(SimTime::MAX).unwrap();
        assert_eq!(k.now, SimTime::from_nanos(100));
    }

    #[test]
    fn trace_hash_distinguishes_orders() {
        let w = waker();
        let mut a = Kernel::new();
        a.schedule_wake(SimTime::from_nanos(1), w.clone());
        a.schedule_wake(SimTime::from_nanos(2), w.clone());
        while a.fire_next(SimTime::MAX).is_some() {}

        let mut b = Kernel::new();
        b.schedule_wake(SimTime::from_nanos(2), w.clone());
        b.schedule_wake(SimTime::from_nanos(1), w);
        while b.fire_next(SimTime::MAX).is_some() {}

        // Same events, different registration order: seq numbers differ, so
        // the traces differ. (Determinism tests compare equal-seed runs.)
        assert_ne!(a.trace_hash, b.trace_hash);
    }

    #[test]
    fn clamped_same_instant_wakes_fire_in_registration_order() {
        // Many wakes land at the already-reached instant `now`: they must
        // drain FIFO.
        let mut k = Kernel::new();
        let w = waker();
        k.schedule_wake(SimTime::from_nanos(1_000), w.clone());
        k.fire_next(SimTime::MAX).unwrap();
        let mut hashes = Vec::new();
        for _ in 0..50 {
            k.schedule_wake(SimTime::ZERO, w.clone());
        }
        while k.fire_next(SimTime::MAX).is_some() {
            hashes.push(k.trace_hash);
            assert_eq!(k.now, SimTime::from_nanos(1_000));
        }
        assert_eq!(k.events_processed, 51);
        // All 50 folds must be distinct (distinct seq) — FIFO covered by
        // the seq fold order being reproducible.
        hashes.dedup();
        assert_eq!(hashes.len(), 50);
    }

    /// The heap-plus-lane queue fires exactly what one sorted queue would.
    /// Random interleavings of registrations and fires mix the shapes the
    /// lane must get right: far deadlines in rising order (RPC attempt
    /// timeouts), near deadlines registered behind them, ties at one
    /// instant and deadlines already in the past. Every fire is checked
    /// against a reference that sorts on `(time, seq)`: the clock, the
    /// running trace hash (which folds each fired `(time, seq)`) and the
    /// event count.
    #[test]
    fn lane_and_heap_fire_in_exact_time_seq_order() {
        let w = waker();
        let mut rng = crate::rng::Rng::seed_from_u64(0x1a2e);
        for case in 0..200 {
            let mut k = Kernel::new();
            let mut reference = Kernel::new();
            // Pending (time, seq), unsorted; the reference pops its minimum.
            let mut pending: Vec<(SimTime, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut far = 0u64;
            for _ in 0..rng.range_u64(1..400) {
                if rng.range_u64(0..3) == 0 {
                    let fired = k.fire_next(SimTime::MAX).is_some();
                    let min = pending.iter().enumerate().min_by_key(|(_, e)| **e);
                    let Some((i, &(time, s))) = min else {
                        assert!(!fired, "case {case}: fired from an empty queue");
                        continue;
                    };
                    pending.swap_remove(i);
                    assert!(fired, "case {case}: lost an entry");
                    reference.now = time;
                    reference.events_processed += 1;
                    reference.fold_trace(time.as_nanos());
                    reference.fold_trace(s);
                    assert_eq!(k.now, reference.now, "case {case}");
                    assert_eq!(k.trace_hash, reference.trace_hash, "case {case}");
                    continue;
                }
                let now = k.now.as_nanos();
                let deadline = match rng.range_u64(0..4) {
                    // Far and monotone, like `now + 10 s` timeouts.
                    0 => {
                        far = far.max(now) + rng.range_u64(0..3);
                        far + 10_000
                    }
                    // Near: often earlier than a far deadline already queued.
                    1 => now + rng.range_u64(0..50),
                    // A tie with some pending entry.
                    2 => pending
                        .get(rng.range_usize(0..pending.len().max(1)))
                        .map_or(now, |e| e.0.as_nanos()),
                    // In the past: clamped to now.
                    _ => now.saturating_sub(rng.range_u64(1..20)),
                };
                let deadline = SimTime::from_nanos(deadline);
                k.schedule_wake(deadline, w.clone());
                pending.push((deadline.max(k.now), seq));
                seq += 1;
            }
            while k.fire_next(SimTime::MAX).is_some() {
                let min = pending.iter().enumerate().min_by_key(|(_, e)| **e);
                let (i, &(time, s)) = min.expect("the kernel fired an entry the model lacks");
                pending.swap_remove(i);
                reference.events_processed += 1;
                reference.fold_trace(time.as_nanos());
                reference.fold_trace(s);
                assert_eq!(k.now, time, "case {case}");
                assert_eq!(k.trace_hash, reference.trace_hash, "case {case}");
            }
            assert!(pending.is_empty(), "case {case}: entries never fired");
            assert_eq!(k.events_processed, reference.events_processed);
            assert_eq!(k.next_event_time(), None);
        }
    }
}
