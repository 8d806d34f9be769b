//! The event queue at the heart of the simulation.
//!
//! Every future that needs to wait for virtual time registers a [`Waker`]
//! at a deadline. The kernel pops entries in `(time, seq)` order — `seq` is
//! a monotone counter, so simultaneous events fire in registration order and
//! the whole simulation is deterministic. Storage is a [`CalendarQueue`],
//! which pops in exactly the order a binary heap keyed on `(time, seq)`
//! would, without the O(log n) sift per event.

use std::task::Waker;

use crate::calendar::CalendarQueue;
use crate::time::SimTime;

/// Event queue + virtual clock. Owned by the executor behind a `RefCell`.
pub(crate) struct Kernel {
    pub(crate) now: SimTime,
    seq: u64,
    queue: CalendarQueue<Waker>,
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
            queue: CalendarQueue::new(),
            events_processed: 0,
            trace_hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Register `waker` to fire at `deadline` (clamped to not be in the past).
    pub(crate) fn schedule_wake(&mut self, deadline: SimTime, waker: Waker) {
        let time = deadline.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, waker);
    }

    pub(crate) fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek().map(|(t, _)| t)
    }

    /// Pop the earliest entry, advance the clock, and return its waker.
    pub(crate) fn fire_next(&mut self) -> Option<Waker> {
        let (time, seq, waker) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.events_processed += 1;
        self.fold_trace(time.as_nanos());
        self.fold_trace(seq);
        Some(waker)
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
        k.fire_next().unwrap();
        assert_eq!(k.now, SimTime::from_nanos(10));
        k.fire_next().unwrap();
        assert_eq!(k.now, SimTime::from_nanos(10));
        k.fire_next().unwrap();
        assert_eq!(k.now, SimTime::from_nanos(20));
        assert!(k.fire_next().is_none());
        assert_eq!(k.events_processed, 3);
    }

    #[test]
    fn past_deadlines_are_clamped_to_now() {
        let mut k = Kernel::new();
        let w = waker();
        k.schedule_wake(SimTime::from_nanos(100), w.clone());
        k.fire_next().unwrap();
        assert_eq!(k.now, SimTime::from_nanos(100));
        // Deadline in the past must not move the clock backwards.
        k.schedule_wake(SimTime::from_nanos(5), w);
        k.fire_next().unwrap();
        assert_eq!(k.now, SimTime::from_nanos(100));
    }

    #[test]
    fn trace_hash_distinguishes_orders() {
        let w = waker();
        let mut a = Kernel::new();
        a.schedule_wake(SimTime::from_nanos(1), w.clone());
        a.schedule_wake(SimTime::from_nanos(2), w.clone());
        while a.fire_next().is_some() {}

        let mut b = Kernel::new();
        b.schedule_wake(SimTime::from_nanos(2), w.clone());
        b.schedule_wake(SimTime::from_nanos(1), w);
        while b.fire_next().is_some() {}

        // Same events, different registration order: seq numbers differ, so
        // the traces differ. (Determinism tests compare equal-seed runs.)
        assert_ne!(a.trace_hash, b.trace_hash);
    }

    #[test]
    fn clamped_same_instant_wakes_fire_in_registration_order() {
        // Many wakes land at the already-reached instant `now`: they must
        // drain FIFO, exactly as the binary-heap scheduler did.
        let mut k = Kernel::new();
        let w = waker();
        k.schedule_wake(SimTime::from_nanos(1_000), w.clone());
        k.fire_next().unwrap();
        let mut hashes = Vec::new();
        for _ in 0..50 {
            k.schedule_wake(SimTime::ZERO, w.clone());
        }
        while k.fire_next().is_some() {
            hashes.push(k.trace_hash);
            assert_eq!(k.now, SimTime::from_nanos(1_000));
        }
        assert_eq!(k.events_processed, 51);
        // All 50 folds must be distinct (distinct seq) — FIFO covered by
        // the seq fold order being reproducible.
        hashes.dedup();
        assert_eq!(hashes.len(), 50);
    }
}
