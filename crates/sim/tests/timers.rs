//! Timer cancellation against a flat model. Random interleavings of
//! registrations, cancels and runs drive a world whose only events are
//! sleeps, while a sorted `Vec` of `(time, seq)` plays the kernel. After
//! every run the fired order, `events_processed`, the trace hash, the
//! clock and `next_event_time` must equal the model's. Cases are driven
//! by the in-repo [`Rng`] so the suite is hermetic.

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

use paragon_sim::{Rng, Sim, SimDuration, SimTime};

/// A timer's sleep, shared by its task and the test. Taking it drops the
/// `Sleep`, which cancels its kernel entry.
type Slot = Rc<RefCell<Option<Pin<Box<dyn Future<Output = ()>>>>>>;

/// The world under test: timer `i` is a task awaiting `slots[i]`. When
/// it fires it logs `i` and drops the sleep of `victims[i]`, if any.
#[derive(Default)]
struct Timers {
    slots: Rc<RefCell<Vec<Slot>>>,
    victims: Rc<RefCell<Vec<Option<usize>>>>,
    fired: Rc<RefCell<Vec<usize>>>,
}

impl Timers {
    /// Spawn the next timer. Its sleep registers when the task is first
    /// polled, i.e. at the start of the next run.
    fn schedule(&self, sim: &Sim, d: SimDuration) {
        let slot: Slot = Rc::new(RefCell::new(Some(Box::pin(sim.sleep(d)))));
        let id = self.slots.borrow().len();
        self.slots.borrow_mut().push(slot.clone());
        self.victims.borrow_mut().push(None);
        let (slots, victims, fired) =
            (self.slots.clone(), self.victims.clone(), self.fired.clone());
        sim.spawn(poll_fn(move |cx| {
            let mut sleep = slot.borrow_mut();
            // Cancelled before it ever registered.
            let Some(s) = sleep.as_mut() else {
                return Poll::Ready(());
            };
            if s.as_mut().poll(cx).is_pending() {
                return Poll::Pending;
            }
            *sleep = None;
            fired.borrow_mut().push(id);
            if let Some(v) = victims.borrow()[id] {
                let victim = slots.borrow()[v].clone();
                victim.borrow_mut().take();
            }
            Poll::Ready(())
        }));
    }

    fn cancel(&self, timer: usize) {
        let slot = self.slots.borrow()[timer].clone();
        slot.borrow_mut().take();
    }
}

/// The kernel as a flat list: `pending` sorted on `(time, seq)`.
struct Model {
    now: u64,
    seq: u64,
    events: u64,
    hash: u64,
    /// `(time, seq, timer)`, sorted.
    pending: Vec<(u64, u64, usize)>,
    /// Timers spawned since the last run: `(timer, deadline)`.
    staged: Vec<(usize, u64)>,
    victims: Vec<Option<usize>>,
    /// Per timer: whether its entry went to the lane, i.e. no pending
    /// entry was later when it registered.
    in_lane: Vec<bool>,
    fired: Vec<usize>,
    /// Cancels of registered entries: `[lane, heap, due at now]`.
    cancels: [u32; 3],
}

impl Model {
    fn new() -> Self {
        Model {
            now: 0,
            seq: 0,
            events: 0,
            hash: 0xcbf2_9ce4_8422_2325,
            pending: Vec::new(),
            staged: Vec::new(),
            victims: Vec::new(),
            in_lane: Vec::new(),
            fired: Vec::new(),
            cancels: [0; 3],
        }
    }

    fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn cancel(&mut self, timer: usize) {
        if let Some(at) = self.pending.iter().position(|e| e.2 == timer) {
            let (time, _, _) = self.pending.remove(at);
            self.cancels[if self.in_lane[timer] { 0 } else { 1 }] += 1;
            if time == self.now {
                self.cancels[2] += 1;
            }
        }
        self.staged.retain(|e| e.0 != timer);
    }

    /// A run first polls the new tasks in spawn order, each registering
    /// its sleep, then fires every live entry due by `horizon`.
    fn run_until(&mut self, horizon: u64) {
        for (timer, deadline) in std::mem::take(&mut self.staged) {
            let entry = (deadline.max(self.now), self.seq, timer);
            self.seq += 1;
            self.in_lane[timer] = self.pending.iter().all(|e| e.0 <= entry.0);
            let at = self.pending.partition_point(|e| *e < entry);
            self.pending.insert(at, entry);
        }
        while let Some(&(time, seq, timer)) = self.pending.first() {
            if time > horizon {
                break;
            }
            self.pending.remove(0);
            self.now = time;
            self.events += 1;
            self.fold(time);
            self.fold(seq);
            self.fired.push(timer);
            if let Some(v) = self.victims[timer] {
                self.cancel(v);
            }
        }
    }
}

#[test]
fn cancelled_timers_leave_the_event_stream_exactly() {
    let mut rng = Rng::seed_from_u64(0x71e5);
    let mut cancels = [0u32; 3];
    for case in 0..150 {
        let sim = Sim::new(case);
        let w = Timers::default();
        let mut m = Model::new();
        // Far deadlines rise like `now + 10 s` attempt timeouts.
        let mut far = 0u64;
        let check = |m: &Model, report: paragon_sim::RunReport| {
            assert_eq!(*w.fired.borrow(), m.fired, "case {case}: fired order");
            assert_eq!(report.events_processed, m.events, "case {case}");
            assert_eq!(report.trace_hash, m.hash, "case {case}");
            assert_eq!(report.end_time.as_nanos(), m.now, "case {case}");
            assert_eq!(
                sim.next_event_time().map(SimTime::as_nanos),
                m.pending.first().map(|e| e.0),
                "case {case}: next_event_time"
            );
        };
        for _ in 0..rng.range_u64(1..150) {
            match rng.range_u64(0..10) {
                // Register a timer.
                0..=4 => {
                    let now = m.now;
                    let id = m.victims.len();
                    let deadline = match rng.range_u64(0..4) {
                        // Far and rising: queues in the lane.
                        0 => {
                            far = far.max(now) + rng.range_u64(0..3);
                            far + 10_000
                        }
                        // Near: lands in the heap behind a far one.
                        1 => now + rng.range_u64(1..50),
                        // A tie with a pending entry, which may cancel
                        // this one when it fires: at this one's instant.
                        2 => match m.pending.get(rng.range_usize(0..m.pending.len().max(1))) {
                            Some(&(time, _, earlier)) => {
                                if rng.gen_bool(0.5) && m.victims[earlier].is_none() {
                                    m.victims[earlier] = Some(id);
                                    w.victims.borrow_mut()[earlier] = Some(id);
                                }
                                time
                            }
                            None => now,
                        },
                        // Due at the current instant.
                        _ => now,
                    };
                    w.schedule(&sim, SimDuration::from_nanos(deadline - now));
                    m.staged.push((id, deadline));
                    m.victims.push(None);
                    m.in_lane.push(false);
                    // Some timers cancel an earlier one when they fire.
                    if rng.gen_bool(0.2) {
                        let v = rng.range_usize(0..id + 1);
                        if v != id {
                            m.victims[id] = Some(v);
                            w.victims.borrow_mut()[id] = Some(v);
                        }
                    }
                }
                // Cancel a pending timer from outside any task.
                5..=6 => {
                    let pick = rng.range_usize(0..m.pending.len().max(1));
                    if let Some(&(_, _, timer)) = m.pending.get(pick) {
                        w.cancel(timer);
                        m.cancel(timer);
                    }
                }
                // Run to the next live event, a little past it, or the
                // current instant.
                _ => {
                    let next = m.pending.first().map_or(m.now, |e| e.0);
                    let horizon = match rng.range_u64(0..3) {
                        0 => next,
                        1 => next + rng.range_u64(0..2_000),
                        _ => m.now,
                    };
                    let report = sim.run_until(SimTime::from_nanos(horizon));
                    m.run_until(horizon);
                    check(&m, report);
                }
            }
        }
        let report = sim.run();
        m.run_until(u64::MAX);
        check(&m, report);
        assert_eq!(sim.next_event_time(), None, "case {case}");
        for (total, n) in cancels.iter_mut().zip(m.cancels) {
            *total += n;
        }
    }
    // The cases cancel every kind of entry: in the lane, in the heap,
    // and due at the instant the kernel has reached.
    assert!(cancels.iter().all(|&n| n > 50), "cancels {cancels:?}");
}
