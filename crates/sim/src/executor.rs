//! The deterministic single-threaded executor.
//!
//! A [`Sim`] is a cheaply clonable handle to one simulation world. Model
//! code is written as ordinary `async fn`s that are spawned onto the
//! executor; awaiting [`Sim::sleep`] (or any synchronization primitive from
//! [`crate::sync`]) parks the task until the event heap reaches the right
//! virtual instant. `Sim::run` drives everything to completion and returns a
//! report of what happened.
//!
//! The executor never consults the host clock and breaks every tie with a
//! monotone sequence number, so a given `(seed, model)` pair always produces
//! the identical event trace — the property tests in this crate assert it.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::fault::FaultPlan;
use crate::kernel::Kernel;
use crate::rng::Rng;
use crate::task::{ReadyQueue, TaskTable};
use crate::time::{SimDuration, SimTime};
use crate::trace::{EventBody, ReqId, Trace};

/// Summary of a completed (or exhausted) simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time when the run stopped.
    pub end_time: SimTime,
    /// Number of timer events fired.
    pub events_processed: u64,
    /// Number of wakes the executor handled: every task poll, plus each
    /// stale wake it dropped because the task had already completed. A
    /// spurious or duplicate wake adds here but fires no timer event, so
    /// this counts executor work the trace hash cannot see.
    pub polls: u64,
    /// Tasks that were spawned but never completed (deadlocked or still
    /// waiting when the horizon was reached). Zero for a clean run.
    pub unfinished_tasks: usize,
    /// Hash of the full `(time, seq)` event trace; equal-seed runs of the
    /// same model must produce equal hashes.
    pub trace_hash: u64,
}

/// Handle to a simulation world. Clone freely; all clones share state.
#[derive(Clone)]
pub struct Sim {
    kernel: Rc<RefCell<Kernel>>,
    tasks: Rc<RefCell<TaskTable>>,
    ready: ReadyQueue,
    seed: u64,
    trace: Trace,
    faults: FaultPlan,
}

impl Sim {
    /// Create a fresh simulation world. `seed` feeds every RNG derived via
    /// [`Sim::rng`]; two worlds with the same seed and model are identical.
    pub fn new(seed: u64) -> Self {
        Sim {
            kernel: Rc::new(RefCell::new(Kernel::new())),
            tasks: Rc::new(RefCell::new(TaskTable::default())),
            ready: ReadyQueue::default(),
            seed,
            trace: Trace::default(),
            faults: FaultPlan::new(derive_seed(seed, "fault-plan")),
        }
    }

    /// This world's flight recorder. Arm it with `Trace::arm` to make
    /// [`Sim::emit`] calls record; disarmed tracing costs nothing.
    pub fn tracer(&self) -> Trace {
        self.trace.clone()
    }

    /// This world's fault-injection plan. Disarmed by default: configure
    /// it, then [`FaultPlan::arm`] after setup I/O completes. Its draws
    /// come from the `"fault-plan"` RNG stream of this world's seed.
    pub fn faults(&self) -> FaultPlan {
        self.faults.clone()
    }

    /// Record a trace event at the current virtual time; `body` is only
    /// evaluated when the recorder is armed, so a disarmed simulation
    /// performs no per-event work or allocation.
    pub fn emit(&self, body: impl FnOnce() -> EventBody) {
        self.trace.record(self.now(), body);
    }

    /// Mint a fresh request id for threading one logical operation through
    /// the trace (client → ART → mesh → server → disk). Monotone from 1.
    pub fn mint_req(&self) -> ReqId {
        self.trace.mint_req()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.borrow().now
    }

    /// A deterministic RNG stream named by `label`. The same `(seed, label)`
    /// always yields the same stream, independent of call order.
    pub fn rng(&self, label: &str) -> Rng {
        Rng::seed_from_u64(derive_seed(self.seed, label))
    }

    /// Spawn a task. The returned `JoinHandle` can be awaited for the
    /// task's output; dropping it detaches the task (it keeps running).
    pub fn spawn<F, T>(&self, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.spawn_named("task", fut)
    }

    /// Spawn with a diagnostic label (shows up in deadlock reports).
    pub fn spawn_named<F, T>(&self, label: &'static str, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let state: Rc<RefCell<JoinState<T>>> = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
        }));
        let state2 = state.clone();
        let wrapped: Pin<Box<dyn Future<Output = ()>>> = Box::pin(async move {
            let value = fut.await;
            let mut st = state2.borrow_mut();
            st.result = Some(value);
            if let Some(w) = st.waker.take() {
                w.wake();
            }
        });
        let id = self.tasks.borrow_mut().insert(label, wrapped, &self.ready);
        self.ready.push(id);
        JoinHandle { state }
    }

    /// A future that completes `d` of virtual time from now.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// A future that completes at virtual instant `deadline`.
    pub(crate) fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            scheduled: false,
        }
    }

    /// Run `fut` but give up after `d` of virtual time. Returns `None` on
    /// timeout (the inner future is dropped, cancelling whatever it owned).
    pub async fn timeout<F, T>(&self, d: SimDuration, fut: F) -> Option<T>
    where
        F: Future<Output = T>,
    {
        let sleep = self.sleep(d);
        let mut sleep = std::pin::pin!(sleep);
        let mut fut = std::pin::pin!(fut);
        std::future::poll_fn(move |cx| {
            if let Poll::Ready(v) = fut.as_mut().poll(cx) {
                return Poll::Ready(Some(v));
            }
            if sleep.as_mut().poll(cx).is_ready() {
                return Poll::Ready(None);
            }
            Poll::Pending
        })
        .await
    }

    /// Drive the world until no task can make progress (clean completion or
    /// deadlock) and report what happened.
    pub fn run(&self) -> RunReport {
        self.run_inner(SimTime::MAX)
    }

    /// Drive the world, but stop once virtual time would pass `horizon`.
    pub fn run_until(&self, horizon: SimTime) -> RunReport {
        self.run_inner(horizon)
    }

    fn run_inner(&self, horizon: SimTime) -> RunReport {
        loop {
            self.drain_ready();
            let next = self.kernel.borrow().next_event_time();
            match next {
                Some(t) if t <= horizon => {
                    let waker = self
                        .kernel
                        .borrow_mut()
                        .fire_next()
                        .expect("heap entry vanished");
                    waker.wake();
                }
                _ => break,
            }
        }
        self.report()
    }

    /// Snapshot the run counters without driving anything.
    pub fn report(&self) -> RunReport {
        let kernel = self.kernel.borrow();
        let tasks = self.tasks.borrow();
        RunReport {
            end_time: kernel.now,
            events_processed: kernel.events_processed,
            polls: tasks.polls,
            unfinished_tasks: tasks.len(),
            trace_hash: kernel.trace_hash,
        }
    }

    /// Tear the world down: drop every remaining task (server loops and
    /// parked waiters included). Parked futures own `Sim` clones while
    /// the task map lives *inside* `Sim`, an `Rc` cycle that would
    /// otherwise keep the whole world alive forever; harnesses that
    /// build many worlds (a sweep runs dozens) must break it when a run
    /// finishes. The world must not be `run` again afterwards.
    pub fn shutdown(&self) {
        self.tasks.borrow_mut().clear();
    }

    /// Labels of tasks that have not completed, in spawn order. Useful in
    /// deadlock triage.
    pub fn pending_task_labels(&self) -> Vec<&'static str> {
        self.tasks.borrow().live_labels()
    }

    /// Poll woken tasks until the ready ring is empty.
    fn drain_ready(&self) {
        while let Some(id) = self.ready.pop() {
            // Take the future out so model code may re-enter `Sim` freely
            // while we poll, and so wakes during the poll are harmless.
            // The slot's cached waker is cloned (an `Rc` bump), not built.
            let (mut fut, waker) = {
                let mut tasks = self.tasks.borrow_mut();
                tasks.polls += 1;
                match tasks.get_live(id) {
                    Some(slot) => match slot.future.take() {
                        Some(f) => {
                            let w = slot.waker();
                            (f, w)
                        }
                        // Already being polled higher up the stack or woken
                        // twice; the in-progress poll will see the wake.
                        None => continue,
                    },
                    // Task already completed — or its slot was reused and
                    // the generation check failed. Stale wake; drop it.
                    None => continue,
                }
            };
            let mut cx = Context::from_waker(&waker);
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(()) => {
                    self.tasks.borrow_mut().remove(id);
                }
                Poll::Pending => {
                    if let Some(slot) = self.tasks.borrow_mut().get_live(id) {
                        slot.future = Some(fut);
                    }
                }
            }
        }
    }

    pub(crate) fn schedule_wake(&self, deadline: SimTime, waker: Waker) {
        self.kernel.borrow_mut().schedule_wake(deadline, waker);
    }
}

/// Derive a child seed from a base seed and a label (FNV-1a).
pub(crate) fn derive_seed(base: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ base.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Timer future returned by [`Sim::sleep`].
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    scheduled: bool,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // Always take at least one trip through the event heap, so that a
        // zero-length sleep still yields to other runnable tasks.
        if !self.scheduled {
            self.scheduled = true;
            let deadline = self.deadline;
            self.sim.schedule_wake(deadline, cx.waker().clone());
            return Poll::Pending;
        }
        if self.sim.now() >= self.deadline {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// Handle to a spawned task; await it for the task's output.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// True once the task has produced its output.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().result.is_some()
    }

    /// Take the output if the task already finished (without awaiting).
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.result.take() {
            Poll::Ready(v)
        } else {
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use std::cell::Cell;

    #[test]
    fn sleep_advances_virtual_time_only() {
        let sim = Sim::new(1);
        let done = Rc::new(Cell::new(false));
        let d2 = done.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_secs(3600)).await;
            d2.set(true);
        });
        let report = sim.run();
        assert!(done.get());
        assert_eq!(
            report.end_time,
            SimTime::ZERO + SimDuration::from_secs(3600)
        );
        assert_eq!(report.unfinished_tasks, 0);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let outer = sim.spawn(async move {
            let inner = s.spawn(async { 40 + 2 });
            inner.await
        });
        sim.run();
        assert_eq!(outer.try_take(), Some(42));
    }

    #[test]
    fn tasks_interleave_deterministically() {
        // Two sleepers with interleaved deadlines must wake in time order.
        let sim = Sim::new(7);
        let log: Rc<RefCell<Vec<(u32, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        for (who, start_ms) in [(1u32, 10u64), (2, 5)] {
            let s = sim.clone();
            let log = log.clone();
            sim.spawn(async move {
                for i in 0..3u64 {
                    s.sleep(SimDuration::from_millis(start_ms + i * 10)).await;
                    log.borrow_mut().push((who, s.now().as_nanos()));
                }
            });
        }
        sim.run();
        let times: Vec<u64> = log.borrow().iter().map(|&(_, t)| t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(
            times,
            sorted,
            "wakeups out of time order: {:?}",
            log.borrow()
        );
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_secs(100)).await;
        });
        let report = sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(report.unfinished_tasks, 1);
        assert_eq!(sim.pending_task_labels(), vec!["task"]);
    }

    #[test]
    fn timeout_cancels_slow_future() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let slow = s.sleep(SimDuration::from_secs(10));
            s.timeout(SimDuration::from_secs(1), slow).await
        });
        let report = sim.run();
        assert_eq!(h.try_take(), Some(None));
        // The world must not have run to the 10 s deadline: the slow sleep
        // was dropped, but its heap entry still fires (harmlessly) at 10 s.
        // What matters is the timeout resolved at 1 s.
        assert!(report.end_time >= SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn timeout_returns_value_when_fast() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move { s.timeout(SimDuration::from_secs(5), async { 9 }).await });
        sim.run();
        assert_eq!(h.try_take(), Some(Some(9)));
    }

    #[test]
    fn equal_seeds_produce_equal_traces() {
        fn build_and_run(seed: u64) -> RunReport {
            let sim = Sim::new(seed);
            for n in 0..5u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    for i in 0..4u64 {
                        s.sleep(SimDuration::from_micros((n + 1) * 7 + i * 13))
                            .await;
                    }
                });
            }
            sim.run()
        }
        let a = build_and_run(42);
        let b = build_and_run(42);
        assert_eq!(a, b);
    }

    #[test]
    fn derive_seed_separates_streams() {
        assert_ne!(derive_seed(1, "disk0"), derive_seed(1, "disk1"));
        assert_ne!(derive_seed(1, "disk0"), derive_seed(2, "disk0"));
        assert_eq!(derive_seed(3, "x"), derive_seed(3, "x"));
    }

    /// Spawn `fut` on an idle world; returns its handle and the id the
    /// executor queued it under.
    fn spawn_with_id<T: 'static>(
        sim: &Sim,
        fut: impl Future<Output = T> + 'static,
    ) -> (JoinHandle<T>, TaskId) {
        let h = sim.spawn(fut);
        let id = sim.ready.pop().expect("spawn queues the task");
        sim.ready.push(id);
        (h, id)
    }

    #[test]
    fn stale_wake_to_freed_slot_is_dropped() {
        let sim = Sim::new(1);
        let (h, id) = spawn_with_id(&sim, async {});
        sim.run();
        assert!(h.is_finished());
        // The task's slot is free; a wake addressed to it must be ignored.
        sim.ready.push(id);
        let report = sim.run();
        assert_eq!(report.unfinished_tasks, 0);
    }

    #[test]
    fn stale_wake_to_reused_slot_is_not_misdelivered() {
        // The generational-index ABA case: task A completes, its slot is
        // reused by task B, then a wake carrying A's old id arrives. The
        // generation mismatch must drop it — B must not be polled.
        let sim = Sim::new(1);
        let (_a, old_id) = spawn_with_id(&sim, async {});
        sim.run();

        // B: counts its polls and parks forever without registering a waker
        // anywhere, so only a (mis)delivered wake could poll it again.
        let polls = Rc::new(Cell::new(0u32));
        let p = polls.clone();
        let (_b, b_id) = spawn_with_id(&sim, async move {
            std::future::poll_fn(move |_| {
                p.set(p.get() + 1);
                Poll::<()>::Pending
            })
            .await
        });
        assert_eq!(b_id.slot(), old_id.slot(), "slot must be reused");
        assert_ne!(
            b_id.generation(),
            old_id.generation(),
            "generation must be bumped on free"
        );
        sim.run();
        assert_eq!(polls.get(), 1, "initial spawn polls B once");

        // Deliver the stale wake: addressed to the right slot, wrong
        // generation. B must not run.
        sim.ready.push(old_id);
        sim.run();
        assert_eq!(polls.get(), 1, "stale wake was misdelivered to B");
        assert_eq!(sim.report().polls, 3, "a dropped stale wake still counts");

        // Sanity: a wake with the *current* id does reach B. It is
        // spurious (B is not ready), so it adds a poll but no event.
        let events = sim.report().events_processed;
        sim.ready.push(b_id);
        sim.run();
        assert_eq!(polls.get(), 2);
        assert_eq!(sim.report().polls, 4);
        assert_eq!(sim.report().events_processed, events);
    }

    #[test]
    fn same_instant_wakes_fire_in_registration_order() {
        // Tasks 0..6 all sleep until the shared instant `t`, registering in
        // reverse spawn order (task i first waits 6 - i µs). Task 10 wakes
        // just before `t`, task 11 just after. At `t`, the wakes must fire in
        // registration order, and a zero-length sleep taken at `t` must run
        // after every wake already registered for `t` and before `t + 1`.
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let t = SimTime::from_nanos(1_000_000);
        for id in 0..6u32 {
            let (s, l) = (sim.clone(), log.clone());
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(6 - id as u64)).await;
                s.sleep_until(t).await;
                l.borrow_mut().push(id);
                if id == 5 {
                    s.sleep(SimDuration::ZERO).await;
                    l.borrow_mut().push(50);
                }
            });
        }
        for (id, at) in [(11u32, 1_000_001), (10, 999_999)] {
            let (s, l) = (sim.clone(), log.clone());
            sim.spawn(async move {
                s.sleep_until(SimTime::from_nanos(at)).await;
                l.borrow_mut().push(id);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![10, 5, 4, 3, 2, 1, 0, 50, 11]);
    }
}
