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

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::fault::FaultPlan;
use crate::kernel::{Kernel, TimerKey};
use crate::rng::Rng;
use crate::task::{JoinHandle, ReadyQueue, TaskTable};
use crate::time::{SimDuration, SimTime};
use crate::trace::{EventBody, ReqId, Trace};

/// Summary of a completed (or exhausted) simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time when the run stopped.
    pub end_time: SimTime,
    /// Number of timer events fired. A timer whose [`Sim::sleep`] future
    /// was dropped before its deadline is cancelled and never counted.
    pub events_processed: u64,
    /// Number of wakes the executor handled: every task poll, plus each
    /// stale wake it dropped because the task had already completed. A
    /// spurious or duplicate wake adds here but fires no timer event, so
    /// this counts executor work the trace hash cannot see. A cancelled
    /// timer wakes nothing, so it adds no poll either.
    pub polls: u64,
    /// Tasks that were spawned but never completed (deadlocked or still
    /// waiting when the horizon was reached). Zero for a clean run.
    pub unfinished_tasks: usize,
    /// Hash of the full `(time, seq)` event trace; equal-seed runs of the
    /// same model must produce equal hashes.
    pub trace_hash: u64,
}

/// Handle to a simulation world. Clone freely; all clones share state,
/// and a clone is one `Rc` count bump.
#[derive(Clone)]
pub struct Sim {
    world: Rc<World>,
}

/// What every clone of a [`Sim`] shares.
struct World {
    kernel: RefCell<Kernel>,
    tasks: RefCell<TaskTable>,
    ready: ReadyQueue,
    /// Wakes handled: task polls plus dropped stale wakes.
    polls: Cell<u64>,
    seed: u64,
    trace: Trace,
    faults: FaultPlan,
}

impl Sim {
    /// Create a fresh simulation world. `seed` feeds every RNG derived via
    /// [`Sim::rng`]; two worlds with the same seed and model are identical.
    pub fn new(seed: u64) -> Self {
        Sim {
            world: Rc::new(World {
                kernel: RefCell::new(Kernel::new()),
                tasks: RefCell::new(TaskTable::default()),
                ready: ReadyQueue::default(),
                polls: Cell::new(0),
                seed,
                trace: Trace::default(),
                faults: FaultPlan::new(derive_seed(seed, "fault-plan")),
            }),
        }
    }

    /// This world's flight recorder. Arm it with `Trace::arm` to make
    /// [`Sim::emit`] calls record; disarmed tracing costs nothing.
    pub fn tracer(&self) -> Trace {
        self.world.trace.clone()
    }

    /// This world's fault-injection plan. Disarmed by default: configure
    /// it, then [`FaultPlan::arm`] after setup I/O completes. Its draws
    /// come from the `"fault-plan"` RNG stream of this world's seed.
    pub fn faults(&self) -> FaultPlan {
        self.world.faults.clone()
    }

    /// Record a trace event at the current virtual time; `body` is only
    /// evaluated when the recorder is armed, so a disarmed simulation
    /// performs no per-event work or allocation.
    pub fn emit(&self, body: impl FnOnce() -> EventBody) {
        self.world.trace.record(self.now(), body);
    }

    /// Mint a fresh request id for threading one logical operation through
    /// the trace (client → ART → mesh → server → disk). Monotone from 1.
    pub fn mint_req(&self) -> ReqId {
        self.world.trace.mint_req()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.kernel.borrow().now
    }

    /// A deterministic RNG stream named by `label`. The same `(seed, label)`
    /// always yields the same stream, independent of call order.
    pub fn rng(&self, label: &str) -> Rng {
        Rng::seed_from_u64(derive_seed(self.world.seed, label))
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
        let world = &*self.world;
        let (task, handle) = world.tasks.borrow_mut().spawn(label, fut, &world.ready);
        world.ready.push(task);
        handle
    }

    /// A future that completes `d` of virtual time from now.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// A future that completes at virtual instant `deadline`.
    pub(crate) fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            timer: Timer::Unregistered(deadline),
        }
    }

    /// Run `fut` but give up `d` of virtual time from now. Resolves to
    /// `None` on timeout (the inner future is dropped, cancelling whatever
    /// it owned) and to `Some` of `fut`'s output if it finishes first;
    /// then, or whenever the timeout is dropped early, its timer is
    /// cancelled, so a timeout that did not fire leaves no event behind.
    /// Each poll polls `fut` first. The returned future stores `fut` once,
    /// beside one [`Sim::sleep`] future.
    pub fn timeout<F: Future>(&self, d: SimDuration, fut: F) -> Timeout<F> {
        Timeout {
            fut,
            sleep: self.sleep(d),
        }
    }

    /// The instant of the earliest timer that will still fire, or `None`
    /// when none is queued. Cancelled timers do not count.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.world.kernel.borrow_mut().next_event_time()
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
            let waker = self.world.kernel.borrow_mut().fire_next(horizon);
            match waker {
                Some(waker) => waker.wake(),
                None => break,
            }
        }
        self.report()
    }

    /// Snapshot the run counters without driving anything.
    pub fn report(&self) -> RunReport {
        let kernel = self.world.kernel.borrow();
        let tasks = self.world.tasks.borrow();
        RunReport {
            end_time: kernel.now,
            events_processed: kernel.events_processed,
            polls: self.world.polls.get(),
            unfinished_tasks: tasks.len(),
            trace_hash: kernel.trace_hash,
        }
    }

    /// Tear the world down: drop every remaining task (server loops and
    /// parked waiters included). Parked futures own `Sim` clones while
    /// the task map lives *inside* `Sim`, an `Rc` cycle that would
    /// otherwise keep the whole world alive forever; harnesses that
    /// build many worlds (a sweep runs dozens) must break it when a run
    /// finishes. Call it from outside the world's tasks; the world must
    /// not be `run` again afterwards.
    pub fn shutdown(&self) {
        self.world.tasks.borrow_mut().clear();
    }

    /// Labels of tasks that have not completed, in spawn order. Useful in
    /// deadlock triage.
    pub fn pending_task_labels(&self) -> Vec<&'static str> {
        let sizes = self.pending_task_sizes();
        sizes.into_iter().map(|(label, _)| label).collect()
    }

    /// Label and size in bytes of the future of each task that has not
    /// completed, in spawn order: what its spawn moved into its cell.
    pub fn pending_task_sizes(&self) -> Vec<(&'static str, usize)> {
        self.world.tasks.borrow().live_future_sizes()
    }

    /// Poll woken tasks until the ready ring is empty. Each pop is one
    /// handled wake: the task is polled unless it already finished.
    fn drain_ready(&self) {
        let world = &*self.world;
        while let Some(task) = world.ready.pop() {
            world.polls.set(world.polls.get() + 1);
            if let Some(slot) = task.run() {
                // Dropped outside the borrow: the task's output may own
                // anything, and its destructor may re-enter `Sim`.
                let finished = world.tasks.borrow_mut().remove(slot);
                drop(finished);
            }
        }
    }

    pub(crate) fn schedule_wake(&self, deadline: SimTime, waker: Waker) -> TimerKey {
        self.world
            .kernel
            .borrow_mut()
            .schedule_wake(deadline, waker)
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
///
/// The first poll registers a kernel timer at the deadline. Dropping the
/// `Sleep` cancels that timer if it has not fired: it is not counted,
/// hashed or woken, and its waker clone is dropped at once.
pub struct Sleep {
    sim: Sim,
    timer: Timer,
}

/// A [`Sleep`]'s deadline, then its kernel registration.
enum Timer {
    Unregistered(SimTime),
    /// Its `time` is the deadline, clamped to the registration instant:
    /// the clock passes one exactly when it passes the other.
    Registered(TimerKey),
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        match &self.timer {
            // Always take at least one trip through the event heap, so
            // that a zero-length sleep still yields to other runnable
            // tasks.
            &Timer::Unregistered(deadline) => {
                let key = self.sim.schedule_wake(deadline, cx.waker().clone());
                self.timer = Timer::Registered(key);
                Poll::Pending
            }
            Timer::Registered(key) if self.sim.now() >= key.time => Poll::Ready(()),
            Timer::Registered(_) => Poll::Pending,
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        // Move the key out: `cancel` consumes it, so it runs at most once.
        let timer = std::mem::replace(&mut self.timer, Timer::Unregistered(SimTime::ZERO));
        if let Timer::Registered(key) = timer {
            self.sim.world.kernel.borrow_mut().cancel(key);
        }
    }
}

/// Future returned by [`Sim::timeout`]: `fut` raced against a [`Sleep`].
pub struct Timeout<F> {
    fut: F,
    sleep: Sleep,
}

#[expect(
    unsafe_code,
    reason = "pin projection to the raced future, which is stored inline instead of boxed"
)]
impl<F: Future> Future for Timeout<F> {
    type Output = Option<F::Output>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: `fut` is structurally pinned: it is never moved out of a
        // `Timeout` or handed out unpinned, `Timeout` has no `Drop` impl,
        // and `Timeout<F>` is `Unpin` only when `F` is. `sleep` is `Unpin`
        // and is not pinned.
        let this = unsafe { self.get_unchecked_mut() };
        // SAFETY: as above; `this` came from a pinned `Timeout`.
        let fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        if let Poll::Ready(v) = fut.poll(cx) {
            return Poll::Ready(Some(v));
        }
        if Pin::new(&mut this.sleep).poll(cx).is_ready() {
            return Poll::Ready(None);
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Runnable;

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
        sim.shutdown();
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
        // The timeout fired at 1 s and dropped the slow sleep, which
        // cancelled its 10 s timer: the world stops at 1 s, one event in.
        assert_eq!(report.end_time, SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(report.events_processed, 1);
    }

    #[test]
    fn a_dropped_sleep_never_fires() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.spawn(async move {
            let mut early = Box::pin(s.sleep(SimDuration::from_secs(5)));
            // Register its timer, then drop it well before its deadline.
            std::future::poll_fn(|cx| {
                assert!(early.as_mut().poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            assert_eq!(
                s.next_event_time(),
                Some(SimTime::ZERO + SimDuration::from_secs(5))
            );
            drop(early);
            assert_eq!(s.next_event_time(), None);
            s.sleep(SimDuration::from_secs(1)).await;
        });
        let report = sim.run();
        assert_eq!(report.end_time, SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(report.events_processed, 1);
        // The spawn's poll and the 1 s wake: the cancelled timer woke no one.
        assert_eq!(report.polls, 2);
        assert_eq!(report.unfinished_tasks, 0);
    }

    #[test]
    fn a_timeout_whose_future_wins_leaves_no_timer() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let fast = s.sleep(SimDuration::from_millis(3));
            s.timeout(SimDuration::from_secs(10), fast).await
        });
        let report = sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(h.try_take(), Some(Some(())));
        assert_eq!(sim.next_event_time(), None);
        assert_eq!(report.end_time, SimTime::ZERO + SimDuration::from_millis(3));
        assert_eq!(report.events_processed, 1);
    }

    #[test]
    fn a_timeout_tied_with_its_future_yields_the_value_and_one_event() {
        // The future's timer registers first (it is polled first), so at
        // the shared deadline it fires first; the timeout's own timer, due
        // at that same instant, is cancelled unfired.
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let d = SimDuration::from_millis(2);
            s.timeout(d, s.sleep(d)).await
        });
        let report = sim.run();
        assert_eq!(h.try_take(), Some(Some(())));
        assert_eq!(report.end_time, SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(report.events_processed, 1);
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

    /// Spawn `fut` on an idle world; returns its handle and the task
    /// the executor queued.
    fn spawn_queued<T: 'static>(
        sim: &Sim,
        fut: impl Future<Output = T> + 'static,
    ) -> (JoinHandle<T>, Rc<dyn Runnable>) {
        let h = sim.spawn(fut);
        let task = sim.world.ready.pop().expect("spawn queues the task");
        sim.world.ready.push(task.clone());
        (h, task)
    }

    #[test]
    fn stale_wake_to_freed_slot_is_dropped() {
        let sim = Sim::new(1);
        let (h, task) = spawn_queued(&sim, async {});
        sim.run();
        assert!(h.is_finished());
        // The task finished and left the registry; a wake of it must be
        // counted and ignored.
        sim.world.ready.push(task);
        let report = sim.run();
        assert_eq!(report.unfinished_tasks, 0);
        assert_eq!(report.polls, 2);
        assert_eq!(h.try_take(), Some(()));
    }

    #[test]
    fn stale_wake_to_reused_slot_is_not_misdelivered() {
        // Task A stashes a clone of its waker and completes, task B is
        // spawned into A's registry slot, then the stale waker fires. It
        // must not poll B, and it must not be B's waker.
        let sim = Sim::new(1);
        let stash: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let a_stash = stash.clone();
        sim.spawn(std::future::poll_fn(move |cx| {
            *a_stash.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        sim.run();
        let stale = stash.borrow_mut().take().expect("A stashed its waker");

        // B: counts its polls and parks forever, keeping its waker where
        // nothing wakes it, so only a (mis)delivered wake could poll it.
        let polls = Rc::new(Cell::new(0u32));
        let p = polls.clone();
        let b_stash = stash.clone();
        sim.spawn(std::future::poll_fn(move |cx| {
            p.set(p.get() + 1);
            *b_stash.borrow_mut() = Some(cx.waker().clone());
            Poll::<()>::Pending
        }));
        sim.run();
        assert_eq!(polls.get(), 1, "initial spawn polls B once");
        let b_waker = stash.borrow_mut().take().expect("B stashed its waker");
        assert!(
            !stale.will_wake(&b_waker),
            "A's waker was recycled while a clone of it was outstanding"
        );

        // Fire the stale waker: it reaches A's finished task, not B.
        stale.wake();
        sim.run();
        assert_eq!(polls.get(), 1, "stale wake was misdelivered to B");
        assert_eq!(sim.report().polls, 3, "a dropped stale wake still counts");

        // Sanity: B's own waker does reach B. The wake is spurious (B is
        // not ready), so it adds a poll but no event.
        let events = sim.report().events_processed;
        b_waker.wake_by_ref();
        sim.run();
        assert_eq!(polls.get(), 2);
        assert_eq!(sim.report().polls, 4);
        assert_eq!(sim.report().events_processed, events);
        sim.shutdown();
    }

    #[test]
    fn a_waker_fired_after_its_world_is_dropped_wakes_nothing() {
        // The cell holds its ring weakly: with the world gone the wake
        // finds no ring, and the cell is freed (the `asan` stage of
        // `scripts/ci.sh` would report a leak).
        let sim = Sim::new(1);
        let stash: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let s = stash.clone();
        sim.spawn(std::future::poll_fn(move |cx| {
            *s.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        sim.run();
        drop(sim);
        stash.take().expect("the task stashed its waker").wake();
    }

    #[test]
    fn a_task_is_stored_at_the_size_of_its_future() {
        // A spawn's one allocation holds the future itself; a wrapper
        // future capturing it would store it twice.
        let sim = Sim::new(1);
        let s = sim.clone();
        let future = async move {
            let pad = [7u8; 1024];
            s.sleep(SimDuration::from_micros(1)).await;
            std::hint::black_box(pad);
        };
        let future_size = std::mem::size_of_val(&future);
        assert!(future_size >= 1024, "{future_size} B");
        let (_h, task) = spawn_queued(&sim, future);
        // The `Rc` allocation: strong and weak counts, then the cell.
        let stored = 2 * std::mem::size_of::<usize>() + std::mem::size_of_val(&*task);
        assert!(
            stored <= future_size + 64,
            "{stored} B stored for a {future_size} B future"
        );
        drop(task);
        sim.shutdown();
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
