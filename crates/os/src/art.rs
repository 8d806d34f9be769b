//! Asynchronous Request Threads (ART).
//!
//! Every asynchronous PFS request in the Paragon OS goes through two
//! phases: **setup** (allocate an internal request structure, link it on
//! the caller's active list — paid by the user thread) and **posting** (an
//! asynchronous request thread dequeues the structure FIFO from the active
//! list and performs the I/O concurrently with the user thread). The
//! prefetch prototype is built *on* this machinery: every prefetch is an
//! ordinary asynchronous read submitted right after the user's read.
//!
//! [`ArtPool::submit`] models both phases; the returned [`AsyncHandle`]
//! is the user-visible request structure (`iowait` = [`AsyncHandle::wait`]).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::ops::Deref;
use std::rc::Rc;

use paragon_sim::sync::{Latch, Semaphore};
use paragon_sim::{ev, EventKind, ReqId, Sim, SimDuration, SimTime, Track};

/// ART timing and concurrency configuration.
#[derive(Debug, Clone)]
pub struct ArtConfig {
    /// User-thread cost of the request setup phase.
    pub setup: SimDuration,
    /// ART-side cost of dequeuing and beginning to post a request.
    pub dispatch: SimDuration,
    /// Maximum requests being posted concurrently per node. Further
    /// submissions queue FIFO on the active list.
    pub max_arts: usize,
}

impl ArtConfig {
    /// Zero-cost configuration for logic tests.
    pub fn instant() -> Self {
        ArtConfig {
            setup: SimDuration::ZERO,
            dispatch: SimDuration::ZERO,
            max_arts: usize::MAX >> 1,
        }
    }
}

/// Counters for one node's ART subsystem.
#[derive(Debug, Default, Clone)]
pub struct ArtStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests fully completed.
    pub completed: u64,
}

/// One compute node's asynchronous-request machinery. Clone freely: a
/// clone is one `Rc` count bump.
#[derive(Clone)]
pub struct ArtPool(Rc<Pool>);

/// What every clone of an [`ArtPool`] shares, reached through its
/// `Deref`; the fields stay private to this module.
pub struct Pool {
    sim: Sim,
    cfg: ArtConfig,
    /// FIFO gate: permits = max concurrently-posting ARTs; waiters are the
    /// active list, granted strictly in submission order.
    gate: Semaphore,
    active: Cell<usize>,
    stats: RefCell<ArtStats>,
}

impl Deref for ArtPool {
    type Target = Pool;
    fn deref(&self) -> &Pool {
        &self.0
    }
}

impl ArtPool {
    /// Create a pool on `sim`.
    pub fn new(sim: &Sim, cfg: ArtConfig) -> Self {
        assert!(cfg.max_arts > 0, "need at least one ART");
        ArtPool(Rc::new(Pool {
            sim: sim.clone(),
            gate: Semaphore::new(cfg.max_arts),
            cfg,
            active: Cell::new(0),
            stats: RefCell::new(ArtStats::default()),
        }))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ArtStats {
        self.stats.borrow().clone()
    }

    /// Requests currently on the active list (queued or posting).
    pub fn active(&self) -> usize {
        self.active.get()
    }

    /// Submit an asynchronous request. The caller (user thread) pays the
    /// setup cost inline; the operation itself runs on an ART, FIFO behind
    /// earlier submissions when all ARTs are busy. Returns immediately
    /// after setup with the request handle.
    ///
    /// `op` builds the operation's future when an ART begins posting it.
    /// Taking the builder rather than the future keeps the ART's task at
    /// the size of that future plus the builder's captures: a task that
    /// captured a future and awaited it would store it twice.
    ///
    /// `req` and `track` are the trace context: they stamp the ArtSubmit
    /// (queued on the active list), ArtStart (an ART began posting it) and
    /// ArtDone flight-recorder events. Untagged work passes `0` and
    /// [`Track::Sys`].
    pub async fn submit<T, F, Op>(&self, req: ReqId, track: Track, op: Op) -> AsyncHandle<T>
    where
        T: 'static,
        F: Future<Output = T>,
        Op: FnOnce() -> F + 'static,
    {
        self.sim.sleep(self.cfg.setup).await;
        let handle = AsyncHandle::new(self.sim.now());
        self.stats.borrow_mut().submitted += 1;
        let queue_pos = self.active.get() + 1;
        self.active.set(queue_pos);
        self.sim
            .emit(|| ev(track, EventKind::ArtSubmit, req, queue_pos as u64, 0));
        let pool = self.clone();
        let h = handle.clone();
        self.sim.spawn_named("art", async move {
            // FIFO admission: tasks call acquire in spawn order, and the
            // semaphore grants in arrival order.
            let _g = pool.gate.acquire().await;
            pool.sim.emit(|| ev(track, EventKind::ArtStart, req, 0, 0));
            pool.sim.sleep(pool.cfg.dispatch).await;
            let value = op().await;
            let request = &h.request;
            *request.slot.borrow_mut() = Some(value);
            request.completed.set(Some(pool.sim.now()));
            pool.active.set(pool.active.get() - 1);
            pool.stats.borrow_mut().completed += 1;
            pool.sim.emit(|| ev(track, EventKind::ArtDone, req, 0, 0));
            request.done.set();
        });
        handle
    }
}

/// The user-visible asynchronous request structure. Clone freely; all
/// clones observe the same request, and a clone is one `Rc` count bump.
pub struct AsyncHandle<T> {
    request: Rc<Request<T>>,
}

/// What every clone of an [`AsyncHandle`] shares.
struct Request<T> {
    done: Latch,
    slot: RefCell<Option<T>>,
    submitted_at: SimTime,
    completed: Cell<Option<SimTime>>,
}

impl<T> Clone for AsyncHandle<T> {
    fn clone(&self) -> Self {
        AsyncHandle {
            request: self.request.clone(),
        }
    }
}

impl<T> AsyncHandle<T> {
    fn new(now: SimTime) -> Self {
        AsyncHandle {
            request: Rc::new(Request {
                done: Latch::new(),
                slot: RefCell::new(None),
                submitted_at: now,
                completed: Cell::new(None),
            }),
        }
    }

    /// True once the operation finished (`iodone` in Paragon terms).
    pub fn is_done(&self) -> bool {
        self.request.done.is_set()
    }

    /// Wait for completion (`iowait`).
    pub async fn wait(&self) {
        self.request.done.wait().await;
    }

    /// Wait for completion and take the result. Panics if another clone
    /// already took it — one request has one consumer.
    #[expect(
        clippy::panic,
        reason = "a double take breaks the documented one-consumer contract; no fault can cause it"
    )]
    pub async fn join(&self) -> T {
        self.request.done.wait().await;
        match self.request.slot.borrow_mut().take() {
            Some(v) => v,
            None => panic!("async request result taken twice"),
        }
    }

    /// When the request was submitted.
    pub fn submitted_at(&self) -> SimTime {
        self.request.submitted_at
    }

    /// When it completed (None while in flight).
    pub fn completed_at(&self) -> Option<SimTime> {
        self.request.completed.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_runs_concurrently_with_user_thread() {
        let sim = Sim::new(1);
        let pool = ArtPool::new(&sim, ArtConfig::instant());
        let s = sim.clone();
        let h = sim.spawn(async move {
            let io = s.sleep(SimDuration::from_millis(50));
            let req = pool.submit(0, Track::Sys, move || io).await;
            // User thread "computes" 50 ms while the I/O proceeds.
            s.sleep(SimDuration::from_millis(50)).await;
            req.wait().await;
            s.now().as_millis_round()
        });
        sim.run();
        // Full overlap: 50 ms total, not 100.
        assert_eq!(h.try_take(), Some(50));
    }

    #[test]
    fn setup_cost_is_paid_by_the_user_thread() {
        let sim = Sim::new(1);
        let cfg = ArtConfig {
            setup: SimDuration::from_millis(3),
            dispatch: SimDuration::ZERO,
            max_arts: 4,
        };
        let pool = ArtPool::new(&sim, cfg);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let _req = pool.submit(0, Track::Sys, || async {}).await;
            s.now().as_millis_round()
        });
        sim.run();
        assert_eq!(h.try_take(), Some(3));
    }

    #[test]
    fn active_list_is_fifo_when_arts_saturated() {
        let sim = Sim::new(1);
        let cfg = ArtConfig {
            setup: SimDuration::ZERO,
            dispatch: SimDuration::ZERO,
            max_arts: 1,
        };
        let pool = ArtPool::new(&sim, cfg);
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let s = sim.clone();
        let o = order.clone();
        sim.spawn(async move {
            let mut reqs = Vec::new();
            for i in 0..4u32 {
                let s2 = s.clone();
                let o2 = o.clone();
                reqs.push(
                    pool.submit(0, Track::Sys, move || async move {
                        s2.sleep(SimDuration::from_millis(10)).await;
                        o2.borrow_mut().push(i);
                    })
                    .await,
                );
            }
            for r in &reqs {
                r.wait().await;
            }
        });
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn max_arts_bounds_concurrency() {
        let sim = Sim::new(1);
        let cfg = ArtConfig {
            setup: SimDuration::ZERO,
            dispatch: SimDuration::ZERO,
            max_arts: 2,
        };
        let pool = ArtPool::new(&sim, cfg);
        let in_flight: Rc<RefCell<(u32, u32)>> = Rc::new(RefCell::new((0, 0)));
        let s = sim.clone();
        let p2 = pool.clone();
        sim.spawn(async move {
            let mut reqs = Vec::new();
            for _ in 0..6 {
                let s2 = s.clone();
                let fl = in_flight.clone();
                reqs.push(
                    p2.submit(0, Track::Sys, move || async move {
                        {
                            let mut f = fl.borrow_mut();
                            f.0 += 1;
                            f.1 = f.1.max(f.0);
                        }
                        s2.sleep(SimDuration::from_millis(1)).await;
                        fl.borrow_mut().0 -= 1;
                        fl.borrow().1
                    })
                    .await,
                );
            }
            let mut peak = 0;
            for r in &reqs {
                peak = peak.max(r.join().await);
            }
            assert_eq!(peak, 2);
        });
        let report = sim.run();
        assert_eq!(report.unfinished_tasks, 0);
        assert_eq!(pool.stats().completed, 6);
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn handle_reports_timestamps() {
        let sim = Sim::new(1);
        let cfg = ArtConfig {
            setup: SimDuration::from_millis(1),
            dispatch: SimDuration::from_millis(2),
            max_arts: 1,
        };
        let pool = ArtPool::new(&sim, cfg);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let s2 = s.clone();
            let req = pool
                .submit(0, Track::Sys, move || async move {
                    s2.sleep(SimDuration::from_millis(10)).await
                })
                .await;
            req.wait().await;
            (
                req.submitted_at().as_millis_round(),
                req.completed_at().unwrap().as_millis_round(),
            )
        });
        sim.run();
        // Submitted after 1 ms setup; completed after 2 ms dispatch + 10 ms
        // I/O.
        assert_eq!(h.try_take(), Some((1, 13)));
    }

    #[test]
    fn join_returns_value_and_is_single_consumer() {
        let sim = Sim::new(1);
        let pool = ArtPool::new(&sim, ArtConfig::instant());
        let h = sim.spawn(async move {
            let req = pool.submit(0, Track::Sys, || async { 99u32 }).await;
            let v = req.join().await;
            let left = req.request.slot.borrow().is_some();
            (v, left)
        });
        sim.run();
        assert_eq!(h.try_take(), Some((99, false)));
    }
}
