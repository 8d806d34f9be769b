//! Counting semaphore with strict FIFO grant order.
//!
//! FIFO fairness matters for fidelity: the Paragon's disk queues and the
//! shared-file-pointer token are first-come-first-served, and the paper's
//! "prefetching benefits should be equally distributed amongst the
//! processors" observation depends on no node starving another.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// A parked acquirer, identified by its FIFO ticket. Lives *in* the queue
/// (no per-waiter allocation); the `Acquire` future holds only the ticket
/// number.
struct Waiter {
    ticket: u64,
    waker: Option<Waker>,
}

struct SemState {
    permits: usize,
    /// Monotone ticket counter; queue order == ticket order.
    next_ticket: u64,
    queue: VecDeque<Waiter>,
    /// Tickets whose permit was handed over by `release` but whose waiter
    /// has not polled (or been cancelled) yet.
    granted: VecDeque<u64>,
}

impl SemState {
    /// Claim the permit `release` handed to `ticket`, if it did.
    fn take_grant(&mut self, ticket: u64) -> bool {
        let i = self.granted.iter().position(|&g| g == ticket);
        i.and_then(|i| self.granted.remove(i)).is_some()
    }
}

/// A FIFO counting semaphore. `Semaphore::new(1)` is a fair mutex.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// Create a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                next_ticket: 0,
                queue: VecDeque::new(),
                granted: VecDeque::new(),
            })),
        }
    }

    /// Acquire one permit, waiting FIFO behind earlier acquirers.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: self.clone(),
            ticket: None,
        }
    }

    /// Number of parked waiters.
    pub fn queue_len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    fn release(&self) {
        let mut st = self.state.borrow_mut();
        if let Some(mut next) = st.queue.pop_front() {
            st.granted.push_back(next.ticket);
            if let Some(waker) = next.waker.take() {
                waker.wake();
            }
        } else {
            st.permits += 1;
        }
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
    ticket: Option<u64>,
}

impl Future for Acquire {
    type Output = SemaphoreGuard;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<SemaphoreGuard> {
        let mut st = self.sem.state.borrow_mut();
        if let Some(t) = self.ticket {
            if st.take_grant(t) {
                // The permit released to us is now owned by the guard.
                drop(st);
                self.ticket = None;
                return Poll::Ready(SemaphoreGuard {
                    sem: self.sem.clone(),
                });
            }
            let w = st
                .queue
                .iter_mut()
                .find(|q| q.ticket == t)
                .expect("parked waiter is queued or granted");
            w.waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        if st.queue.is_empty() && st.permits > 0 {
            st.permits -= 1;
            return Poll::Ready(SemaphoreGuard {
                sem: self.sem.clone(),
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(Waiter {
            ticket,
            waker: Some(cx.waker().clone()),
        });
        drop(st);
        self.ticket = Some(ticket);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(t) = self.ticket.take() {
            let mut st = self.sem.state.borrow_mut();
            if st.take_grant(t) {
                // We were granted a permit but never returned the guard
                // (e.g. cancelled by a timeout). Pass the permit on.
                drop(st);
                self.sem.release();
            } else if let Some(i) = st.queue.iter().position(|q| q.ticket == t) {
                // Still queued: remove ourselves so we never get granted.
                st.queue.remove(i);
            }
        }
    }
}

/// Releases its permit on drop.
pub struct SemaphoreGuard {
    sem: Semaphore,
}

impl Drop for SemaphoreGuard {
    fn drop(&mut self) {
        self.sem.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    /// Poll one `acquire` outside any simulation: the guard if a permit is
    /// free and nobody is queued, else `None` (dropping the future leaves
    /// the queue as it was).
    fn try_acquire(sem: &Semaphore) -> Option<SemaphoreGuard> {
        let mut cx = Context::from_waker(Waker::noop());
        match Box::pin(sem.acquire()).as_mut().poll(&mut cx) {
            Poll::Ready(guard) => Some(guard),
            Poll::Pending => None,
        }
    }

    fn available(sem: &Semaphore) -> usize {
        sem.state.borrow().permits
    }

    #[test]
    fn mutex_serializes_and_is_fifo() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for id in 0..4u32 {
            let sim2 = sim.clone();
            let sem2 = sem.clone();
            let log2 = log.clone();
            let s = sim.clone();
            sim.spawn(async move {
                // Stagger arrivals so the queue order is 0,1,2,3.
                s.sleep(SimDuration::from_micros(id as u64)).await;
                let _g = sem2.acquire().await;
                sim2.sleep(SimDuration::from_millis(10)).await;
                log2.borrow_mut().push(id);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn counting_semaphore_admits_n() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(2);
        let peak: Rc<RefCell<(u32, u32)>> = Rc::new(RefCell::new((0, 0))); // (current, max)
        for _ in 0..6 {
            let sem2 = sem.clone();
            let peak2 = peak.clone();
            let s = sim.clone();
            sim.spawn(async move {
                let _g = sem2.acquire().await;
                {
                    let mut p = peak2.borrow_mut();
                    p.0 += 1;
                    p.1 = p.1.max(p.0);
                }
                s.sleep(SimDuration::from_millis(1)).await;
                peak2.borrow_mut().0 -= 1;
            });
        }
        sim.run();
        assert_eq!(peak.borrow().1, 2);
        assert_eq!(available(&sem), 2);
    }

    #[test]
    fn try_acquire_respects_queue() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(1);
        let g = try_acquire(&sem).unwrap();
        assert!(try_acquire(&sem).is_none());
        // Park one waiter.
        let sem2 = sem.clone();
        let h = sim.spawn(async move {
            let _g = sem2.acquire().await;
            7u32
        });
        // Waiter must get the permit before any try_acquire that comes later.
        drop(g);
        sim.run();
        assert_eq!(h.try_take(), Some(7));
        assert!(try_acquire(&sem).is_some());
    }

    #[test]
    fn cancelled_waiter_leaves_queue() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(1);
        let g = try_acquire(&sem).unwrap();
        let sem2 = sem.clone();
        let s = sim.clone();
        let cancelled = sim.spawn(async move {
            s.timeout(SimDuration::from_millis(1), sem2.acquire())
                .await
                .is_none()
        });
        let sim2 = sim.clone();
        let sem3 = sem.clone();
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(5)).await;
            drop(g);
            // The cancelled waiter must not swallow the permit.
            let _g2 = sem3.acquire().await;
        });
        let report = sim.run();
        assert_eq!(report.unfinished_tasks, 0);
        assert_eq!(cancelled.try_take(), Some(true));
        assert_eq!(available(&sem), 1);
    }

    #[test]
    fn granted_waiter_dropped_before_polling_passes_the_permit_on() {
        let sem = Semaphore::new(1);
        let mut cx = Context::from_waker(Waker::noop());
        let g = try_acquire(&sem).unwrap();
        let mut first = Box::pin(sem.acquire());
        let mut second = Box::pin(sem.acquire());
        assert!(first.as_mut().poll(&mut cx).is_pending());
        assert!(second.as_mut().poll(&mut cx).is_pending());
        // The release grants `first`'s ticket, but `first` is dropped (as a
        // timeout would drop it) before it polls to claim the permit.
        drop(g);
        drop(first);
        let Poll::Ready(guard) = second.as_mut().poll(&mut cx) else {
            panic!("the dropped waiter's permit did not reach the next waiter");
        };
        assert_eq!(sem.queue_len(), 0);
        assert_eq!(available(&sem), 0);
        drop(guard);
        assert_eq!(available(&sem), 1);
    }
}
