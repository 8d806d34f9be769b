//! One-shot broadcast latch ("manual-reset event").
//!
//! The ART request-completion path uses this: the asynchronous request
//! thread sets the latch when the transfer finishes; any number of waiters
//! (the user thread in `iowait`, the prefetch hit path) observe it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::task::{Poll, Waker};

#[derive(Default)]
struct LatchState {
    set: bool,
    /// The first waiter, kept inline: a request usually has one.
    first: Option<Waker>,
    /// Later waiters, in arrival order.
    rest: VecDeque<Waker>,
}

/// A latch that starts clear and can be set exactly once. It is stored
/// inline: embed it in the structure its waiters already share, or share
/// it as an `Rc<Latch>`.
#[derive(Default)]
pub struct Latch {
    state: RefCell<LatchState>,
}

impl Latch {
    /// Create a clear latch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the latch, waking all current and future waiters in arrival
    /// order. Idempotent.
    pub fn set(&self) {
        let mut st = self.state.borrow_mut();
        if !st.set {
            st.set = true;
            if let Some(w) = st.first.take() {
                w.wake();
            }
            while let Some(w) = st.rest.pop_front() {
                w.wake();
            }
        }
    }

    /// True once [`Latch::set`] has been called.
    pub fn is_set(&self) -> bool {
        self.state.borrow().set
    }

    /// Wait for the latch to be set (immediate if already set).
    pub fn wait(&self) -> impl Future<Output = ()> + '_ {
        std::future::poll_fn(move |cx| {
            let mut st = self.state.borrow_mut();
            if st.set {
                return Poll::Ready(());
            }
            let waker = cx.waker().clone();
            if st.first.is_none() {
                st.first = Some(waker);
            } else {
                st.rest.push_back(waker);
            }
            Poll::Pending
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::rc::Rc;

    #[test]
    fn wakes_all_waiters_in_arrival_order() {
        let sim = Sim::new(1);
        let latch = Rc::new(Latch::new());
        let woke = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..3 {
            let l = latch.clone();
            let s = sim.clone();
            let woke = woke.clone();
            handles.push(sim.spawn(async move {
                l.wait().await;
                woke.borrow_mut().push(i);
                s.now().as_millis_round()
            }));
        }
        let s2 = sim.clone();
        let l2 = latch.clone();
        sim.spawn(async move {
            s2.sleep(SimDuration::from_millis(7)).await;
            l2.set();
        });
        sim.run();
        for h in handles {
            assert_eq!(h.try_take(), Some(7));
        }
        assert!(latch.is_set());
        // The inline first waiter wakes before the queued ones.
        assert_eq!(*woke.borrow(), [0, 1, 2]);
    }

    #[test]
    fn wait_after_set_is_immediate() {
        let sim = Sim::new(1);
        let latch = Rc::new(Latch::new());
        latch.set();
        latch.set(); // idempotent
        let l = latch.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            l.wait().await;
            s.now().as_nanos()
        });
        sim.run();
        assert_eq!(h.try_take(), Some(0));
    }
}
