//! One-shot broadcast signal ("manual-reset event").
//!
//! The ART request-completion path uses this: the asynchronous request
//! thread sets the signal when the transfer finishes; any number of waiters
//! (the user thread in `iowait`, the prefetch hit path) observe it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct SignalState {
    set: bool,
    wakers: VecDeque<Waker>,
}

/// A latch that starts clear and can be set exactly once.
#[derive(Clone)]
pub struct Signal {
    state: Rc<RefCell<SignalState>>,
}

impl Default for Signal {
    fn default() -> Self {
        Self::new()
    }
}

impl Signal {
    /// Create a clear signal.
    pub fn new() -> Self {
        Signal {
            state: Rc::new(RefCell::new(SignalState {
                set: false,
                wakers: VecDeque::new(),
            })),
        }
    }

    /// Set the signal, waking all current and future waiters. Idempotent.
    pub fn set(&self) {
        let mut st = self.state.borrow_mut();
        if !st.set {
            st.set = true;
            while let Some(w) = st.wakers.pop_front() {
                w.wake();
            }
        }
    }

    /// True once [`Signal::set`] has been called.
    pub fn is_set(&self) -> bool {
        self.state.borrow().set
    }

    /// Wait for the signal to be set (immediate if already set).
    pub fn wait(&self) -> SignalWait {
        SignalWait {
            signal: self.clone(),
        }
    }
}

/// Future returned by [`Signal::wait`].
pub struct SignalWait {
    signal: Signal,
}

impl Future for SignalWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.signal.state.borrow_mut();
        if st.set {
            Poll::Ready(())
        } else {
            st.wakers.push_back(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    #[test]
    fn wakes_all_waiters() {
        let sim = Sim::new(1);
        let sig = Signal::new();
        let mut handles = Vec::new();
        for _ in 0..3 {
            let sg = sig.clone();
            let s = sim.clone();
            handles.push(sim.spawn(async move {
                sg.wait().await;
                s.now().as_millis_round()
            }));
        }
        let s2 = sim.clone();
        let sig2 = sig.clone();
        sim.spawn(async move {
            s2.sleep(SimDuration::from_millis(7)).await;
            sig2.set();
        });
        sim.run();
        for h in handles {
            assert_eq!(h.try_take(), Some(7));
        }
        assert!(sig.is_set());
    }

    #[test]
    fn wait_after_set_is_immediate() {
        let sim = Sim::new(1);
        let sig = Signal::new();
        sig.set();
        sig.set(); // idempotent
        let sg = sig.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            sg.wait().await;
            s.now().as_nanos()
        });
        sim.run();
        assert_eq!(h.try_take(), Some(0));
    }
}
