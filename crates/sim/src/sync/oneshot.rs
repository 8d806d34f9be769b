//! One-shot value channel, used for RPC replies (e.g. a PFS server
//! answering one read request).

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct ShotState<T> {
    value: Option<T>,
    sender_alive: bool,
    waker: Option<Waker>,
}

/// Sending half; consumed by [`OneshotSender::send`].
pub struct OneshotSender<T> {
    state: Rc<RefCell<ShotState<T>>>,
}

/// Receiving half; await it for the value.
pub struct OneshotReceiver<T> {
    state: Rc<RefCell<ShotState<T>>>,
}

/// The sender was dropped without sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvCancelled;

/// Create a one-shot channel.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let state = Rc::new(RefCell::new(ShotState {
        value: None,
        sender_alive: true,
        waker: None,
    }));
    (
        OneshotSender {
            state: state.clone(),
        },
        OneshotReceiver { state },
    )
}

impl<T> OneshotSender<T> {
    /// Deliver the value, waking the receiver.
    pub fn send(self, value: T) {
        let mut st = self.state.borrow_mut();
        st.value = Some(value);
        if let Some(w) = st.waker.take() {
            w.wake();
        }
        // Drop runs after this; sender_alive flips there.
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        st.sender_alive = false;
        if let Some(w) = st.waker.take() {
            w.wake();
        }
    }
}

impl<T> OneshotReceiver<T> {
    /// Stop waiting: a later send, or the sender's drop, wakes no task.
    /// For a receiver its owner abandons before the value arrives.
    pub fn close(&mut self) {
        self.state.borrow_mut().waker = None;
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Result<T, RecvCancelled>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.value.take() {
            return Poll::Ready(Ok(v));
        }
        if !st.sender_alive {
            return Poll::Ready(Err(RecvCancelled));
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    #[test]
    fn value_arrives() {
        let sim = Sim::new(1);
        let (tx, rx) = oneshot::<u32>();
        let h = sim.spawn(rx);
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_millis(1)).await;
            tx.send(5);
        });
        sim.run();
        assert_eq!(h.try_take(), Some(Ok(5)));
    }

    #[test]
    fn dropped_sender_cancels() {
        let sim = Sim::new(1);
        let (tx, rx) = oneshot::<u32>();
        let h = sim.spawn(rx);
        drop(tx);
        sim.run();
        assert_eq!(h.try_take(), Some(Err(RecvCancelled)));
    }

    #[test]
    fn send_before_recv_is_fine() {
        let sim = Sim::new(1);
        let (tx, rx) = oneshot::<u32>();
        tx.send(11);
        let h = sim.spawn(rx);
        sim.run();
        assert_eq!(h.try_take(), Some(Ok(11)));
    }
}
