//! Unbounded multi-producer single-consumer channel.
//!
//! Message delivery is instantaneous in virtual time; latency belongs to the
//! mesh model, which sleeps before pushing. FIFO order is guaranteed per
//! channel, which is what the Paragon's ordered point-to-point links need.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct ChanState<T> {
    queue: VecDeque<T>,
    recv_waker: Option<Waker>,
    senders: usize,
    receiver_alive: bool,
}

/// Sending half; clone freely.
pub struct Sender<T> {
    state: Rc<RefCell<ChanState<T>>>,
}

/// Receiving half; at most one exists per channel.
pub struct Receiver<T> {
    state: Rc<RefCell<ChanState<T>>>,
}

/// Create an unbounded MPSC channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(ChanState {
        queue: VecDeque::new(),
        recv_waker: None,
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            state: state.clone(),
        },
        Receiver { state },
    )
}

impl<T> Sender<T> {
    /// Enqueue a message. Fails only if the receiver was dropped.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut st = self.state.borrow_mut();
        if !st.receiver_alive {
            return Err(value);
        }
        st.queue.push_back(value);
        if let Some(w) = st.recv_waker.take() {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().senders += 1;
        Sender {
            state: self.state.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        st.senders -= 1;
        if st.senders == 0 {
            // Wake a parked receiver so it can observe disconnection.
            if let Some(w) = st.recv_waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Await the next message; `None` once every sender is dropped and the
    /// queue has drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { receiver: self }
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<T> {
        self.state.borrow_mut().queue.pop_front()
    }

    /// Number of queued messages.
    pub fn queued(&self) -> usize {
        self.state.borrow().queue.len()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.state.borrow_mut().receiver_alive = false;
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    receiver: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut st = self.receiver.state.borrow_mut();
        if let Some(v) = st.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if st.senders == 0 {
            return Poll::Ready(None);
        }
        st.recv_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    #[test]
    fn delivers_in_fifo_order() {
        let sim = Sim::new(1);
        let (tx, mut rx) = channel::<u32>();
        let s = sim.clone();
        let consumer = sim.spawn(async move {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        sim.spawn(async move {
            for i in 0..5 {
                tx.send(i).unwrap();
                s.sleep(SimDuration::from_micros(1)).await;
            }
        });
        sim.run();
        assert_eq!(consumer.try_take(), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn recv_sees_disconnect() {
        let sim = Sim::new(1);
        let (tx, mut rx) = channel::<u32>();
        let h = sim.spawn(async move { rx.recv().await });
        drop(tx);
        sim.run();
        assert_eq!(h.try_take(), Some(None));
    }

    #[test]
    fn send_after_receiver_drop_fails() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

    #[test]
    fn multiple_senders_drain_before_disconnect() {
        let sim = Sim::new(1);
        let (tx, mut rx) = channel::<u32>();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        drop(tx2);
        let h = sim.spawn(async move {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        sim.run();
        assert_eq!(h.try_take(), Some(vec![1, 2]));
    }

    #[test]
    fn recv_parks_until_message_arrives() {
        let sim = Sim::new(1);
        let (tx, mut rx) = channel::<u64>();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let v = rx.recv().await.unwrap();
            (v, s.now().as_nanos())
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(SimDuration::from_millis(5)).await;
            tx.send(99).unwrap();
        });
        sim.run();
        assert_eq!(h.try_take(), Some((99, 5_000_000)));
    }
}
