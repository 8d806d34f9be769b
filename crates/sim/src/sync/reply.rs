//! Replies awaited by id: the receiving side of a request/reply
//! protocol. An RPC client awaits its calls' replies here, keyed by call
//! id; a disk its requests' completions, keyed by a request counter; the
//! pointer server its token and collective waiters.
//!
//! One table serves every request of its owner, so awaiting a reply
//! allocates nothing: an entry is an `(id, slot)` pair in a `Vec` that
//! keeps its capacity. Few replies are awaited at once (at most 32 per
//! RPC client in any experiment, usually one), so entries are searched
//! by id.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// Replies keyed by `u64` ids: [`ReplyTable::expect`] awaits one,
/// [`ReplyTable::reply`] delivers one.
pub struct ReplyTable<T> {
    state: RefCell<State<T>>,
}

struct State<T> {
    entries: Vec<(u64, Slot<T>)>,
    closed: bool,
}

enum Slot<T> {
    /// No reply yet; the waiter's waker once it has polled.
    Waiting(Option<Waker>),
    Arrived(T),
}

/// The table closed before the reply arrived: whatever would have
/// answered is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl<T> Default for ReplyTable<T> {
    fn default() -> Self {
        ReplyTable {
            state: RefCell::new(State {
                entries: Vec::new(),
                closed: false,
            }),
        }
    }
}

impl<T> ReplyTable<T> {
    /// An open, empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Await the reply keyed `id`, which no other awaited reply may use.
    /// The entry exists from this call on, so a reply delivered before
    /// the first poll is kept for it. Dropping the returned future
    /// abandons the entry: a later reply to `id` is discarded and wakes
    /// nobody. On a closed table it resolves to `Err(Closed)`.
    pub fn expect(&self, id: u64) -> Reply<'_, T> {
        let mut state = self.state.borrow_mut();
        if !state.closed {
            state.entries.push((id, Slot::Waiting(None)));
        }
        Reply {
            table: (!state.closed).then_some(self),
            id,
        }
    }

    /// Deliver the reply keyed `id` and wake its waiter, if it has
    /// polled. Hands the value back when no one awaits `id` any more: the
    /// waiter gave up, the reply is a duplicate, or the table is closed.
    pub fn reply(&self, id: u64, value: T) -> Result<(), T> {
        let mut state = self.state.borrow_mut();
        let Some((_, slot)) = state.entries.iter_mut().find(|(k, _)| *k == id) else {
            return Err(value);
        };
        let Slot::Waiting(waker) = slot else {
            return Err(value);
        };
        let waker = waker.take();
        *slot = Slot::Arrived(value);
        drop(state);
        if let Some(waker) = waker {
            waker.wake();
        }
        Ok(())
    }

    /// Close the table: every reply still awaited, and every one awaited
    /// later, resolves to `Err(Closed)`. A reply that already arrived is
    /// still delivered. For the owner of the answering side, when it ends.
    pub fn close(&self) {
        let mut state = self.state.borrow_mut();
        state.closed = true;
        let wakers: Vec<Waker> = state
            .entries
            .iter_mut()
            .filter_map(|(_, slot)| match slot {
                Slot::Waiting(waker) => waker.take(),
                Slot::Arrived(_) => None,
            })
            .collect();
        drop(state);
        for waker in wakers {
            waker.wake();
        }
    }

    /// A guard that closes the table when dropped. The loop that answers
    /// holds it, so the table closes however the loop ends: by returning,
    /// or by its task being dropped at shutdown.
    pub fn close_on_drop(&self) -> CloseOnDrop<'_, T> {
        CloseOnDrop(self)
    }

    /// True once [`ReplyTable::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.state.borrow().closed
    }

    /// Replies awaited (or arrived and not yet taken) right now.
    pub fn awaited(&self) -> usize {
        self.state.borrow().entries.len()
    }
}

/// Closes its [`ReplyTable`] when dropped; see [`ReplyTable::close_on_drop`].
pub struct CloseOnDrop<'a, T>(&'a ReplyTable<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One awaited reply; see [`ReplyTable::expect`].
pub struct Reply<'a, T> {
    /// `None` once resolved, or if never entered: the table then holds
    /// no entry for it.
    table: Option<&'a ReplyTable<T>>,
    id: u64,
}

impl<T> Future for Reply<'_, T> {
    type Output = Result<T, Closed>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let Some(table) = this.table else {
            return Poll::Ready(Err(Closed));
        };
        let mut state = table.state.borrow_mut();
        let closed = state.closed;
        let entry = state.entries.iter().position(|(k, _)| *k == this.id);
        if let Some(at) = entry {
            if let (_, Slot::Waiting(waker)) = &mut state.entries[at] {
                if !closed {
                    *waker = Some(cx.waker().clone());
                    return Poll::Pending;
                }
            }
        }
        this.table = None;
        // An unresolved reply keeps its entry, so `None` is not expected.
        Poll::Ready(match entry.map(|at| state.entries.swap_remove(at).1) {
            Some(Slot::Arrived(value)) => Ok(value),
            Some(Slot::Waiting(_)) | None => Err(Closed),
        })
    }
}

impl<T> Drop for Reply<'_, T> {
    fn drop(&mut self) {
        let Some(table) = self.table else {
            return;
        };
        let mut state = table.state.borrow_mut();
        let at = state.entries.iter().position(|(k, _)| *k == self.id);
        let abandoned = at.map(|at| state.entries.swap_remove(at));
        drop(state);
        // A reply that arrived for nobody is dropped outside the borrow.
        drop(abandoned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::rc::Rc;

    #[test]
    fn a_reply_wakes_its_waiter() {
        let sim = Sim::new(1);
        let table = Rc::new(ReplyTable::new());
        let t = table.clone();
        let h = sim.spawn(async move { t.expect(7).await });
        let (s, t) = (sim.clone(), table.clone());
        sim.spawn(async move {
            s.sleep(SimDuration::from_millis(1)).await;
            assert_eq!(t.reply(7, 5), Ok(()));
        });
        let report = sim.run();
        assert_eq!(h.try_take(), Some(Ok(5)));
        // Two spawns, the sleeper's wake and the waiter's one wake.
        assert_eq!(report.polls, 4);
        assert_eq!(table.awaited(), 0);
    }

    #[test]
    fn a_reply_before_the_first_poll_is_kept() {
        let sim = Sim::new(1);
        let table = Rc::new(ReplyTable::new());
        let t = table.clone();
        let h = sim.spawn(async move {
            let reply = t.expect(4);
            assert_eq!(t.reply(4, 12), Ok(()));
            reply.await
        });
        sim.run();
        assert_eq!(h.try_take(), Some(Ok(12)));
        // An abandoned reply takes its entry, and any arrived value, along.
        let reply = table.expect(5);
        assert_eq!(table.reply(5, 13), Ok(()));
        drop(reply);
        assert_eq!(table.awaited(), 0);
    }

    #[test]
    fn a_duplicate_reply_is_handed_back() {
        let table = ReplyTable::new();
        let _reply = table.expect(1);
        assert_eq!(table.reply(1, 'a'), Ok(()));
        assert_eq!(table.reply(1, 'b'), Err('b'));
        assert_eq!(table.reply(2, 'c'), Err('c'), "nobody awaits id 2");
    }

    #[test]
    fn close_fails_waiters_but_delivers_arrived_replies() {
        let sim = Sim::new(1);
        let table = Rc::new(ReplyTable::new());
        let (t1, t2) = (table.clone(), table.clone());
        let waiting = sim.spawn(async move { t1.expect(1).await });
        let arrived = sim.spawn(async move {
            let reply = t2.expect(2);
            assert_eq!(t2.reply(2, 20), Ok(()));
            t2.close();
            reply.await
        });
        sim.run();
        assert_eq!(waiting.try_take(), Some(Err(Closed)));
        assert_eq!(arrived.try_take(), Some(Ok(20)));
        assert_eq!(table.reply(1, 10), Err(10));
        let t = table.clone();
        let late = sim.spawn(async move { t.expect(3).await });
        sim.run();
        assert_eq!(late.try_take(), Some(Err(Closed)));
        assert_eq!(table.awaited(), 0);
    }

    #[test]
    fn the_guard_closes_when_its_task_is_dropped() {
        let sim = Sim::new(1);
        let table = Rc::new(ReplyTable::<u32>::new());
        let t = table.clone();
        sim.spawn(async move {
            let _close = t.close_on_drop();
            std::future::pending::<()>().await;
        });
        sim.run();
        assert!(!table.is_closed());
        sim.shutdown();
        assert!(table.is_closed());
    }
}
