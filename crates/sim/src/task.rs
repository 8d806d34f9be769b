//! Task bookkeeping for the single-threaded executor.
//!
//! A spawned task is one heap allocation, a [`TaskCell`]: the future at its
//! own size, its output once ready (in the future's place), the waker of
//! the task awaiting its [`JoinHandle`], and a weak handle to the world's
//! ready ring. The cell is its own waker: a task's [`Waker`] is a counted
//! pointer to its cell, an `Rc<TaskCell<F>>` behind a per-`F`
//! [`RawWakerVTable`] (the design of runtimes such as `async-task`), and
//! waking moves that `Rc` onto the ready ring. A wake therefore reaches
//! only its own task. One fired after the task finished finds its own
//! finished cell, which the executor counts as a stale wake and does not
//! poll; no id, generation or slot lookup stands between a wake and its
//! task. The ring holds cells as `Rc<dyn Runnable>`; a handle reads its
//! cell as an `Rc<dyn JoinSlot<T>>`.
//!
//! [`TaskTable`] is only a registry of live tasks (label, spawn order and
//! cell), touched at spawn, at completion and at shutdown, and by the
//! pending-task reports. A cell knows its registry slot, so a task that
//! finishes frees its own entry.
//!
//! Wakers are `Rc`-based: a world's executor, its tasks, and every waker
//! they clone all live on the one host thread that runs the simulation,
//! so the `Send + Sync` contract of `std::task::Waker` is vacuously met
//! and the ready ring needs no lock. A poll lends the task its own waker
//! without touching the count, so polling allocates nothing, and a spawn
//! allocates nothing but its cell.
#![expect(
    unsafe_code,
    reason = "the Rc waker vtable and the task cell's pin projection; their safety arguments are on TaskCell::VTABLE and TaskCell"
)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// Tasks that have been woken and must be polled, in wake order.
type Ring = RefCell<VecDeque<Rc<dyn Runnable>>>;

/// The world's ready ring. Each task cell holds a weak handle to it.
#[derive(Default)]
pub(crate) struct ReadyQueue {
    inner: Rc<Ring>,
}

impl ReadyQueue {
    // Every borrow of the ring lasts one statement, so a task waking
    // itself mid-poll (executor not holding a borrow) cannot trip it.
    pub(crate) fn push(&self, task: Rc<dyn Runnable>) {
        self.inner.borrow_mut().push_back(task);
    }

    pub(crate) fn pop(&self) -> Option<Rc<dyn Runnable>> {
        self.inner.borrow_mut().pop_front()
    }
}

/// The executor's view of a task.
pub(crate) trait Runnable {
    /// Poll the future once, with the cell as its waker, unless the task
    /// already finished or was cancelled (a stale wake). Returns the
    /// task's registry slot when this poll finished it; its output is
    /// then in the join slot and the task awaiting the handle, if any,
    /// has been woken.
    fn run(self: Rc<Self>) -> Option<u32>;

    /// Drop the future in place (world shutdown).
    fn cancel(&self);

    /// Bytes the spawned future occupies in the cell.
    fn future_size(&self) -> usize;
}

/// A [`JoinHandle`]'s view of a task.
trait JoinSlot<T> {
    fn is_finished(&self) -> bool;
    fn take_output(&self) -> Option<T>;
    fn set_joiner(&self, waker: Waker);
}

enum Stage<F: Future> {
    Running(F),
    Finished(F::Output),
    /// Output taken, or future dropped at shutdown.
    Done,
}

/// One spawned task: its future, its join slot and its waker in one
/// allocation.
///
/// # Pin projection
///
/// [`Runnable::run`] pins the future where it lies with
/// `Pin::new_unchecked`. That is sound because the future never moves and
/// is dropped in place: the cell is created inside its `Rc` by
/// [`TaskTable::spawn`] and nothing moves it out (no `Rc::try_unwrap`, no
/// `get_mut` on a cell); `Stage::Running` is only ever left by assigning
/// a new stage over it, which drops the future where it lies; and
/// `take_output` moves a value out of `Stage::Finished` only, never out of
/// `Stage::Running`.
struct TaskCell<F: Future> {
    stage: RefCell<Stage<F>>,
    /// Waker of the task awaiting this one's [`JoinHandle`].
    joiner: Cell<Option<Waker>>,
    /// Weak, so a woken cell and the ring that holds it form no cycle,
    /// and a waker fired after its world is gone finds no ring.
    ready: Weak<Ring>,
    /// This task's entry in the [`TaskTable`].
    slot: u32,
}

impl<F: Future + 'static> TaskCell<F> {
    /// Waker vtable over `Rc<TaskCell<F>>`.
    ///
    /// # Safety
    ///
    /// `Waker` requires `Send + Sync`, which `Rc` cannot promise; the vtable
    /// is sound anyway because no waker ever leaves its world's thread: the
    /// executor, the kernel's timer queue, and every sync primitive that
    /// stashes a waker are world-local, and the simulator is single-threaded
    /// (no `Sim`, task or waker is ever handed to another host thread; `Sim`
    /// is `!Send` through its `Rc`). Every entry is only ever called with
    /// the pointer of a live `Rc<TaskCell<F>>`: one that
    /// [`Runnable::run`] lends for the length of a poll, or one whose
    /// strong count the calling waker owns because [`TaskCell::clone_raw`]
    /// added it.
    const VTABLE: RawWakerVTable = RawWakerVTable::new(
        Self::clone_raw,
        Self::wake_raw,
        Self::wake_by_ref_raw,
        Self::drop_raw,
    );

    unsafe fn clone_raw(ptr: *const ()) -> RawWaker {
        // SAFETY: `ptr` is a live `Rc<TaskCell<F>>` (VTABLE's contract);
        // the count added here is owned by the returned waker.
        unsafe { Rc::increment_strong_count(ptr.cast::<Self>()) };
        RawWaker::new(ptr, &Self::VTABLE)
    }

    unsafe fn wake_raw(ptr: *const ()) {
        // SAFETY: `ptr` is a live `Rc<TaskCell<F>>` whose count this waker
        // owns and hands to the ring by being consumed (VTABLE's contract).
        Self::schedule(unsafe { Rc::from_raw(ptr.cast::<Self>()) });
    }

    unsafe fn wake_by_ref_raw(ptr: *const ()) {
        // SAFETY: `ptr` is a live `Rc<TaskCell<F>>` that the borrowed waker
        // keeps alive for this call (VTABLE's contract); `ManuallyDrop`
        // leaves its count alone and the ring gets a clone of its own.
        let task = ManuallyDrop::new(unsafe { Rc::from_raw(ptr.cast::<Self>()) });
        Self::schedule(Rc::clone(&task));
    }

    unsafe fn drop_raw(ptr: *const ()) {
        // SAFETY: `ptr` is a live `Rc<TaskCell<F>>` whose count the dropped
        // waker owns (VTABLE's contract).
        drop(unsafe { Rc::from_raw(ptr.cast::<Self>()) });
    }

    fn schedule(self: Rc<Self>) {
        if let Some(ready) = self.ready.upgrade() {
            ready.borrow_mut().push_back(self);
        }
    }
}

impl<F: Future + 'static> Runnable for TaskCell<F> {
    fn run(self: Rc<Self>) -> Option<u32> {
        let mut stage = self.stage.borrow_mut();
        let Stage::Running(future) = &mut *stage else {
            return None;
        };
        // SAFETY: the pointer is the live `Rc` this poll holds, which
        // outlives the waker; `ManuallyDrop` never gives up a count the
        // lent waker does not own (VTABLE's contract).
        let waker =
            ManuallyDrop::new(unsafe { Waker::new(Rc::as_ptr(&self).cast(), &Self::VTABLE) });
        // SAFETY: the future never moves and is dropped in place; see
        // "Pin projection" on `TaskCell`.
        let future = unsafe { Pin::new_unchecked(future) };
        let Poll::Ready(output) = future.poll(&mut Context::from_waker(&waker)) else {
            return None;
        };
        *stage = Stage::Finished(output);
        drop(stage);
        if let Some(joiner) = self.joiner.take() {
            joiner.wake();
        }
        Some(self.slot)
    }

    fn cancel(&self) {
        *self.stage.borrow_mut() = Stage::Done;
        // Two tasks that await each other's handles hold each other's
        // cells through their joiners: drop the waker to break the cycle.
        self.joiner.take();
    }

    fn future_size(&self) -> usize {
        std::mem::size_of::<F>()
    }
}

impl<F: Future> JoinSlot<F::Output> for TaskCell<F> {
    fn is_finished(&self) -> bool {
        matches!(*self.stage.borrow(), Stage::Finished(_))
    }

    fn take_output(&self) -> Option<F::Output> {
        let mut stage = self.stage.borrow_mut();
        if !matches!(*stage, Stage::Finished(_)) {
            return None;
        }
        match std::mem::replace(&mut *stage, Stage::Done) {
            Stage::Finished(output) => Some(output),
            Stage::Running(_) | Stage::Done => unreachable!("stage checked above"),
        }
    }

    fn set_joiner(&self, waker: Waker) {
        self.joiner.set(Some(waker));
    }
}

/// Handle to a spawned task; await it for the task's output.
pub struct JoinHandle<T> {
    task: Rc<dyn JoinSlot<T>>,
}

impl<T> JoinHandle<T> {
    /// True once the task has produced its output.
    pub fn is_finished(&self) -> bool {
        self.task.is_finished()
    }

    /// Take the output if the task already finished (without awaiting).
    pub fn try_take(&self) -> Option<T> {
        self.task.take_output()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        match self.task.take_output() {
            Some(output) => Poll::Ready(output),
            None => {
                self.task.set_joiner(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// One live task in the registry.
struct Live {
    /// Monotone spawn counter, used to report pending tasks in spawn order.
    spawn_seq: u64,
    label: &'static str,
    task: Rc<dyn Runnable>,
}

/// Registry of live tasks: a slab with a free list, whose slot each task's
/// cell carries.
#[derive(Default)]
pub(crate) struct TaskTable {
    slots: Vec<Option<Live>>,
    free: Vec<u32>,
    next_spawn: u64,
}

impl TaskTable {
    /// Number of live (spawned, not yet completed) tasks.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Move `future` into a fresh task cell, the one allocation of a
    /// spawn, and register it. Returns the cell for the ready ring and
    /// the handle's view of it.
    pub(crate) fn spawn<F>(
        &mut self,
        label: &'static str,
        future: F,
        ready: &ReadyQueue,
    ) -> (Rc<dyn Runnable>, JoinHandle<F::Output>)
    where
        F: Future + 'static,
    {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            (self.slots.len() - 1) as u32
        });
        let cell = Rc::new(TaskCell {
            stage: RefCell::new(Stage::Running(future)),
            joiner: Cell::new(None),
            ready: Rc::downgrade(&ready.inner),
            slot,
        });
        self.slots[slot as usize] = Some(Live {
            spawn_seq: self.next_spawn,
            label,
            task: cell.clone(),
        });
        self.next_spawn += 1;
        (cell.clone(), JoinHandle { task: cell })
    }

    /// Unregister the finished task in `slot` and hand back the registry's
    /// count of its cell.
    pub(crate) fn remove(&mut self, slot: u32) -> Option<Rc<dyn Runnable>> {
        let live = self.slots[slot as usize].take()?;
        self.free.push(slot);
        Some(live.task)
    }

    /// Drop every live task's future and empty the registry.
    pub(crate) fn clear(&mut self) {
        // Drop the future now even if a `JoinHandle` or a waker keeps the
        // cell alive: the future owns the `Sim` clones that would
        // otherwise keep the world alive.
        for live in self.slots.drain(..).flatten() {
            live.task.cancel();
        }
        self.free.clear();
    }

    /// Label and future size of each live task, in spawn order.
    pub(crate) fn live_future_sizes(&self) -> Vec<(&'static str, usize)> {
        let mut live: Vec<&Live> = self.slots.iter().flatten().collect();
        live.sort_unstable_by_key(|l| l.spawn_seq);
        live.iter()
            .map(|l| (l.label, l.task.future_size()))
            .collect()
    }
}
