//! Task bookkeeping for the single-threaded executor.
//!
//! A spawned task lives in a [`TaskCell`]: the future at its own size,
//! its output once ready (in the future's place), the waker of the task
//! awaiting its [`JoinHandle`], and a weak handle to the world's ready
//! ring. The cell is its own waker: a task's [`Waker`] is a counted
//! pointer to its cell, an `Rc<TaskCell<F>>` behind a per-`F`
//! [`RawWakerVTable`] (the design of runtimes such as `async-task`), and
//! waking moves that `Rc` onto the ready ring. A wake therefore reaches
//! only its own task. One fired after the task finished finds its own
//! finished cell, which the executor counts as a stale wake and does not
//! poll; no id, generation or slot lookup stands between a wake and its
//! task. The ring holds cells as `Rc<dyn Runnable>`; a handle reads its
//! cell as an `Rc<dyn JoinSlot<T>>`.
//!
//! [`TaskTable`] is the registry of live tasks (label, spawn order and
//! cell), touched at spawn, at completion and at shutdown, and by the
//! pending-task reports. A cell knows its registry slot, so a task that
//! finishes frees its own entry. The table also keeps every finished
//! cell, grouped by future type, and a spawn of that type moves its
//! future into a kept cell instead of allocating one, but only a cell
//! whose last `Rc` the table holds: no handle, waker or ring entry can
//! reach it then, so no stale wake can land in the new task.
//!
//! Wakers are `Rc`-based: a world's executor, its tasks, and every waker
//! they clone all live on the one host thread that runs the simulation,
//! so the `Send + Sync` contract of `std::task::Waker` is vacuously met
//! and the ready ring needs no lock. A poll lends the task its own waker
//! without touching the count, so polling allocates nothing, and a spawn
//! allocates at most its cell.
#![expect(
    unsafe_code,
    reason = "the Rc waker vtable and the task cell's pin projection; their safety arguments are on TaskCell::VTABLE and TaskCell"
)]

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
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

/// The executor's view of a task. `Any`, so that the [`TaskTable`] can
/// keep a finished cell and hand it back to a spawn of its own type.
pub(crate) trait Runnable: Any {
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
    /// The handle is gone: nobody can take the output any more.
    fn detach(&self);
}

enum Stage<F: Future> {
    Running(F),
    Finished(F::Output),
    /// Output taken, or future dropped at shutdown.
    Done,
}

/// One spawned task: its future, its join slot and its waker in one
/// allocation, which later tasks of the same future type reuse.
///
/// # Pin projection
///
/// [`Runnable::run`] pins the future where it lies with
/// `Pin::new_unchecked`. That is sound because the future never moves and
/// is dropped in place: the cell lives inside its `Rc` from
/// [`TaskTable::spawn`] on, and nothing moves it out (no `Rc::try_unwrap`,
/// no `get_mut` on a cell); `Stage::Running` is only ever left by
/// assigning a new stage over it, which drops the future where it lies;
/// `take_output`, `detach` and a reuse move a stage out only when it is
/// `Stage::Finished` or `Stage::Done`, never `Stage::Running`, and a
/// reuse moves the new future into the stage before it is first polled.
struct TaskCell<F: Future> {
    stage: RefCell<Stage<F>>,
    /// Waker of the task awaiting this one's [`JoinHandle`].
    joiner: Cell<Option<Waker>>,
    /// Weak, so a woken cell and the ring that holds it form no cycle,
    /// and a waker fired after its world is gone finds no ring.
    ready: Weak<Ring>,
    /// This task's entry in the [`TaskTable`].
    slot: Cell<u32>,
    /// The [`JoinHandle`] was dropped: an output is dropped at once
    /// instead of waiting in the cell for a taker that cannot come.
    detached: Cell<bool>,
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
        let unclaimed = if self.detached.get() {
            *stage = Stage::Done;
            Some(output)
        } else {
            *stage = Stage::Finished(output);
            None
        };
        drop(stage);
        if let Some(joiner) = self.joiner.take() {
            joiner.wake();
        }
        // After the wake, where the cell's last count used to drop it.
        drop(unclaimed);
        Some(self.slot.get())
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

    fn detach(&self) {
        self.detached.set(true);
        // A handle dropped inside its own task's poll finds the stage
        // borrowed; `run` then drops the output itself.
        let unclaimed = match self.stage.try_borrow_mut() {
            Ok(mut stage) if matches!(*stage, Stage::Finished(_)) => {
                Some(std::mem::replace(&mut *stage, Stage::Done))
            }
            _ => None,
        };
        drop(unclaimed);
    }
}

impl<F: Future + 'static> TaskCell<F> {
    /// Move `future` into this finished cell as task `slot`. Returns what
    /// the last occupant left (its stage and any joiner), for the caller
    /// to drop outside the [`TaskTable`] borrow.
    fn restart(&self, future: F, slot: u32) -> Retired<F> {
        self.slot.set(slot);
        self.detached.set(false);
        Retired {
            _stage: self.stage.replace(Stage::Running(future)),
            _joiner: self.joiner.take(),
        }
    }
}

/// What a reused cell's last occupant left behind. Dropping it may run
/// arbitrary destructors, so [`Sim::spawn_named`](crate::Sim::spawn_named)
/// drops it only after its [`TaskTable`] borrow ends.
pub(crate) struct Retired<F: Future> {
    _stage: Stage<F>,
    _joiner: Option<Waker>,
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

impl<T> Drop for JoinHandle<T> {
    fn drop(&mut self) {
        self.task.detach();
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

/// What [`TaskTable::spawn`] returns: the cell for the ready ring, the
/// handle's view of it, and what a reused cell's last occupant left.
pub(crate) type Spawned<F> = (
    Rc<dyn Runnable>,
    JoinHandle<<F as Future>::Output>,
    Option<Retired<F>>,
);

/// One live task in the registry.
struct Live {
    /// Monotone spawn counter, used to report pending tasks in spawn order.
    spawn_seq: u64,
    label: &'static str,
    /// Index of the task's future type in [`TaskTable::kept`].
    kind: u32,
    task: Rc<dyn Runnable>,
}

/// Registry of live tasks: a slab with a free list, whose slot each task's
/// cell carries; and the finished cells, kept for reuse.
#[derive(Default)]
pub(crate) struct TaskTable {
    slots: Vec<Option<Live>>,
    free: Vec<u32>,
    next_spawn: u64,
    /// Each future type spawned so far, as an index into `kept`.
    kinds: BTreeMap<TypeId, u32>,
    /// Finished cells by future type; each is a `TaskCell` of its kind.
    kept: Vec<Vec<Rc<dyn Any>>>,
}

impl TaskTable {
    /// Number of live (spawned, not yet completed) tasks.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Register a task running `future`, in a kept cell of its type that
    /// nothing else can reach, or else in a fresh one (a spawn's only
    /// allocation). The caller drops what a reused cell's last occupant
    /// left after this borrow ends.
    pub(crate) fn spawn<F>(
        &mut self,
        label: &'static str,
        future: F,
        ready: &ReadyQueue,
    ) -> Spawned<F>
    where
        F: Future + 'static,
    {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            (self.slots.len() - 1) as u32
        });
        let next_kind = self.kept.len() as u32;
        let kind = *self.kinds.entry(TypeId::of::<F>()).or_insert(next_kind);
        if kind == next_kind {
            self.kept.push(Vec::new());
        }
        let kept = &mut self.kept[kind as usize];
        // Only the table's count left: no handle, waker or ring entry.
        let (cell, retired) = match kept.iter().position(|c| Rc::strong_count(c) == 1) {
            Some(at) => {
                let cell = Rc::downcast::<TaskCell<F>>(kept.swap_remove(at))
                    .unwrap_or_else(|_| unreachable!("kept cells are grouped by future type"));
                let retired = cell.restart(future, slot);
                (cell, Some(retired))
            }
            None => {
                let cell = Rc::new(TaskCell {
                    stage: RefCell::new(Stage::Running(future)),
                    joiner: Cell::new(None),
                    ready: Rc::downgrade(&ready.inner),
                    slot: Cell::new(slot),
                    detached: Cell::new(false),
                });
                (cell, None)
            }
        };
        self.slots[slot as usize] = Some(Live {
            spawn_seq: self.next_spawn,
            label,
            kind,
            task: cell.clone(),
        });
        self.next_spawn += 1;
        (cell.clone(), JoinHandle { task: cell }, retired)
    }

    /// Unregister the finished task in `slot` and keep its cell for a
    /// later spawn of its type.
    pub(crate) fn remove(&mut self, slot: u32) {
        if let Some(live) = self.slots[slot as usize].take() {
            self.free.push(slot);
            self.kept[live.kind as usize].push(live.task);
        }
    }

    /// Drop every live task's future and empty the registry. Returns the
    /// kept cells, for the caller to drop after this borrow ends.
    pub(crate) fn clear(&mut self) -> Vec<Vec<Rc<dyn Any>>> {
        // Drop the future now even if a `JoinHandle` or a waker keeps the
        // cell alive: the future owns the `Sim` clones that would
        // otherwise keep the world alive.
        for live in self.slots.drain(..).flatten() {
            live.task.cancel();
        }
        self.free.clear();
        self.kinds.clear();
        std::mem::take(&mut self.kept)
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
