//! Task bookkeeping for the single-threaded executor.
//!
//! Tasks live in a slab: a flat `Vec` of slots indexed by the low 32 bits
//! of the [`TaskId`], with a free list for reuse. The high 32 bits carry a
//! per-slot generation that is bumped every time a slot is freed, so a wake
//! addressed to a task that has completed — even if its slot has since been
//! reused — fails the generation check and is dropped instead of being
//! misdelivered (the classic ABA hazard of index reuse).
//!
//! A spawned task is one heap allocation, a [`TaskCell`]: the future at its
//! own size, its output once ready (in the future's place), and the waker
//! of the task awaiting its [`JoinHandle`]. The slab polls the cell as an
//! `Rc<dyn Runnable>`; the handle reads it as an `Rc<dyn JoinSlot<T>>`.
//!
//! Wakers are `Rc`-based with a hand-rolled [`RawWakerVTable`]: a world's
//! executor, its tasks, and every waker they clone all live on the one
//! host thread that runs the simulation, so the `Send + Sync` contract of
//! `std::task::Waker` is vacuously met and the ready ring needs no lock.
//! Each slot keeps the waker payload of its current occupant, so polling
//! allocates nothing, and hands it on to its next occupant when no clone of
//! it is outstanding, so spawning usually allocates only the cell.
#![expect(
    unsafe_code,
    reason = "the Rc waker vtable and the task cell's pin projection; their safety arguments are on VTABLE and TaskCell"
)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// Identifies a spawned task for the lifetime of a simulation.
///
/// Packs `(generation << 32) | slot`: the slot indexes the executor's task
/// slab, the generation detects stale references to a reused slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct TaskId(pub(crate) u64);

impl TaskId {
    pub(crate) fn new(slot: u32, generation: u32) -> TaskId {
        TaskId(((generation as u64) << 32) | slot as u64)
    }

    pub(crate) fn slot(self) -> u32 {
        self.0 as u32
    }

    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Ring of tasks that have been woken and must be polled.
///
/// Shared between the executor and every waker handed to a task.
#[derive(Clone, Default)]
pub(crate) struct ReadyQueue {
    inner: Rc<RefCell<VecDeque<TaskId>>>,
}

impl ReadyQueue {
    pub(crate) fn push(&self, id: TaskId) {
        // The borrow lasts only for this statement, so a task waking
        // itself mid-poll (executor not holding a borrow) cannot trip it.
        self.inner.borrow_mut().push_back(id);
    }

    pub(crate) fn pop(&self) -> Option<TaskId> {
        self.inner.borrow_mut().pop_front()
    }
}

/// Waker payload for one task: waking pushes the task id back onto the
/// ready ring.
struct TaskWaker {
    id: TaskId,
    ready: ReadyQueue,
}

/// Waker vtable over `Rc<TaskWaker>`.
///
/// # Safety
///
/// `Waker` requires `Send + Sync`, which `Rc` cannot promise; the vtable
/// is sound anyway because no waker ever leaves its world's thread: the
/// executor, the kernel's timer queue, and every sync primitive that
/// stashes a waker are world-local, and the simulator is single-threaded
/// (no `Sim`, task or waker is ever handed to another host thread; `Sim`
/// is `!Send` through its `Rc`). Every vtable entry is only ever called
/// with a pointer produced by `Rc::into_raw` in [`waker_of`] or
/// [`clone_raw`], whose strong count the calling waker owns.
static VTABLE: RawWakerVTable = RawWakerVTable::new(clone_raw, wake_raw, wake_by_ref_raw, drop_raw);

unsafe fn clone_raw(ptr: *const ()) -> RawWaker {
    // SAFETY: `ptr` is a live `Rc<TaskWaker>` (VTABLE's contract); the
    // count added here is owned by the returned waker.
    unsafe { Rc::increment_strong_count(ptr as *const TaskWaker) };
    RawWaker::new(ptr, &VTABLE)
}

unsafe fn wake_raw(ptr: *const ()) {
    // SAFETY: `ptr` is a live `Rc<TaskWaker>` whose count this waker owns
    // and gives up by being consumed (VTABLE's contract).
    let w = unsafe { Rc::from_raw(ptr as *const TaskWaker) };
    w.ready.push(w.id);
}

unsafe fn wake_by_ref_raw(ptr: *const ()) {
    // SAFETY: `ptr` is a live `Rc<TaskWaker>` that the borrowed waker keeps
    // alive for this call (VTABLE's contract).
    let w = unsafe { &*(ptr as *const TaskWaker) };
    w.ready.push(w.id);
}

unsafe fn drop_raw(ptr: *const ()) {
    // SAFETY: `ptr` is a live `Rc<TaskWaker>` whose count the dropped waker
    // owns (VTABLE's contract).
    drop(unsafe { Rc::from_raw(ptr as *const TaskWaker) });
}

/// A waker that owns one count of `w`; cloning it is an `Rc` count bump.
fn waker_of(w: Rc<TaskWaker>) -> Waker {
    // SAFETY: the pointer comes from `Rc::into_raw` and its count moves
    // into the waker, which is what VTABLE's entries assume.
    unsafe { Waker::from_raw(RawWaker::new(Rc::into_raw(w) as *const (), &VTABLE)) }
}

/// The executor's view of a task.
pub(crate) trait Runnable {
    /// Poll the future once. On `Ready` its output is in the join slot and
    /// the task awaiting the handle, if any, has been woken.
    fn poll_task(&self, cx: &mut Context<'_>) -> Poll<()>;

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

/// One spawned task: its future and its join slot in one allocation.
///
/// # Pin projection
///
/// [`Runnable::poll_task`] pins the future where it lies with
/// `Pin::new_unchecked`. That is sound because the future never moves and
/// is dropped in place: the cell is created inside its `Rc` by
/// `spawn_named` and nothing moves it out (no `Rc::try_unwrap`, no
/// `get_mut` on a cell); `Stage::Running` is only ever left by assigning
/// a new stage over it, which drops the future where it lies; and
/// `take_output` moves a value out of `Stage::Finished` only, never out of
/// `Stage::Running`.
struct TaskCell<F: Future> {
    stage: RefCell<Stage<F>>,
    /// Waker of the task awaiting this one's [`JoinHandle`].
    joiner: Cell<Option<Waker>>,
}

/// Move `future` into a fresh task cell: the one allocation of a spawn.
/// Returns the slab's view of it and the handle's.
pub(crate) fn new_task<F>(future: F) -> (Rc<dyn Runnable>, JoinHandle<F::Output>)
where
    F: Future + 'static,
{
    let cell = Rc::new(TaskCell {
        stage: RefCell::new(Stage::Running(future)),
        joiner: Cell::new(None),
    });
    (cell.clone(), JoinHandle { task: cell })
}

impl<F: Future> Runnable for TaskCell<F> {
    fn poll_task(&self, cx: &mut Context<'_>) -> Poll<()> {
        let mut stage = self.stage.borrow_mut();
        let Stage::Running(future) = &mut *stage else {
            // Finished tasks leave the slab, so only a cancelled one is here.
            return Poll::Ready(());
        };
        // SAFETY: the future never moves and is dropped in place; see
        // "Pin projection" on `TaskCell`.
        let future = unsafe { Pin::new_unchecked(future) };
        let Poll::Ready(output) = future.poll(cx) else {
            return Poll::Pending;
        };
        *stage = Stage::Finished(output);
        drop(stage);
        if let Some(joiner) = self.joiner.take() {
            joiner.wake();
        }
        Poll::Ready(())
    }

    fn cancel(&self) {
        *self.stage.borrow_mut() = Stage::Done;
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

/// One slab slot.
pub(crate) struct TaskSlot {
    pub(crate) generation: u32,
    live: bool,
    /// Monotone spawn counter, used to report pending tasks in spawn order.
    spawn_seq: u64,
    pub(crate) label: &'static str,
    /// `None` while the executor has taken the task out to poll it (so
    /// re-entrant wakes during the poll are harmless) and after the slot
    /// is freed.
    pub(crate) task: Option<Rc<dyn Runnable>>,
    /// Waker payload of the current occupant, kept when it completes so
    /// the slot's next occupant can reuse the allocation.
    waker: Option<Rc<TaskWaker>>,
}

impl TaskSlot {
    fn vacant() -> Self {
        TaskSlot {
            generation: 0,
            live: false,
            spawn_seq: 0,
            label: "",
            task: None,
            waker: None,
        }
    }

    /// The occupant's waker: an `Rc` count bump, no allocation.
    pub(crate) fn waker(&self) -> Waker {
        waker_of(self.waker.clone().expect("live task slot has a waker"))
    }
}

/// Slab of task slots with generational ids and a free list.
#[derive(Default)]
pub(crate) struct TaskTable {
    slots: Vec<TaskSlot>,
    free: Vec<u32>,
    next_spawn: u64,
    live: usize,
    /// Wakes handled: task polls plus dropped stale wakes.
    pub(crate) polls: u64,
    /// `TaskWaker`s allocated by [`TaskTable::insert`].
    pub(crate) wakers_built: u64,
}

impl TaskTable {
    /// Number of live (spawned, not yet completed) tasks.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Claim a slot for a new task and point the slot's waker at it.
    pub(crate) fn insert(
        &mut self,
        label: &'static str,
        task: Rc<dyn Runnable>,
        ready: &ReadyQueue,
    ) -> TaskId {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(TaskSlot::vacant());
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        let id = TaskId::new(idx, slot.generation);
        slot.live = true;
        slot.spawn_seq = self.next_spawn;
        slot.label = label;
        slot.task = Some(task);
        // Retarget the previous occupant's payload only if no clone of its
        // waker is left (in the timer heap, a waiter list, a join slot):
        // such a clone would deliver its stale wake to this task.
        match slot.waker.as_mut().and_then(Rc::get_mut) {
            Some(w) => w.id = id,
            None => {
                slot.waker = Some(Rc::new(TaskWaker {
                    id,
                    ready: ready.clone(),
                }));
                self.wakers_built += 1;
            }
        }
        self.next_spawn += 1;
        self.live += 1;
        id
    }

    /// The slot for `id`, or `None` if the task completed — including when
    /// its slot was reused (generation mismatch drops the stale reference).
    pub(crate) fn get_live(&mut self, id: TaskId) -> Option<&mut TaskSlot> {
        let slot = self.slots.get_mut(id.slot() as usize)?;
        if slot.live && slot.generation == id.generation() {
            Some(slot)
        } else {
            None
        }
    }

    /// Free `id`'s slot, bumping its generation so stale wakes miss.
    pub(crate) fn remove(&mut self, id: TaskId) {
        let idx = id.slot();
        if let Some(slot) = self.slots.get_mut(idx as usize) {
            if slot.live && slot.generation == id.generation() {
                slot.live = false;
                slot.task = None;
                slot.generation = slot.generation.wrapping_add(1);
                self.live -= 1;
                self.free.push(idx);
            }
        }
    }

    /// Drop every live task's future, freeing the slots.
    pub(crate) fn clear(&mut self) {
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if slot.live {
                slot.live = false;
                // Drop the future now even if a `JoinHandle` keeps the
                // cell alive: the future owns the `Sim` clones that would
                // otherwise keep the world alive.
                if let Some(task) = slot.task.take() {
                    task.cancel();
                }
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(idx as u32);
            }
        }
        self.live = 0;
    }

    /// Labels of live tasks, in spawn order.
    pub(crate) fn live_labels(&self) -> Vec<&'static str> {
        self.live_in_spawn_order()
            .into_iter()
            .map(|s| s.label)
            .collect()
    }

    /// Label and future size of each live task that is not being polled,
    /// in spawn order.
    pub(crate) fn live_future_sizes(&self) -> Vec<(&'static str, usize)> {
        self.live_in_spawn_order()
            .into_iter()
            .filter_map(|s| Some((s.label, s.task.as_ref()?.future_size())))
            .collect()
    }

    fn live_in_spawn_order(&self) -> Vec<&TaskSlot> {
        let mut live: Vec<&TaskSlot> = self.slots.iter().filter(|s| s.live).collect();
        live.sort_unstable_by_key(|s| s.spawn_seq);
        live
    }
}
