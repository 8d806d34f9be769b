//! Task bookkeeping for the single-threaded executor.
//!
//! Tasks live in a slab: a flat `Vec` of slots indexed by the low 32 bits
//! of the [`TaskId`], with a free list for reuse. The high 32 bits carry a
//! per-slot generation that is bumped every time a slot is freed, so a wake
//! addressed to a task that has completed — even if its slot has since been
//! reused — fails the generation check and is dropped instead of being
//! misdelivered (the classic ABA hazard of index reuse).
//!
//! Wakers are `Rc`-based with a hand-rolled [`RawWakerVTable`]: a world's
//! executor, its tasks, and every waker they clone all live on the one
//! host thread that runs the simulation, so the `Send + Sync` contract of
//! `std::task::Waker` is vacuously met and the ready ring needs no lock.
//! Each slot caches the `Waker` for its current occupant, so polling
//! allocates nothing.
#![expect(
    unsafe_code,
    reason = "the Rc waker vtable; its safety argument is on VTABLE"
)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{RawWaker, RawWakerVTable, Waker};

/// Identifies a spawned task for the lifetime of a simulation.
///
/// Packs `(generation << 32) | slot`: the slot indexes the executor's task
/// slab, the generation detects stale references to a reused slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u64);

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
/// is `!Send` through its `Rc`s). Every vtable entry is
/// only ever called with a pointer produced by `Rc::into_raw` in
/// [`task_waker`] or [`clone_raw`].
static VTABLE: RawWakerVTable = RawWakerVTable::new(clone_raw, wake_raw, wake_by_ref_raw, drop_raw);

unsafe fn clone_raw(ptr: *const ()) -> RawWaker {
    Rc::increment_strong_count(ptr as *const TaskWaker);
    RawWaker::new(ptr, &VTABLE)
}

unsafe fn wake_raw(ptr: *const ()) {
    let w = Rc::from_raw(ptr as *const TaskWaker);
    w.ready.push(w.id);
}

unsafe fn wake_by_ref_raw(ptr: *const ()) {
    let w = &*(ptr as *const TaskWaker);
    w.ready.push(w.id);
}

unsafe fn drop_raw(ptr: *const ()) {
    drop(Rc::from_raw(ptr as *const TaskWaker));
}

/// Build the waker for `id`; cloning it is an `Rc` count bump.
fn task_waker(id: TaskId, ready: &ReadyQueue) -> Waker {
    let w = Rc::new(TaskWaker {
        id,
        ready: ready.clone(),
    });
    unsafe { Waker::from_raw(RawWaker::new(Rc::into_raw(w) as *const (), &VTABLE)) }
}

/// The future owned by a task slot.
pub(crate) type BoxedTask = Pin<Box<dyn Future<Output = ()>>>;

/// One slab slot. `future` is `None` while the executor has temporarily
/// taken the future out to poll it (so re-entrant wakes during the poll are
/// harmless) and after the slot is freed.
pub(crate) struct TaskSlot {
    pub(crate) generation: u32,
    live: bool,
    /// Monotone spawn counter, used to report pending tasks in spawn order.
    spawn_seq: u64,
    pub(crate) label: &'static str,
    pub(crate) future: Option<BoxedTask>,
    /// Cached waker for the current occupant; cloned per poll (an `Rc`
    /// bump) instead of allocating a fresh `TaskWaker` every poll.
    waker: Option<Waker>,
}

impl TaskSlot {
    fn vacant() -> Self {
        TaskSlot {
            generation: 0,
            live: false,
            spawn_seq: 0,
            label: "",
            future: None,
            waker: None,
        }
    }

    pub(crate) fn waker(&self) -> Waker {
        self.waker.clone().expect("live task slot has a waker")
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
}

impl TaskTable {
    /// Number of live (spawned, not yet completed) tasks.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Claim a slot for a new task and cache its waker.
    pub(crate) fn insert(
        &mut self,
        label: &'static str,
        future: BoxedTask,
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
        slot.future = Some(future);
        slot.waker = Some(task_waker(id, ready));
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
                slot.future = None;
                slot.waker = None;
                slot.generation = slot.generation.wrapping_add(1);
                self.live -= 1;
                self.free.push(idx);
            }
        }
    }

    /// Drop every live task (futures, wakers and all), freeing the slots.
    pub(crate) fn clear(&mut self) {
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if slot.live {
                slot.live = false;
                slot.future = None;
                slot.waker = None;
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(idx as u32);
            }
        }
        self.live = 0;
    }

    /// Labels of live tasks, in spawn order.
    pub(crate) fn live_labels(&self) -> Vec<&'static str> {
        let mut live: Vec<(u64, &'static str)> = self
            .slots
            .iter()
            .filter(|s| s.live)
            .map(|s| (s.spawn_seq, s.label))
            .collect();
        live.sort_unstable();
        live.into_iter().map(|(_, label)| label).collect()
    }
}
