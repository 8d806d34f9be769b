//! Synchronization primitives for simulated processes.
//!
//! These mirror the OS facilities the Paragon models need — message queues,
//! mutual exclusion with FIFO fairness (disk queues, pointer tokens),
//! barriers (M_SYNC collective calls), and completion signals (ART request
//! completion) — all parked on the virtual clock, never the host clock.

mod barrier;
mod channel;
mod oneshot;
mod semaphore;
mod signal;

pub use barrier::{Barrier, BarrierWaitResult};
pub use channel::{channel, Receiver, RecvError, Sender};
pub use oneshot::{oneshot, OneshotReceiver, OneshotSender, RecvCancelled};
pub use semaphore::{Semaphore, SemaphoreGuard};
pub use signal::Signal;
