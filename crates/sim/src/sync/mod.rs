//! Synchronization primitives for simulated processes.
//!
//! These mirror the OS facilities the Paragon models need — message queues,
//! mutual exclusion with FIFO fairness (disk queues, pointer tokens), and
//! completion signals (ART request completion) — all parked on the virtual
//! clock, never the host clock.

mod channel;
mod oneshot;
mod semaphore;
mod signal;

pub use channel::{channel, Receiver, Sender};
pub use oneshot::{oneshot, OneshotSender};
pub use semaphore::Semaphore;
pub use signal::Signal;
