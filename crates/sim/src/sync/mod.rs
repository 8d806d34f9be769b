//! Synchronization primitives for simulated processes.
//!
//! These mirror the OS facilities the Paragon models need — message queues,
//! mutual exclusion with FIFO fairness (NIC transmit, pointer tokens), and
//! completion signals (ART request completion) — all parked on the virtual
//! clock, never the host clock.

mod channel;
mod latch;
mod oneshot;
mod semaphore;

pub use channel::{channel, Receiver, Sender};
pub use latch::Latch;
pub use oneshot::{oneshot, OneshotReceiver, OneshotSender};
pub use semaphore::Semaphore;
