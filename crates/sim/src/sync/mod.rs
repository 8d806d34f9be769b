//! Synchronization primitives for simulated processes.
//!
//! These mirror the OS facilities the Paragon models need — message queues,
//! mutual exclusion with FIFO fairness (NIC transmit, pointer tokens), and
//! completion signals (ART request completion), and replies awaited by
//! id (RPC calls, disk requests) — all parked on the virtual
//! clock, never the host clock.

mod channel;
mod latch;
mod reply;
mod semaphore;

pub use channel::{channel, Receiver, Sender};
pub use latch::Latch;
pub use reply::{CloseOnDrop, Closed, Reply, ReplyTable};
pub use semaphore::Semaphore;
