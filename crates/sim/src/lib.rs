//! # paragon-sim — deterministic discrete-event simulation kernel
//!
//! Foundation of the Paragon PFS reproduction: a virtual clock, an event
//! heap (`std`'s `BinaryHeap`), and a single-threaded async executor.
//! Model code (compute-node programs, PFS servers, disks) is written as
//! plain `async fn`s; awaiting a [`Sim::sleep`] or a [`sync`] primitive
//! (whose waiter lists are `VecDeque`s) parks the task until the event
//! heap reaches the right virtual instant.
//!
//! Two properties the rest of the workspace depends on:
//!
//! * **Determinism.** No host-clock reads; heap ties break on a monotone
//!   sequence number; all randomness flows through [`Sim::rng`] streams
//!   derived from one seed. Equal `(seed, model)` ⇒ equal
//!   [`RunReport::trace_hash`].
//! * **FIFO fairness.** [`sync::Semaphore`] grants strictly in arrival
//!   order, matching the FIFO disk queues and ART active lists of the
//!   Paragon OS.
//!
//! ```
//! use paragon_sim::{Sim, SimDuration};
//!
//! let sim = Sim::new(42);
//! let s = sim.clone();
//! let h = sim.spawn(async move {
//!     s.sleep(SimDuration::from_millis(3)).await;
//!     s.now().as_millis_round()
//! });
//! sim.run();
//! assert_eq!(h.try_take(), Some(3));
//! ```

mod executor;
mod fault;
mod kernel;
mod rng;
pub mod sync;
mod task;
mod time;
mod trace;

pub use executor::{derive_seed, JoinHandle, RunReport, Sim, Sleep};
pub use fault::{DiskFault, FaultPlan, FaultStats, MeshVerdict};
pub use rng::Rng;
pub use task::TaskId;
pub use time::{SimDuration, SimTime, NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC};
pub use trace::{
    ev, export_json, hash_events, parse_json, render_track_summary, EventBody, EventKind, ReqId,
    Trace, TraceEvent, Track,
};
