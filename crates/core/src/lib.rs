//! # paragon-core — client-side prefetching for the Paragon PFS
//!
//! **The paper's contribution.** A [`PrefetchingFile`] wraps an open PFS
//! file: after every demand read the user thread issues one (or, with the
//! depth extension, several) asynchronous reads through the ART machinery
//! for the requests it anticipates next; prefetched data lands in a
//! per-file buffer list in compute-node memory; a matching demand read is
//! a hit that pays only the buffer → user-buffer memory copy (or, when
//! the prefetch is still in flight, the remaining I/O time). The file
//! pointer is never moved by a prefetch.
//!
//! Predictors cover the paper's M_RECORD prototype plus the future-work
//! modes (M_ASYNC/M_GLOBAL sequential streams, general stride detection).
//!
//! The accounting ([`PrefetchStats`]) mirrors the paper's discussion:
//! hits split into *ready* and *in-flight*, the extra copy traffic, and
//! the overlap (latency hidden) each hit bought.
//!
//! ```
//! use std::rc::Rc;
//! use paragon_sim::Sim;
//! use paragon_machine::{Machine, MachineConfig};
//! use paragon_pfs::{pattern_byte, IoMode, OpenOptions, ParallelFs, StripeAttrs};
//! use paragon_core::{PrefetchConfig, PrefetchingFile};
//!
//! let sim = Sim::new(1);
//! let machine = Rc::new(Machine::new(&sim, MachineConfig::tiny_instant(1, 2)));
//! let pfs = ParallelFs::new(machine);
//! let h = sim.spawn(async move {
//!     let file = pfs.create("/pfs/doc", StripeAttrs::across(2, 16 * 1024)).await.unwrap();
//!     pfs.populate_with(file, 1 << 20, |i| pattern_byte(1, i)).await.unwrap();
//!     let f = pfs.open(0, 1, file, IoMode::MAsync, OpenOptions::default()).unwrap();
//!     let pf = PrefetchingFile::new(f, PrefetchConfig::paper_prototype());
//!     for _ in 0..8 {
//!         pf.read(64 * 1024).await.unwrap();
//!     }
//!     pf.close().await
//! });
//! sim.run();
//! let stats = h.try_take().unwrap();
//! assert!(stats.hits() >= 6); // the stride locks on after two reads
//! ```

// Robustness: a failed prefetch must quarantine and fall back to demand
// reads (the engine's whole fault story), never panic the client.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod buffer;
mod engine;
mod predictor;
mod stats;
mod writeback;

pub use buffer::PrefetchGauges;
pub use engine::{PredictorKind, PrefetchConfig, PrefetchingFile};
pub use stats::PrefetchStats;
pub use writeback::{WriteBehindConfig, WriteBehindFile};
