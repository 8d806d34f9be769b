//! # paragon-pfs — the Paragon Parallel File System
//!
//! A full model of the PFS the paper modifies: files striped over
//! per-I/O-node UFS partitions ([`StripeAttrs`], Figure 3 declustering
//! with client-side block coalescing), all six I/O modes ([`IoMode`],
//! Figure 1), the shared-file-pointer server, Fast Path I/O (buffer cache
//! bypass), and per-I/O-node server processes — everything the prefetch
//! prototype in `paragon-core` plugs into.
//!
//! Typical use:
//!
//! 1. build a [`paragon_machine::Machine`],
//! 2. mount with [`ParallelFs::new`],
//! 3. [`ParallelFs::create`] + [`ParallelFs::populate_with`],
//! 4. per compute node, [`ParallelFs::open`] and issue [`PfsFile::read`]s.
//!
//! ```
//! use std::rc::Rc;
//! use paragon_sim::Sim;
//! use paragon_machine::{Machine, MachineConfig};
//! use paragon_pfs::{pattern_byte, pattern_slice, IoMode, OpenOptions, ParallelFs, StripeAttrs};
//!
//! let sim = Sim::new(7);
//! let machine = Rc::new(Machine::new(&sim, MachineConfig::tiny_instant(2, 2)));
//! let pfs = ParallelFs::new(machine);
//! let h = sim.spawn(async move {
//!     let file = pfs.create("/pfs/doc", StripeAttrs::across(2, 16 * 1024)).await.unwrap();
//!     pfs.populate_with(file, 256 * 1024, |i| pattern_byte(3, i)).await.unwrap();
//!     // Rank 1 of 2 reads its first M_RECORD record: record #1.
//!     let f = pfs.open(1, 2, file, IoMode::MRecord, OpenOptions::default()).unwrap();
//!     let data = f.read(32 * 1024).await.unwrap();
//!     data == pattern_slice(3, 32 * 1024, 32 * 1024)
//! });
//! sim.run();
//! assert_eq!(h.try_take(), Some(true));
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod client;
mod fs;
mod meta;
mod modes;
mod pointer;
mod proto;
mod rebuild;
mod redundancy;
mod server;
mod stripe;

pub use client::{OpenOptions, PfsFile};
pub use fs::{pattern_byte, pattern_slice, ParallelFs};
pub use modes::IoMode;
pub use proto::{PfsError, PfsFileId};
pub use rebuild::{rebuild_after_crash, RebuildStats};
pub use redundancy::Redundancy;
pub use stripe::{StripeAttrs, StripePiece};
