//! # paragon-disk — disk and RAID models
//!
//! Simulated storage for the Paragon I/O nodes: a first-order disk timing
//! model (controller overhead + seek/rotation + media transfer, with a
//! sequential window standing in for the track buffer), N-step SCAN
//! elevator request scheduling, and a RAID-3-style array striping a
//! logical device over synchronized members.
//!
//! Each array keeps its *real bytes* in one logical, sparse in-memory
//! store, so the layers above (UFS, PFS, the prefetcher) can be tested for
//! data integrity as well as timing; its member disks model service time
//! only.

// Robustness: an injected fault must surface as an `Err`, never a panic.
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

mod disk;
mod params;
mod raid;
mod store;

pub use disk::{DiskError, DiskStats};
pub use params::DiskParams;
pub use raid::{RaidArray, RaidStats, StripeMap, StripePiece};
pub use store::{BlockStore, STORE_PAGE};
