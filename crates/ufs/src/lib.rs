//! # paragon-ufs — the per-I/O-node Unix file system
//!
//! Each Paragon I/O node ran a regular Unix File System on its RAID array;
//! the PFS stripes one parallel file over many of these. This crate is that
//! building block: blocks handed out in order from a bump pointer (files
//! only grow), an inode table with a coalescing block map, an LRU read
//! cache, and the two read paths the PFS server selects between — the
//! **Fast Path** ([`Ufs::read_direct`], cache bypassed, data moved disk →
//! caller directly, contiguous blocks merged into single device requests)
//! and the buffered path ([`Ufs::read_cached`]). There is one write path,
//! [`Ufs::write`]: data goes to disk and purges the cached copies of the
//! blocks it overwrote.
//!
//! ```
//! use paragon_sim::Sim;
//! use paragon_disk::{DiskParams, RaidArray};
//! use paragon_ufs::{Ufs, UfsParams};
//! use bytes::Bytes;
//!
//! let sim = Sim::new(7);
//! let raid = RaidArray::new(&sim, DiskParams::ideal(1e7), 4, 16 * 1024, "doc");
//! let fs = Ufs::new(&sim, raid, UfsParams::paragon());
//! let fs2 = fs.clone();
//! let h = sim.spawn(async move {
//!     let id = fs2.create("/pfs/stripe.0").await.unwrap();
//!     fs2.write(id, 0, Bytes::from(vec![42u8; 128 * 1024])).await.unwrap();
//!     fs2.read_direct(id, 0, 64 * 1024, 0).await.unwrap().len()
//! });
//! sim.run();
//! assert_eq!(h.try_take(), Some(64 * 1024));
//! ```

// Robustness: the I/O path under the PFS servers must surface failures
// as `UfsError` values, never a panic.
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

mod cache;
mod fs;
mod inode;

pub use cache::{BlockCache, BlockKey};
pub use fs::{Ufs, UfsError, UfsParams};
pub use inode::InodeId;
