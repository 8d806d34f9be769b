//! # paragon-os — operating-system services of the simulated Paragon
//!
//! Two OSF/1-flavoured facilities the PFS is built on:
//!
//! * [`RpcNet`] — typed request/reply messaging over the mesh, with both legs
//!   paying the mesh timing model (per-message software overhead + wire
//!   time). Compute nodes are [`RpcClient`]s; I/O and service nodes install
//!   handlers via [`RpcNet::serve`].
//! * [`ArtPool`] — the Asynchronous Request Thread machinery: request setup
//!   paid by the user thread, FIFO active list, concurrent posting. The
//!   paper's prefetching prototype issues its prefetches as ordinary
//!   asynchronous reads through exactly this path.

//! ```
//! use paragon_os::{ArtConfig, ArtPool};
//! use paragon_sim::{Sim, SimDuration};
//!
//! // An asynchronous request overlaps the user thread, like the ARTs
//! // the prefetch prototype is built on.
//! let sim = Sim::new(1);
//! let pool = ArtPool::new(&sim, ArtConfig::instant());
//! let s = sim.clone();
//! let h = sim.spawn(async move {
//!     let io = s.sleep(SimDuration::from_millis(40));
//!     let req = pool.submit(io).await;          // returns immediately
//!     s.sleep(SimDuration::from_millis(40)).await; // compute meanwhile
//!     req.wait().await;                         // iowait
//!     s.now().as_millis_round()
//! });
//! sim.run();
//! assert_eq!(h.try_take(), Some(40)); // full overlap: 40 ms, not 80
//! ```

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

mod art;
mod rpc;

pub use art::{ArtConfig, ArtPool, ArtStats, AsyncHandle};
pub use rpc::{RpcClient, RpcError, RpcNet, RpcPolicy, WireSize};
