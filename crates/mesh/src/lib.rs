//! # paragon-mesh — 2-D mesh interconnect model
//!
//! The Paragon's nodes are connected by a 2-D mesh with dimension-order
//! (XY) wormhole routing. This crate provides the topology/routing math and
//! a typed message transport with a calibrated timing model: software
//! send/receive overheads, per-hop router latency, wire time at link
//! bandwidth, and NIC serialization under fan-in.

// Robustness: a lost or misrouted frame must surface as an observable
// drop (or an `Err`), never a panic on the transport path.
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

mod net;
mod topology;

pub use net::{Mesh, MeshParams, MeshStats};
pub use topology::{NodeId, Topology};
