//! # paragon-machine — machine assembly and calibration
//!
//! Puts the hardware together: a [`Machine`] owns the mesh topology with
//! compute/I-O/service node placement and one RAID array + UFS per I/O
//! node. Every timing constant of the reproduction lives in
//! [`Calibration`], documented with its provenance, so the simulation can
//! be audited and re-calibrated in one place.

mod calib;
mod machine;

pub use calib::Calibration;
pub use machine::{Machine, MachineConfig};
