//! The PFS I/O modes (Figure 1 of the paper).
//!
//! A mode is a hint the application gives the file system about how the
//! nodes sharing a file will access it; the file system uses it to pick a
//! pointer-coordination strategy. The taxonomy:
//!
//! ```text
//!                      file sharing
//!                     /            \
//!          shared file pointer   unique (per-node) file pointers
//!           /        |      \          /        \        \
//!      atomicity  synced   log     node-order  same data  uncoordinated
//!       M_UNIX    M_SYNC   M_LOG    M_RECORD   M_GLOBAL    M_ASYNC
//!       (mode 0)  (mode 2) (mode 1) (mode 3)   (mode 4)    (mode 5)
//! ```
//!
//! * **M_UNIX** — one shared pointer with Unix single-process semantics:
//!   each access atomically reads at the pointer and advances it, so
//!   concurrent accesses serialize on the pointer token.
//! * **M_LOG** — shared pointer, first-come-first-served: an access
//!   reserves its range with a fetch-and-add and then proceeds, so data
//!   transfers overlap; ordering across nodes is arrival order.
//! * **M_SYNC** — shared pointer, node order, synchronizing: every node
//!   must arrive at the collective call before ranges (assigned in node
//!   order) are released; variable request sizes allowed.
//! * **M_RECORD** — per-node pointers over a record-structured file: call
//!   `k` of node `i` reads record `k·N + i`. No inter-node communication
//!   is needed, but all nodes must use the same request size. This is the
//!   mode the prefetch prototype targets.
//! * **M_GLOBAL** — all nodes read the *same* data; the I/O nodes satisfy
//!   one physical read per collective call and fan the data out.
//! * **M_ASYNC** — per-node pointers, no coordination, no consistency
//!   guarantees: the fastest shared-file mode.

use std::fmt;

/// A PFS file-sharing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoMode {
    /// Mode 0: shared pointer, atomic (serializing).
    MUnix,
    /// Mode 1: shared pointer, arrival-ordered log.
    MLog,
    /// Mode 2: shared pointer, node-ordered, synchronizing.
    MSync,
    /// Mode 3: per-node pointers, node-ordered records (same size).
    MRecord,
    /// Mode 4: per-node pointers, all nodes see the same data.
    MGlobal,
    /// Mode 5: per-node pointers, uncoordinated.
    MAsync,
}

impl IoMode {
    /// The numeric mode of the Paragon API.
    pub fn number(self) -> u8 {
        match self {
            IoMode::MUnix => 0,
            IoMode::MLog => 1,
            IoMode::MSync => 2,
            IoMode::MRecord => 3,
            IoMode::MGlobal => 4,
            IoMode::MAsync => 5,
        }
    }

    /// All six modes, mode-number order.
    pub fn all() -> [IoMode; 6] {
        [
            IoMode::MUnix,
            IoMode::MLog,
            IoMode::MSync,
            IoMode::MRecord,
            IoMode::MGlobal,
            IoMode::MAsync,
        ]
    }

    /// True for modes where all nodes share one file pointer.
    pub fn shared_pointer(self) -> bool {
        matches!(self, IoMode::MUnix | IoMode::MLog | IoMode::MSync)
    }

    /// True when all nodes must issue equal-sized requests.
    pub fn requires_equal_sizes(self) -> bool {
        self == IoMode::MRecord
    }
}

impl fmt::Display for IoMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            IoMode::MUnix => "M_UNIX",
            IoMode::MLog => "M_LOG",
            IoMode::MSync => "M_SYNC",
            IoMode::MRecord => "M_RECORD",
            IoMode::MGlobal => "M_GLOBAL",
            IoMode::MAsync => "M_ASYNC",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_numbers_match_paragon_api() {
        let nums: Vec<u8> = IoMode::all().iter().map(|m| m.number()).collect();
        assert_eq!(nums, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn taxonomy_partitions_correctly() {
        // Exactly three shared-pointer modes.
        let shared: Vec<IoMode> = IoMode::all()
            .into_iter()
            .filter(|m| m.shared_pointer())
            .collect();
        assert_eq!(shared, vec![IoMode::MUnix, IoMode::MLog, IoMode::MSync]);
        // Only M_RECORD requires equal-sized requests.
        let equal: Vec<IoMode> = IoMode::all()
            .into_iter()
            .filter(|m| m.requires_equal_sizes())
            .collect();
        assert_eq!(equal, vec![IoMode::MRecord]);
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(IoMode::MRecord.to_string(), "M_RECORD");
        assert_eq!(IoMode::MUnix.to_string(), "M_UNIX");
    }
}
