//! Redundancy policy of a mount.
//!
//! The Paragon PFS stripes exactly one copy of the data across the I/O
//! nodes; losing an I/O node loses the stripe unless the per-node RAID
//! array happens to cover it. [`Redundancy`] names the mount-level
//! alternatives the experiments compare:
//!
//! * [`Redundancy::None`] — the paper's layout: one copy per stripe
//!   unit, per-node RAID as configured by the calibration.
//! * [`Redundancy::ParityRaid`] — one copy per stripe unit plus the
//!   per-I/O-node parity member (degraded-mode reads reconstruct a dead
//!   spindle from parity, inside one node).
//! * [`Redundancy::Replicated`] — `rf` full copies of every stripe
//!   slot, each on a *distinct* I/O node (cross-failure-domain
//!   placement). Reads prefer the primary copy and deterministically
//!   fail over; writes fan out to every copy and succeed on a majority
//!   quorum; a recovery coordinator re-replicates after a node crash.

/// Mount-level redundancy policy. Defaults to [`Redundancy::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Redundancy {
    /// Single-copy striping, RAID as the calibration says (the default:
    /// exactly the paper's layout).
    #[default]
    None,
    /// Single-copy striping over per-I/O-node parity RAID arrays.
    ParityRaid,
    /// `rf` copies of every stripe slot on `rf` distinct I/O nodes.
    Replicated {
        /// Replication factor: total copies, primary included. Must be
        /// ≥ 2 and ≤ the machine's I/O-node count.
        rf: usize,
    },
}

impl Redundancy {
    /// Copies kept of every stripe slot (1 unless replicated).
    pub(crate) fn replication_factor(&self) -> usize {
        match *self {
            Redundancy::None | Redundancy::ParityRaid => 1,
            Redundancy::Replicated { rf } => rf.max(1),
        }
    }

    /// Stable CLI/config name: `none`, `parity`, or `replicated:<rf>`.
    pub fn label(&self) -> String {
        match *self {
            Redundancy::None => "none".to_owned(),
            Redundancy::ParityRaid => "parity".to_owned(),
            Redundancy::Replicated { rf } => format!("replicated:{rf}"),
        }
    }

    /// Parse a [`Redundancy::label`] back (`replicated` alone means
    /// `rf = 2`).
    pub fn parse(s: &str) -> Option<Redundancy> {
        match s {
            "none" => Some(Redundancy::None),
            "parity" | "parity-raid" => Some(Redundancy::ParityRaid),
            "replicated" => Some(Redundancy::Replicated { rf: 2 }),
            _ => {
                let rf = s.strip_prefix("replicated:")?.parse::<usize>().ok()?;
                (rf >= 2).then_some(Redundancy::Replicated { rf })
            }
        }
    }
}

impl std::fmt::Display for Redundancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for r in [
            Redundancy::None,
            Redundancy::ParityRaid,
            Redundancy::Replicated { rf: 2 },
            Redundancy::Replicated { rf: 3 },
        ] {
            assert_eq!(Redundancy::parse(&r.label()), Some(r));
        }
        assert_eq!(
            Redundancy::parse("replicated"),
            Some(Redundancy::Replicated { rf: 2 })
        );
        assert_eq!(
            Redundancy::parse("parity-raid"),
            Some(Redundancy::ParityRaid)
        );
        assert_eq!(Redundancy::parse("replicated:1"), None);
        assert_eq!(Redundancy::parse("raid6"), None);
    }

    #[test]
    fn replication_factor_is_one_unless_replicated() {
        assert_eq!(Redundancy::None.replication_factor(), 1);
        assert_eq!(Redundancy::ParityRaid.replication_factor(), 1);
        assert_eq!(Redundancy::Replicated { rf: 3 }.replication_factor(), 3);
    }
}
