//! Machine assembly: one simulated Paragon.
//!
//! Builds the hardware a run needs — mesh topology with node placement,
//! one RAID array + UFS per I/O node — and hands out typed handles. Node
//! placement is row-major: compute nodes first (the compute partition),
//! then I/O nodes (in the Paragon these sat on the mesh edge; the exact
//! placement only shifts hop counts by a few 40 ns units, which is noise
//! next to millisecond disks), then one service node hosting the shared
//! file-pointer server.

use paragon_disk::RaidArray;
use paragon_mesh::{NodeId, Topology};
use paragon_sim::Sim;
use paragon_ufs::Ufs;

use crate::calib::Calibration;

/// What to build.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of compute nodes (application processes, one per node).
    pub compute_nodes: usize,
    /// Number of I/O nodes (one RAID + UFS each).
    pub io_nodes: usize,
    /// Timing calibration.
    pub calib: Calibration,
}

impl MachineConfig {
    /// The paper's testbed: 8 compute + 8 I/O nodes, 1995 calibration.
    pub fn paper_testbed() -> Self {
        MachineConfig {
            compute_nodes: 8,
            io_nodes: 8,
            calib: Calibration::paragon_1995(),
        }
    }

    /// A tiny instant machine for protocol unit tests.
    pub fn tiny_instant(compute_nodes: usize, io_nodes: usize) -> Self {
        MachineConfig {
            compute_nodes,
            io_nodes,
            calib: Calibration::instant(),
        }
    }
}

/// An assembled machine.
pub struct Machine {
    sim: Sim,
    topo: Topology,
    config: MachineConfig,
    raids: Vec<RaidArray>,
    ufs: Vec<Ufs>,
}

impl Machine {
    /// Build the machine on `sim`.
    pub fn new(sim: &Sim, config: MachineConfig) -> Self {
        assert!(config.compute_nodes > 0, "need at least one compute node");
        assert!(config.io_nodes > 0, "need at least one I/O node");
        let total = config.compute_nodes + config.io_nodes + 1;
        let topo = Topology::for_nodes(total);
        let mut raids = Vec::with_capacity(config.io_nodes);
        let mut ufs = Vec::with_capacity(config.io_nodes);
        // Give every spindle (including any parity member) a
        // flight-recorder lane of its own; arrays occupy consecutive
        // lane ranges in I/O-node order.
        let mut track_base = 0u16;
        for i in 0..config.io_nodes {
            let raid = RaidArray::new_with_parity(
                sim,
                config.calib.disk.clone(),
                config.calib.raid_members,
                config.calib.raid_interleave,
                config.calib.raid_parity,
                &format!("ion{i}"),
            );
            raid.set_tracks(track_base);
            track_base += raid.spindles() as u16;
            ufs.push(Ufs::new(sim, raid.clone(), config.calib.ufs_params()));
            raids.push(raid);
        }
        Machine {
            sim: sim.clone(),
            topo,
            config,
            raids,
            ufs,
        }
    }

    /// The simulation world this machine lives in.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Mesh shape (includes any padding nodes the rectangle needs).
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The machine's calibration.
    pub fn calib(&self) -> &Calibration {
        &self.config.calib
    }

    /// Number of I/O nodes.
    pub fn io_nodes(&self) -> usize {
        self.config.io_nodes
    }

    /// Mesh id of compute node `rank`.
    pub fn compute_node(&self, rank: usize) -> NodeId {
        assert!(rank < self.config.compute_nodes, "rank {rank} out of range");
        NodeId(rank)
    }

    /// Mesh id of I/O node `index`.
    pub fn io_node(&self, index: usize) -> NodeId {
        assert!(
            index < self.config.io_nodes,
            "I/O node {index} out of range"
        );
        NodeId(self.config.compute_nodes + index)
    }

    /// Mesh id of the service node.
    pub fn service_node(&self) -> NodeId {
        NodeId(self.config.compute_nodes + self.config.io_nodes)
    }

    /// The UFS mounted on I/O node `index`.
    pub fn ufs(&self, index: usize) -> &Ufs {
        &self.ufs[index]
    }

    /// The RAID array of I/O node `index`.
    pub fn raid(&self, index: usize) -> &RaidArray {
        &self.raids[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_has_expected_shape() {
        let sim = Sim::new(1);
        let m = Machine::new(&sim, MachineConfig::paper_testbed());
        assert_eq!(m.config.compute_nodes, 8);
        assert_eq!(m.io_nodes(), 8);
        assert!(m.topology().nodes() >= 17);
    }

    #[test]
    fn node_ids_are_disjoint() {
        let sim = Sim::new(1);
        let m = Machine::new(&sim, MachineConfig::tiny_instant(3, 2));
        let mut ids: Vec<usize> = (0..3).map(|r| m.compute_node(r).0).collect();
        ids.extend((0..2).map(|i| m.io_node(i).0));
        ids.push(m.service_node().0);
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn each_io_node_gets_its_own_ufs() {
        let sim = Sim::new(1);
        let m = Machine::new(&sim, MachineConfig::tiny_instant(2, 3));
        assert_eq!(m.ufs.len(), 3);
        // Creating a file on one UFS must not affect another.
        let a = m.ufs(0).clone();
        let b = m.ufs(1).clone();
        let h = sim.spawn(async move {
            a.create("x").await.unwrap();
            b.lookup("x").is_none()
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rank_panics() {
        let sim = Sim::new(1);
        let m = Machine::new(&sim, MachineConfig::tiny_instant(2, 2));
        m.compute_node(2);
    }
}
