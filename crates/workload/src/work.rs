//! Every layer's work counters in one exact snapshot.
//!
//! [`Work::of`] is the one place a layer's `*Stats` become counter
//! names. The run result keeps the whole run's snapshot; the telemetry
//! report subtracts the measured phase's two snapshots. Names use their
//! layer's prefix: `sim.`, `disk.`, `raid.`, `ufs.`, `server.`, `rpc.`,
//! `mesh.`, `art.`, `fault.`, `replica.` and `rebuild.`; the busy time of
//! one I/O node's disks and server also appears per node, as
//! `disk.busy_ns.ion<N>` and `server.busy_ns.ion<N>`.

use std::collections::BTreeMap;

use paragon_pfs::ParallelFs;
use paragon_sim::Sim;

/// Monotone work counters by name, as exact integers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Work(BTreeMap<String, u64>);

impl Work {
    /// Read every counter of the world `pfs` is mounted in, now. Reads
    /// only; it emits no event and draws no randomness.
    pub fn of(sim: &Sim, pfs: &ParallelFs) -> Work {
        let mut w = Work::default();
        let run = sim.report();
        w.add("sim.events", run.events_processed);
        w.add("sim.polls", run.polls);
        w.add("sim.wakers_built", run.wakers_built);

        let machine = pfs.machine();
        for i in 0..machine.io_nodes() {
            let disk = machine.raid(i).stats();
            let busy = disk.busy.as_nanos();
            w.add(&format!("disk.busy_ns.ion{i}"), busy);
            w.add("disk.busy_ns", busy);
            w.add("disk.requests", disk.requests);
            w.add("disk.bytes_read", disk.bytes_read);
            w.add("disk.bytes_written", disk.bytes_written);
            w.add("disk.sequential_hits", disk.sequential_hits);
            w.add("disk.near_seeks", disk.near_seeks);
            w.add("disk.far_seeks", disk.far_seeks);
            w.add("disk.faulted", disk.faulted);

            let raid = machine.raid(i).raid_stats();
            w.add("raid.reconstructed_reads", raid.reconstructed_reads);
            w.add("raid.reconstructed_bytes", raid.reconstructed_bytes);
            w.add("raid.parity_rmws", raid.parity_rmws);
            w.add("disk.store.bytes_copied", raid.store_bytes_copied);

            let ufs = machine.ufs(i).stats();
            w.add("ufs.direct_reads", ufs.direct_reads);
            w.add("ufs.cached_reads", ufs.cached_reads);
            w.add("ufs.disk_requests", ufs.disk_requests);
            w.add("ufs.blocks_coalesced", ufs.blocks_coalesced);
            w.add("ufs.bytes_read", ufs.bytes_read);
            w.add("ufs.bytes_written", ufs.bytes_written);

            let server = pfs.server_stats(i);
            w.add(&format!("server.busy_ns.ion{i}"), server.busy_ns);
            w.add("server.busy_ns", server.busy_ns);
            w.add("server.reads", server.reads);
            w.add("server.writes", server.writes);
            w.add("server.bytes_read", server.bytes_read);
            w.add("server.bytes_written", server.bytes_written);
            w.add(
                "server.partial_block_requests",
                server.partial_block_requests,
            );
            w.add("server.global_shares", server.global_shares);
        }

        let rpc = pfs.rpc_net().stats();
        w.add("rpc.calls", rpc.calls);
        w.add("rpc.replies", rpc.replies);
        w.add("rpc.timeouts", rpc.timeouts);
        w.add("rpc.retries", rpc.retries);
        w.add("rpc.give_ups", rpc.give_ups);
        w.add("rpc.misrouted", rpc.misrouted);

        let mesh = pfs.rpc_net().mesh_stats();
        w.add("mesh.messages", mesh.messages);
        w.add("mesh.bytes", mesh.bytes);
        w.add("mesh.hops", mesh.hops);
        w.add("mesh.drops", mesh.drops);
        w.add("mesh.dups", mesh.dups);
        w.add("mesh.delays", mesh.delays);
        // The busiest single NIC, and the sum over all of them.
        let nic = pfs.rpc_net().nic_busy_ns();
        w.add(
            "mesh.nic_busy_ns.max",
            nic.iter().copied().max().unwrap_or(0),
        );
        w.add("mesh.nic_busy_ns.total", nic.iter().sum());

        let art = pfs.art_stats();
        w.add("art.submitted", art.submitted);
        w.add("art.completed", art.completed);

        let fault = sim.faults().stats();
        w.add("fault.disk_transients", fault.disk_transients);
        w.add("fault.disk_dead_hits", fault.disk_dead_hits);
        w.add("fault.mesh_dropped", fault.mesh_dropped);
        w.add("fault.mesh_duplicated", fault.mesh_duplicated);
        w.add("fault.mesh_delayed", fault.mesh_delayed);
        w.add("fault.node_down_drops", fault.node_down_drops);

        let replica = pfs.replica_stats();
        w.add("replica.failovers", replica.failovers);
        w.add("replica.reads", replica.reads);
        w.add("rebuild.bytes", replica.rebuild_bytes);
        w
    }

    fn add(&mut self, name: &str, value: u64) {
        *self.0.entry(name.to_string()).or_default() += value;
    }

    /// The counter `name`; 0 for a name no layer counts.
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Every counter, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.0.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The work done since `start`, a snapshot of the same world taken
    /// earlier: each counter's difference.
    pub fn since(&self, start: &Work) -> Work {
        Work(
            self.iter()
                .map(|(k, v)| (k.to_string(), v - start.get(k)))
                .collect(),
        )
    }
}

impl<'a> FromIterator<(&'a str, u64)> for Work {
    fn from_iter<I: IntoIterator<Item = (&'a str, u64)>>(pairs: I) -> Work {
        let mut w = Work::default();
        for (name, value) in pairs {
            w.add(name, value);
        }
        w
    }
}
