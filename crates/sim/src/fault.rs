//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is the single authority for every injected failure in a
//! simulation: transient and sticky disk read errors, RAID member death,
//! mesh message drop/duplication/delay, and node crash windows. It is held
//! by [`crate::Sim`] (like the flight recorder) and consulted by the disk
//! servers, the mesh, and the RAID layer at well-defined points on each
//! request path.
//!
//! Determinism: all probabilistic draws come from one SplitMix64 stream
//! seeded from `derive_seed(sim_seed, "fault-plan")`, and the simulation is
//! single-threaded, so draws are consumed in delivery/service order — equal
//! `(seed, model, plan)` always injects the identical fault sequence. The
//! plan starts **disarmed**: configuration can happen at build time, but no
//! fault fires until [`FaultPlan::arm`] (harnesses arm after populating
//! files so setup I/O never sees an injected error).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// What an injected disk fault does to the request that drew it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// One-shot error; the same request retried later may succeed.
    Transient,
    /// The member is dead (sticky); every request fails until revived.
    Dead,
}

/// The fate of one mesh message, drawn at its source NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshVerdict {
    /// Deliver normally.
    Deliver,
    /// Silently lose the message.
    Drop,
    /// Deliver twice (models a link-level retransmit duplicate).
    Duplicate,
    /// Deliver after an extra delay.
    Delay(SimDuration),
}

/// Cumulative counters of faults actually injected.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient disk read errors injected.
    pub disk_transients: u64,
    /// Requests that hit a dead disk.
    pub disk_dead_hits: u64,
    /// Mesh messages dropped by the plan.
    pub mesh_dropped: u64,
    /// Mesh messages duplicated.
    pub mesh_duplicated: u64,
    /// Mesh messages delayed.
    pub mesh_delayed: u64,
    /// Mesh messages dropped because an endpoint was in a crash window.
    pub node_down_drops: u64,
}

#[derive(Debug)]
struct PlanState {
    armed: bool,
    rng: Rng,
    /// Per-mille probability that any disk read fails transiently.
    disk_error_pm: u32,
    /// Sticky-dead disks (RAID members).
    dead_disks: BTreeSet<u16>,
    mesh_drop_pm: u32,
    mesh_dup_pm: u32,
    mesh_delay_pm: u32,
    mesh_delay: SimDuration,
    /// Nodes immune to mesh faults and crash windows (e.g. the service
    /// node: shared-pointer ops are not idempotent, so they must never
    /// need a retry).
    protected: BTreeSet<u16>,
    /// Crash windows: node id → half-open `[from, until)` during which the
    /// node neither sends nor receives.
    crash_windows: BTreeMap<u16, (SimTime, SimTime)>,
    stats: FaultStats,
}

impl Default for PlanState {
    fn default() -> Self {
        PlanState {
            armed: false,
            rng: Rng::seed_from_u64(0),
            disk_error_pm: 0,
            dead_disks: BTreeSet::new(),
            mesh_drop_pm: 0,
            mesh_dup_pm: 0,
            mesh_delay_pm: 0,
            mesh_delay: SimDuration::ZERO,
            protected: BTreeSet::new(),
            crash_windows: BTreeMap::new(),
            stats: FaultStats::default(),
        }
    }
}

/// Handle to a simulation's fault plan (cloned out of `Sim`). Clones share
/// state.
#[derive(Clone, Default)]
pub struct FaultPlan {
    state: Rc<RefCell<PlanState>>,
}

impl FaultPlan {
    /// A plan whose probabilistic draws come from `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        let plan = FaultPlan::default();
        plan.state.borrow_mut().rng = Rng::seed_from_u64(seed);
        plan
    }

    // ---- configuration -------------------------------------------------

    /// Start injecting. Configuration before arming is inert, so setup
    /// I/O (file population) never draws a fault.
    pub fn arm(&self) {
        self.state.borrow_mut().armed = true;
    }

    /// Every disk read fails transiently with probability `pm`/1000.
    pub fn set_disk_error_rate(&self, pm: u32) {
        assert!(pm <= 1000, "per-mille rate over 1000");
        self.state.borrow_mut().disk_error_pm = pm;
    }

    /// Kill disk track `disk`: every request fails from then on.
    pub fn kill_disk(&self, disk: u16) {
        self.state.borrow_mut().dead_disks.insert(disk);
    }

    /// Per-mille rates for mesh drop/duplicate/delay, and the extra delay
    /// applied when the delay branch is drawn. The three rates are
    /// mutually exclusive slices of one draw (their sum must be ≤ 1000).
    pub fn set_mesh_faults(&self, drop_pm: u32, dup_pm: u32, delay_pm: u32, delay: SimDuration) {
        assert!(drop_pm + dup_pm + delay_pm <= 1000, "rates exceed 1000‰");
        let mut st = self.state.borrow_mut();
        st.mesh_drop_pm = drop_pm;
        st.mesh_dup_pm = dup_pm;
        st.mesh_delay_pm = delay_pm;
        st.mesh_delay = delay;
    }

    /// Exempt `node` from mesh faults and crash windows. Used for the
    /// service node: shared-pointer operations are not idempotent, so a
    /// retry there could double-advance a file pointer.
    pub fn protect_node(&self, node: u16) {
        self.state.borrow_mut().protected.insert(node);
    }

    /// Crash `node` for `[from, until)`: while armed and inside the
    /// window, every message to or from it is dropped.
    pub fn crash_node(&self, node: u16, from: SimTime, until: SimTime) {
        assert!(from < until, "empty crash window");
        self.state
            .borrow_mut()
            .crash_windows
            .insert(node, (from, until));
    }

    /// Explicitly recover `node` at `now`: its crash window is removed
    /// (not merely aged out), so rejoining is a recorded state change —
    /// the harness emits `FaultNodeRecovered` at this moment — rather
    /// than something inferred from the configured window bound. Returns
    /// how long the node was degraded (window start to `now`), or `None`
    /// when no window was registered.
    pub fn recover_node(&self, node: u16, now: SimTime) -> Option<SimDuration> {
        let (from, _) = self.state.borrow_mut().crash_windows.remove(&node)?;
        Some(if now >= from {
            now - from
        } else {
            SimDuration::ZERO
        })
    }

    // ---- queries (called from the model layers) ------------------------

    /// Consult the plan for one disk *read* on track `disk`. Order of
    /// precedence: dead member, then the random error rate. Consumes one
    /// RNG draw only when a rate is configured.
    pub fn disk_read_fault(&self, disk: u16) -> Option<DiskFault> {
        let mut st = self.state.borrow_mut();
        if !st.armed {
            return None;
        }
        if st.dead_disks.contains(&disk) {
            st.stats.disk_dead_hits += 1;
            return Some(DiskFault::Dead);
        }
        if st.disk_error_pm > 0 && st.rng.range_u64(0..1000) < st.disk_error_pm as u64 {
            st.stats.disk_transients += 1;
            return Some(DiskFault::Transient);
        }
        None
    }

    /// Consult the plan for one disk *write*: only dead members fail
    /// writes (transient injection is read-only, like media read errors).
    pub fn disk_write_fault(&self, disk: u16) -> Option<DiskFault> {
        let mut st = self.state.borrow_mut();
        if !st.armed {
            return None;
        }
        if st.dead_disks.contains(&disk) {
            st.stats.disk_dead_hits += 1;
            return Some(DiskFault::Dead);
        }
        None
    }

    /// Draw the fate of one mesh message from `src` to `dst` at `now`.
    /// Crash windows dominate (no RNG draw); protected endpoints always
    /// deliver; otherwise one draw splits across drop/dup/delay.
    pub fn mesh_verdict(&self, src: u16, dst: u16, now: SimTime) -> MeshVerdict {
        let mut st = self.state.borrow_mut();
        if !st.armed {
            return MeshVerdict::Deliver;
        }
        let in_window = |st: &PlanState, node: u16| {
            !st.protected.contains(&node)
                && st
                    .crash_windows
                    .get(&node)
                    .is_some_and(|&(from, until)| from <= now && now < until)
        };
        if in_window(&st, src) || in_window(&st, dst) {
            st.stats.node_down_drops += 1;
            st.stats.mesh_dropped += 1;
            return MeshVerdict::Drop;
        }
        if st.protected.contains(&src) || st.protected.contains(&dst) {
            return MeshVerdict::Deliver;
        }
        let budget = st.mesh_drop_pm + st.mesh_dup_pm + st.mesh_delay_pm;
        if budget == 0 {
            return MeshVerdict::Deliver;
        }
        let r = st.rng.range_u64(0..1000) as u32;
        if r < st.mesh_drop_pm {
            st.stats.mesh_dropped += 1;
            MeshVerdict::Drop
        } else if r < st.mesh_drop_pm + st.mesh_dup_pm {
            st.stats.mesh_duplicated += 1;
            MeshVerdict::Duplicate
        } else if r < budget {
            st.stats.mesh_delayed += 1;
            MeshVerdict::Delay(st.mesh_delay)
        } else {
            MeshVerdict::Deliver
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FaultStats {
        self.state.borrow().stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_injects_nothing() {
        let plan = FaultPlan::new(1);
        plan.set_disk_error_rate(1000);
        plan.kill_disk(0);
        plan.set_mesh_faults(1000, 0, 0, SimDuration::ZERO);
        assert_eq!(plan.disk_read_fault(0), None);
        assert_eq!(plan.disk_write_fault(0), None);
        assert_eq!(plan.mesh_verdict(0, 1, SimTime::ZERO), MeshVerdict::Deliver);
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn dead_disk_fails_reads_and_writes() {
        let plan = FaultPlan::new(1);
        plan.kill_disk(3);
        plan.arm();
        assert_eq!(plan.disk_read_fault(3), Some(DiskFault::Dead));
        assert_eq!(plan.disk_write_fault(3), Some(DiskFault::Dead));
        assert_eq!(plan.disk_read_fault(2), None);
        assert_eq!(plan.stats().disk_dead_hits, 2);
    }

    #[test]
    fn error_rate_draws_are_deterministic() {
        let run = |seed| {
            let plan = FaultPlan::new(seed);
            plan.set_disk_error_rate(250);
            plan.arm();
            (0..64)
                .map(|_| plan.disk_read_fault(0).is_some())
                .collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7));
        assert_ne!(a, run(8));
        assert!(a.iter().any(|&f| f), "250‰ must fire in 64 draws");
        assert!(!a.iter().all(|&f| f), "250‰ must also miss");

        // At 1000‰ every read fails transiently, and writes never draw.
        let plan = FaultPlan::new(7);
        plan.set_disk_error_rate(1000);
        plan.arm();
        assert_eq!(plan.disk_read_fault(0), Some(DiskFault::Transient));
        assert_eq!(plan.disk_write_fault(0), None);
        assert_eq!(plan.disk_read_fault(0), Some(DiskFault::Transient));
        assert_eq!(plan.stats().disk_transients, 2);
    }

    #[test]
    fn mesh_verdicts_split_one_draw() {
        let plan = FaultPlan::new(3);
        plan.set_mesh_faults(100, 100, 100, SimDuration::from_millis(5));
        plan.arm();
        let mut seen_drop = false;
        let mut seen_dup = false;
        let mut seen_delay = false;
        for _ in 0..400 {
            match plan.mesh_verdict(0, 1, SimTime::ZERO) {
                MeshVerdict::Drop => seen_drop = true,
                MeshVerdict::Duplicate => seen_dup = true,
                MeshVerdict::Delay(d) => {
                    assert_eq!(d, SimDuration::from_millis(5));
                    seen_delay = true;
                }
                MeshVerdict::Deliver => {}
            }
        }
        assert!(seen_drop && seen_dup && seen_delay);
        let st = plan.stats();
        assert!(st.mesh_dropped > 0 && st.mesh_duplicated > 0 && st.mesh_delayed > 0);
    }

    #[test]
    fn protected_nodes_never_draw_faults() {
        let plan = FaultPlan::new(3);
        plan.set_mesh_faults(1000, 0, 0, SimDuration::ZERO);
        plan.protect_node(9);
        plan.arm();
        for _ in 0..32 {
            assert_eq!(plan.mesh_verdict(0, 9, SimTime::ZERO), MeshVerdict::Deliver);
            assert_eq!(plan.mesh_verdict(9, 4, SimTime::ZERO), MeshVerdict::Deliver);
        }
        assert_eq!(plan.stats().mesh_dropped, 0);
    }

    #[test]
    fn crash_windows_drop_messages_inside_only() {
        let plan = FaultPlan::new(1);
        let from = SimTime::ZERO + SimDuration::from_millis(10);
        let until = SimTime::ZERO + SimDuration::from_millis(20);
        plan.crash_node(5, from, until);
        plan.arm();
        assert_eq!(plan.mesh_verdict(5, 0, SimTime::ZERO), MeshVerdict::Deliver);
        assert_eq!(plan.mesh_verdict(5, 0, from), MeshVerdict::Drop);
        assert_eq!(plan.mesh_verdict(0, 5, from), MeshVerdict::Drop);
        assert_eq!(
            plan.mesh_verdict(0, 5, until),
            MeshVerdict::Deliver,
            "window is half-open"
        );
        assert_eq!(plan.stats().node_down_drops, 2);
    }

    #[test]
    fn recover_node_closes_the_window_explicitly() {
        let plan = FaultPlan::new(2);
        let from = SimTime::ZERO + SimDuration::from_millis(10);
        let until = SimTime::ZERO + SimDuration::from_millis(20);
        plan.crash_node(5, from, until);
        plan.arm();
        let mid = SimTime::ZERO + SimDuration::from_millis(15);
        assert_eq!(plan.mesh_verdict(5, 0, mid), MeshVerdict::Drop);
        assert_eq!(plan.recover_node(5, mid), Some(SimDuration::from_millis(5)));
        assert_eq!(
            plan.mesh_verdict(5, 0, mid),
            MeshVerdict::Deliver,
            "recovered node serves again"
        );
        assert_eq!(
            plan.recover_node(5, mid),
            None,
            "second recovery is a no-op"
        );
    }
}
