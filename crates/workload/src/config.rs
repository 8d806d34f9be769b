//! Experiment configuration.
//!
//! One [`ExperimentConfig`] fully determines a run: machine shape,
//! calibration, file layout, access mode/pattern, request size, the
//! compute delay between reads (the paper's balanced-workload knob), and
//! whether the prototype prefetcher is enabled. Identical configs (same
//! seed) produce identical results — the determinism tests rely on it.

use paragon_core::{PredictorKind, PrefetchConfig};
use paragon_machine::Calibration;
use paragon_pfs::{IoMode, Redundancy, StripeAttrs};
use paragon_sim::SimDuration;

/// How the shared file is striped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StripeLayout {
    /// One slot on each of the first `factor` I/O nodes.
    Across { factor: usize },
    /// `ways` slots, all on I/O node `ion` (Table 4's second config).
    WaysOnOne { ways: usize, ion: usize },
}

impl StripeLayout {
    /// Materialize into stripe attributes.
    pub fn attrs(&self, stripe_unit: u64) -> StripeAttrs {
        match *self {
            StripeLayout::Across { factor } => StripeAttrs::across(factor, stripe_unit),
            StripeLayout::WaysOnOne { ways, ion } => {
                StripeAttrs::ways_on_one(ways, ion, stripe_unit)
            }
        }
    }
}

/// Access pattern each node's program follows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Follow the open mode's pointer semantics (the paper's workloads).
    ModeDriven,
    /// Positioned reads at `base + k·stride` within the node's partition.
    Strided { stride: u64 },
    /// Positioned reads at uniform block-aligned offsets in the node's
    /// partition (defeats sequential predictors by construction).
    Random,
    /// Read the node's partition sequentially `passes` times (temporal
    /// locality for the buffered-mount ablation).
    Reread { passes: u32 },
}

/// Deterministic faults injected during the measured phase. The plan is
/// configured and armed after setup (population never draws a fault), and
/// all probabilistic draws come off the run's master seed — identical
/// configs produce identical fault sequences.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Per-mille probability that any disk read fails transiently.
    pub disk_error_pm: u32,
    /// Kill one RAID data member for the whole measured phase:
    /// `(io_node index, member index)`. Reads survive only if the
    /// calibration carries a parity member (`raid_parity`).
    pub dead_member: Option<(usize, usize)>,
    /// Per-mille mesh message drop rate.
    pub mesh_drop_pm: u32,
    /// Per-mille mesh message duplication rate.
    pub mesh_dup_pm: u32,
    /// Per-mille mesh message delay rate.
    pub mesh_delay_pm: u32,
    /// Extra latency a delayed message pays.
    pub mesh_delay: SimDuration,
    /// Crash one I/O node for a window of the measured phase:
    /// `(io_node index, from, until)`, offsets relative to the measured
    /// phase's start.
    pub ion_crash: Option<(usize, SimDuration, SimDuration)>,
}

impl FaultSpec {
    /// True when this spec injects nothing.
    pub(crate) fn is_noop(&self) -> bool {
        *self == FaultSpec::default()
    }
}

/// One experiment run, fully specified.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Master seed (drives every RNG in the simulation).
    pub seed: u64,
    /// Compute nodes.
    pub compute_nodes: usize,
    /// I/O nodes.
    pub io_nodes: usize,
    /// Timing calibration.
    pub calib: Calibration,
    /// I/O mode the shared file is opened in.
    pub mode: IoMode,
    /// Fast Path (buffer-cache bypass) on the servers.
    pub fast_path: bool,
    /// Stripe unit size, bytes.
    pub stripe_unit: u64,
    /// Stripe layout.
    pub layout: StripeLayout,
    /// Per-request size, bytes.
    pub request_size: u32,
    /// Total logical file size, bytes (per-file when `separate_files`).
    pub file_size: u64,
    /// Compute time between consecutive reads of one node.
    pub delay: SimDuration,
    /// Prototype prefetcher; `None` = stock PFS.
    pub prefetch: Option<PrefetchConfig>,
    /// Access pattern.
    pub access: AccessPattern,
    /// Each node opens its own file instead of sharing one.
    pub separate_files: bool,
    /// Verify returned bytes against the populated pattern (only checked
    /// for deterministic-offset patterns).
    pub verify_data: bool,
    /// Record up to this many trace events (0 = tracing off).
    pub trace_cap: usize,
    /// Faults to inject during the measured phase.
    pub faults: FaultSpec,
    /// Mount-level redundancy: single-copy striping (`None`, the paper's
    /// layout), per-I/O-node parity RAID (`ParityRaid`, forces
    /// `calib.raid_parity`), or cross-I/O-node replication
    /// (`Replicated { rf }`; an I/O-node crash triggers online
    /// re-replication under the foreground load).
    pub redundancy: Redundancy,
    /// Sample telemetry gauges every this much simulated time during the
    /// measured phase; `None` = telemetry off (zero overhead, unchanged
    /// event stream).
    pub metrics_cadence: Option<SimDuration>,
}

impl ExperimentConfig {
    /// The paper's I/O-bound M_RECORD workload on the 8+8 testbed:
    /// 64 KB blocks, stripe unit 64 KB over all 8 I/O nodes, no delays,
    /// `file_mb_per_node` MB of file per compute node.
    pub fn paper_iobound(request_size: u32, file_mb_per_node: u64) -> Self {
        let compute_nodes = 8;
        ExperimentConfig {
            seed: 42,
            compute_nodes,
            io_nodes: 8,
            calib: Calibration::paragon_1995(),
            mode: IoMode::MRecord,
            fast_path: true,
            stripe_unit: 64 * 1024,
            layout: StripeLayout::Across { factor: 8 },
            request_size,
            file_size: file_mb_per_node * (1 << 20) * compute_nodes as u64,
            delay: SimDuration::ZERO,
            prefetch: None,
            access: AccessPattern::ModeDriven,
            separate_files: false,
            verify_data: false,
            trace_cap: 0,
            faults: FaultSpec::default(),
            redundancy: Redundancy::None,
            metrics_cadence: None,
        }
    }

    /// The paper's balanced workload: I/O-bound base plus a compute delay
    /// between reads, 128 MB file (16 MB per node).
    pub fn paper_balanced(request_size: u32, delay: SimDuration) -> Self {
        let mut cfg = Self::paper_iobound(request_size, 16);
        cfg.delay = delay;
        cfg
    }

    /// Enable the paper's depth-1 prefetch prototype, with the copy
    /// bandwidth taken from this config's calibration.
    pub fn with_prefetch(mut self) -> Self {
        let mut pc = PrefetchConfig::paper_prototype();
        pc.copy_bw = self.calib.cn_copy_bw;
        self.prefetch = Some(pc);
        self
    }

    /// Rounds each node performs under this config.
    pub fn rounds_per_node(&self) -> u64 {
        let sz = self.request_size as u64;
        match (self.separate_files, self.mode) {
            // Every node reads the whole (shared) file.
            (false, IoMode::MGlobal) => self.file_size / sz,
            // Nodes partition the shared file.
            (false, _) => self.file_size / (sz * self.compute_nodes as u64),
            // Each node reads its own whole file.
            (true, _) => self.file_size / sz,
        }
    }

    /// The calibration the machine is built with: `calib`, except that
    /// mount-level parity redundancy forces the parity member on (parity
    /// is a per-I/O-node RAID property).
    pub(crate) fn effective_calib(&self) -> Calibration {
        let mut calib = self.calib.clone();
        if self.redundancy == Redundancy::ParityRaid {
            calib.raid_parity = true;
        }
        calib
    }

    /// Sanity checks a run performs before starting: the first problem
    /// found, as a message naming the offending setting.
    pub fn validate(&self) -> Result<(), String> {
        let (cn, ion, sz, file) = (
            self.compute_nodes,
            self.io_nodes,
            self.request_size,
            self.file_size,
        );
        if cn == 0 || ion == 0 || sz == 0 || self.stripe_unit == 0 {
            return Err("node counts, request size and stripe unit must be positive".into());
        }
        if self.rounds_per_node() == 0 {
            return Err(format!(
                "{file}-byte file too small for one round of {cn} x {sz}-byte requests"
            ));
        }
        match self.layout {
            StripeLayout::Across { factor: 0 } | StripeLayout::WaysOnOne { ways: 0, .. } => {
                return Err("stripe factor must be positive".into());
            }
            StripeLayout::Across { factor } if factor > ion => {
                return Err(format!("stripe factor {factor} exceeds {ion} I/O nodes"));
            }
            StripeLayout::WaysOnOne { ion: on, .. } if on >= ion => {
                return Err(format!(
                    "stripe I/O node {on} out of range for {ion} I/O nodes"
                ));
            }
            _ => {}
        }
        if self.mode.requires_equal_sizes() && !file.is_multiple_of(cn as u64 * sz as u64) {
            return Err(format!(
                "{} needs the file to tile into whole collective rounds: \
                 {file} bytes is not a multiple of {cn} x {sz}-byte requests",
                self.mode
            ));
        }
        if self.access == (AccessPattern::Reread { passes: 0 }) {
            return Err("reread needs at least one pass".into());
        }
        // The prototype's predictors cover only modes whose next offset
        // the client can anticipate; a shared pointer moves with other
        // nodes' arrival order. The stride detector needs no mode.
        if self.mode.shared_pointer()
            && self
                .prefetch
                .as_ref()
                .is_some_and(|pc| pc.predictor == PredictorKind::ModeDefault)
        {
            return Err(format!(
                "prefetching under shared-pointer mode {} needs the strided predictor",
                self.mode
            ));
        }
        match self.redundancy {
            Redundancy::Replicated { rf } if rf < 2 => {
                Err("replication factor below 2 is not replication".into())
            }
            Redundancy::Replicated { rf } if rf > ion => {
                Err(format!("replication factor {rf} exceeds {ion} I/O nodes"))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_iobound_matches_testbed() {
        let cfg = ExperimentConfig::paper_iobound(64 * 1024, 8);
        assert_eq!(cfg.compute_nodes, 8);
        assert_eq!(cfg.io_nodes, 8);
        assert_eq!(cfg.file_size, 64 << 20);
        // 64 MB / (8 nodes × 64 KB) = 128 rounds.
        assert_eq!(cfg.rounds_per_node(), 128);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn reread_needs_a_pass() {
        let mut cfg = ExperimentConfig::paper_iobound(64 * 1024, 8);
        cfg.access = AccessPattern::Reread { passes: 0 };
        assert!(cfg.validate().unwrap_err().contains("at least one pass"));
        cfg.access = AccessPattern::Reread { passes: 1 };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn shared_pointer_prefetch_needs_the_strided_predictor() {
        for mode in [IoMode::MUnix, IoMode::MLog, IoMode::MSync] {
            let mut cfg = ExperimentConfig::paper_iobound(64 * 1024, 8).with_prefetch();
            cfg.mode = mode;
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("strided predictor"), "{mode}: {err}");
            if let Some(pc) = cfg.prefetch.as_mut() {
                pc.predictor = PredictorKind::Strided;
            }
            assert_eq!(cfg.validate(), Ok(()), "{mode}");
        }
    }

    #[test]
    fn global_mode_reads_the_whole_file_on_every_node() {
        let mut cfg = ExperimentConfig::paper_iobound(64 * 1024, 1);
        cfg.mode = IoMode::MGlobal;
        // Every node reads the whole 8 MB file.
        assert_eq!(cfg.rounds_per_node(), 128);
    }

    #[test]
    fn separate_files_read_one_file_each() {
        let mut cfg = ExperimentConfig::paper_iobound(64 * 1024, 8);
        cfg.separate_files = true;
        cfg.file_size = 8 << 20; // per node now
        assert_eq!(cfg.rounds_per_node(), 128);
    }

    #[test]
    fn with_prefetch_inherits_copy_bw() {
        let cfg = ExperimentConfig::paper_iobound(64 * 1024, 8).with_prefetch();
        let pc = cfg.prefetch.unwrap();
        assert_eq!(pc.copy_bw, cfg.calib.cn_copy_bw);
        assert_eq!(pc.depth, 1);
    }

    #[test]
    fn m_record_rejects_ragged_files() {
        let mut cfg = ExperimentConfig::paper_iobound(64 * 1024, 8);
        cfg.file_size += 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("tile"), "{err}");
    }

    #[test]
    fn replication_factor_must_fit_the_machine() {
        let mut cfg = ExperimentConfig::paper_iobound(64 * 1024, 8);
        cfg.redundancy = Redundancy::Replicated { rf: 9 };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("replication factor 9 exceeds 8"), "{err}");
    }

    #[test]
    fn degenerate_layouts_are_rejected() {
        let mut cfg = ExperimentConfig::paper_iobound(64 * 1024, 8);
        for (layout, msg) in [
            (StripeLayout::Across { factor: 0 }, "must be positive"),
            (
                StripeLayout::WaysOnOne { ways: 0, ion: 0 },
                "must be positive",
            ),
            (
                StripeLayout::WaysOnOne { ways: 2, ion: 8 },
                "I/O node 8 out of range",
            ),
        ] {
            cfg.layout = layout;
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(msg), "{err}");
        }
        cfg.layout = StripeLayout::WaysOnOne { ways: 2, ion: 7 };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn layouts_materialize() {
        let a = StripeLayout::Across { factor: 4 }.attrs(1024);
        assert_eq!(a.group, vec![0, 1, 2, 3]);
        let w = StripeLayout::WaysOnOne { ways: 3, ion: 7 }.attrs(1024);
        assert_eq!(w.group, vec![7, 7, 7]);
    }
}
