//! The prefetch engine — the paper's contribution.
//!
//! [`PrefetchingFile`] wraps an open [`PfsFile`] and reproduces §3 of the
//! paper:
//!
//! * After **every** demand read, the user thread issues one asynchronous
//!   read (through the ordinary ART machinery) for the block it
//!   anticipates this node will want next — derived from the current
//!   request under the open mode's semantics. The file pointer is **not**
//!   moved by the prefetch.
//! * Prefetched data lands in a per-file buffer list in compute-node
//!   memory. A later demand read that matches a buffer is a **hit**: if
//!   the data already arrived it pays only the prefetch-buffer → user
//!   buffer copy (the copy Fast Path would have avoided — the paper's
//!   overhead); if the prefetch is still in flight the read waits for the
//!   remainder, so even a "miss when presented" can hide most of the I/O.
//! * Buffers are freed at [`PrefetchingFile::close`].
//!
//! Knobs beyond the paper's prototype (which fixes depth = 1) are in
//! [`PrefetchConfig`] and exercised by the EXT-ABLATION experiment.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use paragon_pfs::{PfsError, PfsFile};
use paragon_sim::{ev, EventKind, Sim, SimDuration, Track};

use crate::buffer::{PrefetchEntry, PrefetchList};
use crate::predictor::{for_mode, Predictor};
use crate::stats::PrefetchStats;

/// Which predictor the engine installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorKind {
    /// The open mode's natural predictor (M_RECORD stride, sequential
    /// streams for M_ASYNC/M_GLOBAL) — the paper's behaviour.
    #[default]
    ModeDefault,
    /// The general stride detector (extension for strided workloads).
    Strided,
}

/// Compute-node memory budget for prefetch buffers, bytes: a slice of the
/// compute node's 16 MB, as in the paper.
const MAX_BUFFER_BYTES: u64 = 4 << 20;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct PrefetchConfig {
    /// Anticipated requests to keep in flight (paper prototype: 1).
    pub depth: u32,
    /// Prefetch-buffer list capacity, entries.
    pub max_buffers: usize,
    /// Compute-node memory bandwidth for the buffer → user copy, bytes/s.
    pub copy_bw: f64,
    /// Predictor selection.
    pub predictor: PredictorKind,
    /// Consecutive failed prefetches before the engine throttles itself
    /// (stops issuing speculation and serves demand reads only); the same
    /// count of consecutive good demand reads re-enables it.
    pub fault_threshold: u32,
}

impl PrefetchConfig {
    /// The paper's prototype: one block ahead, i860-class copy bandwidth.
    pub fn paper_prototype() -> Self {
        PrefetchConfig {
            depth: 1,
            max_buffers: 8,
            copy_bw: 45e6,
            predictor: PredictorKind::ModeDefault,
            fault_threshold: 3,
        }
    }

    /// Same, with an explicit depth (the depth-ablation extension).
    pub fn with_depth(depth: u32) -> Self {
        assert!(depth >= 1);
        PrefetchConfig {
            depth,
            max_buffers: (depth as usize * 2).max(8),
            ..Self::paper_prototype()
        }
    }
}

/// A PFS file handle with system-level prefetching enabled.
pub struct PrefetchingFile {
    file: PfsFile,
    sim: Sim,
    cfg: PrefetchConfig,
    predictor: RefCell<Box<dyn Predictor>>,
    list: RefCell<PrefetchList>,
    stats: Rc<RefCell<PrefetchStats>>,
    closed: std::cell::Cell<bool>,
    /// Consecutive prefetches that came back failed (resets on any good
    /// prefetch or, while throttled, counts good demand reads instead).
    fault_streak: std::cell::Cell<u32>,
    /// Quarantine flag: while set, no new speculation is issued.
    throttled: std::cell::Cell<bool>,
}

impl PrefetchingFile {
    /// Wrap `file`. Panics for shared-pointer modes (M_UNIX/M_LOG/M_SYNC):
    /// their next offset depends on other nodes' arrival order, which the
    /// client cannot anticipate — the same scoping the paper's prototype
    /// makes (it targets M_RECORD).
    pub fn new(file: PfsFile, cfg: PrefetchConfig) -> Self {
        let predictor: Box<dyn Predictor> = match cfg.predictor {
            PredictorKind::ModeDefault => for_mode(file.mode(), file.nprocs() as usize)
                .unwrap_or_else(|| {
                    panic!(
                        "prefetching is not supported for shared-pointer mode {}",
                        file.mode()
                    )
                }),
            PredictorKind::Strided => Box::new(crate::predictor::StridedPredictor::new()),
        };
        let sim = file.sim().clone();
        PrefetchingFile {
            file,
            sim,
            list: RefCell::new(PrefetchList::new(cfg.max_buffers, MAX_BUFFER_BYTES)),
            cfg,
            predictor: RefCell::new(predictor),
            stats: Rc::new(RefCell::new(PrefetchStats::default())),
            closed: std::cell::Cell::new(false),
            fault_streak: std::cell::Cell::new(0),
            throttled: std::cell::Cell::new(false),
        }
    }

    /// Wire the buffer list to shared occupancy `gauges` (telemetry);
    /// any current occupancy transfers onto them.
    pub fn set_gauges(&self, gauges: crate::buffer::PrefetchGauges) {
        self.list.borrow_mut().set_gauges(gauges);
    }

    /// Engine counters.
    pub(crate) fn stats(&self) -> PrefetchStats {
        self.stats.borrow().clone()
    }

    /// Read the next `len` bytes under the open mode, serving from the
    /// prefetch buffer list when possible and issuing the next
    /// anticipated prefetches before returning.
    pub async fn read(&self, len: u32) -> Result<Bytes, PfsError> {
        assert!(!self.closed.get(), "read on a closed PrefetchingFile");
        self.file.syscall().await;
        let offset = self.file.advance_pointer(len).await;
        self.read_common(offset, len).await
    }

    /// Positioned read through the engine: serves from (and trains) the
    /// prefetch machinery exactly like [`PrefetchingFile::read`], but at a
    /// caller-chosen offset. Used by strided/random workloads.
    pub async fn read_at(&self, offset: u64, len: u32) -> Result<Bytes, PfsError> {
        assert!(!self.closed.get(), "read on a closed PrefetchingFile");
        self.file.syscall().await;
        self.read_common(offset, len).await
    }

    async fn read_common(&self, offset: u64, len: u32) -> Result<Bytes, PfsError> {
        let matched = self.list.borrow_mut().take_match(offset, len);
        let cn = Track::Cn(self.file.rank());
        let data = match matched {
            Some(entry) => {
                let ready = entry.is_ready();
                let kind = if ready {
                    EventKind::PrefetchHitReady
                } else {
                    EventKind::PrefetchHitInflight
                };
                let ereq = entry.req;
                self.sim.emit(|| ev(cn, kind, ereq, offset, len as u64));
                self.consume_hit(entry, offset, len).await?
            }
            None => {
                let req = self.sim.mint_req();
                self.sim
                    .emit(|| ev(cn, EventKind::PrefetchMiss, req, offset, len as u64));
                self.stats.borrow_mut().misses += 1;
                let data = self.file.transfer_read_tagged(offset, len, req).await?;
                self.note_good_read();
                data
            }
        };
        self.predictor.borrow_mut().observe(offset, len);
        self.issue_prefetches(len).await;
        Ok(data)
    }

    async fn consume_hit(
        &self,
        entry: PrefetchEntry,
        offset: u64,
        len: u32,
    ) -> Result<Bytes, PfsError> {
        let arrived_at = self.sim.now();
        let ready = entry.is_ready();
        let result = entry.handle.join().await;
        if !ready {
            self.stats.borrow_mut().inflight_wait += self.sim.now().saturating_since(arrived_at);
        }
        match result {
            Ok(data) => {
                // Count the hit only now that the buffer proved good: a
                // failed prefetch is accounted a miss (the demand
                // fallback is what actually serves the read).
                {
                    let mut st = self.stats.borrow_mut();
                    if ready {
                        st.hits_ready += 1;
                        if let Some(done) = entry.handle.completed_at() {
                            st.overlap_saved += done.saturating_since(entry.handle.submitted_at());
                        }
                    } else {
                        st.hits_inflight += 1;
                        st.overlap_saved +=
                            arrived_at.saturating_since(entry.handle.submitted_at());
                    }
                }
                // The hit pays the prefetch-buffer → user-buffer copy.
                self.sim
                    .sleep(SimDuration::for_bytes(len as u64, self.cfg.copy_bw))
                    .await;
                self.stats.borrow_mut().bytes_copied += len as u64;
                let ereq = entry.req;
                self.sim.emit(|| {
                    ev(
                        Track::Cn(self.file.rank()),
                        EventKind::Copy,
                        ereq,
                        offset,
                        len as u64,
                    )
                });
                self.note_good_read();
                Ok(data.slice(0..len as usize))
            }
            Err(_) => {
                // The speculation failed (injected fault, raced a
                // truncate, …): quarantine the buffer and fall back to a
                // demand read rather than surfacing a phantom error — the
                // demand path carries its own retry policy and, on a
                // replicated mount, replica failover.
                self.stats.borrow_mut().wasted += 1;
                self.note_prefetch_fault(entry.req, offset, len);
                match self.file.transfer_read(offset, len).await {
                    Ok(data) => {
                        // Retried and served: the speculation covered
                        // the access after all, so this is a recovered
                        // hit, not a miss.
                        self.stats.borrow_mut().recovered += 1;
                        self.note_good_read();
                        Ok(data)
                    }
                    Err(e) => {
                        self.stats.borrow_mut().misses += 1;
                        Err(e)
                    }
                }
            }
        }
    }

    /// A prefetched buffer joined with an error: count it, trace it, and
    /// — after `fault_threshold` consecutive failures — throttle all
    /// further speculation so a sick I/O path is not hammered with
    /// requests nobody is waiting on.
    fn note_prefetch_fault(&self, req: paragon_sim::ReqId, offset: u64, len: u32) {
        let cn = Track::Cn(self.file.rank());
        self.stats.borrow_mut().faults += 1;
        self.sim
            .emit(|| ev(cn, EventKind::PrefetchFault, req, offset, len as u64));
        if !self.throttled.get() {
            let streak = self.fault_streak.get() + 1;
            self.fault_streak.set(streak);
            if streak >= self.cfg.fault_threshold {
                self.throttled.set(true);
                self.fault_streak.set(0);
                self.stats.borrow_mut().throttles += 1;
                self.sim
                    .emit(|| ev(cn, EventKind::PrefetchThrottle, req, streak as u64, 0));
            }
        }
    }

    /// A read (hit consumption, fallback, or demand miss) completed
    /// cleanly. Healthy engine: clear the fault streak. Throttled engine:
    /// count it toward recovery, and after `fault_threshold` consecutive
    /// good reads resume speculation.
    fn note_good_read(&self) {
        if !self.throttled.get() {
            self.fault_streak.set(0);
            return;
        }
        let good = self.fault_streak.get() + 1;
        self.fault_streak.set(good);
        if good >= self.cfg.fault_threshold {
            self.throttled.set(false);
            self.fault_streak.set(0);
            self.stats.borrow_mut().resumes += 1;
            let cn = Track::Cn(self.file.rank());
            self.sim
                .emit(|| ev(cn, EventKind::PrefetchResume, 0, good as u64, 0));
        }
    }

    /// Issue asynchronous reads for the next `depth` anticipated requests
    /// that are not already buffered and do not run past EOF.
    async fn issue_prefetches(&self, len: u32) {
        if self.throttled.get() {
            // Quarantined: the I/O path is failing prefetches; issue no
            // speculation until demand reads prove it healthy again.
            self.stats.borrow_mut().throttled_skips += self.cfg.depth as u64;
            return;
        }
        let size = self.file.size();
        for k in 1..=self.cfg.depth {
            let target = {
                let p = self.predictor.borrow();
                p.predict(k, len)
            };
            let Some(target) = target else {
                self.stats.borrow_mut().suppressed += 1;
                continue;
            };
            if target + len as u64 > size || self.list.borrow().covers(target, len) {
                self.stats.borrow_mut().suppressed += 1;
                continue;
            }
            let cn = Track::Cn(self.file.rank());
            let req = self.sim.mint_req();
            self.sim
                .emit(|| ev(cn, EventKind::PrefetchIssue, req, target, len as u64));
            let file = self.file.clone();
            let handle = self
                .file
                .art_pool()
                .submit_tagged(req, cn, async move {
                    file.transfer_read_tagged(target, len, req).await
                })
                .await;
            let mut st = self.stats.borrow_mut();
            st.issued += 1;
            drop(st);
            let evicted = self.list.borrow_mut().insert(PrefetchEntry {
                offset: target,
                len,
                req,
                handle,
            });
            for e in &evicted {
                self.sim
                    .emit(|| ev(cn, EventKind::PrefetchEvict, e.req, e.offset, e.len as u64));
            }
            self.stats.borrow_mut().wasted += evicted.len() as u64;
        }
    }

    /// Close the handle: free every prefetch buffer (unconsumed buffers
    /// count as wasted prefetches) and return the final counters.
    pub async fn close(&self) -> PrefetchStats {
        if !self.closed.replace(true) {
            let leftovers = self.list.borrow_mut().drain();
            let cn = Track::Cn(self.file.rank());
            let mut cancelled = 0u64;
            for e in &leftovers {
                if !e.is_ready() {
                    // Still in flight: the OS does not cancel posted ART
                    // requests — the transfer keeps running and its data
                    // is dropped — but record the abandonment.
                    cancelled += 1;
                    self.sim
                        .emit(|| ev(cn, EventKind::PrefetchCancel, e.req, e.offset, e.len as u64));
                }
            }
            let mut st = self.stats.borrow_mut();
            st.cancelled += cancelled;
            st.wasted += leftovers.len() as u64;
        }
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_machine::{Machine, MachineConfig};
    use paragon_pfs::{pattern_byte, pattern_slice, IoMode, OpenOptions, ParallelFs, StripeAttrs};
    use paragon_sim::Sim;

    const KB: u64 = 1024;

    /// Mount a tiny instant machine with a populated M_RECORD file and
    /// run `body(prefetching_file)` to completion.
    fn with_file<F, T>(mode: IoMode, nprocs: usize, rank: usize, cfg: PrefetchConfig, body: F) -> T
    where
        F: FnOnce(PrefetchingFile) -> std::pin::Pin<Box<dyn std::future::Future<Output = T>>>
            + 'static,
        T: 'static,
    {
        let sim = Sim::new(11);
        let machine = Rc::new(Machine::new(
            &sim,
            MachineConfig::tiny_instant(nprocs.max(1), 2),
        ));
        let pfs = ParallelFs::new(machine);
        let p2 = pfs.clone();
        let h = sim.spawn(async move {
            let id = p2
                .create("/pfs/t", StripeAttrs::across(2, 16 * KB))
                .await
                .unwrap();
            p2.populate_with(id, 1024 * KB, |i| pattern_byte(13, i))
                .await
                .unwrap();
            let f = p2
                .open(rank, nprocs, id, mode, OpenOptions::default())
                .unwrap();
            body(PrefetchingFile::new(f, cfg)).await
        });
        sim.run();
        h.try_take().expect("body did not complete")
    }

    #[test]
    fn sequential_reads_return_correct_data_and_hit() {
        let stats = with_file(
            IoMode::MAsync,
            1,
            0,
            PrefetchConfig::paper_prototype(),
            |pf| {
                Box::pin(async move {
                    for i in 0..8u64 {
                        let data = pf.read(32 * 1024).await.unwrap();
                        assert_eq!(&data[..], &pattern_slice(13, i * 32 * KB, 32 * 1024)[..]);
                    }
                    pf.close().await
                })
            },
        );
        // M_ASYNC uses the stride detector: two observations to lock on,
        // so the first two reads miss and every later read hits.
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits(), 6);
        assert_eq!(stats.issued, 6 + 1); // one still unconsumed at close
        assert_eq!(stats.wasted, 1);
        assert!(stats.hit_ratio() >= 0.75);
    }

    #[test]
    fn m_record_rank_stride_is_prefetched() {
        let stats = with_file(
            IoMode::MRecord,
            4,
            2,
            PrefetchConfig::paper_prototype(),
            |pf| {
                Box::pin(async move {
                    // Rank 2 of 4: records 2, 6, 10, … of 64 KB.
                    for round in 0..4u64 {
                        let data = pf.read(64 * 1024).await.unwrap();
                        let at = (round * 4 + 2) * 64 * KB;
                        assert_eq!(&data[..], &pattern_slice(13, at, 64 * 1024)[..]);
                    }
                    pf.close().await
                })
            },
        );
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits(), 3);
    }

    #[test]
    fn prefetch_never_runs_past_eof() {
        let stats = with_file(
            IoMode::MAsync,
            1,
            0,
            PrefetchConfig::paper_prototype(),
            |pf| {
                Box::pin(async move {
                    // The file is 1024 KB; read it fully in 256 KB requests.
                    for _ in 0..4 {
                        pf.read(256 * 1024).await.unwrap();
                    }
                    pf.close().await
                })
            },
        );
        // The first read has no stride yet and the prefetch after the
        // last read would cross EOF: both suppressed.
        assert_eq!(stats.issued, 2);
        assert!(stats.suppressed >= 2);
        assert_eq!(stats.wasted, 0);
    }

    #[test]
    fn depth_widens_the_pipeline() {
        let stats = with_file(IoMode::MAsync, 1, 0, PrefetchConfig::with_depth(3), |pf| {
            Box::pin(async move {
                for _ in 0..8 {
                    pf.read(64 * 1024).await.unwrap();
                }
                pf.close().await
            })
        });
        // With depth 3 every read past the two-read warmup finds a buffer.
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits(), 6);
        assert!(stats.issued > 6, "deeper pipeline issues more prefetches");
    }

    #[test]
    fn random_reads_under_strided_workload_all_miss() {
        // M_ASYNC sequential predictor with a non-sequential access
        // pattern: every prediction is wrong, every read misses, and the
        // wrong-guess buffers are wasted — the engine must stay correct.
        let stats = with_file(
            IoMode::MAsync,
            1,
            0,
            PrefetchConfig::paper_prototype(),
            |pf| {
                Box::pin(async move {
                    // Jump around via read_at-style pointer manipulation:
                    // M_ASYNC reads are sequential, so emulate jumps by
                    // varying the request size (predictor chains on last
                    // request end, which we always skip past).
                    let inner = pf.file.clone();
                    for i in 0..5u64 {
                        // Demand-read directly at scattered offsets.
                        let at = (i * 197) % 900 * KB;
                        let data = inner.transfer_read(at, 16 * 1024).await.unwrap();
                        assert_eq!(&data[..], &pattern_slice(13, at, 16 * 1024)[..]);
                    }
                    // Now do normal engine reads to exercise the miss path.
                    let a = pf.read(16 * 1024).await.unwrap();
                    assert_eq!(&a[..], &pattern_slice(13, 0, 16 * 1024)[..]);
                    pf.close().await
                })
            },
        );
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn close_frees_buffers_and_counts_waste() {
        let stats = with_file(IoMode::MAsync, 1, 0, PrefetchConfig::with_depth(4), |pf| {
            Box::pin(async move {
                // Two reads lock the stride detector; the second read
                // then pipelines four prefetches that nobody consumes.
                pf.read(64 * 1024).await.unwrap();
                pf.read(64 * 1024).await.unwrap();
                pf.close().await
            })
        });
        assert_eq!(stats.issued, 4);
        assert_eq!(stats.wasted, 4); // none consumed
        assert!(
            stats.cancelled <= stats.wasted,
            "cancelled is the in-flight subset of wasted"
        );
    }

    #[test]
    fn close_frees_every_gauged_buffer_byte() {
        // Satellite check on the occupancy gauges: buffers pin bytes
        // while the pipeline runs, and close must return both gauges to
        // exactly zero — a leak here means some removal path skipped
        // its gauge update.
        let gauges = crate::PrefetchGauges::default();
        let g = gauges.clone();
        let peak = with_file(
            IoMode::MAsync,
            1,
            0,
            PrefetchConfig::with_depth(4),
            move |pf| {
                Box::pin(async move {
                    pf.set_gauges(g.clone());
                    let mut peak_bytes = 0i64;
                    for _ in 0..4 {
                        pf.read(64 * 1024).await.unwrap();
                        peak_bytes = peak_bytes.max(g.bytes.get());
                        assert_eq!(
                            g.bytes.get() % (64 * 1024),
                            0,
                            "gauge moves in whole buffers"
                        );
                    }
                    pf.close().await;
                    peak_bytes
                })
            },
        );
        assert!(peak > 0, "prefetch buffers pinned bytes mid-run");
        assert_eq!(gauges.entries.get(), 0, "every buffer freed at close");
        assert_eq!(gauges.bytes.get(), 0, "every pinned byte freed at close");
    }

    #[test]
    fn close_cancels_prefetches_still_in_flight() {
        // On a machine with real 1995 disk latency, the four prefetches
        // pipelined by the second read are still on the wire when close
        // runs: every one must be counted cancelled (and wasted).
        let sim = Sim::new(11);
        let machine = Rc::new(Machine::new(
            &sim,
            MachineConfig {
                compute_nodes: 1,
                io_nodes: 2,
                calib: paragon_machine::Calibration::paragon_1995(),
            },
        ));
        let pfs = ParallelFs::new(machine);
        let h = sim.spawn(async move {
            let id = pfs
                .create("/pfs/t", StripeAttrs::across(2, 16 * KB))
                .await
                .unwrap();
            pfs.populate_with(id, 1024 * KB, |i| pattern_byte(13, i))
                .await
                .unwrap();
            let f = pfs
                .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
                .unwrap();
            let pf = PrefetchingFile::new(f, PrefetchConfig::with_depth(4));
            pf.read(64 * 1024).await.unwrap();
            pf.read(64 * 1024).await.unwrap();
            pf.close().await
        });
        sim.run();
        let stats = h.try_take().expect("body did not complete");
        assert_eq!(stats.issued, 4);
        assert_eq!(stats.wasted, 4);
        assert_eq!(stats.cancelled, 4, "all were abandoned mid-flight");
    }

    #[test]
    fn strided_predictor_serves_positioned_reads() {
        // Engine read_at with the stride detector: a 3-stride walk locks
        // on after two reads and hits from the third onward.
        let mut cfg = PrefetchConfig::paper_prototype();
        cfg.predictor = crate::engine::PredictorKind::Strided;
        let stats = with_file(IoMode::MAsync, 1, 0, cfg, |pf| {
            Box::pin(async move {
                for k in 0..6u64 {
                    let at = k * 3 * 32 * KB;
                    let data = pf.read_at(at, 32 * 1024).await.unwrap();
                    assert_eq!(&data[..], &pattern_slice(13, at, 32 * 1024)[..]);
                }
                pf.close().await
            })
        });
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits(), 4);
    }

    #[test]
    fn broken_stride_goes_quiet_instead_of_spraying() {
        let mut cfg = PrefetchConfig::paper_prototype();
        cfg.predictor = crate::engine::PredictorKind::Strided;
        let stats = with_file(IoMode::MAsync, 1, 0, cfg, |pf| {
            Box::pin(async move {
                // No two consecutive strides match: the detector must stay
                // silent rather than waste prefetches.
                for at in [0u64, 64, 192, 448, 960] {
                    pf.read_at(at * KB / 64, 16 * 1024).await.unwrap();
                }
                pf.close().await
            })
        });
        assert_eq!(stats.hits(), 0);
        assert_eq!(stats.issued, stats.wasted); // anything issued was wrong
        assert!(stats.suppressed >= 1);
    }

    #[test]
    fn failed_prefetches_throttle_then_resume() {
        // Real 1995 latencies so the prefetch pipelined by the second
        // read is guaranteed still short of the disks when the fault
        // plan arms; its member-0 read then fails, the engine
        // quarantines itself (threshold 1), and the demand fallback —
        // served after the scheduled transient is exhausted — both
        // returns correct data and re-enables speculation.
        let sim = Sim::new(11);
        let machine = Rc::new(Machine::new(
            &sim,
            MachineConfig {
                compute_nodes: 1,
                io_nodes: 2,
                calib: paragon_machine::Calibration::paragon_1995(),
            },
        ));
        let pfs = ParallelFs::new(machine);
        let faults = sim.faults();
        let h = sim.spawn(async move {
            let id = pfs
                .create("/pfs/t", StripeAttrs::across(2, 16 * KB))
                .await
                .unwrap();
            pfs.populate_with(id, 1024 * KB, |i| pattern_byte(13, i))
                .await
                .unwrap();
            let f = pfs
                .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
                .unwrap();
            let mut cfg = PrefetchConfig::paper_prototype();
            cfg.fault_threshold = 1;
            let pf = PrefetchingFile::new(f, cfg);
            for i in 0..2u64 {
                let data = pf.read(32 * 1024).await.unwrap();
                assert_eq!(&data[..], &pattern_slice(13, i * 32 * KB, 32 * 1024)[..]);
            }
            faults.schedule_disk_transients(0, 1);
            faults.arm();
            for i in 2..5u64 {
                let data = pf.read(32 * 1024).await.unwrap();
                assert_eq!(&data[..], &pattern_slice(13, i * 32 * KB, 32 * 1024)[..]);
            }
            assert!(!pf.throttled.get(), "engine must have resumed");
            pf.close().await
        });
        sim.run();
        let stats = h.try_take().expect("body did not complete");
        assert_eq!(stats.faults, 1, "exactly the one injected fault");
        assert_eq!(stats.throttles, 1);
        assert_eq!(stats.resumes, 1);
        assert!(stats.hits() >= 1, "post-resume prefetches hit again");
    }

    #[test]
    #[should_panic(expected = "not supported for shared-pointer mode")]
    fn shared_pointer_modes_are_rejected() {
        with_file(
            IoMode::MUnix,
            2,
            0,
            PrefetchConfig::paper_prototype(),
            |pf| Box::pin(async move { pf.close().await }),
        );
    }
}
