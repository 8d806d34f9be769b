//! RAID-3-style array: one logical device striped byte-wise across N
//! spindles with synchronized service.
//!
//! Each Paragon I/O node drove a SCSI-8 RAID array. We model it as N member
//! disks with a fine interleave; a logical request splits into per-member
//! extents serviced concurrently, and completes when the slowest member
//! finishes. Sustained logical bandwidth ≈ N × member media rate.
//!
//! With [`RaidArray::new_with_parity`], the array carries one extra parity
//! member holding the byte-wise XOR of the data members at each member
//! offset. Writes then do a read-modify-write of the parity (serialized by
//! a parity lock), and a read that hits a member the fault plan has killed
//! reconstructs the missing range from the survivors plus parity — at the
//! measurable extra cost of `width` additional member reads.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use paragon_sim::sync::Semaphore;
use paragon_sim::{ev, EventKind, JoinHandle, ReqId, Sim, Track, VecPool};

use crate::disk::{Disk, DiskError, DiskOp, DiskStats};
use crate::params::DiskParams;
use crate::store::BlockStore;

/// Striping math shared by the array (and tested independently): maps a
/// logical byte extent onto per-member `(member, offset, len)` pieces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeMap {
    /// Bytes per stripe unit on one member.
    pub interleave: u64,
    /// Number of members.
    pub width: usize,
}

/// One contiguous piece of a logical extent on one member disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripePiece {
    /// Member disk index.
    pub member: usize,
    /// Byte offset within the member disk.
    pub offset: u64,
    /// Piece length in bytes.
    pub len: u64,
    /// Offset of this piece within the logical extent.
    pub logical_offset: u64,
}

impl StripeMap {
    /// Create a map; panics on zero interleave or width (a config bug).
    pub fn new(interleave: u64, width: usize) -> Self {
        assert!(interleave > 0 && width > 0, "invalid stripe map");
        StripeMap { interleave, width }
    }

    /// Map logical `(offset, len)` to per-member pieces, in logical order.
    pub fn split(&self, offset: u64, len: u64) -> Vec<StripePiece> {
        let mut pieces = Vec::new();
        let mut pos = 0u64;
        while pos < len {
            let abs = offset + pos;
            let unit = abs / self.interleave;
            let member = (unit % self.width as u64) as usize;
            let row = unit / self.width as u64;
            let in_unit = abs % self.interleave;
            let chunk = (self.interleave - in_unit).min(len - pos);
            pieces.push(StripePiece {
                member,
                offset: row * self.interleave + in_unit,
                len: chunk,
                logical_offset: pos,
            });
            pos += chunk;
        }
        pieces
    }

    /// The member-contiguous runs of logical `(offset, len)`: one
    /// `(member, start, len)` per member the extent touches, in member
    /// order. The array issues one device command per run, like a real
    /// controller (otherwise a request spanning several rows would pay
    /// per-unit command overhead). A member's pieces of one extent always
    /// abut (every piece but the first starts at a unit boundary, every
    /// piece but the last ends at one), so a member gets at most one run.
    pub fn runs(&self, offset: u64, len: u64) -> impl Iterator<Item = (usize, u64, u64)> {
        let map = *self;
        (0..self.width).filter_map(move |member| {
            let start = map.member_bytes_below(member, offset);
            let end = map.member_bytes_below(member, offset + len);
            (end > start).then_some((member, start, end - start))
        })
    }

    /// Bytes of logical `[0, x)` that land on `member`.
    fn member_bytes_below(&self, member: usize, x: u64) -> u64 {
        let row = self.interleave * self.width as u64;
        let into_row = (x % row).saturating_sub(member as u64 * self.interleave);
        x / row * self.interleave + into_row.min(self.interleave)
    }

    /// Inverse of [`StripeMap::split`] for a single byte: logical offset of
    /// byte `member_offset` on `member`.
    pub fn to_logical(&self, member: usize, member_offset: u64) -> u64 {
        let row = member_offset / self.interleave;
        let in_unit = member_offset % self.interleave;
        (row * self.width as u64 + member as u64) * self.interleave + in_unit
    }
}

/// Array-level counters beyond the per-member [`DiskStats`].
#[derive(Debug, Default, Clone)]
pub struct RaidStats {
    /// Member runs served by parity reconstruction instead of the member.
    pub reconstructed_reads: u64,
    /// Bytes produced by reconstruction.
    pub reconstructed_bytes: u64,
    /// Parity read-modify-write cycles performed.
    pub parity_rmws: u64,
    /// Host bytes the logical store copied (its multi-page read gather
    /// and partial-page write merge); see [`BlockStore::bytes_copied`].
    pub store_bytes_copied: u64,
}

/// A logical device striped over member disks. Clone freely: a clone is
/// one `Rc` count bump.
#[derive(Clone)]
pub struct RaidArray {
    inner: Rc<Inner>,
}

struct Inner {
    sim: Sim,
    members: Vec<Disk>,
    /// Optional dedicated parity member (byte-wise XOR of the data
    /// members). Not part of the logical address space.
    parity: Option<Disk>,
    /// Serializes parity read-modify-writes: two concurrent writes whose
    /// runs land on the same parity range must not interleave their RMWs.
    parity_lock: Semaphore,
    map: StripeMap,
    /// The array's bytes, addressed by *logical* offset. Member disks are
    /// pure service-time models (they carry no payload); keeping the data
    /// in one logical store lets an aligned read hand back a zero-copy
    /// page view instead of gathering interleaved member pieces.
    logical: RefCell<BlockStore>,
    /// Flight-recorder lane base set by [`RaidArray::set_tracks`].
    track_base: Cell<Option<u16>>,
    rstats: RefCell<RaidStats>,
    /// Join-handle lists of the member runs in flight.
    legs: VecPool<JoinHandle<Result<(), DiskError>>>,
}

impl RaidArray {
    /// Build an array of `width` data members with `interleave`-byte
    /// striping and no parity (a lost member loses data).
    pub fn new(
        sim: &Sim,
        params: DiskParams,
        width: usize,
        interleave: u64,
        label: &str,
    ) -> RaidArray {
        Self::new_with_parity(sim, params, width, interleave, false, label)
    }

    /// Build an array of `width` data members, plus one parity member when
    /// `parity` is set. Logical capacity and striping are unchanged by
    /// parity; it only adds redundancy (and write cost).
    pub fn new_with_parity(
        sim: &Sim,
        params: DiskParams,
        width: usize,
        interleave: u64,
        parity: bool,
        label: &str,
    ) -> RaidArray {
        let members = (0..width)
            .map(|i| Disk::new(sim, params.clone(), &format!("{label}.m{i}")))
            .collect();
        let parity = parity.then(|| Disk::new(sim, params.clone(), &format!("{label}.p")));
        RaidArray {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                members,
                parity,
                parity_lock: Semaphore::new(1),
                map: StripeMap::new(interleave, width),
                logical: RefCell::new(BlockStore::new()),
                track_base: Cell::new(None),
                rstats: RefCell::new(RaidStats::default()),
                legs: VecPool::default(),
            }),
        }
    }

    /// Spindles this array occupies on the flight-recorder lane space:
    /// data members plus the parity member if present.
    pub fn spindles(&self) -> usize {
        self.inner.members.len() + self.inner.parity.iter().count()
    }

    /// Put member `m` on flight-recorder lane `Track::Disk(base + m)` —
    /// the machine passes a per-array base so every spindle in the world
    /// gets a unique lane. The parity member, when present, takes lane
    /// `base + width`.
    pub fn set_tracks(&self, base: u16) {
        self.inner.track_base.set(Some(base));
        for (m, disk) in self.inner.members.iter().enumerate() {
            disk.set_track(Track::Disk(base + m as u16));
        }
        if let Some(p) = &self.inner.parity {
            p.set_track(Track::Disk(base + self.inner.members.len() as u16));
        }
    }

    /// Global `Track::Disk` index of data member `m`, once tracks are set;
    /// `None` before that, or when the array has no data member `m`.
    /// This is the index the fault plan's `kill_disk` takes.
    pub fn member_track_index(&self, m: usize) -> Option<u16> {
        let base = self.inner.track_base.get()?;
        (m < self.inner.members.len()).then(|| base + m as u16)
    }

    /// Flight-recorder lane of data member `m`.
    fn member_lane(&self, m: usize) -> Track {
        match self.member_track_index(m) {
            Some(i) => Track::Disk(i),
            None => Track::Sys,
        }
    }

    /// Read a logical extent under flight-recorder request context `req`
    /// (`0` = none); completes when every member run completes. Fails only
    /// under fault injection; a dead member is transparently reconstructed
    /// when the array has parity. The future owns a clone of this handle,
    /// so it can be spawned as is.
    pub fn read(
        &self,
        offset: u64,
        len: u32,
        req: ReqId,
    ) -> impl Future<Output = Result<Bytes, DiskError>> + 'static {
        let this = self.clone();
        async move {
            let mut legs = this.inner.legs.take();
            for (member, start, rlen) in this.inner.map.runs(offset, len as u64) {
                let run = this.read_run(member, start, rlen as u32, req);
                legs.push(this.inner.sim.spawn_named("raid-read-run", run));
            }
            // Always join every leg (so concurrent member service finishes
            // deterministically) before reporting the first failure.
            match this.join(legs).await {
                Some(e) => Err(e),
                // Every member run has been charged; the bytes come out of
                // the logical store in one (page-aligned: zero-copy) view.
                None => Ok(this.inner.logical.borrow().read(offset, len as usize)),
            }
        }
    }

    /// Join `legs` in spawn order, give the list back to the pool, and
    /// return the first failure.
    async fn join(&self, mut legs: Vec<JoinHandle<Result<(), DiskError>>>) -> Option<DiskError> {
        let mut first_err = None;
        for h in legs.drain(..) {
            if let Err(e) = h.await {
                first_err = first_err.or(Some(e));
            }
        }
        self.inner.legs.give(legs);
        first_err
    }

    /// One member run: direct service, or parity reconstruction when the
    /// member is dead. Timing only — payload comes from the logical store.
    /// The reconstruction is boxed, so a healthy run's future holds only
    /// the member access.
    fn read_run(
        &self,
        member: usize,
        start: u64,
        rlen: u32,
        req: ReqId,
    ) -> impl Future<Output = Result<(), DiskError>> + 'static {
        let this = self.clone();
        async move {
            match this
                .member(member)?
                .access(DiskOp::Read, start, rlen, req)
                .await
            {
                Ok(()) => Ok(()),
                Err(DiskError::Dead) => Box::pin(this.reconstruct(member, start, rlen, req)).await,
                Err(e) => Err(e),
            }
        }
    }

    /// Rebuild `[start, start+rlen)` of dead member `dead` by XOR-ing the
    /// same member range of every surviving data member with the parity
    /// member. Costs `width` extra member reads — the degraded mode's
    /// measurable overhead.
    async fn reconstruct(
        &self,
        dead: usize,
        start: u64,
        rlen: u32,
        req: ReqId,
    ) -> Result<(), DiskError> {
        let Some(parity) = &self.inner.parity else {
            // No redundancy: the member's death is unrecoverable.
            return Err(DiskError::Dead);
        };
        let sim = &self.inner.sim;
        let mut legs = self.inner.legs.take();
        for (m, disk) in self.inner.members.iter().enumerate() {
            if m == dead {
                continue;
            }
            let d = disk.clone();
            legs.push(sim.spawn_named("raid-reconstruct-leg", async move {
                d.access(DiskOp::Read, start, rlen, req).await
            }));
        }
        let p = parity.clone();
        legs.push(sim.spawn_named("raid-reconstruct-leg", async move {
            p.access(DiskOp::Read, start, rlen, req).await
        }));
        if let Some(e) = self.join(legs).await {
            // A second failure (or a transient on a survivor) defeats
            // single-parity reconstruction; surface it for retry.
            return Err(e);
        }
        self.inner.sim.emit(|| {
            ev(
                self.member_lane(dead),
                EventKind::RaidReconstruct,
                req,
                start,
                rlen as u64,
            )
        });
        let mut st = self.inner.rstats.borrow_mut();
        st.reconstructed_reads += 1;
        st.reconstructed_bytes += rlen as u64;
        Ok(())
    }

    /// Write a logical extent; completes when every member run (and, with
    /// parity, every parity read-modify-write) completes. Writes carry no
    /// flight-recorder request context: their disk events use request 0.
    ///
    /// The future owns a clone of this handle, so it can be spawned as is.
    /// The parity read-modify-write is boxed, so without parity the
    /// future holds only the member joins.
    pub fn write(
        &self,
        offset: u64,
        data: Bytes,
    ) -> impl Future<Output = Result<(), DiskError>> + 'static {
        let this = self.clone();
        async move {
            let req = 0;
            let Some(parity) = this.inner.parity.clone() else {
                // No parity: plain concurrent member writes (timing only;
                // the payload lands in the logical store once the members
                // finish).
                let mut legs = this.inner.legs.take();
                for (member, start, rlen) in this.inner.map.runs(offset, data.len() as u64) {
                    let disk = this.member(member)?.clone();
                    legs.push(this.inner.sim.spawn_named("raid-write-run", async move {
                        disk.access(DiskOp::Write, start, rlen as u32, req).await
                    }));
                }
                return match this.join(legs).await {
                    Some(e) => Err(e),
                    None => {
                        this.inner.logical.borrow_mut().write(offset, &data);
                        Ok(())
                    }
                };
            };
            Box::pin(this.write_with_parity(&parity, offset, &data, req)).await
        }
    }

    /// The parity path of [`RaidArray::write`]: whole-write RMWs are
    /// serialized. Runs of one logical write may share parity ranges (one
    /// stripe row spans every member at the same member offset), so they
    /// apply sequentially under the lock.
    async fn write_with_parity(
        &self,
        parity: &Disk,
        offset: u64,
        data: &Bytes,
        req: ReqId,
    ) -> Result<(), DiskError> {
        let _guard = self.inner.parity_lock.acquire().await;
        for (member, start, rlen) in self.inner.map.runs(offset, data.len() as u64) {
            self.write_run_with_parity(parity, member, start, rlen as u32, req)
                .await?;
        }
        self.inner.logical.borrow_mut().write(offset, data);
        Ok(())
    }

    /// Read-modify-write one member run under parity:
    /// `parity' = parity ⊕ old_data ⊕ new_data`. A dead data member gets
    /// its old contents reconstructed (so parity stays exact) and its
    /// device write skipped; a dead parity member degrades to a plain
    /// data write.
    async fn write_run_with_parity(
        &self,
        parity: &Disk,
        member: usize,
        start: u64,
        rlen: u32,
        req: ReqId,
    ) -> Result<(), DiskError> {
        let disk = self.member(member)?;
        let old_parity_alive = match parity.access(DiskOp::Read, start, rlen, req).await {
            Ok(()) => true,
            Err(DiskError::Dead) => false,
            Err(e) => return Err(e),
        };
        if !old_parity_alive {
            // Parity member is dead: no redundancy to maintain.
            return disk.access(DiskOp::Write, start, rlen, req).await;
        }
        let member_alive = match disk.access(DiskOp::Read, start, rlen, req).await {
            Ok(()) => true,
            Err(DiskError::Dead) => {
                self.reconstruct(member, start, rlen, req).await?;
                false
            }
            Err(e) => return Err(e),
        };
        self.inner.rstats.borrow_mut().parity_rmws += 1;
        let p = parity.clone();
        let parity_write = self.inner.sim.spawn_named("raid-parity-write", async move {
            p.access(DiskOp::Write, start, rlen, req).await
        });
        let data_write = member_alive.then(|| {
            let d = disk.clone();
            self.inner.sim.spawn_named("raid-write-run", async move {
                d.access(DiskOp::Write, start, rlen, req).await
            })
        });
        let mut first_err = parity_write.await.err();
        if let Some(h) = data_write {
            if let Err(e) = h.await {
                first_err = first_err.or(Some(e));
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Aggregate member stats (sums; max for queue depth), parity member
    /// included when present.
    pub fn stats(&self) -> DiskStats {
        let mut total = DiskStats::default();
        for m in self.inner.members.iter().chain(self.inner.parity.iter()) {
            total.merge(&m.stats());
        }
        total
    }

    /// Array-level counters (reconstruction, parity maintenance and
    /// logical-store copies).
    pub fn raid_stats(&self) -> RaidStats {
        RaidStats {
            store_bytes_copied: self.inner.logical.borrow().bytes_copied(),
            ..self.inner.rstats.borrow().clone()
        }
    }

    /// Live queue-depth cells, one per spindle, data members first and
    /// the parity member (when present) last; telemetry gauges sum or
    /// sample them while the simulation runs.
    pub fn member_queue_cells(&self) -> Vec<Rc<Cell<usize>>> {
        self.inner
            .members
            .iter()
            .chain(self.inner.parity.iter())
            .map(|d| d.queue_cell())
            .collect()
    }

    /// Slow down one member (failure injection); out-of-range members are
    /// ignored (the plan may target a wider array than this one).
    pub fn set_member_slowdown(&self, member: usize, factor: f64) {
        if let Some(m) = self.inner.members.get(member) {
            m.set_slowdown(factor);
        }
    }

    /// Shared handle to member disk `m`. The stripe map only yields
    /// members of this array, so the error is unreachable in practice; a
    /// member past the array has no server task, hence `Down`.
    fn member(&self, m: usize) -> Result<&Disk, DiskError> {
        self.inner.members.get(m).ok_or(DiskError::Down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::{SimDuration, SimTime};

    #[test]
    fn split_covers_extent_exactly_once() {
        let map = StripeMap::new(16 * 1024, 4);
        let pieces = map.split(10_000, 100_000);
        // Pieces tile the logical extent in order.
        let mut pos = 0u64;
        for p in &pieces {
            assert_eq!(p.logical_offset, pos);
            assert!(p.len > 0 && p.len <= map.interleave);
            pos += p.len;
        }
        assert_eq!(pos, 100_000);

        // Runs: an unaligned extent inside one row, an unaligned one over
        // several rows, an aligned one-row read and an aligned multi-row one.
        for (off, len) in [
            (10_000u64, 20_000u64),
            (10_000, 100_000),
            (0, 64 * 1024),
            (16 * 1024, 5 * 64 * 1024),
        ] {
            let runs: Vec<(usize, u64, u64)> = map.runs(off, len).collect();
            assert_eq!(runs.iter().map(|r| r.2).sum::<u64>(), len, "{off}+{len}");
            for m in 0..map.width {
                let mut mine: Vec<StripePiece> = map
                    .split(off, len)
                    .into_iter()
                    .filter(|p| p.member == m)
                    .collect();
                mine.sort_by_key(|p| p.offset);
                let member_runs: Vec<&(usize, u64, u64)> =
                    runs.iter().filter(|r| r.0 == m).collect();
                let Some(first) = mine.first() else {
                    assert!(
                        member_runs.is_empty(),
                        "{off}+{len}: run on idle member {m}"
                    );
                    continue;
                };
                // Disjoint and maximal: a member's abutting pieces are one
                // run, so it has exactly one, starting at its first piece
                // and covering every piece.
                assert_eq!(member_runs.len(), 1, "{off}+{len}: member {m}");
                let &(_, start, rlen) = member_runs[0];
                assert_eq!(start, first.offset, "{off}+{len}: member {m}");
                assert_eq!(rlen, mine.iter().map(|p| p.len).sum::<u64>());
                for w in mine.windows(2) {
                    assert_eq!(w[0].offset + w[0].len, w[1].offset);
                }
            }
        }
    }

    #[test]
    fn split_roundtrips_through_to_logical() {
        let map = StripeMap::new(4096, 5);
        for (off, len) in [(0u64, 4096u64), (123, 50_000), (4096 * 5, 4096)] {
            for p in map.split(off, len) {
                assert_eq!(map.to_logical(p.member, p.offset), off + p.logical_offset);
            }
        }
    }

    #[test]
    fn aligned_request_uses_all_members_evenly() {
        let map = StripeMap::new(16 * 1024, 4);
        let pieces = map.split(0, 64 * 1024);
        assert_eq!(pieces.len(), 4);
        let members: Vec<usize> = pieces.iter().map(|p| p.member).collect();
        assert_eq!(members, vec![0, 1, 2, 3]);
        assert!(pieces.iter().all(|p| p.len == 16 * 1024));
    }

    #[test]
    fn raid_read_is_parallel_across_members() {
        let sim = Sim::new(1);
        // 4 members at 1 MB/s each; a 400 KB aligned read puts 100 KB on
        // each member, so it takes ~0.1 s, not 0.4 s.
        let raid = RaidArray::new(&sim, DiskParams::ideal(1e6), 4, 100 * 1024, "r0");
        let r = raid.clone();
        sim.spawn(async move {
            r.read(0, 400 * 1024, 0).await.unwrap();
        });
        let report = sim.run();
        assert_eq!(
            report.end_time,
            SimTime::ZERO + SimDuration::for_bytes(100 * 1024, 1e6)
        );
        sim.shutdown();
    }

    #[test]
    fn raid_write_read_roundtrip() {
        let sim = Sim::new(1);
        let raid = RaidArray::new(&sim, DiskParams::ideal(1e6), 3, 8 * 1024, "r1");
        let r = raid.clone();
        let h = sim.spawn(async move {
            let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 256) as u8).collect();
            let payload = Bytes::from(payload);
            r.write(5_000, payload.clone()).await.unwrap();
            let back = r.read(5_000, 100_000, 0).await.unwrap();
            back == payload
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
        sim.shutdown();
    }

    #[test]
    fn degraded_member_slows_whole_array() {
        let sim = Sim::new(1);
        let raid = RaidArray::new(&sim, DiskParams::ideal(1e6), 4, 100 * 1024, "r2");
        raid.set_member_slowdown(2, 5.0);
        let r = raid.clone();
        sim.spawn(async move {
            r.read(0, 400 * 1024, 0).await.unwrap();
        });
        let report = sim.run();
        // The slow member gates completion: 100 KB at 1 MB/s × 5.
        assert_eq!(
            report.end_time,
            SimTime::ZERO + SimDuration::from_millis(512)
        );
        sim.shutdown();
    }

    fn parity_array(sim: &Sim, width: usize) -> RaidArray {
        let raid =
            RaidArray::new_with_parity(sim, DiskParams::ideal(1e6), width, 8 * 1024, true, "rp");
        raid.set_tracks(0);
        raid
    }

    fn payload(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i * 13 % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn parity_reconstructs_a_dead_member_exactly() {
        let sim = Sim::new(1);
        let raid = parity_array(&sim, 3);
        let data = payload(100_000);
        let r = raid.clone();
        let d2 = data.clone();
        let faults = sim.faults();
        let h = sim.spawn(async move {
            r.write(3_000, d2.clone()).await.unwrap();
            // Kill data member 1 after the data is down, then read back.
            faults.kill_disk(1);
            faults.arm();
            let back = r.read(3_000, 100_000, 0).await.unwrap();
            back == d2
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
        let rs = raid.raid_stats();
        assert!(rs.reconstructed_reads > 0, "{rs:?}");
        assert!(rs.parity_rmws > 0, "{rs:?}");
        sim.shutdown();
    }

    #[test]
    fn writes_through_a_dead_member_keep_parity_exact() {
        let sim = Sim::new(1);
        let raid = parity_array(&sim, 3);
        let before = payload(60_000);
        let after = Bytes::from(vec![0x5au8; 60_000]);
        let r = raid.clone();
        let (b2, a2) = (before.clone(), after.clone());
        let faults = sim.faults();
        let h = sim.spawn(async move {
            r.write(0, b2).await.unwrap();
            faults.kill_disk(0);
            faults.arm();
            // Overwrite while member 0 is dead: its share lands only in
            // parity, and reads must still return the new contents.
            r.write(0, a2.clone()).await.unwrap();
            let back = r.read(0, 60_000, 0).await.unwrap();
            back == a2
        });
        sim.run();
        assert_eq!(h.try_take(), Some(true));
        sim.shutdown();
    }

    #[test]
    fn reconstruction_costs_extra_member_reads() {
        let sim = Sim::new(1);
        let raid = parity_array(&sim, 4);
        let r = raid.clone();
        let faults = sim.faults();
        sim.spawn(async move {
            r.write(0, payload(400 * 1024)).await.unwrap();
            let healthy = r.stats().requests;
            let healthy_reads = r.stats().bytes_read;
            r.read(0, 400 * 1024, 0).await.unwrap();
            let healthy_cost = r.stats().requests - healthy;
            let healthy_bytes = r.stats().bytes_read - healthy_reads;
            faults.kill_disk(2);
            faults.arm();
            let base = r.stats().requests;
            let base_bytes = r.stats().bytes_read;
            r.read(0, 400 * 1024, 0).await.unwrap();
            let degraded_cost = r.stats().requests - base;
            let degraded_bytes = r.stats().bytes_read - base_bytes;
            assert!(
                degraded_cost > healthy_cost && degraded_bytes > healthy_bytes,
                "degraded read must cost more: {healthy_cost}/{degraded_cost} reqs, \
                 {healthy_bytes}/{degraded_bytes} bytes"
            );
        });
        sim.run();
        sim.shutdown();
    }

    #[test]
    fn dead_member_without_parity_is_unrecoverable() {
        let sim = Sim::new(1);
        let raid = RaidArray::new(&sim, DiskParams::ideal(1e6), 3, 8 * 1024, "r3");
        assert_eq!(raid.member_track_index(1), None, "no tracks yet");
        raid.set_tracks(0);
        // A member past the array is no disk of it, not the next array's.
        assert_eq!(
            (raid.member_track_index(2), raid.member_track_index(3)),
            (Some(2), None)
        );
        let r = raid.clone();
        let faults = sim.faults();
        let h = sim.spawn(async move {
            r.write(0, payload(50_000)).await.unwrap();
            faults.kill_disk(1);
            faults.arm();
            r.read(0, 50_000, 0).await
        });
        sim.run();
        assert_eq!(h.try_take(), Some(Err(DiskError::Dead)));
        sim.shutdown();
    }

    #[test]
    fn concurrent_parity_writes_stay_consistent() {
        // Two tasks write disjoint halves of the same stripe rows at the
        // same virtual time; the parity lock must serialize the RMWs so a
        // post-kill reconstruction still sees exact parity.
        let sim = Sim::new(1);
        let raid = parity_array(&sim, 2);
        let (a, b) = (payload(32 * 1024), Bytes::from(vec![9u8; 32 * 1024]));
        for (off, data) in [(0u64, a.clone()), (32 * 1024, b.clone())] {
            let r = raid.clone();
            sim.spawn(async move {
                r.write(off, data).await.unwrap();
            });
        }
        sim.run();
        let faults = sim.faults();
        faults.kill_disk(0);
        faults.arm();
        let r = raid.clone();
        let h = sim.spawn(async move {
            let x = r.read(0, 32 * 1024, 0).await.unwrap();
            let y = r.read(32 * 1024, 32 * 1024, 0).await.unwrap();
            (x, y)
        });
        sim.run();
        let (x, y) = h.try_take().unwrap();
        assert_eq!(x, a);
        assert_eq!(y, b);
        sim.shutdown();
    }
}
