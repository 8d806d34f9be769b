//! PFS stripe attributes and declustering.
//!
//! A PFS file is interleaved over a **stripe group** of UFS partitions in
//! units of the **stripe unit size**: logical unit `u` lands on group slot
//! `u % G` at per-slot offset `(u / G) * su` (Figure 3 of the paper). A
//! slot usually maps to a distinct I/O node, but Table 4's "striping 8
//! ways across 1 node" configuration is expressed by repeating the same
//! I/O node in several slots — each slot is its own UFS file regardless.

/// How a PFS file is laid out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeAttrs {
    /// Bytes per stripe unit.
    pub stripe_unit: u64,
    /// I/O node index for each group slot. Length = stripe factor.
    /// Repeats are allowed (several stripe files on one I/O node).
    pub group: Vec<usize>,
}

impl StripeAttrs {
    /// Stripe over I/O nodes `0..factor`, one slot each — the default
    /// layout of a PFS mount with stripe factor `factor`.
    pub fn across(factor: usize, stripe_unit: u64) -> Self {
        assert!(factor > 0 && stripe_unit > 0, "degenerate stripe attrs");
        StripeAttrs {
            stripe_unit,
            group: (0..factor).collect(),
        }
    }

    /// Stripe `ways` ways across the single I/O node `ion` (Table 4's
    /// second configuration).
    pub fn ways_on_one(ways: usize, ion: usize, stripe_unit: u64) -> Self {
        assert!(ways > 0 && stripe_unit > 0);
        StripeAttrs {
            stripe_unit,
            group: vec![ion; ways],
        }
    }

    /// Number of group slots (the stripe factor).
    pub fn factor(&self) -> usize {
        self.group.len()
    }

    /// The server requests of logical extent `(offset, len)`: one
    /// contiguous run per group slot the extent touches, in slot order
    /// (the client half of PFS block coalescing). Computed in closed form:
    /// a slot's pieces of one extent always abut, since every piece but
    /// the first starts at a unit boundary and every piece but the last
    /// ends at one, so a slot gets exactly one run. A zero-length extent
    /// has none. [`StripeAttrs::coalesce`] of [`StripeAttrs::decluster`]
    /// is the piece-by-piece reference it must equal.
    pub fn plan(&self, offset: u64, len: u64) -> Vec<SlotRequest> {
        self.requests(offset, len).collect()
    }

    /// [`StripeAttrs::plan`] as an iterator: the client spawns its legs
    /// straight from it.
    pub(crate) fn requests(&self, offset: u64, len: u64) -> impl Iterator<Item = SlotRequest> {
        let su = self.stripe_unit;
        let g = self.factor() as u64;
        // Units `first..=last` hold the extent; the first `n` of them
        // each open a different slot's run.
        let (first, last, n) = match len.checked_sub(1) {
            Some(l) => {
                let (first, last) = (offset / su, (offset + l) / su);
                (first, last, (last - first + 1).min(g))
            }
            None => (0, 0, 0),
        };
        // Run k opens at unit first + k on slot (first + k) % g. Slot
        // order visits the wrapped-around slots (k ≥ g - first % g) first.
        let turn = g - first % g;
        (turn..n).chain(0..n.min(turn)).map(move |k| {
            let unit = first + k;
            // The run's last unit: this slot's last unit inside the extent.
            let tail = unit + (last - unit) / g * g;
            let start = if k == 0 { offset } else { unit * su };
            let end = if tail == last {
                offset + len
            } else {
                (tail + 1) * su
            };
            let slot_offset = unit / g * su + (start - unit * su);
            let slot_end = tail / g * su + (end - tail * su);
            SlotRequest {
                slot: (unit % g) as usize,
                slot_offset,
                len: slot_end - slot_offset,
                logical_offset: start - offset,
            }
        })
    }

    /// The pieces of a planned request, in slot (and logical) order: where
    /// each stripe-unit piece of the run lands in the logical extent.
    /// Consecutive pieces of one slot are `factor - 1` units apart in the
    /// extent.
    pub fn pieces(&self, req: SlotRequest) -> impl Iterator<Item = StripePiece> {
        let su = self.stripe_unit;
        let gap = (self.factor() as u64 - 1) * su;
        let end = req.slot_offset + req.len;
        let mut at = req.slot_offset;
        let mut logical = req.logical_offset;
        std::iter::from_fn(move || {
            if at >= end {
                return None;
            }
            let len = (su - at % su).min(end - at);
            let piece = StripePiece {
                slot: req.slot,
                slot_offset: at,
                len,
                logical_offset: logical,
            };
            at += len;
            if at < end {
                logical += len + gap;
            }
            Some(piece)
        })
    }

    /// Reference model of [`StripeAttrs::plan`], piece by piece: map a
    /// logical extent onto per-slot pieces, in logical order.
    pub fn decluster(&self, offset: u64, len: u64) -> Vec<StripePiece> {
        let su = self.stripe_unit;
        let g = self.factor() as u64;
        let mut pieces = Vec::new();
        let mut pos = 0u64;
        while pos < len {
            let abs = offset + pos;
            let unit = abs / su;
            let slot = (unit % g) as usize;
            let row = unit / g;
            let in_unit = abs % su;
            let chunk = (su - in_unit).min(len - pos);
            pieces.push(StripePiece {
                slot,
                slot_offset: row * su + in_unit,
                len: chunk,
                logical_offset: pos,
            });
            pos += chunk;
        }
        pieces
    }

    /// Reference model of [`StripeAttrs::plan`]'s coalescing: group
    /// pieces per slot and merge slot-contiguous runs, each with the
    /// pieces it is built from. Requests come out ordered by slot.
    pub fn coalesce(&self, pieces: &[StripePiece]) -> Vec<(SlotRequest, Vec<StripePiece>)> {
        let mut sorted = pieces.to_vec();
        sorted.sort_by_key(|p| (p.slot, p.slot_offset));
        let mut out: Vec<(SlotRequest, Vec<StripePiece>)> = Vec::new();
        for p in sorted {
            match out.last_mut() {
                Some((run, run_pieces))
                    if run.slot == p.slot && run.slot_offset + run.len == p.slot_offset =>
                {
                    run.len += p.len;
                    run_pieces.push(p);
                }
                _ => out.push((
                    SlotRequest {
                        slot: p.slot,
                        slot_offset: p.slot_offset,
                        len: p.len,
                        logical_offset: p.logical_offset,
                    },
                    vec![p],
                )),
            }
        }
        out
    }

    /// Logical file size implied by per-slot sizes (for bounds checks):
    /// the largest logical offset any slot byte maps back to, plus one.
    pub fn logical_end(&self, slot_sizes: &[u64]) -> u64 {
        assert_eq!(slot_sizes.len(), self.factor());
        let su = self.stripe_unit;
        let g = self.factor() as u64;
        let mut end = 0u64;
        for (slot, &size) in slot_sizes.iter().enumerate() {
            if size == 0 {
                continue;
            }
            let last = size - 1;
            let row = last / su;
            let in_unit = last % su;
            let logical = (row * g + slot as u64) * su + in_unit;
            end = end.max(logical + 1);
        }
        end
    }
}

/// One contiguous piece of a logical extent on one group slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripePiece {
    /// Group slot index.
    pub slot: usize,
    /// Byte offset within the slot's stripe file.
    pub slot_offset: u64,
    /// Piece length in bytes.
    pub len: u64,
    /// Offset of this piece within the logical extent.
    pub logical_offset: u64,
}

/// One coalesced server request: a contiguous byte run in one slot's
/// stripe file. [`StripeAttrs::pieces`] lists the pieces that reassemble
/// it into the user buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRequest {
    /// Group slot index.
    pub slot: usize,
    /// Start offset within the stripe file.
    pub slot_offset: u64,
    /// Total contiguous length.
    pub len: u64,
    /// Offset of the run's first byte within the logical extent.
    pub logical_offset: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: u64 = 1024;

    /// The paper's Figure 3: 64 KB stripe units over 8 I/O nodes.
    fn fig3() -> StripeAttrs {
        StripeAttrs::across(8, 64 * KB)
    }

    #[test]
    fn fig3_64kb_requests_hit_one_ion_each() {
        // 8 compute nodes each reading 64 KB (aligned): request k goes
        // wholly to I/O node k.
        let attrs = fig3();
        for k in 0..8u64 {
            let pieces = attrs.decluster(k * 64 * KB, 64 * KB);
            assert_eq!(pieces.len(), 1);
            assert_eq!(pieces[0].slot, k as usize);
            assert_eq!(pieces[0].len, 64 * KB);
        }
    }

    #[test]
    fn fig3_128kb_requests_split_over_two_ions() {
        // Figure 3's second case: 128 KB requests each span two adjacent
        // I/O nodes; request k covers nodes 2k and 2k+1.
        let attrs = fig3();
        for k in 0..4u64 {
            let pieces = attrs.decluster(k * 128 * KB, 128 * KB);
            assert_eq!(pieces.len(), 2);
            assert_eq!(pieces[0].slot, (2 * k) as usize);
            assert_eq!(pieces[1].slot, (2 * k + 1) as usize);
        }
    }

    #[test]
    fn decluster_tiles_the_extent() {
        let attrs = StripeAttrs::across(5, 10_000);
        let pieces = attrs.decluster(12_345, 123_456);
        let mut pos = 0;
        for p in &pieces {
            assert_eq!(p.logical_offset, pos);
            assert!(p.len > 0 && p.len <= attrs.stripe_unit);
            pos += p.len;
        }
        assert_eq!(pos, 123_456);
    }

    #[test]
    fn multi_row_requests_coalesce_per_slot() {
        // 1024 KB over 8 slots of 64 KB: 16 units, 2 rows → 8 slot
        // requests of 128 KB each, each built from two pieces.
        let attrs = fig3();
        let reqs = attrs.plan(0, 1024 * KB);
        assert_eq!(reqs.len(), 8);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.slot, i);
            assert_eq!(r.len, 128 * KB);
            assert_eq!(attrs.pieces(*r).count(), 2);
            assert_eq!(r.slot_offset, 0);
        }
    }

    #[test]
    fn non_adjacent_rows_do_not_coalesce() {
        // Two separate 64 KB units on the same slot with a gap between.
        let attrs = StripeAttrs::across(2, 64 * KB);
        // Units 0 (slot 0) and 4 (slot 0, row 2): rows 0 and 2 leave a
        // hole at row 1 in slot 0's file.
        let mut pieces = attrs.decluster(0, 64 * KB);
        pieces.extend(attrs.decluster(4 * 64 * KB, 64 * KB));
        let reqs = attrs.coalesce(&pieces);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].0.slot_offset, 0);
        assert_eq!(reqs[1].0.slot_offset, 2 * 64 * KB);
    }

    #[test]
    fn ways_on_one_maps_everything_to_one_ion() {
        let attrs = StripeAttrs::ways_on_one(8, 3, 64 * KB);
        assert_eq!(attrs.factor(), 8);
        assert!(attrs.group.iter().all(|&ion| ion == 3));
        // Slots still distribute the data 8 ways.
        let reqs = attrs.plan(0, 512 * KB);
        assert_eq!(reqs.len(), 8);
    }

    #[test]
    fn unaligned_extent_clips_edge_pieces() {
        let attrs = StripeAttrs::across(4, 100);
        let pieces = attrs.decluster(250, 200);
        // First piece: 50 bytes finishing unit 2; last piece clipped too.
        assert_eq!(pieces[0].len, 50);
        assert_eq!(pieces[0].slot, 2);
        assert_eq!(pieces[0].slot_offset, 50);
        let total: u64 = pieces.iter().map(|p| p.len).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn logical_end_inverts_slot_sizes() {
        let attrs = StripeAttrs::across(4, 100);
        // A 1000-byte file: units 0..9; slot sizes 300,300,200,200.
        let sizes = [300u64, 300, 200, 200];
        assert_eq!(attrs.logical_end(&sizes), 1000);
        // Empty file.
        assert_eq!(attrs.logical_end(&[0, 0, 0, 0]), 0);
    }
}
