//! Randomized tests for the declustering math — the invariants every
//! layer above relies on. Cases come from the in-repo [`Rng`].

use paragon_pfs::StripeAttrs;
use paragon_sim::Rng;

fn rand_attrs(rng: &mut Rng) -> StripeAttrs {
    StripeAttrs::across(rng.range_usize(1..17), rng.range_u64(1..256 * 1024 + 1))
}

/// Declustering tiles the logical extent exactly once, in order.
#[test]
fn decluster_tiles_exactly() {
    let mut rng = Rng::seed_from_u64(0x7117);
    for _ in 0..256 {
        let attrs = rand_attrs(&mut rng);
        let offset = rng.range_u64(0..1 << 30);
        let len = rng.range_u64(1..4 << 20);
        let pieces = attrs.decluster(offset, len);
        let mut pos = 0u64;
        for p in &pieces {
            assert_eq!(p.logical_offset, pos);
            assert!(p.len > 0 && p.len <= attrs.stripe_unit);
            assert!(p.slot < attrs.factor());
            pos += p.len;
        }
        assert_eq!(pos, len);
    }
}

/// Offset ↔ (slot, slot_offset) is a bijection: every logical byte
/// maps to exactly one slot byte, and Figure 3's formula holds.
#[test]
fn decluster_is_figure3() {
    let mut rng = Rng::seed_from_u64(0xf163);
    for _ in 0..256 {
        let attrs = rand_attrs(&mut rng);
        let offset = rng.range_u64(0..1 << 30);
        let len = rng.range_u64(1..1 << 20);
        for p in attrs.decluster(offset, len) {
            let abs = offset + p.logical_offset;
            let unit = abs / attrs.stripe_unit;
            assert_eq!(p.slot as u64, unit % attrs.factor() as u64);
            let row = unit / attrs.factor() as u64;
            assert_eq!(
                p.slot_offset,
                row * attrs.stripe_unit + abs % attrs.stripe_unit
            );
        }
    }
}

/// Coalescing preserves every piece and produces contiguous,
/// non-overlapping per-slot runs.
#[test]
fn coalesce_preserves_pieces() {
    let mut rng = Rng::seed_from_u64(0xc0a1);
    for _ in 0..256 {
        let attrs = rand_attrs(&mut rng);
        let offset = rng.range_u64(0..1 << 28);
        let len = rng.range_u64(1..4 << 20);
        let pieces = attrs.decluster(offset, len);
        let reqs = attrs.coalesce(&pieces);
        let total: u64 = reqs.iter().map(|(r, _)| r.len).sum();
        assert_eq!(total, len);
        for (r, run) in &reqs {
            // Pieces tile the run contiguously.
            let mut at = r.slot_offset;
            for p in run {
                assert_eq!(p.slot, r.slot);
                assert_eq!(p.slot_offset, at);
                at += p.len;
            }
            assert_eq!(at, r.slot_offset + r.len);
        }
        // At most one run per (slot, disjoint region): runs on the same
        // slot must not touch (else they should have been merged).
        for (i, (a, _)) in reqs.iter().enumerate() {
            for (b, _) in reqs.iter().skip(i + 1) {
                if a.slot == b.slot {
                    let disjoint = a.slot_offset + a.len < b.slot_offset
                        || b.slot_offset + b.len < a.slot_offset;
                    assert!(disjoint, "mergeable runs left unmerged");
                }
            }
        }
    }
}

/// `logical_end` inverts populate's slot-size computation.
#[test]
fn logical_end_matches_decluster() {
    let mut rng = Rng::seed_from_u64(0x10e4);
    for _ in 0..256 {
        let attrs = rand_attrs(&mut rng);
        let size = rng.range_u64(1..4 << 20);
        // Compute slot sizes by declustering the whole file.
        let mut sizes = vec![0u64; attrs.factor()];
        for p in attrs.decluster(0, size) {
            sizes[p.slot] = sizes[p.slot].max(p.slot_offset + p.len);
        }
        assert_eq!(attrs.logical_end(&sizes), size);
    }
}

/// The closed-form `plan` equals the piece-by-piece reference
/// (`coalesce` of `decluster`) request for request and piece for piece,
/// on random extents (single-unit, unaligned and many-row ones among
/// them) and on zero-length ones, which plan to nothing.
#[test]
fn plan_matches_the_reference_model() {
    let mut rng = Rng::seed_from_u64(0x91a4);
    for case in 0..2048 {
        let attrs = rand_attrs(&mut rng);
        let su = attrs.stripe_unit;
        let offset = rng.range_u64(0..1 << 30);
        // Lengths from zero up to several full rows of the group.
        let len = match case % 4 {
            0 => 0,
            1 => rng.range_u64(1..su + 1),
            2 => rng.range_u64(1..4 * su * attrs.factor() as u64 + 1),
            _ => rng.range_u64(1..4 << 20),
        };
        let plan = attrs.plan(offset, len);
        let reference = attrs.coalesce(&attrs.decluster(offset, len));
        assert_eq!(
            plan.len(),
            reference.len(),
            "case {case}: {attrs:?} {offset}+{len}"
        );
        for (got, (want, pieces)) in plan.iter().zip(&reference) {
            assert_eq!(got, want, "case {case}: {attrs:?} {offset}+{len}");
            assert!(
                attrs.pieces(*got).eq(pieces.iter().copied()),
                "case {case}: pieces of {got:?}"
            );
        }
        if len == 0 {
            assert!(plan.is_empty());
        }
    }
}
