//! Property-based tests for the rectangle algebra invariants that the
//! compressed-graph algorithms depend on.

use proptest::prelude::*;
use taco_grid::{Cell, Offset, Range};

fn arb_cell() -> impl Strategy<Value = Cell> {
    (1u32..200, 1u32..200).prop_map(|(c, r)| Cell::new(c, r))
}

fn arb_range() -> impl Strategy<Value = Range> {
    (arb_cell(), arb_cell()).prop_map(|(a, b)| Range::new(a, b))
}

proptest! {
    #[test]
    fn bounding_union_contains_both(a in arb_range(), b in arb_range()) {
        let u = a.bounding_union(&b);
        prop_assert!(u.contains(&a));
        prop_assert!(u.contains(&b));
    }

    #[test]
    fn bounding_union_commutes_and_is_idempotent(a in arb_range(), b in arb_range()) {
        prop_assert_eq!(a.bounding_union(&b), b.bounding_union(&a));
        prop_assert_eq!(a.bounding_union(&a), a);
    }

    #[test]
    fn intersect_is_subset_of_both(a in arb_range(), b in arb_range()) {
        if let Some(i) = a.intersect(&b) {
            prop_assert!(a.contains(&i));
            prop_assert!(b.contains(&i));
            prop_assert!(a.overlaps(&b));
        } else {
            prop_assert!(!a.overlaps(&b));
        }
    }

    #[test]
    fn subtract_partitions_area(a in arb_range(), b in arb_range()) {
        let pieces = a.subtract(&b);
        let covered = a.intersect(&b).map_or(0, |i| i.area());
        let rest: u64 = pieces.iter().map(Range::area).sum();
        prop_assert_eq!(rest + covered, a.area());
        for (i, p) in pieces.iter().enumerate() {
            prop_assert!(a.contains(p));
            prop_assert!(!p.overlaps(&b));
            for q in pieces.iter().skip(i + 1) {
                prop_assert!(!p.overlaps(q));
            }
        }
    }

    #[test]
    fn subtract_all_leaves_no_cover_overlap(
        a in arb_range(),
        covers in prop::collection::vec(arb_range(), 0..6),
        stale in prop::collection::vec(arb_range(), 0..3),
    ) {
        // Buffers left over from an earlier call: the call clears both.
        let (mut pieces, mut tmp) = (stale.clone(), stale);
        a.subtract_all_into(covers.iter(), &mut pieces, &mut tmp);
        for p in &pieces {
            prop_assert!(a.contains(p));
            for c in &covers {
                prop_assert!(!p.overlaps(c));
            }
        }
        // Every uncovered cell of `a` must appear in exactly one piece.
        if a.area() <= 400 {
            for cell in a.cells() {
                let uncovered = !covers.iter().any(|c| c.contains_cell(cell));
                let hits = pieces.iter().filter(|p| p.contains_cell(cell)).count();
                prop_assert_eq!(hits, usize::from(uncovered));
            }
        }
    }

    #[test]
    fn shift_preserves_shape(a in arb_range(), dc in -50i64..50, dr in -50i64..50) {
        if let Ok(s) = a.shift(Offset::new(dc, dr)) {
            prop_assert_eq!(s.width(), a.width());
            prop_assert_eq!(s.height(), a.height());
            prop_assert_eq!(s.shift(Offset::new(-dc, -dr)).unwrap(), a);
        }
    }

    #[test]
    fn transpose_involution_preserves_area(a in arb_range()) {
        prop_assert_eq!(a.transpose().transpose(), a);
        prop_assert_eq!(a.transpose().area(), a.area());
    }

    #[test]
    fn a1_round_trip(a in arb_range()) {
        prop_assert_eq!(Range::parse_a1(&a.to_a1()).unwrap(), a);
    }

    #[test]
    fn offset_from_inverts_offset(a in arb_cell(), b in arb_cell()) {
        let o = a.offset_from(b);
        prop_assert_eq!(b.offset(o).unwrap(), a);
        prop_assert_eq!(a.offset(-o).unwrap(), b);
    }
}
