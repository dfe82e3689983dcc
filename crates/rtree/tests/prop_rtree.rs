//! Property tests: the R-tree must agree with a brute-force scan on every
//! query, through arbitrary interleavings of bulk loading, inserts,
//! removes and in-place re-keys by handle — and the structural invariants
//! (len, height, tight MBRs, parent and leaf links, minimum fill) must
//! hold at every step.

use proptest::prelude::*;
use taco_grid::{Cell, Range};
use taco_rtree::{min_fill, FanoutRTree, RTree, DEFAULT_FANOUT};

fn arb_range() -> impl Strategy<Value = Range> {
    ((1u32..60, 1u32..60), (0u32..5, 0u32..8))
        .prop_map(|((c, r), (w, h))| Range::new(Cell::new(c, r), Cell::new(c + w, r + h)))
}

/// Where an [`Op::Update`] re-keys its entry to.
#[derive(Debug, Clone)]
enum To {
    /// Anywhere: usually a move, now and then an overlap.
    Moved(Range),
    /// The bounding union with another range (what a merge does).
    Grown(Range),
    /// The entry's head cell alone (what a split does).
    Shrunk,
    /// The range it already has.
    Identical,
    /// The range of another live entry.
    Another(usize),
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Range),
    RemoveNth(usize),
    Query(Range),
    Update { pick: usize, to: To },
}

fn arb_to() -> impl Strategy<Value = To> {
    prop_oneof![
        2 => arb_range().prop_map(To::Moved),
        3 => arb_range().prop_map(To::Grown),
        2 => Just(To::Shrunk),
        1 => Just(To::Identical),
        1 => (0usize..64).prop_map(To::Another),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => arb_range().prop_map(Op::Insert),
        1 => (0usize..64).prop_map(Op::RemoveNth),
        2 => arb_range().prop_map(Op::Query),
        3 => ((0usize..64), arb_to()).prop_map(|(pick, to)| Op::Update { pick, to }),
    ]
}

/// `ceil(log_m(n)) + 1` style sanity bound on the height of a tree with
/// minimum fill `m` — every level except the root holds at least `m`
/// entries per node, so the height cannot exceed this.
fn height_bound(len: usize, m: usize) -> usize {
    if len <= 1 {
        return 1;
    }
    let mut h = 1;
    let mut cap = m;
    while cap < len {
        cap *= m;
        h += 1;
    }
    h + 1
}

/// One window query — the walk, and `overlapping` collecting it in the
/// walk's order — against the brute-force scan of `shadow`.
fn check_query<const F: usize>(tree: &FanoutRTree<u64, F>, shadow: &[(Range, u64)], q: Range) {
    let mut got: Vec<u64> = Vec::new();
    let visited = tree.for_each_overlapping(q, |_, v| got.push(*v));
    let collected: Vec<u64> = tree.overlapping(q).iter().map(|(_, v)| **v).collect();
    prop_assert_eq!(&collected, &got, "overlapping must collect the walk in order");
    got.sort_unstable();
    let mut want: Vec<u64> =
        shadow.iter().filter(|(r, _)| r.overlaps(&q)).map(|(_, id)| *id).collect();
    want.sort_unstable();
    prop_assert_eq!(&got, &want);
    prop_assert!(visited >= 1);
}

/// The stored `(range, value)` pairs, sorted.
fn contents<const F: usize>(tree: &FanoutRTree<u64, F>) -> Vec<(Range, u64)> {
    let mut all: Vec<(Range, u64)> = tree.iter().map(|(r, v)| (r, *v)).collect();
    all.sort_unstable();
    all
}

/// The `(range, value)` pairs of `shadow`, without their handles.
fn pairs(shadow: &[(Range, u64, u32)]) -> Vec<(Range, u64)> {
    shadow.iter().map(|&(r, id, _)| (r, id)).collect()
}

/// Drives `tree` against `shadow` — each entry's range, value and handle
/// — through `ops`, checking every query against the brute-force scan
/// and, after every step, the len/height invariants, MBR tightness, the
/// parent and leaf links, and that no step leaves a non-root node short
/// of `min_fill(F)` that was not short before (never, on a tree grown
/// from empty; STR packing may start the last node of a level short).
fn drive<const F: usize>(
    tree: &mut FanoutRTree<u64, F>,
    shadow: &mut Vec<(Range, u64, u32)>,
    next_id: &mut u64,
    ops: Vec<Op>,
) {
    let mut underfull = tree.check_invariants().expect("the starting tree is well-formed");
    for op in ops {
        match op {
            Op::Insert(r) => {
                let handle = tree.insert(r, *next_id);
                shadow.push((r, *next_id, handle));
                *next_id += 1;
            }
            Op::RemoveNth(n) => {
                if !shadow.is_empty() {
                    let (r, id, _) = shadow.remove(n % shadow.len());
                    prop_assert!(tree.remove(r, &id));
                    // Double-remove must fail.
                    prop_assert!(!tree.remove(r, &id));
                }
            }
            Op::Query(q) => check_query(tree, &pairs(shadow), q),
            Op::Update { pick, to } => {
                if !shadow.is_empty() {
                    let n = pick % shadow.len();
                    let (old, _, handle) = shadow[n];
                    let new = match to {
                        To::Moved(r) => r,
                        To::Grown(r) => old.bounding_union(&r),
                        To::Shrunk => Range::cell(old.head()),
                        To::Identical => old,
                        To::Another(k) => shadow[k % shadow.len()].0,
                    };
                    tree.update(handle, new);
                    shadow[n].0 = new;
                    let mut want = pairs(shadow);
                    want.sort_unstable();
                    prop_assert_eq!(contents(tree), want, "the handle re-keys its own entry alone");
                    check_query(tree, &pairs(shadow), old);
                    check_query(tree, &pairs(shadow), new);
                }
            }
        }
        prop_assert_eq!(tree.len(), shadow.len());
        match tree.check_invariants() {
            Ok(now) => {
                prop_assert!(
                    now <= underfull,
                    "{} nodes under min_fill, {} before",
                    now,
                    underfull
                );
                underfull = now;
            }
            Err(broken) => prop_assert!(false, "{}", broken),
        }
        prop_assert!(
            tree.height() <= height_bound(tree.len().max(1), min_fill(F)),
            "height {} too tall for {} entries at fanout {}",
            tree.height(),
            tree.len(),
            F
        );
    }

    let mut want = pairs(shadow);
    want.sort_unstable();
    prop_assert_eq!(contents(tree), want);
}

/// A bulk load's handles: the `i`th item's is `i`.
fn loaded(init: &[Range]) -> Vec<(Range, u64, u32)> {
    init.iter().enumerate().map(|(i, r)| (*r, i as u64, i as u32)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn matches_brute_force(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut tree: RTree<u64> = RTree::new();
        let mut shadow: Vec<(Range, u64, u32)> = Vec::new();
        let mut next_id = 0u64;
        drive(&mut tree, &mut shadow, &mut next_id, ops);
    }

    /// Start from a bulk-loaded corpus, then mutate: STR construction
    /// must be indistinguishable from incremental construction under
    /// every later operation.
    #[test]
    fn bulk_load_matches_brute_force_through_mutation(
        init in prop::collection::vec(arb_range(), 0..300),
        ops in prop::collection::vec(arb_op(), 1..150),
    ) {
        let mut shadow = loaded(&init);
        let mut next_id = shadow.len() as u64;
        let mut tree: RTree<u64> = RTree::bulk_load(pairs(&shadow));
        prop_assert_eq!(tree.len(), shadow.len());
        prop_assert!(tree.height() <= height_bound(tree.len().max(1), min_fill(DEFAULT_FANOUT)));
        drive(&mut tree, &mut shadow, &mut next_id, ops);

        // A fresh bulk load of the surviving set answers every window
        // query identically to the mutated tree (sorted result sets).
        let rebuilt: RTree<u64> = RTree::bulk_load(pairs(&shadow));
        prop_assert_eq!(rebuilt.len(), tree.len());
        for q in [
            Range::from_coords(1, 1, 70, 70),
            Range::from_coords(10, 10, 20, 20),
            Range::from_coords(1, 30, 70, 31),
            Range::from_coords(33, 1, 34, 70),
        ] {
            let mut a: Vec<u64> = tree.overlapping(q).iter().map(|(_, v)| **v).collect();
            let mut b: Vec<u64> = rebuilt.overlapping(q).iter().map(|(_, v)| **v).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    /// The fanout sweep instantiations behave identically (they share an
    /// implementation, but the packing/split paths branch on `F`), from a
    /// packed start and from a tree grown entry by entry — the one whose
    /// every non-root node must stay at or above `min_fill(F)`.
    #[test]
    fn alternate_fanouts_match_brute_force(
        init in prop::collection::vec(arb_range(), 0..120),
        ops in prop::collection::vec(arb_op(), 1..80),
    ) {
        fn run<const F: usize>(init: &[Range], ops: &[Op], packed: bool) -> Vec<(Range, u64)> {
            let mut shadow = loaded(init);
            let mut next_id = shadow.len() as u64;
            let mut tree: FanoutRTree<u64, F> = if packed {
                FanoutRTree::bulk_load(pairs(&shadow))
            } else {
                let mut grown = FanoutRTree::new();
                for (r, id, handle) in &mut shadow {
                    *handle = grown.insert(*r, *id);
                }
                prop_assert_eq!(grown.check_invariants(), Ok(0));
                grown
            };
            drive(&mut tree, &mut shadow, &mut next_id, ops.to_vec());
            contents(&tree)
        }
        for packed in [true, false] {
            let a = run::<8>(&init, &ops, packed);
            let b = run::<16>(&init, &ops, packed);
            let c = run::<32>(&init, &ops, packed);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(&b, &c);
        }
    }
}

/// Of several identical `(range, value)` entries, `update` re-keys
/// exactly the one its handle names.
#[test]
fn update_rekeys_exactly_one_duplicate() {
    fn run<const F: usize>() {
        let (home, away) = (Range::from_coords(3, 3, 4, 9), Range::from_coords(40, 1, 40, 2));
        let mut tree: FanoutRTree<u64, F> = FanoutRTree::new();
        let mut twins = Vec::new();
        for i in 0..3 * F as u32 {
            tree.insert(Range::cell(Cell::new(1 + i % 7, 1 + i / 7)), u64::from(i) + 100);
            if i % F as u32 == 0 {
                twins.push(tree.insert(home, 7));
            }
        }
        for (moved, &handle) in twins.iter().enumerate() {
            tree.update(handle, away);
            assert_eq!(tree.overlapping(away).len(), moved + 1);
            assert_eq!(tree.iter().filter(|&(r, v)| r == home && *v == 7).count(), 2 - moved);
            assert_eq!(tree.check_invariants(), Ok(0));
        }
        // A handle survives the condense that moves its entry between
        // leaves: remove every other entry, then move the twins back.
        for i in 0..3 * F as u32 {
            assert!(
                tree.remove(Range::cell(Cell::new(1 + i % 7, 1 + i / 7)), &(u64::from(i) + 100))
            );
        }
        for &handle in &twins {
            tree.update(handle, home);
            assert_eq!(tree.check_invariants(), Ok(0));
        }
        assert_eq!(tree.overlapping(home).len(), 3);
        assert!(tree.overlapping(away).is_empty());
        assert_eq!(tree.len(), 3);
    }
    run::<8>();
    run::<16>();
    run::<32>();
}
