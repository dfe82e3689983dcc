//! Property test for structural edits: applying insert/delete rows/cols to
//! the compressed graph must equal transforming every raw dependency and
//! rebuilding from scratch — for any workload and any edit sequence. An
//! edit of one band of a graph holding several is that grid's edit alone.

use proptest::prelude::*;
use std::collections::BTreeSet;
use taco_core::{Band, Config, Dependency, FormulaGraph, StructuralOp};
use taco_grid::{Cell, Range};

const W: u32 = 10;
const H: u32 = 30;

fn arb_deps() -> impl Strategy<Value = Vec<Dependency>> {
    let run = (1u32..W, 1u32..H - 8, 2u32..8, 0u8..4).prop_map(|(col, row0, len, kind)| {
        let mut out = Vec::new();
        for k in 0..len.min(H - row0) {
            let row = row0 + k;
            let pc = if col > 1 { col - 1 } else { col + 1 };
            let prec = match kind {
                0 => Range::from_coords(pc, row, pc, (row + 2).min(H)),
                1 => Range::from_coords(pc, 1, pc, 3),
                2 => Range::from_coords(pc, row0, pc, row),
                _ => {
                    if row == 1 {
                        Range::cell(Cell::new(pc, 1))
                    } else {
                        Range::cell(Cell::new(col, row - 1))
                    }
                }
            };
            out.push(Dependency::new(prec, Cell::new(col, row)));
        }
        out
    });
    prop::collection::vec(run, 1..6).prop_map(|chunks| {
        let mut seen = BTreeSet::new();
        chunks.into_iter().flatten().filter(|d| seen.insert((d.prec, d.dep))).collect()
    })
}

fn arb_op() -> impl Strategy<Value = StructuralOp> {
    prop_oneof![
        (1u32..H, 1u32..4).prop_map(|(at, n)| StructuralOp::InsertRows { at, n }),
        (1u32..H, 1u32..4).prop_map(|(at, n)| StructuralOp::DeleteRows { at, n }),
        (1u32..W, 1u32..3).prop_map(|(at, n)| StructuralOp::InsertCols { at, n }),
        (1u32..W, 1u32..3).prop_map(|(at, n)| StructuralOp::DeleteCols { at, n }),
    ]
}

fn snapshot(g: &FormulaGraph) -> BTreeSet<(Range, Cell)> {
    g.decompress_all().into_iter().map(|d| (d.prec, d.dep)).collect()
}

/// The edges of `band`, in its coordinates, in one order whatever their
/// slots.
fn band_edges(g: &FormulaGraph, band: Band) -> Vec<String> {
    let mut edges: Vec<String> = g.band_edges(band).map(|e| format!("{e:?}")).collect();
    edges.sort();
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn structural_edit_equals_reference_rebuild(deps in arb_deps(), ops in prop::collection::vec(arb_op(), 1..4)) {
        let mut g = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        // The reference set of raw dependencies, transformed op by op.
        let mut want: BTreeSet<(Range, Cell)> = deps.iter().map(|d| (d.prec, d.dep)).collect();
        for op in &ops {
            g.apply_structural(*op);
            want = want
                .into_iter()
                .filter_map(|(prec, dep)| {
                    let t = op.map_dependency(&Dependency::new(prec, dep))?;
                    Some((t.prec, t.dep))
                })
                .collect();
            prop_assert_eq!(&snapshot(&g), &want, "after {:?}", op);
        }
        // Graph invariants survive.
        let s = g.stats();
        prop_assert_eq!(s.edges as u64 + s.reduced.total(), s.dependencies);
    }

    #[test]
    fn queries_agree_with_nocomp_after_edits(
        deps in arb_deps(),
        op in arb_op(),
        probe_col in 1u32..=W,
        probe_row in 1u32..=H,
    ) {
        let mut taco = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        let mut nocomp = FormulaGraph::build(Config::nocomp(), deps.iter().copied());
        taco.apply_structural(op);
        nocomp.apply_structural(op);
        let probe = Range::cell(Cell::new(probe_col, probe_row));
        let cells = |v: Vec<Range>| -> BTreeSet<Cell> {
            v.iter().flat_map(|r| r.cells()).collect()
        };
        prop_assert_eq!(
            cells(taco.find_dependents(probe)),
            cells(nocomp.find_dependents(probe))
        );
        prop_assert_eq!(
            cells(taco.find_precedents(probe)),
            cells(nocomp.find_precedents(probe))
        );
    }

    /// Three grids side by side — band 1 holding the workload, band 0 a
    /// copy of it, band 2 the formulas of a third copy reading band 1 —
    /// and band 0's precedents read by band 1's cells too. An edit of band
    /// 1 leaves every edge with no end there as it was, slot and all;
    /// compresses band 1's own edges exactly as a graph of that grid alone
    /// does; and moves the ends of the edges between bands that lie in
    /// band 1, keeping the others.
    #[test]
    fn an_edit_of_one_band_is_its_grid_edited_alone(
        deps in arb_deps(),
        ops in prop::collection::vec(arb_op(), 1..4),
    ) {
        let at = |prec: Band, dep: Band, d: &Dependency| Dependency {
            prec: prec.range(d.prec),
            dep: dep.cell(d.dep),
            cue: d.cue,
        };
        let mut alone = FormulaGraph::taco();
        let mut g = FormulaGraph::taco();
        for d in &deps {
            alone.add_dependency(d);
            for (prec, dep) in [(0, 0), (1, 1), (1, 2), (0, 1)] {
                g.add_dependency(&at(Band(prec), Band(dep), d));
            }
        }
        let untouched = |g: &FormulaGraph| -> Vec<_> {
            let bands = [Band(0), Band(2)];
            let far = |e: &&taco_core::Edge| {
                bands.iter().any(|b| b.local(e.prec).is_some())
                    && bands.iter().any(|b| b.local(e.dep).is_some())
            };
            g.edges().filter(far).cloned().collect()
        };
        let before = untouched(&g);
        let mut want = snapshot(&g);
        for op in &ops {
            alone.apply_structural(*op);
            g.apply_structural_in(Band(1), *op);
            let band1 = |r: Range| match Band(1).local(r) {
                Some(local) => op.map_range(local).map(|m| Band(1).range(m)),
                None => Some(r),
            };
            want = want
                .into_iter()
                .filter_map(|(prec, dep)| {
                    let dep = band1(Range::cell(dep))?.head();
                    Some((band1(prec)?, dep))
                })
                .collect();
            prop_assert_eq!(&snapshot(&g), &want, "after {:?}", op);
            prop_assert_eq!(&untouched(&g), &before, "after {:?}", op);
            prop_assert_eq!(band_edges(&g, Band(1)), band_edges(&alone, Band(0)), "after {:?}", op);
        }
        let s = g.stats();
        prop_assert_eq!(s.edges as u64 + s.reduced.total(), s.dependencies);
        for band in [Band(0), Band(1), Band(2)] {
            prop_assert_eq!(g.band_len(band), g.band_edges(band).count());
        }
        let crossing = g.edges().filter(|e| e.crosses_bands()).count();
        let held: usize = (0..3).map(|b| g.band_len(Band(b))).sum();
        prop_assert_eq!(g.num_edges(), held + crossing);
    }
}
