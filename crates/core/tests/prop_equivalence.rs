//! The central correctness property of the paper: compression is lossless.
//! For ANY workload, the compressed graph must answer dependents/precedents
//! queries identically to the uncompressed graph, including after
//! incremental maintenance. Both are also held to `taco_workload::reference`,
//! a cell-by-cell closure over the dependency list that shares no code with
//! either.

use proptest::prelude::*;
use std::collections::BTreeSet;
use taco_core::{Config, Dependency, FormulaGraph};
use taco_grid::{Cell, Range};
use taco_workload::reference;

const W: u32 = 12; // sheet width used by generators
const H: u32 = 24; // sheet height

/// Generates structured dependency workloads: runs of autofill-like
/// formulae (the four patterns + chains) mixed with random noise edges.
fn arb_deps() -> impl Strategy<Value = Vec<Dependency>> {
    let run = (1u32..W, 1u32..H, 2u32..8, 0u8..6, 1u32..4, 1u32..4).prop_map(
        |(col, row0, len, kind, w, h)| {
            let mut out = Vec::new();
            for k in 0..len {
                let row = row0 + k;
                if row > H {
                    break;
                }
                let dep = Cell::new(col, row);
                // Keep precedents inside the sheet and left of the formula
                // column where possible.
                let pc = if col > 1 { col - 1 } else { col + 1 };
                let prec = match kind {
                    // RR sliding window
                    0 => Range::from_coords(pc, row, (pc + w - 1).min(W), (row + h - 1).min(H)),
                    // FF fixed window
                    1 => Range::from_coords(pc, 1, pc, h.min(H)),
                    // FR expanding (cumulative)
                    2 => Range::from_coords(pc, 1, pc, row),
                    // RF shrinking
                    3 => Range::from_coords(pc, row.min(H), pc, H),
                    // chain above (self column)
                    4 => {
                        if row == 1 {
                            Range::cell(Cell::new(pc, 1))
                        } else {
                            Range::cell(Cell::new(col, row - 1))
                        }
                    }
                    // in-row derived column
                    _ => Range::cell(Cell::new(pc, row)),
                };
                out.push(Dependency::new(prec, dep));
            }
            out
        },
    );
    let noise = (1u32..=W, 1u32..=H, 1u32..=W, 1u32..=H, 1u32..3, 1u32..3).prop_map(
        |(pc, pr, dc, dr, w, h)| {
            let prec = Range::from_coords(pc, pr, (pc + w - 1).min(W), (pr + h - 1).min(H));
            vec![Dependency::new(prec, Cell::new(dc, dr))]
        },
    );
    prop::collection::vec(prop_oneof![3 => run, 2 => own_line_run(), 1 => noise], 1..12)
        .prop_map(dedup)
}

/// Deduplicates identical (prec, dep) pairs: a real parser emits a set of
/// references per formula cell.
fn dedup(chunks: Vec<Vec<Dependency>>) -> Vec<Dependency> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for d in chunks.into_iter().flatten() {
        if seen.insert((d.prec, d.dep)) {
            out.push(d);
        }
    }
    out
}

/// A filled run whose windows lie along its own line (the formula's
/// column, or its row for a run along a row) at signed offsets `h ≤ t` in
/// −4..=4 along the run. Three shapes: acyclic above (`t < 0`), acyclic
/// below (`h > 0`) and self-including (`h ≤ 0 ≤ t`). Across the run the
/// windows span the lines `dl..=dr`, each in −1..=1: mostly the formula's
/// own line among them, sometimes only the line beside it. A cell whose
/// window would leave the sheet is left out, which cuts the run.
fn own_line_run() -> impl Strategy<Value = Vec<Dependency>> {
    let line = (1u32..=W, 1u32..=H, 2u32..12, any::<bool>(), 0i64..3, 0i64..3);
    // `(h, t)`; one-sided windows are at most three cells tall, so that
    // windows one cell tall — the ones that skip rows — come up often.
    let offsets = (0u8..3, 0i64..5, 0i64..5).prop_map(|(shape, a, b)| match shape {
        0 => {
            let t = -1 - a.min(3);
            ((t - b % 3).max(-4), t)
        }
        1 => {
            let h = 1 + a.min(3);
            (h, (h + b % 3).min(4))
        }
        _ => (-a, b),
    });
    (line, offsets).prop_map(|((col, row, len, along_row, p, q), (h, t))| {
        let (dl, dr) = (p.min(q) - 1, p.max(q) - 1);
        let mut out = Vec::new();
        for k in 0..len {
            // Canonical (across, along) coordinates, transposed for a row run.
            let (across, along) = if along_row { (row, col + k) } else { (col, row + k) };
            let (lo, hi) = (i64::from(along) + h, i64::from(along) + t);
            let (a0, a1) = (i64::from(across) + dl, i64::from(across) + dr);
            if lo < 1 || a0 < 1 {
                continue;
            }
            let (a0, a1, b0, b1) = (a0 as u32, a1 as u32, lo as u32, hi as u32);
            let (prec, dep) = if along_row {
                (Range::from_coords(b0, a0, b1, a1), Cell::new(along, across))
            } else {
                (Range::from_coords(a0, b0, a1, b1), Cell::new(across, along))
            };
            out.push(Dependency::new(prec, dep));
        }
        out
    })
}

/// Own-line runs alone (and a little noise), so most edges are the ones
/// the query closes in one step.
fn arb_own_line_deps() -> impl Strategy<Value = Vec<Dependency>> {
    let noise = (1u32..=W, 1u32..=H, 1u32..=W, 1u32..=H).prop_map(|(pc, pr, dc, dr)| {
        vec![Dependency::new(Range::cell(Cell::new(pc, pr)), Cell::new(dc, dr))]
    });
    prop::collection::vec(prop_oneof![4 => own_line_run(), 1 => noise], 1..6).prop_map(dedup)
}

/// The inserted multiset of dependencies, sorted.
fn multiset(deps: impl IntoIterator<Item = Dependency>) -> Vec<(Range, Cell)> {
    let mut v: Vec<(Range, Cell)> = deps.into_iter().map(|d| (d.prec, d.dep)).collect();
    v.sort();
    v
}

fn cells_of(ranges: &[Range]) -> BTreeSet<Cell> {
    ranges.iter().flat_map(|r| r.cells()).collect()
}

fn arb_probe() -> impl Strategy<Value = Range> {
    (1u32..=W, 1u32..=H, 0u32..3, 0u32..4)
        .prop_map(|(c, r, w, h)| Range::from_coords(c, r, (c + w).min(W), (r + h).min(H)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn taco_equals_nocomp_on_queries(deps in arb_deps(), probes in prop::collection::vec(arb_probe(), 1..6)) {
        let taco = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        let nocomp = FormulaGraph::build(Config::nocomp(), deps.iter().copied());
        for probe in probes {
            let dependents = reference::dependents(&deps, probe);
            let precedents = reference::precedents(&deps, probe);
            for (name, g) in [("taco", &taco), ("nocomp", &nocomp)] {
                prop_assert_eq!(
                    &cells_of(&g.find_dependents(probe)), &dependents,
                    "{} dependents({}) disagree", name, probe
                );
                prop_assert_eq!(
                    &cells_of(&g.find_precedents(probe)), &precedents,
                    "{} precedents({}) disagree", name, probe
                );
            }
        }
    }

    #[test]
    fn query_results_are_disjoint_ranges(deps in arb_deps(), probe in arb_probe()) {
        let taco = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        let found = taco.find_dependents(probe);
        for (i, a) in found.iter().enumerate() {
            for b in found.iter().skip(i + 1) {
                prop_assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn decompression_round_trips(deps in arb_deps()) {
        let taco = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        prop_assert_eq!(multiset(taco.decompress_all()), multiset(deps));
    }

    #[test]
    fn clearing_matches_nocomp(
        deps in arb_deps(),
        clear in arb_probe(),
        probe in arb_probe(),
    ) {
        let mut taco = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        let mut nocomp = FormulaGraph::build(Config::nocomp(), deps.iter().copied());
        taco.clear_cells(clear);
        nocomp.clear_cells(clear);
        let survivors: Vec<Dependency> =
            deps.iter().copied().filter(|d| !clear.contains_cell(d.dep)).collect();
        let dependents = reference::dependents(&survivors, probe);
        let precedents = reference::precedents(&survivors, probe);
        for (name, g) in [("taco", &taco), ("nocomp", &nocomp)] {
            prop_assert_eq!(&cells_of(&g.find_dependents(probe)), &dependents, "{} dependents", name);
            prop_assert_eq!(&cells_of(&g.find_precedents(probe)), &precedents, "{} precedents", name);
        }
        // Decompression after clearing must contain no dependent inside the
        // cleared region.
        for d in taco.decompress_all() {
            prop_assert!(!clear.contains_cell(d.dep), "{} survived clear {}", d.dep, clear);
        }
    }

    #[test]
    fn insert_order_does_not_change_answers(deps in arb_deps(), probe in arb_probe()) {
        let forward = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        let backward = FormulaGraph::build(Config::taco_full(), deps.iter().rev().copied());
        prop_assert_eq!(
            cells_of(&forward.find_dependents(probe)),
            cells_of(&backward.find_dependents(probe))
        );
    }

    #[test]
    fn snapshot_round_trip_preserves_answers(deps in arb_deps(), probe in arb_probe()) {
        let g = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        // The edges put back in place as they are, as an open does.
        let mut restored = FormulaGraph::taco();
        restored.load_edges(g.edges().cloned());
        prop_assert_eq!(restored.num_edges(), g.num_edges());
        prop_assert_eq!(
            cells_of(&restored.find_dependents(probe)),
            cells_of(&g.find_dependents(probe))
        );
        prop_assert_eq!(
            cells_of(&restored.find_precedents(probe)),
            cells_of(&g.find_precedents(probe))
        );
    }

    #[test]
    fn compression_never_inflates_edge_count(deps in arb_deps()) {
        let taco = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        let nocomp = FormulaGraph::build(Config::nocomp(), deps.iter().copied());
        prop_assert!(taco.num_edges() <= nocomp.num_edges());
        prop_assert_eq!(nocomp.num_edges() as u64, nocomp.dependencies_inserted());
        // Stats bookkeeping agrees with the arena.
        let s = taco.stats();
        prop_assert_eq!(s.edges as u64 + s.reduced.total(), s.dependencies);
    }
}

proptest! {
    // The closed windows get cases of their own: a window one row tall
    // that skips rows is one run shape in a few dozen.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn windows_over_their_own_line_match_the_reference(
        deps in arb_own_line_deps(),
        clear in arb_probe(),
        probes in prop::collection::vec(arb_probe(), 1..6),
    ) {
        // As built, then after a clear has split the runs it crosses.
        let mut g = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        let mut live = deps;
        for stage in ["built", "split"] {
            prop_assert_eq!(
                multiset(g.decompress_all()), multiset(live.iter().copied()),
                "{} decompression", stage
            );
            for &probe in &probes {
                prop_assert_eq!(
                    cells_of(&g.find_dependents(probe)), reference::dependents(&live, probe),
                    "{} dependents({})", stage, probe
                );
                prop_assert_eq!(
                    cells_of(&g.find_precedents(probe)), reference::precedents(&live, probe),
                    "{} precedents({})", stage, probe
                );
            }
            g.clear_cells(clear);
            live.retain(|d| !clear.contains_cell(d.dep));
        }
    }
}
