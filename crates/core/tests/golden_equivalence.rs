//! Deterministic golden tests for CEM/pattern equivalence: tiny hand-built
//! sheets whose compressed-graph `find_dependents` / `find_precedents`
//! answers are asserted both against exact expected cell sets and against
//! the cell-by-cell oracle `taco_workload::reference`. Complements
//! `prop_equivalence.rs` (randomized) with cases whose compression shape is
//! pinned down exactly.

use std::collections::BTreeSet;
use taco_core::{Config, Dependency, FormulaGraph, PatternType};
use taco_grid::{Cell, Range};
use taco_workload::reference;

fn d(prec: &str, dep: &str) -> Dependency {
    Dependency::new(Range::parse_a1(prec).unwrap(), Cell::parse_a1(dep).unwrap())
}

fn cells_of(ranges: &[Range]) -> BTreeSet<Cell> {
    ranges.iter().flat_map(|r| r.cells()).collect()
}

fn cell_set(names: &[&str]) -> BTreeSet<Cell> {
    names.iter().map(|s| Cell::parse_a1(s).unwrap()).collect()
}

/// Asserts that every compressed configuration answers every probe in
/// `probe_area` exactly like the reference.
fn assert_equivalent(deps: &[Dependency], probe_area: Range) {
    for config in [Config::taco_full(), Config::taco_in_row()] {
        let g = FormulaGraph::build(config.clone(), deps.iter().copied());
        for probe_cell in probe_area.cells() {
            let probe = Range::cell(probe_cell);
            assert_eq!(
                cells_of(&g.find_dependents(probe)),
                reference::dependents(deps, probe),
                "dependents({probe_cell}) differ under {config:?}"
            );
            assert_eq!(
                cells_of(&g.find_precedents(probe)),
                reference::precedents(deps, probe),
                "precedents({probe_cell}) differ under {config:?}"
            );
        }
        // One multi-cell probe across the middle of the area.
        let band = Range::new(
            probe_area.head(),
            Cell::new(probe_area.tail().col, probe_area.head().row + 1),
        );
        assert_eq!(
            cells_of(&g.find_dependents(band)),
            reference::dependents(deps, band),
            "dependents({band}) differ under {config:?}"
        );
    }
}

/// `=SUM(A1:B3)` dragged down four rows: one RR edge, golden answers.
#[test]
fn rr_sliding_window_golden() {
    let deps = [d("A1:B3", "C1"), d("A2:B4", "C2"), d("A3:B5", "C3"), d("A4:B6", "C4")];
    let g = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
    assert_eq!(g.num_edges(), 1, "four RR deps must compress to one edge");
    assert_eq!(g.edges().next().unwrap().pattern(), PatternType::RR);

    // A2 is inside windows 1 and 2 only.
    assert_eq!(
        cells_of(&g.find_dependents(Range::parse_a1("A2").unwrap())),
        cell_set(&["C1", "C2"])
    );
    // B6 only the last window.
    assert_eq!(cells_of(&g.find_dependents(Range::parse_a1("B6").unwrap())), cell_set(&["C4"]));
    // C3's precedents are exactly its window.
    assert_eq!(
        cells_of(&g.find_precedents(Range::parse_a1("C3").unwrap())),
        cells_of(&[Range::parse_a1("A3:B5").unwrap()])
    );
    assert_equivalent(&deps, Range::parse_a1("A1:C6").unwrap());
}

/// `=SUM($C$1:C1)` dragged down: FR expanding windows, golden answers.
#[test]
fn fr_cumulative_golden() {
    let deps = [d("C1", "D1"), d("C1:C2", "D2"), d("C1:C3", "D3"), d("C1:C4", "D4")];
    let g = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
    assert_eq!(g.num_edges(), 1, "cumulative run must compress to one FR edge");
    assert_eq!(g.edges().next().unwrap().pattern(), PatternType::FR);

    // C3 is referenced by every total from D3 down.
    assert_eq!(
        cells_of(&g.find_dependents(Range::parse_a1("C3").unwrap())),
        cell_set(&["D3", "D4"])
    );
    // C1 is referenced by all four.
    assert_eq!(
        cells_of(&g.find_dependents(Range::parse_a1("C1").unwrap())),
        cell_set(&["D1", "D2", "D3", "D4"])
    );
    assert_eq!(
        cells_of(&g.find_precedents(Range::parse_a1("D2").unwrap())),
        cell_set(&["C1", "C2"])
    );
    assert_equivalent(&deps, Range::parse_a1("C1:D4").unwrap());
}

/// The mirrored shrinking windows: RF.
#[test]
fn rf_shrinking_golden() {
    let deps = [d("E1:E4", "F1"), d("E2:E4", "F2"), d("E3:E4", "F3"), d("E4", "F4")];
    let g = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
    assert_eq!(g.num_edges(), 1, "shrinking run must compress to one RF edge");
    assert_eq!(g.edges().next().unwrap().pattern(), PatternType::RF);

    assert_eq!(
        cells_of(&g.find_dependents(Range::parse_a1("E4").unwrap())),
        cell_set(&["F1", "F2", "F3", "F4"])
    );
    assert_eq!(cells_of(&g.find_dependents(Range::parse_a1("E1").unwrap())), cell_set(&["F1"]));
    assert_equivalent(&deps, Range::parse_a1("E1:F4").unwrap());
}

/// `=VLOOKUP(.., $F$1:$G$3, ..)` dragged down: FF, one shared table.
#[test]
fn ff_fixed_table_golden() {
    let deps =
        [d("F1:G3", "H1"), d("F1:G3", "H2"), d("F1:G3", "H3"), d("F1:G3", "H4"), d("F1:G3", "H5")];
    let g = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
    assert_eq!(g.num_edges(), 1, "shared-table run must compress to one FF edge");
    assert_eq!(g.edges().next().unwrap().pattern(), PatternType::FF);

    // Any table cell fans out to every lookup row.
    assert_eq!(
        cells_of(&g.find_dependents(Range::parse_a1("G2").unwrap())),
        cell_set(&["H1", "H2", "H3", "H4", "H5"])
    );
    // A cell outside the table has no dependents.
    assert!(g.find_dependents(Range::parse_a1("G4").unwrap()).is_empty());
    assert_eq!(
        cells_of(&g.find_precedents(Range::parse_a1("H3").unwrap())),
        cells_of(&[Range::parse_a1("F1:G3").unwrap()])
    );
    assert_equivalent(&deps, Range::parse_a1("F1:H5").unwrap());
}

/// `=A1+1` filled down (each formula references the cell above): RR-Chain,
/// and the BFS must walk the whole chain transitively.
#[test]
fn rr_chain_golden() {
    let deps = [d("A1", "A2"), d("A2", "A3"), d("A3", "A4"), d("A4", "A5")];
    let g = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
    assert_eq!(g.num_edges(), 1, "chain must compress to one RR-Chain edge");
    assert_eq!(g.edges().next().unwrap().pattern(), PatternType::RRChain);

    // Editing the chain head dirties the whole chain (transitive closure).
    assert_eq!(
        cells_of(&g.find_dependents(Range::parse_a1("A1").unwrap())),
        cell_set(&["A2", "A3", "A4", "A5"])
    );
    // Mid-chain: only the suffix.
    assert_eq!(
        cells_of(&g.find_dependents(Range::parse_a1("A3").unwrap())),
        cell_set(&["A4", "A5"])
    );
    assert_eq!(cells_of(&g.find_precedents(Range::parse_a1("A2").unwrap())), cell_set(&["A1"]));
    assert_equivalent(&deps, Range::parse_a1("A1:A5").unwrap());
}

/// §V's exploratory shape, formulae on every other row: no pattern
/// spans the gaps, so the run stays four singles, and it answers like the
/// reference under every configuration.
#[test]
fn rr_gap_one_golden() {
    let deps = [d("A1", "B1"), d("A3", "B3"), d("A5", "B5"), d("A7", "B7")];
    let g = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
    assert_eq!(g.num_edges(), 4, "a gapped run stays single edges");
    assert!(g.edges().all(|e| e.pattern() == PatternType::Single));

    // The skipped rows inside the run's span have no dependents.
    assert!(g.find_dependents(Range::parse_a1("A2").unwrap()).is_empty());
    assert!(g.find_precedents(Range::parse_a1("B4").unwrap()).is_empty());
    assert_eq!(cells_of(&g.find_dependents(Range::parse_a1("A5").unwrap())), cell_set(&["B5"]));
    assert_equivalent(&deps, Range::parse_a1("A1:B8").unwrap());
}

/// The Fig. 2 sheet from the paper (per-group running totals): several
/// patterns interleaved on one sheet, queried at the interesting joints.
#[test]
fn fig2_mixed_sheet_golden() {
    // M: =IF(A3=A2, N2+M3, M3)-style mix, simplified to its references:
    // each N-row total references the previous N and the current M.
    let deps = [
        // Derived column: M ← L, row by row (RR, in-row).
        d("L2", "M2"),
        d("L3", "M3"),
        d("L4", "M4"),
        d("L5", "M5"),
        // Running totals: N ← {N above, M left} (two interleaved runs).
        d("N2", "N3"),
        d("N3", "N4"),
        d("N4", "N5"),
        d("M3", "N3"),
        d("M4", "N4"),
        d("M5", "N5"),
    ];
    let g = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
    let s = g.stats();
    assert!(
        s.edges < deps.len(),
        "mixed sheet must compress below {} raw edges, got {}",
        deps.len(),
        s.edges
    );

    // Editing L3 reaches M3, then every later running total.
    assert_eq!(
        cells_of(&g.find_dependents(Range::parse_a1("L3").unwrap())),
        cell_set(&["M3", "N3", "N4", "N5"])
    );
    // N5's direct+transitive precedents reach back through both columns.
    assert_eq!(
        cells_of(&g.find_precedents(Range::parse_a1("N5").unwrap())),
        cell_set(&["N4", "M5", "L5", "N3", "M4", "L4", "N2", "M3", "L3"])
    );
    assert_equivalent(&deps, Range::parse_a1("L1:N6").unwrap());
}

/// Equivalence must survive incremental maintenance: clearing formulae
/// splits compressed edges without losing the rest of the run.
#[test]
fn equivalence_survives_clear_cells() {
    let deps =
        [d("A1:B3", "C1"), d("A2:B4", "C2"), d("A3:B5", "C3"), d("A4:B6", "C4"), d("A5:B7", "C5")];
    let mut g = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
    g.clear_cells(Range::parse_a1("C3").unwrap());

    // The reference answers over the surviving dependencies.
    let survivors: Vec<Dependency> =
        deps.iter().copied().filter(|d| d.dep != Cell::parse_a1("C3").unwrap()).collect();
    for probe_cell in Range::parse_a1("A1:C7").unwrap().cells() {
        let probe = Range::cell(probe_cell);
        assert_eq!(
            cells_of(&g.find_dependents(probe)),
            reference::dependents(&survivors, probe),
            "dependents({probe_cell}) differ after clear"
        );
        assert_eq!(
            cells_of(&g.find_precedents(probe)),
            reference::precedents(&survivors, probe),
            "precedents({probe_cell}) differ after clear"
        );
    }
}
