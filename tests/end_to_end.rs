//! Cross-crate integration: formulae → parser → engine → formula graph →
//! queries, with every graph configuration agreeing with the reference.

use taco_repro::core::{Config, Dependency, FormulaGraph};
use taco_repro::engine::{RecalcMode, SheetId, Workbook};
use taco_repro::formula::Value;
use taco_repro::grid::{Cell, Range};
use taco_repro::workload::generator::{gen_sheet, SheetParams};
use taco_repro::workload::reference;

fn c(s: &str) -> Cell {
    Cell::parse_a1(s).unwrap()
}

fn r(s: &str) -> Range {
    Range::parse_a1(s).unwrap()
}

/// An empty workbook of one sheet, `SheetId(0)`.
fn one_sheet() -> (Workbook, SheetId) {
    let mut wb = Workbook::new();
    let s = wb.add_sheet("Sheet1").unwrap();
    (wb, s)
}

fn cells(v: &[Range]) -> std::collections::BTreeSet<Cell> {
    v.iter().flat_map(|x| x.cells()).collect()
}

/// Builds the Fig. 2 spreadsheet through the engine (formula strings all
/// the way) and verifies values, compression, and dependents.
#[test]
fn fig2_workbook_end_to_end() {
    let (mut wb, s) = one_sheet();
    let rows = 400u32;
    // Column A: sorted group ids. Column M: amounts.
    for row in 2..=rows {
        wb.set_value(s, Cell::new(1, row), Value::Number(f64::from(row / 50)));
        wb.set_value(s, Cell::new(13, row), Value::Number(1.0));
    }
    wb.set_formula(s, c("N2"), "=M2").unwrap();
    wb.set_formula(s, c("N3"), "=IF(A3=A2,N2+M3,M3)").unwrap();
    wb.autofill(s, c("N3"), Range::from_coords(14, 4, 14, rows)).unwrap();
    wb.recalculate(RecalcMode::Serial);

    // Running totals reset at group boundaries (row 50k).
    assert_eq!(wb.value(s, Cell::new(14, 49)), Value::Number(48.0));
    assert_eq!(wb.value(s, Cell::new(14, 50)), Value::Number(1.0));
    assert_eq!(wb.value(s, Cell::new(14, 99)), Value::Number(50.0));

    // The ~1600 dependencies compress to a handful of edges (Fig. 2
    // compresses to 6 compressed edges in the paper's illustration).
    let edges = wb.sheet(s).graph().num_edges();
    assert!(edges <= 8, "got {edges} edges");

    // Update one amount: every N at or below that row must be dirty.
    let receipt = wb.set_value(s, Cell::new(13, 100), Value::Number(5.0));
    let dirty: u64 = receipt.dirty.iter().map(|(_, range)| range.area()).sum();
    assert_eq!(dirty, u64::from(rows) - 100 + 1);
    wb.recalculate(RecalcMode::Serial);
    // Row 100 starts a new group (100/50 = 2), so N100 resets to M100.
    assert_eq!(wb.value(s, Cell::new(14, 100)), Value::Number(5.0));
    assert_eq!(wb.value(s, Cell::new(14, 101)), Value::Number(6.0));
}

/// TACO, NoComp and TACO-InRow must return the reference's dependent and
/// precedent cell sets on a messy generated sheet.
#[test]
fn all_backends_agree() {
    let params = SheetParams { target_deps: 1_500, max_run: 120, ..Default::default() };
    let sheet = gen_sheet("agree", 99, &params);
    let graphs = [Config::taco_full(), Config::nocomp(), Config::taco_in_row()]
        .map(|config| FormulaGraph::build(config, sheet.deps.iter().copied()));

    // The most-read cells, and formula cells spread over the sheet.
    let formulas = sheet.deps.iter().step_by(sheet.deps.len() / 6).map(|d| d.dep);
    for probe in sheet.hot_cells.iter().copied().take(6).chain(formulas) {
        let probe = Range::cell(probe);
        let dependents = reference::dependents(&sheet.deps, probe);
        let precedents = reference::precedents(&sheet.deps, probe);
        for g in &graphs {
            let config = g.config();
            assert_eq!(cells(&g.find_dependents(probe)), dependents, "{config:?} at {probe}");
            assert_eq!(cells(&g.find_precedents(probe)), precedents, "{config:?} at {probe}");
        }
    }
}

/// Maintenance equivalence: after clearing a column segment, TACO and
/// NoComp answer as the reference does over the surviving dependencies.
#[test]
fn clear_column_consistency() {
    let params = SheetParams { target_deps: 800, max_run: 80, ..Default::default() };
    let sheet = gen_sheet("clear", 7, &params);
    let clear = {
        // Clear a column segment through the densest area.
        let d = &sheet.deps[sheet.deps.len() / 2];
        Range::new(d.dep, Cell::new(d.dep.col, d.dep.row + 50))
    };

    let mut taco = FormulaGraph::taco();
    let mut nocomp = FormulaGraph::nocomp();
    for d in &sheet.deps {
        taco.add_dependency(d);
        nocomp.add_dependency(d);
    }
    taco.clear_cells(clear);
    nocomp.clear_cells(clear);
    let survivors: Vec<Dependency> =
        sheet.deps.iter().copied().filter(|d| !clear.contains_cell(d.dep)).collect();

    for &probe in sheet.hot_cells.iter().take(4) {
        let want = reference::dependents(&survivors, Range::cell(probe));
        assert_eq!(cells(&taco.find_dependents(Range::cell(probe))), want, "taco at {probe}");
        assert_eq!(cells(&nocomp.find_dependents(Range::cell(probe))), want, "nocomp at {probe}");
    }
}

/// A workbook exercising all pattern shapes computes what it should, and
/// its TACO graph holds the dependencies in under a tenth of the edges a
/// NoComp graph of the same dependencies needs, answering the same
/// dependents. (That no value depends on the graph is `taco_engine`'s
/// `taco_and_nocomp_engines_are_indistinguishable`.)
#[test]
fn engine_value_equivalence() {
    let (mut wb, s) = one_sheet();
    for row in 1..=60u32 {
        wb.set_value(s, Cell::new(1, row), Value::Number(f64::from(row)));
    }
    // Derived column.
    wb.set_formula(s, c("B1"), "=A1*2").unwrap();
    wb.autofill(s, c("B1"), r("B2:B60")).unwrap();
    // Cumulative.
    wb.set_formula(s, c("C1"), "=SUM($B$1:B1)").unwrap();
    wb.autofill(s, c("C1"), r("C2:C60")).unwrap();
    // Sliding window.
    wb.set_formula(s, c("D3"), "=AVERAGE(A1:A5)").unwrap();
    wb.autofill(s, c("D3"), r("D4:D56")).unwrap();
    // Chain.
    wb.set_formula(s, c("E1"), "=A1").unwrap();
    wb.set_formula(s, c("E2"), "=E1+1").unwrap();
    wb.autofill(s, c("E2"), r("E3:E60")).unwrap();
    // Fixed lookup.
    wb.set_formula(s, c("F1"), "=MAX($A$1:$A$60)").unwrap();
    wb.autofill(s, c("F1"), r("F2:F20")).unwrap();
    wb.recalculate(RecalcMode::Serial);
    for (cell, want) in
        [("B60", 120.0), ("C60", 3660.0), ("D56", 56.0), ("E60", 60.0), ("F20", 60.0)]
    {
        assert_eq!(wb.value(s, c(cell)), Value::Number(want), "{cell}");
    }

    let taco = wb.sheet(s).graph();
    let nocomp = FormulaGraph::build(Config::nocomp(), taco.decompress_all());
    for probe in ["A1", "A30", "B7", "E2"] {
        let probe = Range::cell(c(probe));
        let found: Vec<Range> = wb.find_dependents(s, probe).into_iter().map(|(_, r)| r).collect();
        assert_eq!(cells(&found), cells(&nocomp.find_dependents(probe)));
    }
    assert!(taco.num_edges() * 10 < nocomp.num_edges());
}

/// Compression bookkeeping survives heavy incremental churn.
#[test]
fn incremental_churn_stays_consistent() {
    let params = SheetParams { target_deps: 600, max_run: 60, ..Default::default() };
    let sheet = gen_sheet("churn", 3, &params);
    let mut taco = FormulaGraph::taco();
    let mut nocomp = FormulaGraph::nocomp();
    for d in &sheet.deps {
        taco.add_dependency(d);
        nocomp.add_dependency(d);
    }
    // Clear and re-add slices repeatedly.
    for i in 0..10u32 {
        let d = sheet.deps[(i as usize * 37) % sheet.deps.len()];
        let seg = Range::new(d.dep, Cell::new(d.dep.col, d.dep.row + 5));
        taco.clear_cells(seg);
        nocomp.clear_cells(seg);
        for dd in sheet.deps.iter().filter(|dd| seg.contains_cell(dd.dep)) {
            taco.add_dependency(dd);
            nocomp.add_dependency(dd);
        }
    }
    let mut got: Vec<(Range, Cell)> =
        taco.decompress_all().into_iter().map(|d| (d.prec, d.dep)).collect();
    let mut want: Vec<(Range, Cell)> =
        nocomp.decompress_all().into_iter().map(|d| (d.prec, d.dep)).collect();
    got.sort();
    got.dedup();
    want.sort();
    want.dedup();
    assert_eq!(got, want);
}
