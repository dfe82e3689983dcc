//! The edges of a pass that orders and evaluates dirty intervals: a run
//! that changes inside one interval, an interval across a page boundary,
//! a demand viewport that clips a stretch before a full pass, a bottom-up
//! node across blank rows, a cycle inside a stretch, and a component
//! split into cells that cuts a stretch of single cells. In each, after
//! the passes nothing is dirty, and every value is bit for bit what a
//! workbook rebuilt from the cell texts computes.

mod common;

use common::{full_state, rebuild_from_texts};
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::Value;
use taco_grid::{Cell, Range};

const S: SheetId = SheetId(0);

fn n(v: f64) -> Value {
    Value::Number(v)
}

fn cell(col: u32, row: u32) -> Cell {
    Cell::new(col, row)
}

/// A value with its number's bits spelt out.
fn bits(v: &Value) -> String {
    match v {
        Value::Number(x) => format!("{:#x}", x.to_bits()),
        other => format!("{other:?}"),
    }
}

/// Nothing is left dirty and every value is what a rebuild computes.
fn assert_as_rebuilt(wb: &Workbook, case: &str) {
    assert_eq!(wb.dirty_count(), 0, "{case}: left dirty");
    let mut fresh = rebuild_from_texts(wb);
    fresh.recalculate(RecalcMode::Serial);
    let state = |wb: &Workbook| {
        let rows = full_state(wb).into_iter();
        rows.map(|(s, c, text, v)| (s, c, text, bits(&v))).collect::<Vec<_>>()
    };
    assert_eq!(state(wb), state(&fresh), "{case}");
}

/// A sheet with column A holding `1..=rows` and `$C$1` a value every
/// formula below reads, so writing it dirties them all.
fn sheet(rows: u32) -> Workbook {
    let mut wb = Workbook::with_taco();
    wb.add_sheet("S").unwrap();
    for row in 1..=rows {
        wb.set_value(S, cell(1, row), n(f64::from(row) / 4.0));
    }
    wb.set_value(S, cell(3, 1), n(1.0));
    wb
}

/// Fills column `col` rows `lo..=hi` with the formula `src` at `lo`.
fn fill(wb: &mut Workbook, col: u32, lo: u32, hi: u32, src: &str) {
    wb.set_formula(S, cell(col, lo), src).unwrap();
    wb.autofill(S, cell(col, lo), Range::from_coords(col, lo, col, hi)).unwrap();
}

#[test]
fn a_run_changes_inside_one_dirty_interval() {
    let mut wb = sheet(1000);
    fill(&mut wb, 2, 1, 1000, "=A1*2+$C$1");
    // A total down column D over B: ordered after it, folded carried.
    fill(&mut wb, 4, 1, 1000, "=SUM($B$1:B1)");
    wb.recalculate(RecalcMode::Serial);
    // B500 another run; B501 on still holds the first: one run, another,
    // the first again, all in the one interval the next write dirties.
    wb.set_formula(S, cell(2, 500), "=A500-$C$1").unwrap();
    wb.set_value(S, cell(3, 1), n(-7.5));
    assert_eq!(wb.dirty_count(), 2000);
    assert_eq!(wb.recalculate(RecalcMode::Serial), 2000);
    assert_eq!(wb.value(S, cell(2, 500)), n(125.0 + 7.5));
    assert_as_rebuilt(&wb, "a run change inside an interval");
}

#[test]
fn an_interval_crosses_a_page_boundary() {
    let mut wb = sheet(600);
    // Rows 200..=300 span the page edge between rows 256 and 257; the
    // run changes right at it, and again one row on.
    fill(&mut wb, 2, 200, 300, "=A200+$C$1");
    wb.set_formula(S, cell(2, 257), "=A257*$C$1").unwrap();
    wb.set_formula(S, cell(2, 258), "=A258*$C$1").unwrap();
    // And a run of its own from one page's last row to the next's first.
    fill(&mut wb, 5, 256, 257, "=$C$1+E255");
    wb.recalculate(RecalcMode::Serial);
    wb.set_value(S, cell(3, 1), n(3.0));
    assert_eq!(wb.recalculate(RecalcMode::Serial), 103);
    assert_eq!(wb.value(S, cell(2, 257)), n(257.0 / 4.0 * 3.0));
    assert_eq!(wb.value(S, cell(5, 257)), n(6.0));
    assert_as_rebuilt(&wb, "an interval across a page boundary");
}

#[test]
fn a_viewport_clips_a_stretch_before_a_full_pass() {
    let mut wb = sheet(600);
    let other = wb.add_sheet("T").unwrap();
    fill(&mut wb, 2, 1, 600, "=A1+$C$1");
    fill(&mut wb, 4, 1, 600, "=SUM($B$1:B1)");
    // A column reading both ways — ordered cell by cell, one cycle — and
    // one of another sheet reading column B row by row: its viewport's
    // rows hop over.
    fill(&mut wb, 5, 2, 40, "=E1+E3+$C$1");
    wb.set_formula(other, cell(1, 1), "=S!B1*2").unwrap();
    wb.autofill(other, cell(1, 1), Range::from_coords(1, 1, 1, 600)).unwrap();
    wb.recalculate(RecalcMode::Serial);
    wb.set_value(S, cell(3, 1), n(0.5));
    let dirty = wb.dirty_count();
    // Clips B and D to rows 100..=150; then sends for B's rows 300..=310
    // from the other sheet; then asks for rows 10..=20 of the cycle.
    let needed = wb.recalc_demand(S, Range::from_coords(2, 100, 5, 150)).unwrap();
    assert!(needed > 0 && needed < dirty, "{needed} of {dirty}");
    assert_eq!(wb.value(S, cell(4, 150)), {
        let b = |row: u32| f64::from(row) / 4.0 + 0.5;
        n((1..=150).map(b).sum())
    });
    let hopped = wb.recalc_demand(other, Range::from_coords(1, 300, 1, 310)).unwrap();
    assert_eq!(hopped, 22, "the other sheet's eleven rows and column B's");
    assert_eq!(wb.recalc_demand(S, Range::from_coords(5, 10, 5, 20)).unwrap(), 39);
    let cycle = Value::Error(taco_formula::CellError::Cycle);
    assert_eq!(wb.value(S, cell(5, 15)), cycle);
    assert_eq!(wb.recalculate(RecalcMode::Serial), dirty - needed - hopped - 39);
    assert_as_rebuilt(&wb, "a clipped stretch, then a full pass");
}

#[test]
fn a_bottom_up_node_spans_blank_rows() {
    let mut wb = sheet(400);
    // Typed in pairs, two blank rows between, each cell reading the one
    // four rows down: one run across the blank rows, evaluated bottom-up.
    for row in (1..=400).filter(|row| row % 4 < 2) {
        wb.set_formula(S, cell(2, row), &format!("=B{}+A{row}+$C$1", row + 4)).unwrap();
    }
    assert_eq!(wb.sheet(S).formula_templates(), 1);
    wb.recalculate(RecalcMode::Serial);
    wb.set_value(S, cell(3, 1), n(2.0));
    assert_eq!(wb.recalculate(RecalcMode::Serial), 200);
    assert_eq!(wb.last_pass().iter().map(|p| p.nodes).sum::<u32>(), 1);
    // B1 adds A1, A5, A9, … A397 and 2 for each.
    let want: f64 = (0..100).map(|k| f64::from(4 * k + 1) / 4.0 + 2.0).sum();
    assert_eq!(wb.value(S, cell(2, 1)), n(want));
    assert_as_rebuilt(&wb, "a bottom-up node across blank rows");
}

#[test]
fn a_cycle_sits_inside_a_stretch() {
    let mut wb = sheet(100);
    // B1:B30 one run, each reading the row below; B31 reads B10 back:
    // B10..=B31 a cycle, B1..=B9 reading into it.
    fill(&mut wb, 2, 1, 30, "=B2+$C$1");
    wb.set_formula(S, cell(2, 31), "=B10").unwrap();
    // C1:C20 read both ways and each reads D a row up; D1:D20 one run
    // reading C row by row: one component of a run and single cells,
    // split into cells and searched again.
    fill(&mut wb, 3, 2, 20, "=C1+C3+D1");
    fill(&mut wb, 4, 1, 20, "=C1*2");
    wb.recalculate(RecalcMode::Serial);
    wb.set_value(S, cell(3, 1), n(4.0));
    wb.recalculate(RecalcMode::Serial);
    let cycle = Value::Error(taco_formula::CellError::Cycle);
    assert_eq!(wb.value(S, cell(2, 31)), cycle);
    assert_eq!(wb.value(S, cell(3, 10)), cycle);
    assert_as_rebuilt(&wb, "a cycle inside a stretch");
}

#[test]
fn a_component_split_into_cells_cuts_a_stretch_of_single_cells() {
    let mut wb = sheet(20);
    // C1:C10 one run reading D a row up: at C1 that leaves the grid, so
    // the run is ordered cell by cell. D1:D4 values, D5:D10 one run
    // reading C row by row. D's node and C6..=C10 read each other — one
    // component, split into cells — while C1..=C5 stay out of it.
    for row in 1..=4 {
        wb.set_value(S, cell(4, row), n(f64::from(row) * 10.0));
    }
    wb.set_formula(S, cell(3, 2), "=D1+$C$11").unwrap();
    wb.autofill(S, cell(3, 2), Range::from_coords(3, 1, 3, 10)).unwrap();
    fill(&mut wb, 4, 5, 10, "=C5+1");
    wb.set_value(S, cell(3, 11), n(0.0));
    wb.recalculate(RecalcMode::Serial);
    wb.set_value(S, cell(3, 11), n(0.25));
    assert_eq!(wb.recalculate(RecalcMode::Serial), 16);
    assert!(matches!(wb.value(S, cell(3, 1)), Value::Error(_)));
    // C5 = D4 + ¼, then each D adds 1 and each C a quarter.
    assert_eq!(wb.value(S, cell(3, 10)), n(40.0 + 6.0 * 0.25 + 5.0));
    assert_as_rebuilt(&wb, "a split component cutting a stretch");
}
