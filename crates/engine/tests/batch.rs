//! Property tests for [`Workbook::apply_batch`]: batched application is
//! observationally identical to serial application — same per-sheet cell
//! values (before and after recalculation), same dirty cells, same graph
//! stats, same cross-edge count — across the persistence workload
//! presets, random script prefixes and one script per hazard of marking
//! a batch's dependents once, after its last record. Also pins the
//! failure contract: a bad record mid-batch applies and routes the
//! prefix, then reports the index.

use proptest::prelude::*;
use taco_core::StructuralOp;
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_store::EditRecord;
use taco_workload::{gen_persist_workload, persist_enron_like, persist_github_like, PersistParams};

/// Asserts the two workbooks are observationally identical.
fn assert_same(a: &Workbook, b: &Workbook, what: &str) {
    assert_eq!(a.sheet_count(), b.sheet_count(), "{what}: sheet count");
    assert_eq!(a.dirty_count(), b.dirty_count(), "{what}: dirty count");
    assert_eq!(a.cross_edge_count(), b.cross_edge_count(), "{what}: cross edges");
    for i in 0..a.sheet_count() {
        let id = SheetId(i);
        assert_eq!(
            a.sheet(id).graph().stats(),
            b.sheet(id).graph().stats(),
            "{what}: sheet {i} graph stats"
        );
        assert_eq!(
            a.sheet(id).dirty_count(),
            b.sheet(id).dirty_count(),
            "{what}: sheet {i} dirty count"
        );
        let cells_a: Vec<_> = {
            let mut v: Vec<_> = a.sheet(id).cells().map(|(c, k)| (c, k.clone())).collect();
            v.sort_by_key(|(c, _)| *c);
            v
        };
        let cells_b: Vec<_> = {
            let mut v: Vec<_> = b.sheet(id).cells().map(|(c, k)| (c, k.clone())).collect();
            v.sort_by_key(|(c, _)| *c);
            v
        };
        assert_eq!(cells_a.len(), cells_b.len(), "{what}: sheet {i} cell count");
        for ((ca, ka), (cb, kb)) in cells_a.iter().zip(&cells_b) {
            assert_eq!(ca, cb, "{what}: sheet {i} cell addresses");
            assert_eq!(ka.value(), kb.value(), "{what}: sheet {i} {ca} value");
        }
    }
}

/// Recalculates both workbooks and asserts the passes evaluated the same
/// cells on every sheet: the exact dirty cells the two were left with,
/// not just as many.
fn recalc_same(a: &mut Workbook, b: &mut Workbook, what: &str) {
    assert_eq!(
        a.recalculate(RecalcMode::Serial),
        b.recalculate(RecalcMode::Serial),
        "{what}: cells evaluated"
    );
    for i in 0..a.sheet_count() {
        let evaluated = |wb: &Workbook| {
            let mut cells: Vec<Cell> = wb.sheet(SheetId(i)).ordered_cells().collect();
            cells.sort_unstable();
            cells
        };
        assert_eq!(evaluated(a), evaluated(b), "{what}: sheet {i} dirty cells");
    }
}

/// Serial reference: one record at a time through the live edit paths.
fn apply_serial(wb: &mut Workbook, records: &[EditRecord]) {
    for rec in records {
        wb.apply_edit(rec).expect("serial record applies");
    }
}

fn check_script(records: &[EditRecord], what: &str) {
    let mut serial = Workbook::with_taco();
    apply_serial(&mut serial, records);
    let mut batched = Workbook::with_taco();
    batched.apply_batch(records).expect("batch applies");
    // Identical before recalculation (dirty sets, graphs, staged values)…
    assert_same(&serial, &batched, &format!("{what} pre-recalc"));
    // …and after (evaluated values).
    recalc_same(&mut serial, &mut batched, what);
    assert_same(&serial, &batched, &format!("{what} post-recalc"));
    assert_eq!(batched.dirty_count(), 0, "{what}: recalc must settle the batch");
}

#[test]
fn presets_build_identically_batched_and_serial() {
    for p in [persist_enron_like(), persist_github_like()] {
        let w = gen_persist_workload(&p);
        check_script(&w.build, w.name);
    }
}

#[test]
fn burst_over_built_workbook_is_identical() {
    for p in [persist_enron_like(), persist_github_like()] {
        let w = gen_persist_workload(&p);
        let build = || {
            let mut wb = Workbook::with_taco();
            apply_serial(&mut wb, &w.build);
            wb.recalculate(RecalcMode::Serial);
            wb
        };
        let mut serial = build();
        apply_serial(&mut serial, &w.burst);
        let mut batched = build();
        batched.apply_batch(&w.burst).expect("burst batch applies");
        assert_same(&serial, &batched, &format!("{} burst pre-recalc", w.name));
        recalc_same(&mut serial, &mut batched, &format!("{} burst", w.name));
        assert_same(&serial, &batched, &format!("{} burst post-recalc", w.name));
    }
}

#[test]
fn failing_record_applies_prefix_and_reports_index() {
    let records = vec![
        EditRecord::AddSheet { name: "S".into() },
        EditRecord::SetValue {
            sheet: 0,
            cell: taco_grid::Cell::new(1, 1),
            value: taco_formula::Value::Number(5.0),
        },
        EditRecord::SetFormula { sheet: 0, cell: taco_grid::Cell::new(2, 1), src: "A1*2".into() },
        // Bad: sheet 9 does not exist.
        EditRecord::SetValue {
            sheet: 9,
            cell: taco_grid::Cell::new(1, 1),
            value: taco_formula::Value::Number(1.0),
        },
        EditRecord::SetValue {
            sheet: 0,
            cell: taco_grid::Cell::new(1, 2),
            value: taco_formula::Value::Number(7.0),
        },
    ];
    let mut wb = Workbook::with_taco();
    let err = wb.apply_batch(&records).expect_err("bad sheet must fail");
    assert_eq!(err.index, 3);
    assert_eq!(err.stage, taco_engine::BatchStage::Apply);
    // The prefix was applied and routed exactly as a serial prefix would be.
    let mut serial = Workbook::with_taco();
    apply_serial(&mut serial, &records[..3]);
    assert_same(&serial, &wb, "failed-batch prefix");
    recalc_same(&mut serial, &mut wb, "failed-batch prefix");
    // The suffix was not applied.
    assert_eq!(wb.value(SheetId(0), taco_grid::Cell::new(1, 2)), taco_formula::Value::Empty);
}

proptest! {
    /// Random contiguous windows of the preset scripts — batches that
    /// start and stop at arbitrary points, including mid-sheet-creation —
    /// stay identical to serial application. The window's prefix is
    /// applied serially to both workbooks first so every window is valid.
    #[test]
    fn random_script_windows_are_identical(seed in 0u64..24) {
        let p = if seed % 2 == 0 { persist_enron_like() } else { persist_github_like() };
        let p = PersistParams { seed: 0x5EED ^ seed, ..p };
        let w = gen_persist_workload(&p);
        let all: Vec<EditRecord> = w.build.iter().chain(&w.burst).cloned().collect();
        let cut = (seed as usize * 97) % all.len();
        let (prefix, suffix) = all.split_at(cut);
        let window = &suffix[..suffix.len().min(64 + (seed as usize % 64))];

        let mut serial = Workbook::with_taco();
        apply_serial(&mut serial, prefix);
        let mut batched = Workbook::with_taco();
        apply_serial(&mut batched, prefix);

        apply_serial(&mut serial, window);
        batched.apply_batch(window).expect("window batch applies");
        assert_same(&serial, &batched, "window pre-recalc");
        recalc_same(&mut serial, &mut batched, "window");
        assert_same(&serial, &batched, "window post-recalc");
    }
}

// ---- one script per hazard --------------------------------------------
//
// A batch marks the dependents of every range it wrote once, over the
// graph its last record left. Each script below is a built and
// recalculated workbook, then one window of records that serial marking
// handles record by record, applied serially to one twin and as one batch
// to the other.

fn cell(a1: &str) -> Cell {
    Cell::parse_a1(a1).unwrap()
}

fn value(sheet: u32, a1: &str, v: f64) -> EditRecord {
    EditRecord::SetValue { sheet, cell: cell(a1), value: Value::Number(v) }
}

fn formula(sheet: u32, a1: &str, src: &str) -> EditRecord {
    EditRecord::SetFormula { sheet, cell: cell(a1), src: src.into() }
}

fn clear(sheet: u32, a1: &str) -> EditRecord {
    EditRecord::ClearRange { sheet, range: Range::parse_a1(a1).unwrap() }
}

fn rows(sheet: u32, op: StructuralOp) -> EditRecord {
    EditRecord::Structural { sheet, op }
}

/// Sheets `S` and `T`: on `S` a column of values, `B = A*2` and a
/// running total `C = SUM($B$1:B)` beside it, a chain `D = B + C`; on
/// `T` formulas reading `S`'s columns C and D.
fn hazard_build() -> Vec<EditRecord> {
    let mut build =
        vec![EditRecord::AddSheet { name: "S".into() }, EditRecord::AddSheet { name: "T".into() }];
    for r in 1..=12 {
        build.push(value(0, &format!("A{r}"), f64::from(r)));
        build.push(formula(0, &format!("B{r}"), &format!("=A{r}*2")));
        build.push(formula(0, &format!("C{r}"), &format!("=SUM($B$1:B{r})")));
        build.push(formula(0, &format!("D{r}"), &format!("=B{r}+C{r}")));
        build.push(formula(1, &format!("A{r}"), &format!("=S!C{r}+1")));
        build.push(formula(1, &format!("B{r}"), &format!("=A{r}+S!D{r}")));
    }
    build
}

/// Applies `build` to two workbooks and recalculates them, then
/// `window` serially to one and as one batch to the other; the two must
/// agree, dirty cells included, before and after recalculation.
fn check_window(build: &[EditRecord], window: &[EditRecord], what: &str) {
    let mut serial = Workbook::with_taco();
    apply_serial(&mut serial, build);
    serial.recalculate(RecalcMode::Serial);
    let mut batched = Workbook::with_taco();
    apply_serial(&mut batched, build);
    batched.recalculate(RecalcMode::Serial);

    apply_serial(&mut serial, window);
    batched.apply_batch(window).expect("window applies");
    assert!(batched.dirty_count() > 0, "{what}: the window must dirty something");
    assert_same(&serial, &batched, &format!("{what} pre-recalc"));
    recalc_same(&mut serial, &mut batched, what);
    assert_same(&serial, &batched, &format!("{what} post-recalc"));
}

#[test]
fn a_dependent_rewritten_to_stop_reading_an_edit_is_marked_as_serially() {
    let window = [
        value(0, "A3", 30.0),
        // B3 stops reading A3 (and reads A9): A3 has no dependents left
        // in the final graph, but serially B3's were marked through it.
        formula(0, "B3", "=A9*3"),
        value(0, "A9", 9.5),
        value(0, "A4", 4.5),
    ];
    check_window(&hazard_build(), &window, "rewritten dependent");
}

#[test]
fn a_dependent_cleared_after_an_edit_is_marked_as_serially() {
    let window = [
        value(0, "A5", 50.0),
        // Serially B5 was marked, then cleared: its dependents stay marked.
        clear(0, "B5:B6"),
        value(0, "A2", 2.5),
        clear(1, "A1:A2"),
    ];
    check_window(&hazard_build(), &window, "cleared dependent");
}

#[test]
fn a_value_typed_over_a_dirty_dependent_is_marked_as_serially() {
    let window = [
        value(0, "A7", 70.0),
        // B7 is dirty by now; the value over it leaves it clean and its
        // dependents dirty.
        value(0, "B7", 1.0),
        value(0, "A8", 80.0),
        value(0, "C8", 3.0),
    ];
    check_window(&hazard_build(), &window, "value over a dirty dependent");
}

#[test]
fn edits_around_row_inserts_and_deletes_are_marked_as_serially() {
    let window = [
        value(0, "A2", 20.0),
        rows(0, StructuralOp::InsertRows { at: 4, n: 2 }),
        value(0, "A10", 100.0),
        formula(0, "B5", "=A1*7"),
        rows(0, StructuralOp::DeleteRows { at: 8, n: 3 }),
        value(0, "A1", 1.5),
        rows(1, StructuralOp::InsertRows { at: 1, n: 1 }),
        value(0, "A3", 3.5),
    ];
    check_window(&hazard_build(), &window, "row inserts and deletes");
}

#[test]
fn a_sheet_added_mid_batch_resolves_a_dangling_reference_as_serially() {
    let mut build = hazard_build();
    build.push(formula(0, "E1", "=Late!A1+A1"));
    build.push(formula(0, "E2", "=E1*2"));
    build.push(formula(1, "C1", "=S!E2+Late!B1"));
    let window = [
        value(0, "A1", 11.0),
        EditRecord::AddSheet { name: "Late".into() },
        value(2, "A1", 5.0),
        formula(2, "B1", "=S!E2+1"),
        value(0, "A1", 12.0),
        value(2, "A1", 6.0),
    ];
    check_window(&build, &window, "sheet added mid-batch");
}

#[test]
fn a_fill_over_cells_that_read_an_edit_is_marked_as_serially() {
    let mut build = hazard_build();
    build.push(formula(0, "F1", "=$A$1+A1"));
    for r in 1..=12 {
        build.push(formula(0, &format!("G{r}"), &format!("=F{r}*2")));
    }
    // The fill's records, as a log stores them.
    let mut wb = Workbook::with_taco();
    apply_serial(&mut wb, &build);
    let fill = Range::parse_a1("F2:F12").unwrap();
    let filled = wb.autofill_records(SheetId(0), cell("F1"), fill).unwrap();
    let mut window = vec![value(0, "A1", 100.0)];
    window.extend(filled);
    window.push(value(0, "A6", 60.0));
    check_window(&build, &window, "fill over an edit's dependents");
}
