//! The evaluator's memory contract, as `cargo test` holds it: what a
//! recalculation allocates does not grow with the cells it evaluates —
//! from every dirty cell or from a viewport — and a fill shares one
//! template however long it is.
//!
//! One `#[test]`, so nothing else runs in this process while it counts;
//! the counter is per thread all the same, because the harness's own
//! main thread is alive beside the test's. (An integration test is its
//! own crate: the allocator's `unsafe impl` lives here and `taco_engine`
//! keeps `#![forbid(unsafe_code)]`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;
use taco_engine::{EditRecord, RecalcMode, Workbook};
use taco_formula::Value;
use taco_grid::{Cell, Range};

/// Counts every allocation and reallocation the calling thread makes.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator can neither allocate nor find it torn down.
    static ALLOCATIONS: Counter<u64> = const { Counter::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Counter::get)
}

const ROWS: u32 = 10_000;
/// Rows of the cumulative column: debug builds re-fold what every carried
/// fold stands for, which is quadratic in them.
const TOTALS: u32 = 1_500;

#[test]
fn a_recalculation_allocates_nothing_per_cell_and_a_fill_shares_one_template() {
    // `Raw Data` holds numbers; `Calc` reads them through filled columns:
    // B across sheets (a sliding window and a cell, qualifier quoted), C a
    // cumulative total of B down its first rows, D both of them and `Raw
    // Data` again, E a count of the words in T from "m" on beside C.
    let mut wb = Workbook::with_taco();
    let data = wb.add_sheet("Raw Data").unwrap();
    let calc = wb.add_sheet("Calc").unwrap();
    for row in 1..=ROWS + 2 {
        wb.set_value(data, Cell::new(1, row), Value::Number(f64::from(row) / 8.0));
    }
    const WORDS: [&str; 8] = ["apple", "Melon", "kiwi", "Mango", "zest", "Lime", "m", "Nut"];
    for row in 1..=64 {
        let word = WORDS[row as usize % WORDS.len()];
        wb.set_value(calc, Cell::new(20, row), Value::Text(format!("{word}{row}")));
    }
    for (col, src) in [
        (2, "='Raw Data'!A1*2+SUM('Raw Data'!A1:A3)"),
        (3, "=SUM($B$1:B1)"),
        (4, "=C1+B1-'Raw Data'!$A$1"),
        (5, "=COUNTIF($T$1:$T$64,\">=m\")+C1"),
    ] {
        let rows = if matches!(col, 3 | 5) { TOTALS } else { ROWS };
        wb.set_formula(calc, Cell::new(col, 1), src).unwrap();
        wb.autofill(calc, Cell::new(col, 1), Range::from_coords(col, 2, col, rows)).unwrap();
    }
    let cells = (2 * ROWS + 2 * TOTALS) as usize;
    assert_eq!(wb.recalculate(RecalcMode::Serial), cells);

    // A 10 000-row fill is one template, and stays one when a cell in the
    // middle of it goes and comes back typed.
    let sheet =
        |wb: &Workbook| (wb.sheet(calc).formula_cells(), wb.sheet(calc).formula_templates());
    assert_eq!(sheet(&wb), (cells, 4));
    wb.set_value(calc, Cell::new(2, 5_000), Value::Number(0.0));
    assert_eq!(sheet(&wb), (cells - 1, 4));
    wb.set_formula(calc, Cell::new(2, 5_000), "='Raw Data'!A5000*2+SUM('Raw Data'!A5000:A5002)")
        .unwrap();
    assert_eq!(sheet(&wb), (cells, 4));
    wb.recalculate(RecalcMode::Serial);

    // An edit near the top re-evaluates nearly everything, one near the
    // bottom nearly nothing; warm both up (buffers reach their high-water
    // marks), then count.
    let edit = |row: u32, v: f64| EditRecord::SetValue {
        sheet: data.0 as u32,
        cell: Cell::new(1, row),
        value: Value::Number(v),
    };
    let (top, bottom) = (7, TOTALS - 7);
    for round in 0..3 {
        for row in [top, bottom] {
            wb.apply_edit(&edit(row, f64::from(round))).unwrap();
            wb.recalculate(RecalcMode::Serial);
        }
    }
    let mut counted = Vec::new();
    for row in [top, bottom] {
        let before = allocations();
        wb.apply_edit(&edit(row, -1.5)).unwrap();
        let edited = allocations();
        let cells = wb.recalculate(RecalcMode::Serial);
        counted.push((cells, edited - before, allocations() - edited));
    }
    let [(many, edit_many, recalc_many), (few, edit_few, recalc_few)] = counted[..] else {
        unreachable!()
    };
    assert!(many > 3 * (TOTALS as usize - 10) && few < 60, "{many} and {few} cells evaluated");
    // Moving thousands of references by their offsets, some qualified
    // with a quoted sheet name, clones no string and builds no tree, and
    // counting words compares them, reads its criterion and takes its
    // text literal without a copy: the pass that evaluates a hundred times
    // the cells allocates what the other does (the sheet schedule), and
    // finding what an edit dirtied is a few dozen allocations either way.
    assert_eq!(recalc_many, recalc_few, "{many} cells vs {few} cells");
    assert!(recalc_many < 32, "{recalc_many} allocations in one recalculation");
    assert!(edit_many < 64 && edit_few < 64, "{edit_many} and {edit_few} allocations per edit");

    // A pass from a viewport is that same pass, started elsewhere: it
    // allocates the sheet schedule and nothing of its own — no copy of a
    // dirty list, no set of needed cells, no queue — whether the viewport
    // needs the three thousand cells under an edit near the top or the
    // handful one cell at the bottom reads.
    let whole = Range::from_coords(2, 1, 4, ROWS);
    let last = Range::cell(Cell::new(4, TOTALS));
    let mut counted = Vec::new();
    for viewport in [whole, last, whole, last] {
        wb.apply_edit(&edit(top, f64::from(counted.len() as u32))).unwrap();
        let before = allocations();
        let cells = wb.recalc_demand(calc, viewport, RecalcMode::Serial).unwrap();
        counted.push((cells, allocations() - before));
        wb.recalculate(RecalcMode::Serial);
    }
    let [_, _, (many, demand_many), (few, demand_few)] = counted[..] else { unreachable!() };
    assert!(many > 2 * (TOTALS as usize - 10) && few < 10, "{many} and {few} cells needed");
    assert_eq!((demand_many, demand_few), (recalc_few, recalc_few), "{many} vs {few} cells");

    // Words from "m" on, case aside: Melon, Mango, zest, m and Nut.
    let counted = (1..=64).filter(|row| !matches!(row % 8, 0 | 2 | 5)).count() as f64;
    assert_eq!(counted, 40.0);
    let total = |wb: &Workbook| match wb.value(calc, Cell::new(3, TOTALS)) {
        Value::Number(v) => v,
        other => panic!("{other:?}"),
    };
    assert_eq!(wb.value(calc, Cell::new(5, TOTALS)), Value::Number(counted + total(&wb)));
    assert_eq!(wb.value(calc, Cell::new(4, TOTALS)), {
        // …and all of it evaluates to what the formulas say.
        let a = |row: u32| match wb.value(data, Cell::new(1, row)) {
            Value::Number(v) => v,
            other => panic!("{other:?}"),
        };
        let b = |row: u32| a(row) * 2.0 + (0.0 + a(row) + a(row + 1) + a(row + 2));
        let c = (1..=TOTALS).fold(0.0, |sum, row| sum + b(row));
        Value::Number(c + b(TOTALS) - a(1))
    });
}
