//! Hostile-sparse input stays cheap: a handful of cells at the grid's far
//! corners costs the pages they touch — never a column of `MAX_ROW` slots,
//! never a directory of `MAX_COL` columns — and every operation on them
//! finishes in milliseconds.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use taco_engine::{Engine, RecalcMode, SheetId, Workbook};
use taco_formula::Value;
use taco_grid::{Cell, Range, MAX_COL, MAX_ROW};

/// The cell store's page size (rows). A store that allocated more per
/// touched page — a whole column, say — fails the bound below.
const PAGE_ROWS: u32 = 256;

/// Generous for a debug build on a busy machine; an O(`MAX_ROW`) or
/// O(sheet area) step takes seconds, not this.
const QUICK: Duration = Duration::from_millis(250);

fn quick<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    assert!(start.elapsed() < QUICK, "{what} took {:?}", start.elapsed());
    out
}

/// The three far corners, then 64 cells scattered near the grid's edges.
fn hostile_cells() -> Vec<Cell> {
    let mut cells = vec![Cell::new(MAX_COL, MAX_ROW), Cell::new(1, MAX_ROW), Cell::new(MAX_COL, 1)];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let col = MAX_COL - ((x >> 33) % 2000) as u32;
        let row = MAX_ROW - ((x >> 13) % 600_000) as u32;
        cells.push(Cell::new(col, row));
    }
    cells
}

/// The one sheet of every workbook here.
const S: SheetId = SheetId(0);

/// An empty workbook of one sheet, `S`.
fn one_sheet() -> Workbook {
    let mut wb = Workbook::new();
    wb.add_sheet("Sheet1").unwrap();
    wb
}

fn pages_of<'a>(cells: impl Iterator<Item = &'a Cell>) -> usize {
    cells.map(|c| (c.col, (c.row - 1) / PAGE_ROWS)).collect::<BTreeSet<_>>().len()
}

fn assert_holds(e: &Engine, model: &BTreeMap<Cell, Value>, ctx: &str) {
    assert_eq!(e.len(), model.len(), "{ctx}: len");
    let listed: Vec<(Cell, Value)> = e.cells().map(|(c, k)| (c, k.value().clone())).collect();
    let want: Vec<(Cell, Value)> = model.iter().map(|(c, v)| (*c, v.clone())).collect();
    assert_eq!(listed, want, "{ctx}: cells() is every cell in (col, row) order");
    let bound = pages_of(model.keys()) * PAGE_ROWS as usize;
    assert!(e.slot_capacity() <= bound, "{ctx}: {} slots for {bound}", e.slot_capacity());
}

#[test]
fn far_corner_cells_cost_the_pages_they_touch() {
    let mut wb = one_sheet();
    let mut model = BTreeMap::new();
    for (i, cell) in hostile_cells().into_iter().enumerate() {
        let v = Value::Number(i as f64 + 0.5);
        quick("set_value", || wb.set_value(S, cell, v.clone()));
        model.insert(cell, v);
    }
    assert_holds(&wb.sheet(S), &model, "written");

    // Formulae that read the far corner and a whole far row.
    let corner = format!("=SUM(XFC{}:XFD{MAX_ROW})", MAX_ROW - 600);
    quick("set_formula", || wb.set_formula(S, Cell::new(3, 3), &corner).unwrap());
    quick("set_formula", || wb.set_formula(S, Cell::new(3, 4), "=COUNTA(A1:XFD1)").unwrap());
    quick("recalculate", || wb.recalculate(RecalcMode::Serial));
    let in_corner: f64 = model
        .iter()
        .filter(|(c, _)| c.col >= MAX_COL - 1 && c.row >= MAX_ROW - 600)
        .map(|(_, v)| if let Value::Number(n) = v { *n } else { 0.0 })
        .sum();
    assert_eq!(wb.value(S, Cell::new(3, 3)), Value::Number(in_corner));
    assert_eq!(wb.value(S, Cell::new(3, 4)), Value::Number(1.0));
    model.insert(Cell::new(3, 3), Value::Number(in_corner));
    model.insert(Cell::new(3, 4), Value::Number(1.0));
    assert_holds(&wb.sheet(S), &model, "with formulae");

    // save → open is the same sheet; save → open → save the same bytes.
    // The second save goes to a fresh path: a save over a snapshot bumps
    // its replay epoch.
    let path = |tag: &str| {
        std::env::temp_dir().join(format!("taco-hostile-sparse-{tag}-{}.taco", std::process::id()))
    };
    let (path, again) = (path("first"), path("again"));
    quick("save", || wb.save(&path).unwrap());
    let first = std::fs::read(&path).unwrap();
    let reopened = quick("open", || Workbook::open(&path).unwrap());
    assert_holds(&reopened.sheet(S), &model, "reopened");
    reopened.save(&again).unwrap();
    assert_eq!(std::fs::read(&again).unwrap(), first, "save → open → save is a fixed point");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&again).ok();

    // Rows inserted at the far end push the last rows off the grid; rows
    // deleted there pull the rest up.
    quick("insert_rows", || wb.insert_rows(S, MAX_ROW - 2, 3));
    model = model
        .into_iter()
        .filter_map(|(c, v)| {
            let row = if c.row >= MAX_ROW - 2 { c.row + 3 } else { c.row };
            (row <= MAX_ROW).then(|| (Cell::new(c.col, row), v))
        })
        .collect();
    quick("recalculate", || wb.recalculate(RecalcMode::Serial));
    let corner = model
        .iter()
        .filter(|(c, _)| c.col >= MAX_COL - 1 && c.row >= MAX_ROW - 600)
        .map(|(_, v)| if let Value::Number(n) = v { *n } else { 0.0 })
        .sum();
    model.insert(Cell::new(3, 3), Value::Number(corner));
    assert_holds(&wb.sheet(S), &model, "rows inserted");
    quick("delete_rows", || wb.delete_rows(S, MAX_ROW - 700_000, 50_000));
    quick("recalculate", || wb.recalculate(RecalcMode::Serial));
    assert_eq!(
        wb.sheet(S).len(),
        model.len()
            - model
                .keys()
                .filter(|c| { (MAX_ROW - 700_000..MAX_ROW - 650_000).contains(&c.row) })
                .count()
    );
    assert!(wb.sheet(S).slot_capacity() <= wb.sheet(S).len() * PAGE_ROWS as usize);

    // Clearing the whole grid walks the pages that exist and frees them.
    let everything = Range::from_coords(1, 1, MAX_COL, MAX_ROW);
    quick("clear_range", || wb.clear_range(S, everything));
    assert_eq!(
        (wb.sheet(S).len(), wb.sheet(S).slot_capacity(), wb.sheet(S).cells().count()),
        (0, 0, 0)
    );
    quick("recalculate", || wb.recalculate(RecalcMode::Serial));
}

#[test]
fn a_run_joins_across_a_million_blank_rows_but_not_across_a_value() {
    // The same formula at row 1 and at the grid's last row: one run, found
    // without a walk up the rows between (the engine's own tests count
    // its page lookups: as many as for the row right below).
    let mut wb = one_sheet();
    wb.set_formula(S, Cell::new(2, 1), "=A1*2").unwrap();
    let far = Cell::new(2, MAX_ROW);
    quick("set_formula", || wb.set_formula(S, far, &format!("=A{MAX_ROW}*2")).unwrap());
    assert_eq!((wb.sheet(S).formula_cells(), wb.sheet(S).formula_templates()), (2, 1));
    wb.set_value(S, Cell::new(1, MAX_ROW), Value::Number(4.0));
    assert_eq!(quick("recalculate", || wb.recalculate(RecalcMode::Serial)), 2);
    assert_eq!(wb.value(S, far), Value::Number(8.0));
    assert!(wb.sheet(S).slot_capacity() <= 3 * PAGE_ROWS as usize);

    // A value typed between stops the join: the formula typed back at the
    // last row starts a run of its own.
    wb.set_value(S, Cell::new(2, MAX_ROW / 2), Value::Number(1.0));
    quick("set_formula", || wb.set_formula(S, far, &format!("=A{MAX_ROW}*2")).unwrap());
    assert_eq!(wb.sheet(S).formula_templates(), 2);
    // Cleared again, the rows between are blank: typed back, it joins.
    wb.clear_range(S, Range::cell(Cell::new(2, MAX_ROW / 2)));
    quick("set_formula", || wb.set_formula(S, far, &format!("=A{MAX_ROW}*2")).unwrap());
    assert_eq!(wb.sheet(S).formula_templates(), 1);
    assert_eq!(quick("recalculate", || wb.recalculate(RecalcMode::Serial)), 1);
    assert_eq!(wb.value(S, far), Value::Number(8.0));
}
