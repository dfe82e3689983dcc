//! Hostile-sparse input stays cheap: a handful of cells at the grid's far
//! corners costs the pages they touch — never a column of `MAX_ROW` slots,
//! never a directory of `MAX_COL` columns — and every operation on them
//! finishes in milliseconds.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use taco_engine::{open_engine, save_engine, Engine};
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
    let mut e = Engine::with_taco();
    let mut model = BTreeMap::new();
    for (i, cell) in hostile_cells().into_iter().enumerate() {
        let v = Value::Number(i as f64 + 0.5);
        quick("set_value", || e.set_value(cell, v.clone()));
        model.insert(cell, v);
    }
    assert_holds(&e, &model, "written");

    // Formulae that read the far corner and a whole far row.
    let corner = format!("=SUM(XFC{}:XFD{MAX_ROW})", MAX_ROW - 600);
    quick("set_formula", || e.set_formula(Cell::new(3, 3), &corner).unwrap());
    quick("set_formula", || e.set_formula(Cell::new(3, 4), "=COUNTA(A1:XFD1)").unwrap());
    quick("recalculate", || e.recalculate());
    let in_corner: f64 = model
        .iter()
        .filter(|(c, _)| c.col >= MAX_COL - 1 && c.row >= MAX_ROW - 600)
        .map(|(_, v)| if let Value::Number(n) = v { *n } else { 0.0 })
        .sum();
    assert_eq!(e.value(Cell::new(3, 3)), Value::Number(in_corner));
    assert_eq!(e.value(Cell::new(3, 4)), Value::Number(1.0));
    model.insert(Cell::new(3, 3), Value::Number(in_corner));
    model.insert(Cell::new(3, 4), Value::Number(1.0));
    assert_holds(&e, &model, "with formulae");
    quick("mark_all_formulas_dirty", || e.mark_all_formulas_dirty());
    assert_eq!(quick("recalculate", || e.recalculate()), 2);

    // save → open is the same sheet; save → open → save the same bytes.
    let path =
        std::env::temp_dir().join(format!("taco-hostile-sparse-{}.taco", std::process::id()));
    quick("save", || save_engine(&e, &path).unwrap());
    let first = std::fs::read(&path).unwrap();
    let reopened = quick("open", || open_engine(&path).unwrap());
    assert_holds(&reopened, &model, "reopened");
    save_engine(&reopened, &path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), first, "save → open → save is a fixed point");
    std::fs::remove_file(&path).ok();

    // Rows inserted at the far end push the last rows off the grid; rows
    // deleted there pull the rest up.
    quick("insert_rows", || e.insert_rows(MAX_ROW - 2, 3));
    model = model
        .into_iter()
        .filter_map(|(c, v)| {
            let row = if c.row >= MAX_ROW - 2 { c.row + 3 } else { c.row };
            (row <= MAX_ROW).then(|| (Cell::new(c.col, row), v))
        })
        .collect();
    quick("recalculate", || e.recalculate());
    let corner = model
        .iter()
        .filter(|(c, _)| c.col >= MAX_COL - 1 && c.row >= MAX_ROW - 600)
        .map(|(_, v)| if let Value::Number(n) = v { *n } else { 0.0 })
        .sum();
    model.insert(Cell::new(3, 3), Value::Number(corner));
    assert_holds(&e, &model, "rows inserted");
    quick("delete_rows", || e.delete_rows(MAX_ROW - 700_000, 50_000));
    quick("recalculate", || e.recalculate());
    assert_eq!(
        e.len(),
        model.len()
            - model
                .keys()
                .filter(|c| { (MAX_ROW - 700_000..MAX_ROW - 650_000).contains(&c.row) })
                .count()
    );
    assert!(e.slot_capacity() <= e.len() * PAGE_ROWS as usize);

    // Clearing the whole grid walks the pages that exist and frees them.
    let everything = Range::from_coords(1, 1, MAX_COL, MAX_ROW);
    quick("clear_range", || e.clear_range(everything));
    assert_eq!((e.len(), e.slot_capacity(), e.cells().count()), (0, 0, 0));
    quick("recalculate", || e.recalculate());
}

#[test]
fn a_run_joins_across_a_million_blank_rows_but_not_across_a_value() {
    // The same formula at row 1 and at the grid's last row: one run, found
    // without a walk up the rows between (the engine's own tests count
    // its page lookups: as many as for the row right below).
    let mut e = Engine::with_taco();
    e.set_formula(Cell::new(2, 1), "=A1*2").unwrap();
    let far = Cell::new(2, MAX_ROW);
    quick("set_formula", || e.set_formula(far, &format!("=A{MAX_ROW}*2")).unwrap());
    assert_eq!((e.formula_cells(), e.formula_templates()), (2, 1));
    e.set_value(Cell::new(1, MAX_ROW), Value::Number(4.0));
    assert_eq!(quick("recalculate", || e.recalculate()), 2);
    assert_eq!(e.value(far), Value::Number(8.0));
    assert!(e.slot_capacity() <= 3 * PAGE_ROWS as usize);

    // A value typed between stops the join: the formula typed back at the
    // last row starts a run of its own.
    e.set_value(Cell::new(2, MAX_ROW / 2), Value::Number(1.0));
    quick("set_formula", || e.set_formula(far, &format!("=A{MAX_ROW}*2")).unwrap());
    assert_eq!(e.formula_templates(), 2);
    // Cleared again, the rows between are blank: typed back, it joins.
    e.clear_range(Range::cell(Cell::new(2, MAX_ROW / 2)));
    quick("set_formula", || e.set_formula(far, &format!("=A{MAX_ROW}*2")).unwrap());
    assert_eq!(e.formula_templates(), 1);
    assert_eq!(quick("recalculate", || e.recalculate()), 1);
    assert_eq!(e.value(far), Value::Number(8.0));
}
