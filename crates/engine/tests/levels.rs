//! Structural test for the intra-sheet schedule: in a pass's order over
//! a one-sheet workbook (`Engine::ordered_cells`), no formula may come
//! before any of its precedents that are part of the same dirty set,
//! cycles aside. Checked over random
//! acyclic corpora of lone formulas and over seeded sheets of autofilled
//! runs in every shape the scheduler orders a run by — top-down,
//! bottom-up, split into cells, a component of runs re-ordered cell by
//! cell, a cycle, a chain typed row by row whose literal steps — under
//! the full first pass and the partial dirty sets later edits leave, plus
//! a pinned cyclic case. A run-shaped sheet must also compute exactly
//! what its twin does: the same formulas typed so that no two cells share
//! one, every node of its schedule one cell.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::{CellError, Formula, Value};
use taco_grid::{Cell, Range};

/// The one sheet of every workbook here.
const S: SheetId = SheetId(0);

/// An empty workbook of one sheet, `S`.
fn one_sheet() -> Workbook {
    let mut wb = Workbook::new();
    wb.add_sheet("Sheet1").unwrap();
    wb
}

const COLS: u32 = 6;
const ROWS: u32 = 20;

/// A random corpus that is acyclic by construction: the formula at
/// column `c` references only cells in columns `< c` (column A is pure
/// data), so precedence always points left. Mixes single-cell refs,
/// in-column ranges, and binary expressions so the order sees fan-in.
fn build_random(seed: u64) -> Workbook {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wb = one_sheet();
    for row in 1..=ROWS {
        wb.set_value(S, Cell::new(1, row), Value::Number(rng.gen_range(-50..50) as f64));
    }
    for col in 2..=COLS {
        for row in 1..=ROWS {
            if rng.gen_range(0..4) == 0 {
                continue; // leave gaps so dependency depths are ragged
            }
            let pcol = rng.gen_range(1..col);
            let a = Cell::new(pcol, rng.gen_range(1..=ROWS)).to_a1();
            let src = match rng.gen_range(0..3u32) {
                0 => format!("={a}+{row}"),
                1 => {
                    let top = rng.gen_range(1..=ROWS);
                    let bot = rng.gen_range(top..=ROWS);
                    format!("=SUM({}{top}:{}{bot})", col_letter(pcol), col_letter(pcol))
                }
                _ => {
                    let b = Cell::new(rng.gen_range(1..col), rng.gen_range(1..=ROWS)).to_a1();
                    format!("={a}*2-{b}")
                }
            };
            wb.set_formula(S, Cell::new(col, row), &src).expect("generated formulae parse");
        }
    }
    wb
}

fn col_letter(c: u32) -> char {
    char::from(b'A' + (c - 1) as u8)
}

/// Flattens a pass's order into cell → position, checking no cell is
/// evaluated twice.
fn position_index(order: impl Iterator<Item = Cell>) -> HashMap<Cell, usize> {
    let mut at = HashMap::new();
    for (i, cell) in order.enumerate() {
        assert!(at.insert(cell, i).is_none(), "cell {cell:?} evaluated twice");
    }
    at
}

/// The cells of this pass's order that `cell` reads (itself aside).
fn reads(wb: &Workbook, at: &HashMap<Cell, usize>, cell: Cell) -> Vec<Cell> {
    let src = wb.formula_of(S, cell).expect("ordered cells are formulae");
    let f = Formula::parse(&src).expect("stored source parses");
    let local = f.refs.iter().filter(|qr| qr.sheet.is_none());
    let cells = local.flat_map(|qr| qr.rref.range().cells().collect::<Vec<_>>());
    cells.filter(|p| *p != cell && at.contains_key(p)).collect()
}

/// Whether `from` reads `to`, directly or not, among the ordered cells.
fn reaches(wb: &Workbook, at: &HashMap<Cell, usize>, from: Cell, to: Cell) -> bool {
    let (mut seen, mut queue) = (HashSet::from([from]), vec![from]);
    while let Some(cell) = queue.pop() {
        for p in reads(wb, at, cell) {
            if p == to {
                return true;
            }
            if seen.insert(p) {
                queue.push(p);
            }
        }
    }
    false
}

/// Asserts the scheduling invariant against the formulas themselves:
/// every ordered cell's same-sheet precedents that were also evaluated
/// this pass come strictly earlier, but for a precedent that reads the
/// cell back (the two are on a cycle).
fn assert_precedence(wb: &Workbook, at: &HashMap<Cell, usize>) {
    for (&cell, &i) in at {
        for p in reads(wb, at, cell) {
            let ip = at[&p];
            assert!(
                ip < i || reaches(wb, at, p, cell),
                "{cell:?} (#{i}) ran no later than its precedent {p:?} (#{ip})"
            );
        }
    }
}

/// One recalculation: the pass's order covers exactly the dirty set and
/// respects precedence.
fn check_pass(wb: &mut Workbook) {
    let dirty = wb.dirty_count();
    let evaluated = wb.recalculate(RecalcMode::Serial);
    let at = position_index(wb.sheet(S).ordered_cells());
    assert_eq!(at.len(), evaluated, "the order must cover every evaluated cell");
    assert_eq!(evaluated, dirty);
    assert_precedence(wb, &at);
}

/// The invariant: no formula is evaluated before a dirty precedent.
#[test]
fn serial_schedule_satisfies_the_same_invariant() {
    for seed in 0..24u64 {
        let mut wb = build_random(seed);
        check_pass(&mut wb);
        // Data edits dirty a different slice of the sheet each time.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1E7);
        for _ in 0..6 {
            for _ in 0..rng.gen_range(1..=3) {
                let cell = Cell::new(1, rng.gen_range(1..=ROWS));
                wb.set_value(S, cell, Value::Number(rng.gen_range(-50..50) as f64));
            }
            check_pass(&mut wb);
        }
    }
}

#[test]
fn cycles_fall_back_without_breaking_the_acyclic_part() {
    let mut wb = one_sheet();
    wb.set_value(S, Cell::new(1, 1), Value::Number(3.0));
    wb.set_formula(S, Cell::new(2, 1), "=A1+1").unwrap(); // clean chain
    wb.set_formula(S, Cell::new(3, 1), "=B1*2").unwrap();
    wb.set_formula(S, Cell::new(4, 1), "=E1+1").unwrap(); // 2-cycle D1 <-> E1
    wb.set_formula(S, Cell::new(5, 1), "=D1+1").unwrap();
    let evaluated = wb.recalculate(RecalcMode::Serial);
    assert_eq!(evaluated, 4);
    // The acyclic chain still respects precedence...
    let at = position_index(wb.sheet(S).ordered_cells());
    assert!(at[&Cell::new(2, 1)] < at[&Cell::new(3, 1)]);
    // ...and the cycle members are errors.
    assert_eq!(wb.value(S, Cell::new(3, 1)), Value::Number(8.0));
    assert!(matches!(wb.value(S, Cell::new(4, 1)), Value::Error(_)));
    assert!(matches!(wb.value(S, Cell::new(5, 1)), Value::Error(_)));
}

/// Data rows of a run-shaped sheet.
const RUN_ROWS: u32 = 40;

/// Where a run sits: at least three rows, from the upper half down.
fn rows(rng: &mut StdRng) -> (u32, u32) {
    let top = rng.gen_range(1..RUN_ROWS / 2);
    (top, rng.gen_range(top + 2..=RUN_ROWS))
}

/// A sheet of autofilled runs: column A data, and one seeded placement of
/// each shape the scheduler orders a run by.
fn build_runs(seed: u64) -> Workbook {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wb = one_sheet();
    for row in 1..=RUN_ROWS {
        wb.set_value(S, Cell::new(1, row), Value::Number(f64::from(rng.gen_range(-40..40)) / 4.0));
    }
    let fill = |wb: &mut Workbook, col: u32, from: u32, (top, foot): (u32, u32)| {
        wb.autofill(S, Cell::new(col, from), Range::from_coords(col, top, col, foot)).unwrap();
    };
    let at = |wb: &mut Workbook, col: u32, row: u32, src: &str| {
        wb.set_formula(S, Cell::new(col, row), src).unwrap();
    };
    // B: a chain down, `B{r} = B{r-1}+1`, from a first cell of its own.
    let (top, foot) = rows(&mut rng);
    at(&mut wb, 2, top, &format!("=A{top}"));
    at(&mut wb, 2, top + 1, &format!("=B{top}+1"));
    fill(&mut wb, 2, top + 1, (top + 1, foot));
    // C: a chain up, `C{r} = C{r+1}+1`, filled upwards.
    let (top, foot) = rows(&mut rng);
    at(&mut wb, 3, foot, &format!("=A{foot}*3"));
    at(&mut wb, 3, foot - 1, &format!("=C{foot}+1"));
    fill(&mut wb, 3, foot - 1, (top, foot - 1));
    // D and E: two runs that read each other row-wise, no cell cycle.
    let (top, foot) = rows(&mut rng);
    at(&mut wb, 4, top, &format!("=E{}+A{top}", top - 1 + u32::from(top == 1)));
    fill(&mut wb, 4, top, (top, foot));
    at(&mut wb, 5, top, &format!("=D{top}*2"));
    fill(&mut wb, 5, top, (top, foot));
    // F: a run that reads its own column both ways.
    let (top, foot) = rows(&mut rng);
    let (up, down) = (rng.gen_range(1..=3u32), rng.gen_range(2..=12u32));
    let above = top.saturating_sub(up).max(1);
    at(&mut wb, 6, top, &format!("=F{above}+F{}-A{top}", top + down));
    fill(&mut wb, 6, top, (top, foot));
    // G: an absolute self-read inside the run.
    let (top, foot) = rows(&mut rng);
    let pinned = rng.gen_range(top..=foot);
    at(&mut wb, 7, top, &format!("=$G${pinned}+A{top}"));
    fill(&mut wb, 7, top, (top, foot));
    // H, I: a cumulative sum over a dirty formula column.
    let (top, foot) = rows(&mut rng);
    at(&mut wb, 8, top, &format!("=A{top}*2"));
    fill(&mut wb, 8, top, (top, foot));
    at(&mut wb, 9, top, &format!("=SUM($H${top}:H{top})"));
    fill(&mut wb, 9, top, (top, foot));
    // J, K: a two-cell cycle inside a run of J.
    let (top, foot) = rows(&mut rng);
    at(&mut wb, 10, top, &format!("=K{top}+A{top}"));
    fill(&mut wb, 10, top, (top, foot));
    let looped = rng.gen_range(top..=foot);
    at(&mut wb, 11, looped, &format!("=J{looped}*2"));
    // L, M: the same, but every cell of the run reads the cycle's second
    // member and the cycle swallows the error, so its values depend on
    // where the search enters it: at its least cell, from whatever root.
    let (top, foot) = rows(&mut rng);
    let looped = rng.gen_range(top..=foot);
    at(&mut wb, 12, top, &format!("=M{top}+$M${looped}+A{top}"));
    fill(&mut wb, 12, top, (top, foot));
    at(&mut wb, 13, looped, &format!("=COUNT(L{looped})+7"));
    // N: a chain filled up past row 1, its head cells reading off the
    // grid.
    let (_, foot) = rows(&mut rng);
    at(&mut wb, 14, 3, "=A3+N1");
    fill(&mut wb, 14, 3, (1, foot.max(4)));
    // O: a chain typed row by row, its literal stepping along it.
    let (top, foot) = rows(&mut rng);
    at(&mut wb, 15, top, &format!("=A{top}"));
    for row in top + 1..=foot {
        at(&mut wb, 15, row, &format!("=O{}+{}*0.5", row - 1, row));
    }
    wb
}

/// `wb`'s formulas and values in a sheet where no two formula cells share
/// a template: each typed with one to three leading spaces by position.
fn unshared(wb: &Workbook) -> Workbook {
    let mut twin = one_sheet();
    for (cell, content) in wb.sheet(S).cells() {
        match wb.formula_of(S, cell) {
            Some(text) => {
                let pad = " ".repeat(1 + ((cell.col + cell.row) % 3) as usize);
                twin.set_formula(S, cell, &format!("={pad}{text}")).unwrap();
            }
            None => {
                twin.set_value(S, cell, content.value().clone());
            }
        }
    }
    twin
}

/// Every cell's value, numbers by bit pattern.
fn values(wb: &Workbook) -> Vec<(Cell, String)> {
    let shown = |v: &Value| match v {
        Value::Number(x) => format!("{:#x}", x.to_bits()),
        other => format!("{other:?}"),
    };
    wb.sheet(S).cells().map(|(cell, content)| (cell, shown(content.value()))).collect()
}

fn cycle_cells(wb: &Workbook) -> Vec<Cell> {
    let cycle = Value::Error(CellError::Cycle);
    wb.sheet(S).cells().filter(|(_, k)| *k.value() == cycle).map(|(c, _)| c).collect()
}

#[test]
fn run_shaped_sheets_order_and_compute_as_their_unshared_twins() {
    for seed in 0..24u64 {
        let mut wb = build_runs(seed);
        let mut twin = unshared(&wb);
        // The premise: one sheet shares templates, the other none.
        assert!(wb.sheet(S).formula_templates() < wb.sheet(S).formula_cells() / 2, "seed {seed}");
        assert_eq!(twin.sheet(S).formula_templates(), twin.sheet(S).formula_cells(), "seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for round in 0..6 {
            assert_eq!(wb.dirty_count(), twin.dirty_count(), "seed {seed} round {round}");
            check_pass(&mut wb);
            check_pass(&mut twin);
            assert_eq!(values(&wb), values(&twin), "seed {seed} round {round}");
            assert_eq!(cycle_cells(&wb), cycle_cells(&twin), "seed {seed} round {round}");
            assert!(!cycle_cells(&wb).is_empty(), "seed {seed}: the J, K cycle reads #CYCLE!");
            // Data edits dirty a different slice of the runs each time.
            for _ in 0..rng.gen_range(1..=3) {
                let cell = Cell::new(1, rng.gen_range(1..=RUN_ROWS));
                let v = Value::Number(f64::from(rng.gen_range(-40..40)) / 4.0);
                wb.set_value(S, cell, v.clone());
                twin.set_value(S, cell, v);
            }
        }
    }
}

/// The `recalc` benchmark's column E: typed row by row, a formula whose
/// literal is its row. One template, so one node of the pass's order.
#[test]
fn a_column_typed_with_its_row_as_a_literal_orders_as_one_node() {
    const ROWS: u32 = 1024;
    let mut wb = one_sheet();
    for row in 1..=ROWS {
        wb.set_value(S, Cell::new(1, row), Value::Number(f64::from(row) / 8.0));
        wb.set_formula(S, Cell::new(5, row), &format!("=SUM($A$1:$A$8)*{row}")).unwrap();
    }
    assert_eq!((wb.sheet(S).formula_cells(), wb.sheet(S).formula_templates()), (ROWS as usize, 1));
    let mut twin = unshared(&wb);
    assert_eq!(twin.sheet(S).formula_templates(), ROWS as usize);
    for sheet in [&mut wb, &mut twin] {
        check_pass(sheet);
    }
    let nodes = |wb: &Workbook| -> Vec<(u32, u32)> {
        wb.last_pass().iter().map(|p| (p.cells, p.nodes)).collect()
    };
    assert_eq!(nodes(&wb), vec![(ROWS, 1)]);
    assert_eq!(nodes(&twin), vec![(ROWS, ROWS)]);
    assert_eq!(values(&wb), values(&twin));
    assert_eq!(wb.formula_of(S, Cell::new(5, 700)).unwrap(), "SUM($A$1:$A$8)*700");
}
