//! Structural test for the intra-sheet schedule: in a pass's order
//! (`Engine::ordered_cells`), no formula may come before any of its precedents
//! that are part of the same dirty set, cycles aside. Checked over random
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
use taco_engine::Engine;
use taco_formula::{CellError, Formula, Value};
use taco_grid::{Cell, Range};

const COLS: u32 = 6;
const ROWS: u32 = 20;

/// A random corpus that is acyclic by construction: the formula at
/// column `c` references only cells in columns `< c` (column A is pure
/// data), so precedence always points left. Mixes single-cell refs,
/// in-column ranges, and binary expressions so the order sees fan-in.
fn build_random(seed: u64) -> Engine {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = Engine::with_taco();
    for row in 1..=ROWS {
        e.set_value(Cell::new(1, row), Value::Number(rng.gen_range(-50..50) as f64));
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
            e.set_formula(Cell::new(col, row), &src).expect("generated formulae parse");
        }
    }
    e
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
fn reads(e: &Engine, at: &HashMap<Cell, usize>, cell: Cell) -> Vec<Cell> {
    let src = e.formula_of(cell).expect("ordered cells are formulae");
    let f = Formula::parse(&src).expect("stored source parses");
    let local = f.refs.iter().filter(|qr| qr.sheet.is_none());
    let cells = local.flat_map(|qr| qr.rref.range().cells().collect::<Vec<_>>());
    cells.filter(|p| *p != cell && at.contains_key(p)).collect()
}

/// Whether `from` reads `to`, directly or not, among the ordered cells.
fn reaches(e: &Engine, at: &HashMap<Cell, usize>, from: Cell, to: Cell) -> bool {
    let (mut seen, mut queue) = (HashSet::from([from]), vec![from]);
    while let Some(cell) = queue.pop() {
        for p in reads(e, at, cell) {
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
fn assert_precedence(e: &Engine, at: &HashMap<Cell, usize>) {
    for (&cell, &i) in at {
        for p in reads(e, at, cell) {
            let ip = at[&p];
            assert!(
                ip < i || reaches(e, at, p, cell),
                "{cell:?} (#{i}) ran no later than its precedent {p:?} (#{ip})"
            );
        }
    }
}

/// One recalculation: the pass's order covers exactly the dirty set and
/// respects precedence.
fn check_pass(e: &mut Engine) {
    let dirty = e.dirty_count();
    let evaluated = e.recalculate();
    let at = position_index(e.ordered_cells());
    assert_eq!(at.len(), evaluated, "the order must cover every evaluated cell");
    assert_eq!(evaluated, dirty);
    assert_precedence(e, &at);
}

/// The invariant: no formula is evaluated before a dirty precedent.
#[test]
fn serial_schedule_satisfies_the_same_invariant() {
    for seed in 0..24u64 {
        let mut e = build_random(seed);
        check_pass(&mut e);
        // Data edits dirty a different slice of the sheet each time.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1E7);
        for _ in 0..6 {
            for _ in 0..rng.gen_range(1..=3) {
                let cell = Cell::new(1, rng.gen_range(1..=ROWS));
                e.set_value(cell, Value::Number(rng.gen_range(-50..50) as f64));
            }
            check_pass(&mut e);
        }
    }
}

#[test]
fn cycles_fall_back_without_breaking_the_acyclic_part() {
    let mut e = Engine::with_taco();
    e.set_value(Cell::new(1, 1), Value::Number(3.0));
    e.set_formula(Cell::new(2, 1), "=A1+1").unwrap(); // clean chain
    e.set_formula(Cell::new(3, 1), "=B1*2").unwrap();
    e.set_formula(Cell::new(4, 1), "=E1+1").unwrap(); // 2-cycle D1 <-> E1
    e.set_formula(Cell::new(5, 1), "=D1+1").unwrap();
    let evaluated = e.recalculate();
    assert_eq!(evaluated, 4);
    // The acyclic chain still respects precedence...
    let at = position_index(e.ordered_cells());
    assert!(at[&Cell::new(2, 1)] < at[&Cell::new(3, 1)]);
    // ...and the cycle members are errors.
    assert_eq!(e.value(Cell::new(3, 1)), Value::Number(8.0));
    assert!(matches!(e.value(Cell::new(4, 1)), Value::Error(_)));
    assert!(matches!(e.value(Cell::new(5, 1)), Value::Error(_)));
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
fn build_runs(seed: u64) -> Engine {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = Engine::with_taco();
    for row in 1..=RUN_ROWS {
        e.set_value(Cell::new(1, row), Value::Number(f64::from(rng.gen_range(-40..40)) / 4.0));
    }
    let fill = |e: &mut Engine, col: u32, from: u32, (top, foot): (u32, u32)| {
        e.autofill(Cell::new(col, from), Range::from_coords(col, top, col, foot)).unwrap();
    };
    let at = |e: &mut Engine, col: u32, row: u32, src: &str| {
        e.set_formula(Cell::new(col, row), src).unwrap();
    };
    // B: a chain down, `B{r} = B{r-1}+1`, from a first cell of its own.
    let (top, foot) = rows(&mut rng);
    at(&mut e, 2, top, &format!("=A{top}"));
    at(&mut e, 2, top + 1, &format!("=B{top}+1"));
    fill(&mut e, 2, top + 1, (top + 1, foot));
    // C: a chain up, `C{r} = C{r+1}+1`, filled upwards.
    let (top, foot) = rows(&mut rng);
    at(&mut e, 3, foot, &format!("=A{foot}*3"));
    at(&mut e, 3, foot - 1, &format!("=C{foot}+1"));
    fill(&mut e, 3, foot - 1, (top, foot - 1));
    // D and E: two runs that read each other row-wise, no cell cycle.
    let (top, foot) = rows(&mut rng);
    at(&mut e, 4, top, &format!("=E{}+A{top}", top - 1 + u32::from(top == 1)));
    fill(&mut e, 4, top, (top, foot));
    at(&mut e, 5, top, &format!("=D{top}*2"));
    fill(&mut e, 5, top, (top, foot));
    // F: a run that reads its own column both ways.
    let (top, foot) = rows(&mut rng);
    let (up, down) = (rng.gen_range(1..=3u32), rng.gen_range(2..=12u32));
    let above = top.saturating_sub(up).max(1);
    at(&mut e, 6, top, &format!("=F{above}+F{}-A{top}", top + down));
    fill(&mut e, 6, top, (top, foot));
    // G: an absolute self-read inside the run.
    let (top, foot) = rows(&mut rng);
    let pinned = rng.gen_range(top..=foot);
    at(&mut e, 7, top, &format!("=$G${pinned}+A{top}"));
    fill(&mut e, 7, top, (top, foot));
    // H, I: a cumulative sum over a dirty formula column.
    let (top, foot) = rows(&mut rng);
    at(&mut e, 8, top, &format!("=A{top}*2"));
    fill(&mut e, 8, top, (top, foot));
    at(&mut e, 9, top, &format!("=SUM($H${top}:H{top})"));
    fill(&mut e, 9, top, (top, foot));
    // J, K: a two-cell cycle inside a run of J.
    let (top, foot) = rows(&mut rng);
    at(&mut e, 10, top, &format!("=K{top}+A{top}"));
    fill(&mut e, 10, top, (top, foot));
    let looped = rng.gen_range(top..=foot);
    at(&mut e, 11, looped, &format!("=J{looped}*2"));
    // L, M: the same, but every cell of the run reads the cycle's second
    // member and the cycle swallows the error, so its values depend on
    // where the search enters it: at its least cell, from whatever root.
    let (top, foot) = rows(&mut rng);
    let looped = rng.gen_range(top..=foot);
    at(&mut e, 12, top, &format!("=M{top}+$M${looped}+A{top}"));
    fill(&mut e, 12, top, (top, foot));
    at(&mut e, 13, looped, &format!("=COUNT(L{looped})+7"));
    // N: a chain filled up past row 1, its head cells reading off the
    // grid.
    let (_, foot) = rows(&mut rng);
    at(&mut e, 14, 3, "=A3+N1");
    fill(&mut e, 14, 3, (1, foot.max(4)));
    // O: a chain typed row by row, its literal stepping along it.
    let (top, foot) = rows(&mut rng);
    at(&mut e, 15, top, &format!("=A{top}"));
    for row in top + 1..=foot {
        at(&mut e, 15, row, &format!("=O{}+{}*0.5", row - 1, row));
    }
    e
}

/// `e`'s formulas and values in a sheet where no two formula cells share
/// a template: each typed with one to three leading spaces by position.
fn unshared(e: &Engine) -> Engine {
    let mut twin = Engine::with_taco();
    for (cell, content) in e.cells() {
        match e.formula_of(cell) {
            Some(text) => {
                let pad = " ".repeat(1 + ((cell.col + cell.row) % 3) as usize);
                twin.set_formula(cell, &format!("={pad}{text}")).unwrap();
            }
            None => {
                twin.set_value(cell, content.value().clone());
            }
        }
    }
    twin
}

/// Every cell's value, numbers by bit pattern.
fn values(e: &Engine) -> Vec<(Cell, String)> {
    let shown = |v: &Value| match v {
        Value::Number(x) => format!("{:#x}", x.to_bits()),
        other => format!("{other:?}"),
    };
    e.cells().map(|(cell, content)| (cell, shown(content.value()))).collect()
}

fn cycle_cells(e: &Engine) -> Vec<Cell> {
    let cycle = Value::Error(CellError::Cycle);
    e.cells().filter(|(_, k)| *k.value() == cycle).map(|(c, _)| c).collect()
}

#[test]
fn run_shaped_sheets_order_and_compute_as_their_unshared_twins() {
    for seed in 0..24u64 {
        let mut e = build_runs(seed);
        let mut twin = unshared(&e);
        // The premise: one sheet shares templates, the other none.
        assert!(e.formula_templates() < e.formula_cells() / 2, "seed {seed}");
        assert_eq!(twin.formula_templates(), twin.formula_cells(), "seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for round in 0..6 {
            assert_eq!(e.dirty_count(), twin.dirty_count(), "seed {seed} round {round}");
            check_pass(&mut e);
            check_pass(&mut twin);
            assert_eq!(values(&e), values(&twin), "seed {seed} round {round}");
            assert_eq!(cycle_cells(&e), cycle_cells(&twin), "seed {seed} round {round}");
            assert!(!cycle_cells(&e).is_empty(), "seed {seed}: the J, K cycle reads #CYCLE!");
            // Data edits dirty a different slice of the runs each time.
            for _ in 0..rng.gen_range(1..=3) {
                let cell = Cell::new(1, rng.gen_range(1..=RUN_ROWS));
                let v = Value::Number(f64::from(rng.gen_range(-40..40)) / 4.0);
                e.set_value(cell, v.clone());
                twin.set_value(cell, v);
            }
        }
    }
}

/// The `recalc` benchmark's column E: typed row by row, a formula whose
/// literal is its row. One template, so one node of the pass's order.
#[test]
fn a_column_typed_with_its_row_as_a_literal_orders_as_one_node() {
    const ROWS: u32 = 1024;
    let mut e = Engine::with_taco();
    for row in 1..=ROWS {
        e.set_value(Cell::new(1, row), Value::Number(f64::from(row) / 8.0));
        e.set_formula(Cell::new(5, row), &format!("=SUM($A$1:$A$8)*{row}")).unwrap();
    }
    assert_eq!((e.formula_cells(), e.formula_templates()), (ROWS as usize, 1));
    let mut twin = unshared(&e);
    assert_eq!(twin.formula_templates(), ROWS as usize);
    for sheet in [&mut e, &mut twin] {
        check_pass(sheet);
    }
    let nodes = |e: &Engine| -> Vec<(u32, u32)> {
        e.last_pass().iter().map(|p| (p.cells, p.nodes)).collect()
    };
    assert_eq!(nodes(&e), vec![(ROWS, 1)]);
    assert_eq!(nodes(&twin), vec![(ROWS, ROWS)]);
    assert_eq!(values(&e), values(&twin));
    assert_eq!(e.formula_of(Cell::new(5, 700)).unwrap(), "SUM($A$1:$A$8)*700");
}
