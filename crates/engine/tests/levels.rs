//! Structural test for the intra-sheet schedule: in a pass's order
//! (`Engine::ordered`), no formula may come before any of its precedents
//! that are part of the same dirty set. Checked over random acyclic
//! corpora — the full first pass and the partial dirty sets later edits
//! leave — plus a pinned cyclic case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use taco_engine::Engine;
use taco_formula::{Formula, Value};
use taco_grid::Cell;

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
fn position_index(order: &[Cell]) -> HashMap<Cell, usize> {
    let mut at = HashMap::new();
    for (i, &cell) in order.iter().enumerate() {
        assert!(at.insert(cell, i).is_none(), "cell {cell:?} evaluated twice");
    }
    at
}

/// Asserts the scheduling invariant against the formulas themselves:
/// every ordered cell's same-sheet precedents that were also evaluated
/// this pass come strictly earlier.
fn assert_precedence(e: &Engine, at: &HashMap<Cell, usize>) {
    for (&cell, &i) in at {
        let src = e.formula_of(cell).expect("ordered cells are formulae");
        let f = Formula::parse(&src).expect("stored source parses");
        for qr in &f.refs {
            if qr.sheet.is_some() {
                continue;
            }
            for p in qr.rref.range().cells() {
                if let Some(&ip) = at.get(&p) {
                    assert!(
                        ip < i,
                        "{cell:?} (#{i}) ran no later than its precedent {p:?} (#{ip})"
                    );
                }
            }
        }
    }
}

/// One recalculation: the pass's order covers exactly the dirty set and
/// respects precedence.
fn check_pass(e: &mut Engine) {
    let dirty = e.dirty_count();
    let evaluated = e.recalculate();
    let at = position_index(e.ordered());
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
    let at = position_index(e.ordered());
    assert!(at[&Cell::new(2, 1)] < at[&Cell::new(3, 1)]);
    // ...and the cycle members are errors.
    assert_eq!(e.value(Cell::new(3, 1)), Value::Number(8.0));
    assert!(matches!(e.value(Cell::new(4, 1)), Value::Error(_)));
    assert!(matches!(e.value(Cell::new(5, 1)), Value::Error(_)));
}
