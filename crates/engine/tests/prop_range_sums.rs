//! Remembered range sums must be invisible: a sheet whose formulae sum
//! large ranges (which the engine remembers between evaluations) stays
//! bit-identical, after every edit, to a twin whose formulae sum the same
//! cells in the same order through ranges too small to be remembered.
//!
//! `SUM(A1:B90)` folds row by row, so `SUM(A1:B30,A31:B60,A61:B90)` adds
//! the very same numbers in the very same order — but no part reaches the
//! engine's remember-this threshold, so the twin always reads cell by
//! cell. Debug builds additionally assert every remembered sum against a
//! fresh addition at the moment it is used.

use proptest::prelude::*;
use taco_engine::Engine;
use taco_formula::Value;
use taco_grid::{Cell, Range};

/// Data rows. Columns: A data, B `=A*2` on some rows, C loose precedents,
/// D the summing formulae.
const ROWS: u32 = 90;

/// `(whole, in parts)`: the same cells, as one range and as row slices of
/// at most 30 rows × 2 columns.
const SUMS: [(&str, &str); 4] = [
    ("SUM(A1:A90)+C1", "SUM(A1:A30,A31:A60,A61:A90)+C1"),
    ("SUM(A1:B90)+C2", "SUM(A1:B30,A31:B60,A61:B90)+C2"),
    ("SUM($A$1:A75)*C1", "SUM($A$1:A30,A31:A60,A61:A75)*C1"),
    ("SUM(B1:B90,C1:C3)", "SUM(B1:B30,B31:B60,B61:B90,C1:C3)"),
];

#[derive(Debug, Clone)]
enum Op {
    /// A number into the data column, or a loose precedent (`col` 1 or 3).
    Number {
        col: u32,
        row: u32,
        v: i32,
    },
    /// Text into the data column: skipped by `SUM`, `#VALUE!` through `=A*2`.
    Text {
        row: u32,
    },
    /// `=A{row}*2` or `=1/0` into column B.
    Formula {
        row: u32,
        broken: bool,
    },
    Clear {
        col: u32,
        row: u32,
        rows: u32,
    },
    InsertRows {
        at: u32,
    },
    DeleteRows {
        at: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let row = || 1u32..=ROWS;
    prop_oneof![
        4 => (prop_oneof![Just(1u32), Just(3u32)], row(), -99i32..99).prop_map(|(col, row, v)| {
            Op::Number { col, row: if col == 3 { row % 3 + 1 } else { row }, v }
        }),
        1 => row().prop_map(|row| Op::Text { row }),
        2 => (row(), 0u8..5).prop_map(|(row, k)| Op::Formula { row, broken: k == 0 }),
        1 => (1u32..=3, row(), 1u32..=3).prop_map(|(col, row, rows)| Op::Clear { col, row, rows }),
        // Inside the first and the second row slice, never on a seam: a
        // row inserted exactly between two slices would belong to the
        // whole range and to neither part.
        1 => (5u32..=15).prop_map(|at| Op::InsertRows { at }),
        1 => (40u32..=50).prop_map(|at| Op::DeleteRows { at }),
    ]
}

fn build(which: usize) -> Engine {
    let mut e = Engine::with_taco();
    for row in 1..=ROWS {
        e.set_value(Cell::new(1, row), Value::Number(f64::from(row) / 8.0));
        if row % 3 == 0 {
            e.set_formula(Cell::new(2, row), &format!("=A{row}*2")).unwrap();
        }
    }
    for (i, sums) in SUMS.iter().enumerate() {
        let src = if which == 0 { sums.0 } else { sums.1 };
        e.set_formula(Cell::new(4, i as u32 + 1), &format!("={src}")).unwrap();
    }
    e.recalculate();
    e
}

fn apply(e: &mut Engine, op: &Op) {
    match *op {
        Op::Number { col, row, v } => {
            e.set_value(Cell::new(col, row), Value::Number(f64::from(v) / 4.0));
        }
        Op::Text { row } => {
            e.set_value(Cell::new(1, row), Value::Text("n/a".into()));
        }
        Op::Formula { row, broken } => {
            let src = if broken { "=1/0".to_string() } else { format!("=A{row}*2") };
            e.set_formula(Cell::new(2, row), &src).unwrap();
        }
        Op::Clear { col, row, rows } => {
            e.clear_range(Range::from_coords(col, row, col, row + rows - 1));
        }
        Op::InsertRows { at } => {
            e.insert_rows(at, 1);
        }
        Op::DeleteRows { at } => {
            e.delete_rows(at, 1);
        }
    }
    e.recalculate();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn remembered_sums_never_show(
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let (mut whole, mut parts) = (build(0), build(1));
        for (step, op) in ops.iter().enumerate() {
            apply(&mut whole, op);
            apply(&mut parts, op);
            for row in 1..=SUMS.len() as u32 + 2 {
                let cell = Cell::new(4, row);
                prop_assert_eq!(
                    whole.value(cell),
                    parts.value(cell),
                    "{} differs after step {} of {:?}", cell, step, ops
                );
            }
        }
    }
}
