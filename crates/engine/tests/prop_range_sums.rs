//! Remembered folds must be invisible: a sheet whose formulae fold ranges
//! with a `$`-fixed head (which the engine remembers between evaluations,
//! and goes on from when the next formula's range has grown) stays
//! bit-identical, after every edit, to a twin whose formulae fold the
//! same cells in the same order through ranges whose head moves with the
//! formula — a shape no fill grows, which the engine never remembers.
//!
//! `SUM($A$1:B90)` folds row by row, so `SUM(A1:B30,A31:B60,A61:B90)` adds
//! the very same numbers in the very same order, and so does `SUM(A1:B90)`
//! — but the twin always reads cell by cell. Debug builds additionally
//! assert every resumed fold against a fresh one at the moment it is
//! used.

use proptest::prelude::*;
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::Value;
use taco_grid::{Cell, Range};

/// The one sheet of every workbook here.
const S: SheetId = SheetId(0);

/// An empty workbook of one sheet, `S`.
fn one_sheet() -> Workbook {
    let mut wb = Workbook::new();
    wb.add_sheet("Sheet1").unwrap();
    wb
}

/// Data rows. Columns: A data, B `=A*2` on some rows, C loose precedents,
/// D the summing formulae.
const ROWS: u32 = 90;

/// `(remembered, in parts)`: the same cells, as one range from a fixed
/// head and as row slices of at most 30 rows × 2 columns from moving ones.
const SUMS: [(&str, &str); 4] = [
    ("SUM($A$1:A90)+C1", "SUM(A1:A30,A31:A60,A61:A90)+C1"),
    ("SUM($A$1:B90)+C2", "SUM(A1:B30,A31:B60,A61:B90)+C2"),
    ("SUM($A$1:A75)*C1", "SUM(A1:A30,A31:A60,A61:A75)*C1"),
    ("SUM($B$1:B90,C1:C3)", "SUM(B1:B30,B31:B60,B61:B90,C1:C3)"),
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

fn build(which: usize) -> Workbook {
    let mut wb = one_sheet();
    for row in 1..=ROWS {
        wb.set_value(S, Cell::new(1, row), Value::Number(f64::from(row) / 8.0));
        if row % 3 == 0 {
            wb.set_formula(S, Cell::new(2, row), &format!("=A{row}*2")).unwrap();
        }
    }
    for (i, sums) in SUMS.iter().enumerate() {
        let src = if which == 0 { sums.0 } else { sums.1 };
        wb.set_formula(S, Cell::new(4, i as u32 + 1), &format!("={src}")).unwrap();
    }
    wb.recalculate(RecalcMode::Serial);
    wb
}

fn apply(wb: &mut Workbook, op: &Op) {
    match *op {
        Op::Number { col, row, v } => {
            wb.set_value(S, Cell::new(col, row), Value::Number(f64::from(v) / 4.0));
        }
        Op::Text { row } => {
            wb.set_value(S, Cell::new(1, row), Value::Text("n/a".into()));
        }
        Op::Formula { row, broken } => {
            let src = if broken { "=1/0".to_string() } else { format!("=A{row}*2") };
            wb.set_formula(S, Cell::new(2, row), &src).unwrap();
        }
        Op::Clear { col, row, rows } => {
            wb.clear_range(S, Range::from_coords(col, row, col, row + rows - 1));
        }
        Op::InsertRows { at } => {
            wb.insert_rows(S, at, 1);
        }
        Op::DeleteRows { at } => {
            wb.delete_rows(S, at, 1);
        }
    }
    wb.recalculate(RecalcMode::Serial);
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
                    whole.value(S, cell),
                    parts.value(S, cell),
                    "{} differs after step {} of {:?}", cell, step, ops
                );
            }
        }
    }
}

// ---- folds carried down a column --------------------------------------

/// Rows of the cumulative columns.
const RUN: u32 = 40;
/// The formula column to the *right* of the cumulative columns that fold
/// it: evaluated interleaved with them, row by row.
const RIGHT: u32 = 20;

/// The cumulative columns, from column D on: every aggregate that is
/// carried, down the value column A, down the formula column B to their
/// left, across both, and down the formula column to their right. `{h}`
/// is the range's head, fixed (`$A$1`) or — in the twin — not (`A1`);
/// `{r}` is the row.
const CUMULATIVE: [(&str, &str); 12] = [
    ("SUM({h}:A{r})", "A"),
    ("PRODUCT({h}:A{r})", "A"),
    ("COUNT({h}:B{r})", "A"),
    ("COUNTA({h}:B{r})", "A"),
    ("AVERAGE({h}:B{r})+A{r}", "B"),
    ("MIN({h}:A{r},B{r})", "A"),
    ("MAX({h}:B{r})", "B"),
    ("AND({h}:A{r})", "A"),
    ("OR({h}:B{r})", "B"),
    ("SUM({h}:T{r})", "T"),
    ("AVERAGE({h}:T{r},A1:A3)", "T"),
    ("SUM({h}:B{r})*2", "A"),
];

fn cumulative(which: usize, i: usize, row: u32) -> String {
    let (pattern, col) = CUMULATIVE[i];
    let head = if which == 0 { format!("${col}$1") } else { format!("{col}1") };
    format!("={}", pattern.replace("{h}", &head).replace("{r}", &row.to_string()))
}

#[derive(Debug, Clone)]
enum RunOp {
    /// A number into the value column.
    Number {
        row: u32,
        v: i32,
    },
    /// Text into the value column: skipped by `SUM`, an error to `AND`.
    Text {
        row: u32,
    },
    /// The value cell, or a formula cell of column B or the right-hand
    /// column, blanked.
    Blank {
        col: u32,
        row: u32,
    },
    /// `=A{row}*2`, or `=1/0`, into column B or the right-hand column: an
    /// error value enters the ranges, or leaves them.
    Formula {
        right: bool,
        row: u32,
        broken: bool,
    },
    InsertRow {
        at: u32,
    },
    DeleteRow {
        at: u32,
    },
}

fn arb_run_op() -> impl Strategy<Value = RunOp> {
    let row = || 1u32..=RUN;
    prop_oneof![
        5 => (row(), -9i32..9).prop_map(|(row, v)| RunOp::Number { row, v }),
        1 => row().prop_map(|row| RunOp::Text { row }),
        2 => (0u8..3, row()).prop_map(|(k, row)| RunOp::Blank { col: [1, 2, RIGHT][k as usize], row }),
        4 => (any::<bool>(), row(), 0u8..4)
            .prop_map(|(right, row, k)| RunOp::Formula { right, row, broken: k == 0 }),
        1 => (2u32..RUN).prop_map(|at| RunOp::InsertRow { at }),
        1 => (2u32..RUN).prop_map(|at| RunOp::DeleteRow { at }),
    ]
}

fn build_runs(which: usize) -> Workbook {
    let mut wb = one_sheet();
    for row in 1..=RUN {
        wb.set_value(S, Cell::new(1, row), Value::Number(f64::from(row) / 8.0 - 2.0));
        if row % 2 == 0 {
            wb.set_formula(S, Cell::new(2, row), &format!("=A{row}*2")).unwrap();
        }
        wb.set_formula(S, Cell::new(RIGHT, row), &format!("=A{row}/3")).unwrap();
        for i in 0..CUMULATIVE.len() {
            wb.set_formula(S, Cell::new(4 + i as u32, row), &cumulative(which, i, row)).unwrap();
        }
    }
    wb.recalculate(RecalcMode::Serial);
    wb
}

fn apply_run_op(wb: &mut Workbook, op: &RunOp) {
    match *op {
        RunOp::Number { row, v } => {
            wb.set_value(S, Cell::new(1, row), Value::Number(f64::from(v) / 4.0));
        }
        RunOp::Text { row } => {
            wb.set_value(S, Cell::new(1, row), Value::Text("n/a".into()));
        }
        RunOp::Blank { col, row } => {
            wb.clear_range(S, Range::cell(Cell::new(col, row)));
        }
        RunOp::Formula { right, row, broken } => {
            let src = if broken { "=1/0".to_string() } else { format!("=A{row}*2") };
            wb.set_formula(S, Cell::new(if right { RIGHT } else { 2 }, row), &src).unwrap();
        }
        RunOp::InsertRow { at } => {
            wb.insert_rows(S, at, 1);
        }
        RunOp::DeleteRow { at } => {
            wb.delete_rows(S, at, 1);
        }
    }
    wb.recalculate(RecalcMode::Serial);
}

fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn carried_folds_never_show(
        ops in prop::collection::vec(arb_run_op(), 1..30),
    ) {
        let (mut carried, mut plain) = (build_runs(0), build_runs(1));
        // The premise: one carries its folds down the columns (every cell
        // of every column but the first row's), the other never does.
        prop_assert_eq!(plain.sheet(S).folds_carried(), 0);
        prop_assert_eq!(carried.sheet(S).folds_carried(), u64::from(RUN - 1) * CUMULATIVE.len() as u64);
        for (step, op) in ops.iter().enumerate() {
            apply_run_op(&mut carried, op);
            apply_run_op(&mut plain, op);
            for row in 1..=RUN + 2 {
                for col in 4..4 + CUMULATIVE.len() as u32 {
                    let cell = Cell::new(col, row);
                    let (a, b) = (carried.value(S, cell), plain.value(S, cell));
                    prop_assert!(
                        same_bits(&a, &b),
                        "{} is {:?} carried, {:?} plain, after step {} of {:?}", cell, a, b, step, ops
                    );
                }
            }
        }
        prop_assert_eq!(plain.sheet(S).folds_carried(), 0);
    }
}
