//! The compiled program against the tree walk it replaced: random
//! templates — every function, `IF` with `RAND()` in both branches, wrong
//! arities, ranges whose corners cross and that leave the grid at some
//! offsets, stepped literals, text, bool, blank and error operands —
//! evaluated at random offsets, a node of a few rows at a time through one
//! bound [`Frame`], and cell by cell by [`eval`] on the formula autofill
//! builds there ([`At::to_ast`](taco_formula::template::At::to_ast)).
//! Each row must come to the same bits or the same error, after the same
//! number of `RAND()` draws. The program reads through a [`Reader`] that
//! remembers and resumes the folds of `$`-headed ranges; the tree walk
//! folds every range from its first row. So resumed folds, carried folds
//! and hoisted subtrees are held to a reference that shares none of them
//! (debug builds also re-fold every resumed fold).
//!
//! Seeded: a failure names its seed and case.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::ControlFlow;
use taco_formula::ast::Slot;
use taco_formula::eval::{eval, CellProvider, EvalClock, VolatileCtx};
use taco_formula::program::{FoldState, Frame, Reader};
use taco_formula::{BinOp, CellError, Expr, FuncId, Template, UnOp, Value};
use taco_grid::a1::{CellRef, QualifiedRef, RangeRef, SheetRef};
use taco_grid::{Cell, Range};

/// splitmix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize].clone()
    }
}

/// Columns and rows the fixtures hold values in; references are drawn a
/// little wider, offsets move them off the grid's edge.
const COLS: u32 = 7;
const ROWS: u32 = 12;

fn value(rng: &mut Rng) -> Value {
    match rng.below(12) {
        0..=4 => Value::Number(rng.pick(&[0.1, 0.2, 1.0, 2.5, -3.0, 1e16, -1e16, 0.0, 7.0])),
        5 => Value::Text(rng.pick(&["a", "Zed", "12", "inf", "TRUE", "", " 3 "]).into()),
        6 => Value::Bool(rng.chance(50)),
        7 => Value::Error(rng.pick(&[CellError::Div0, CellError::Na, CellError::Value])),
        _ => Value::Empty,
    }
}

fn grid(rng: &mut Rng) -> HashMap<Cell, Value> {
    let mut cells = HashMap::new();
    for col in 1..=COLS {
        for row in 1..=ROWS {
            let v = value(rng);
            if !v.is_empty() {
                cells.insert(Cell::new(col, row), v);
            }
        }
    }
    cells
}

fn corner(rng: &mut Rng) -> CellRef {
    CellRef {
        cell: Cell::new(rng.range(1, i64::from(COLS) + 1) as u32, rng.range(1, 6) as u32),
        col_abs: rng.chance(40),
        row_abs: rng.chance(40),
    }
}

fn reference(rng: &mut Rng) -> Expr {
    let head = corner(rng);
    let rref = match rng.below(5) {
        0 | 1 => RangeRef::single(head),
        // A `$`-fixed head and a tail that moves down from it: the ranges
        // aggregates resume.
        2 => {
            let head = CellRef { col_abs: true, row_abs: true, ..head };
            let tail = CellRef { cell: Cell::new(head.cell.col, head.cell.row + 2), ..corner(rng) };
            RangeRef::from_corners(head, tail)
        }
        // Corners a fill carries across each other: one row fixed, one
        // moving, a row apart.
        3 => {
            let a = CellRef { row_abs: true, ..head };
            let b = CellRef {
                cell: Cell::new(head.cell.col, head.cell.row + 1),
                row_abs: false,
                ..head
            };
            RangeRef::from_corners(b, a)
        }
        _ => RangeRef::from_corners(head, corner(rng)),
    };
    let sheet = match rng.below(10) {
        0 => Some(SheetRef::new("Data").unwrap()),
        1 => Some(SheetRef::new("Nope").unwrap()),
        _ => None,
    };
    Expr::Ref(QualifiedRef { sheet, rref })
}

fn leaf(rng: &mut Rng) -> Expr {
    match rng.below(12) {
        0..=4 => reference(rng),
        5 | 6 => Expr::Number(rng.pick(&[0.0, 1.0, 2.0, 0.5, 3.25, 100.0])),
        7 => {
            Expr::Slot(Slot { c0: rng.pick(&[1.0, 0.5, -2.0]), step: rng.pick(&[1.0, 0.1, -1.0]) })
        }
        8 => Expr::Text(rng.pick(&["a", ">1", "<>a", ">=Zed", "=12", "2", "nan", ""]).into()),
        9 => Expr::Bool(rng.chance(50)),
        10 => Expr::RefError,
        _ => Expr::func("RAND", Vec::new()),
    }
}

fn expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.chance(30) {
        return leaf(rng);
    }
    match rng.below(10) {
        0 | 1 => {
            let op = rng.pick(&[
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Pow,
                BinOp::Concat,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
            ]);
            let (lhs, rhs) = (expr(rng, depth - 1), expr(rng, depth - 1));
            Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
        }
        2 => {
            let op = rng.pick(&[UnOp::Neg, UnOp::Plus]);
            Expr::Unary { op, expr: Box::new(expr(rng, depth - 1)) }
        }
        3 => Expr::Percent(Box::new(expr(rng, depth - 1))),
        // `IF` drawing in both branches: only the branch taken may draw.
        4 => {
            let rand = |rng: &mut Rng| {
                let draw = Expr::func("RAND", Vec::new());
                Expr::Binary { op: BinOp::Add, lhs: Box::new(draw), rhs: Box::new(expr(rng, 0)) }
            };
            let (test, then, otherwise) = (expr(rng, depth - 1), rand(rng), rand(rng));
            Expr::func("IF", vec![test, then, otherwise])
        }
        _ => call(rng, depth),
    }
}

/// A call of any function the evaluator knows, or of an unknown one, with
/// an argument count usually but not always right for it.
fn call(rng: &mut Rng, depth: u32) -> Expr {
    let names: Vec<&str> = FuncId::KNOWN.iter().map(|(name, _)| *name).collect();
    let name = if rng.chance(5) { "FROBNICATE" } else { rng.pick(&names) };
    let usual = match FuncId::of(name) {
        FuncId::Now | FuncId::Today | FuncId::Rand => 0,
        FuncId::Not | FuncId::Abs | FuncId::Sqrt | FuncId::Int | FuncId::Len => 1,
        FuncId::Round | FuncId::CountIf | FuncId::Index | FuncId::Match => 2,
        FuncId::If | FuncId::SumIf | FuncId::AverageIf | FuncId::Vlookup => 3,
        _ => rng.range(1, 3) as usize,
    };
    let argc = if rng.chance(15) { rng.below(5) as usize } else { usual + rng.below(2) as usize };
    let args = (0..argc)
        .map(|i| {
            // Where the function wants a range, usually give it one.
            let wants_range = matches!(
                (FuncId::of(name), i),
                (FuncId::SumIf | FuncId::CountIf | FuncId::AverageIf, 0 | 2)
                    | (FuncId::Vlookup | FuncId::Match, 1)
                    | (FuncId::Index, 0)
            ) || (i == 0 && rng.chance(50));
            if wants_range && rng.chance(80) {
                reference(rng)
            } else {
                expr(rng, depth - 1)
            }
        })
        .collect();
    Expr::func(name, args)
}

/// The sheet both sides read: its cells and a sheet named `Data`.
struct Sheet {
    cells: HashMap<Cell, Value>,
    data: HashMap<Cell, Value>,
}

impl Sheet {
    /// The value of `cell`, on the formula's own sheet for `None`.
    fn value(&self, sheet: Option<&str>, cell: Cell) -> Value {
        let cells = match sheet {
            None => &self.cells,
            Some(name) if name.eq_ignore_ascii_case("Data") => &self.data,
            Some(_) => return Value::Error(CellError::Ref),
        };
        cells.get(&cell).cloned().unwrap_or(Value::Empty)
    }
}

/// The sheet as the tree walk reads one cell's formula, with that cell's
/// `RAND()`.
struct Walked<'a> {
    sheet: &'a Sheet,
    vol: VolatileCtx,
}

impl CellProvider for Walked<'_> {
    fn value(&self, cell: Cell) -> Value {
        self.sheet.value(None, cell)
    }

    fn sheet_value(&self, sheet: &str, cell: Cell) -> Value {
        self.sheet.value(Some(sheet), cell)
    }

    fn volatile(&self) -> Option<&VolatileCtx> {
        Some(&self.vol)
    }
}

/// The sheet as one row of a node reads it through its program, with
/// that cell's `RAND()` and the folds remembered so far.
struct Compiled<'a> {
    sheet: &'a Sheet,
    refs: &'a [QualifiedRef],
    folds: &'a RefCell<Vec<(FuncId, Range, FoldState)>>,
    vol: VolatileCtx,
}

impl Reader for Compiled<'_> {
    fn read(&self, k: usize, cell: Cell) -> Cow<'_, Value> {
        Cow::Owned(self.sheet.value(self.refs[k].sheet_name(), cell))
    }

    fn fold<A, B>(
        &self,
        k: usize,
        range: Range,
        init: A,
        f: &mut impl FnMut(A, &Value) -> ControlFlow<B, A>,
    ) -> ControlFlow<B, A> {
        range.cells().try_fold(init, |acc, cell| f(acc, &self.read(k, cell)))
    }

    fn volatile(&self) -> Option<&VolatileCtx> {
        Some(&self.vol)
    }

    fn resume_fold(&self, _agg: usize, id: FuncId, range: Range) -> Option<(FoldState, u32)> {
        let folds = self.folds.borrow();
        let prefixes = folds.iter().filter(|(known, r, _)| {
            *known == id
                && r.head() == range.head()
                && r.tail().col == range.tail().col
                && r.tail().row <= range.tail().row
        });
        prefixes.max_by_key(|(_, r, _)| r.tail().row).map(|(_, r, s)| (*s, r.tail().row))
    }

    fn remember_fold(&self, _agg: usize, id: FuncId, range: Range, state: FoldState) {
        self.folds.borrow_mut().push((id, range, state));
    }
}

fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

#[test]
fn a_program_evaluates_as_the_tree_walk_does() {
    const SEED: u64 = 0x7AC0_2023;
    const CASES: u64 = 2_500;
    let mut rng = Rng(SEED);
    let (mut rows, mut draws, mut errors) = (0u32, 0u32, 0u32);
    for case in 0..CASES {
        let ast = expr(&mut rng, 4);
        let template = Template::printed(ast.clone());
        let program = template.program();
        let sheet = Sheet { cells: grid(&mut rng), data: grid(&mut rng) };
        let folds = RefCell::default();
        let clock = EvalClock { now: 45000.5, today: 45000.0, rand_seed: rng.next() };
        // A node: a column `dc` over, rows `first..first + n` down — some of
        // them far enough up or left that references leave the grid.
        let dc = rng.range(-3, 3);
        let (first, n) = (rng.range(-6, 6), rng.range(1, 4));
        let at = |dr: i64| Cell::new((10 + dc) as u32, (20 + dr) as u32);
        let compiled = |dr: i64| Compiled {
            sheet: &sheet,
            refs: program.refs(),
            folds: &folds,
            vol: VolatileCtx::for_cell(clock, at(dr)),
        };
        let mut frame = Frame::default();
        program.place(&mut frame, dc);
        let top = compiled(first);
        program.hoist(&mut frame, first, &top);
        assert_eq!(top.vol.draws(), 0, "case {case}: a hoisted subtree drew: {ast}");
        for dr in first..first + n {
            let walked = Walked { sheet: &sheet, vol: VolatileCtx::for_cell(clock, at(dr)) };
            let want = eval(&template.at(dc, dr).to_ast(), &walked);
            let read = compiled(dr);
            let got = program.eval(&mut frame, dr, &read);
            let context = format!("seed {SEED:#x}, case {case}: {ast} at ({dc}, {dr})");
            assert!(same(&got, &want), "{context}: program {got:?}, tree walk {want:?}");
            assert_eq!(read.vol.draws(), walked.vol.draws(), "{context}: RAND() draws");
            rows += 1;
            draws += walked.vol.draws();
            errors += u32::from(want.is_error());
        }
    }
    // The draw exercises what it is meant to.
    assert!(draws > 500 && errors > 1_000 && errors < rows * 3 / 4, "{rows} {draws} {errors}");
}
