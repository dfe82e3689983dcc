//! A template compiled once into a flat postfix program, bound once per
//! node and run once per row.
//!
//! TACO answers queries on a run's compressed form without expanding it
//! (paper §IV); this is the same for evaluation. A run of autofilled cells
//! is one formula at N offsets, and a node of the recalculation pass is a
//! stretch of them down one column, so almost everything about how the
//! formula reads is fixed for the whole node:
//!
//! ```text
//! SUM($A$1:A1)*$B$2+SUM($C$1:$C$8)*{1,2,…}   the template, its last literal stepping
//!
//! compile, per template   ops        Aggregate(SUM, r0, carry 0)  Ref(r1)  Binary(*)
//!                                    Arith(*, Hoisted(0), Slot(0))  Binary(+)
//!                         hoisted 0  Aggregate(SUM, r2, carry 1)
//! bind, per node          each reference placed at the node's column;
//!                         hoisted 0 run once
//! eval, per row           each reference's rows: as written, + dr where they
//!                         move; the ops, reading through the reader
//! ```
//!
//! - **References** are compiled as written where the template was, each
//!   corner `$`-fixed or moving, so one placed at a node's column reads,
//!   `dr` rows down, the range [`RangeRef::autofill`] spans there —
//!   corners straightened, `#REF!` off the grid — without building it.
//!   Every read names its reference, so a reader that bound the reference
//!   to its column for the node (the engine's cell store) goes straight
//!   there.
//! - **Row-invariant subtrees** — calls and operators that read only
//!   ranges whose rows are `$`-fixed at both corners (a node is one
//!   column), constants and non-stepping literals, and call nothing
//!   volatile — are hoisted: run once per node, their value read by every
//!   row. The reader must guarantee that a node writes none of the cells
//!   such a range covers (the engine's scheduler evaluates a stretch whose
//!   fixed read covers its own cells cell by cell).
//! - **Aggregates whose leading range has a `$`-fixed head** go on from
//!   where the reader says their fold stands ([`Reader::resume_fold`],
//!   numbered per program so a node finds its carry without a search) over
//!   the new rows only — one row, read straight, down a node — adding in
//!   the order a fold from the first row adds: the same bits.
//! - **The common shapes are one op**: an aggregate of one reference
//!   (`Op::Aggregate`) and arithmetic on two operands that are each one
//!   push (`Op::Arith`), numbers taken without the stack. A program of
//!   one such op runs without one.
//!
//! The program does what [`crate::eval::eval_at`]'s tree walk does, to the
//! bit — the same values, the same errors, the same `RAND()` draws in the
//! same order. It evaluates an argument only where the tree walk would,
//! because a call that gives up early must not draw for the arguments
//! after: `IF` jumps past the branch it does not take, an aggregate stops
//! at the first error, and a lookup checks each argument before the next
//! is evaluated (`Op::Guard`). The tree walk stays as the reference the
//! differential test compares against.

use crate::ast::{BinOp, Expr, FuncId, Slot};
use crate::eval::{
    eval_binary, holds, position_in, Carried, CellProvider, Criterion, FoldState, Scan,
    VolatileCtx, MAX_RANGE_CELLS,
};
use crate::value::{CellError, Value};
use std::borrow::Cow;
use std::ops::ControlFlow;
use taco_grid::a1::{CellRef, QualifiedRef, RangeRef};
use taco_grid::{Cell, Range, MAX_COL, MAX_ROW};

/// What a program reads through while it evaluates a node's rows: the
/// engine's sheet view, or any [`CellProvider`] through [`ByCell`].
///
/// Every read names the reference it is made for — its index `k` in
/// [`Program::refs`] — and every resumed fold the aggregate it is made for
/// — its index `agg` among the program's aggregates with a `$`-headed
/// leading range, below [`Program::aggregates`].
pub trait Reader {
    /// The value of `cell`, read for reference `k` (usually in its range;
    /// a `SUMIF` sum range is read in the shape of its criteria range).
    fn read(&self, k: usize, cell: Cell) -> Cow<'_, Value>;

    /// [`CellProvider::fold_range`] over `range`, read for reference `k`.
    fn fold<A, B>(
        &self,
        k: usize,
        range: Range,
        init: A,
        f: &mut impl FnMut(A, &Value) -> ControlFlow<B, A>,
    ) -> ControlFlow<B, A>;

    /// [`CellProvider::volatile`].
    fn volatile(&self) -> Option<&VolatileCtx>;

    /// [`CellProvider::resume_fold`], for aggregate `agg`.
    fn resume_fold(&self, agg: usize, id: FuncId, range: Range) -> Option<(FoldState, u32)>;

    /// [`CellProvider::remember_fold`], for aggregate `agg`.
    fn remember_fold(&self, agg: usize, id: FuncId, range: Range, state: FoldState);
}

/// A [`CellProvider`] as a program reads it, cell by cell: what
/// [`crate::template::At::eval`] evaluates a lone formula on.
pub struct ByCell<'a, P> {
    refs: &'a [QualifiedRef],
    cells: &'a P,
}

impl<'a, P: CellProvider> ByCell<'a, P> {
    /// `cells`, read by `program`.
    pub fn new(program: &'a Program, cells: &'a P) -> Self {
        ByCell { refs: &program.refs, cells }
    }
}

impl<P: CellProvider> Reader for ByCell<'_, P> {
    fn read(&self, k: usize, cell: Cell) -> Cow<'_, Value> {
        Cow::Owned(match self.refs[k].sheet_name() {
            None => self.cells.value(cell),
            Some(sheet) => self.cells.sheet_value(sheet, cell),
        })
    }

    fn fold<A, B>(
        &self,
        k: usize,
        range: Range,
        init: A,
        f: &mut impl FnMut(A, &Value) -> ControlFlow<B, A>,
    ) -> ControlFlow<B, A> {
        self.cells.fold_range(self.refs[k].sheet_name(), range, init, f)
    }

    fn volatile(&self) -> Option<&VolatileCtx> {
        self.cells.volatile()
    }

    fn resume_fold(&self, _agg: usize, id: FuncId, range: Range) -> Option<(FoldState, u32)> {
        self.cells.resume_fold(id, range)
    }

    fn remember_fold(&self, _agg: usize, id: FuncId, range: Range, state: FoldState) {
        self.cells.remember_fold(id, range, state)
    }
}

/// One step of a program. Jumps skip forward: `n` is how many ops after
/// this one are skipped.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Pushes constant `i`: a literal, or the error a call gives whatever
    /// its arguments (a wrong arity, an unknown name).
    Const(u32),
    /// Pushes the program's stepping literal `i` at the row.
    Slot(u32),
    /// Pushes reference `k` at the row: its range, or `#REF!` off the grid.
    Ref(u32),
    /// Pushes what hoisted subtree `i` came to for the node.
    Hoisted(u32),
    /// Reads the reference on top as a scalar: `IF` gives no range.
    Scalar,
    Neg,
    Plus,
    Percent,
    Binary(BinOp),
    /// `Binary` of two operands each one push: the one op most formulas
    /// of a filled column come to (`D{r-1}+A{r}`, `SUM(..)*{r}` hoisted).
    Arith {
        op: BinOp,
        lhs: Src,
        rhs: Src,
    },
    /// `IF`'s test of the scalar on top: on to the first branch if true,
    /// skips `otherwise` ops to the second if false, `end` ops past both
    /// with the error if it is one.
    Test {
        otherwise: u32,
        end: u32,
    },
    Jump(u32),
    /// Pushes aggregate `id`'s fold as it starts.
    Begin(FuncId),
    /// Folds the operand on top into the aggregate's fold under it; on an
    /// error the call is that error, the rest of it skipped (`end`).
    Fold {
        id: FuncId,
        end: u32,
    },
    /// Folds reference `k`, the aggregate's leading range with a `$`-fixed
    /// head, going on from where the reader says aggregate `agg`'s fold
    /// stands, and tells it where it stands after.
    Resume {
        id: FuncId,
        k: u32,
        agg: u32,
        end: u32,
    },
    /// The aggregate's value from its fold.
    Finish(FuncId),
    /// `Begin`, then `Resume` (for aggregate `agg`) or `Ref` and `Fold`
    /// (`agg` [`NO_AGGREGATE`]), then `Finish`: an aggregate of reference
    /// `k` alone (`SUM(A{r}:A{r+2})`, `SUM($A$1:A{r})`).
    Aggregate {
        id: FuncId,
        k: u32,
        agg: u32,
    },
    /// The checks call `id` makes once its argument `arg` is known, before
    /// it evaluates the next: on a failed one the call is that error, the
    /// rest of it skipped (`end`).
    Guard {
        id: FuncId,
        arg: u32,
        end: u32,
    },
    /// Calls `id` with the top `argc` operands, every check passed.
    Call {
        id: FuncId,
        argc: u32,
    },
}

/// An operand one op pushes, as [`Op::Arith`] takes it without the stack.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Src {
    Const(u32),
    /// The program's stepping literal `i`.
    Slot(u32),
    Ref(u32),
    Hoisted(u32),
}

/// [`Op::Aggregate`]'s `agg` for an aggregate that does not resume.
const NO_AGGREGATE: u32 = u32::MAX;

/// An operand on the stack: a scalar, where to find one, or a range. It
/// owns nothing — a text made while the row runs is kept in the frame
/// ([`Item::Text`]) — so the stack moves plain words.
#[derive(Debug, Clone, Copy)]
enum Item {
    Num(f64),
    Bool(bool),
    Err(CellError),
    Empty,
    /// Text the row made, the frame's `texts[i]`.
    Text(u32),
    /// The program's constant `i`.
    Const(u32),
    /// What hoisted subtree `i` came to for the node.
    Hoisted(u32),
    /// Reference `k`'s range at the row, read by whoever takes it.
    Ref(u32, Range),
    /// An aggregate's fold so far.
    Acc(FoldState),
}

/// A [`crate::Template`]'s tree, compiled: see the module documentation.
///
/// `repr(C)`, fields in the order a node binds them: a full pass after a
/// load meets most runs cold in the cache, and a short node (the
/// `recalc` workbook's window column was 4 096 nodes of two rows, before
/// a run spanned blank rows) then misses as few of its run's lines as the
/// program's head spans. Measured against the
/// compiler's own field order on one pinned core of a two-core VM: the
/// `recalc` full pass 5–8 % faster in four of five pairs.
#[derive(Debug, Clone, PartialEq)]
#[repr(C)]
pub struct Program {
    /// What every row runs.
    ops: Small<Op>,
    /// Aggregates with a `$`-headed leading range, numbered in order.
    aggregates: usize,
    hoists: Vec<(u32, u32)>,
    /// Every reference, as written where the template was.
    refs: Small<QualifiedRef>,
    /// The hoisted subtrees' ops, `hoisted[start..end]` each.
    hoisted: Vec<Op>,
    consts: Vec<Value>,
    /// The literals that step and that [`Src::Slot`] names.
    slots: Vec<Slot>,
}

/// A list that holds one item in place: most filled formulas compile to
/// one op over one reference, and a node of a few rows then reads them off
/// its run, not off two more allocations.
#[derive(Debug, Clone, PartialEq)]
enum Small<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> From<Vec<T>> for Small<T> {
    fn from(mut items: Vec<T>) -> Small<T> {
        match items.pop() {
            Some(item) if items.is_empty() => Small::One(item),
            Some(item) => {
                items.push(item);
                Small::Many(items)
            }
            None => Small::Many(items),
        }
    }
}

impl<T> std::ops::Deref for Small<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Small::One(item) => std::slice::from_ref(item),
            Small::Many(items) => items,
        }
    }
}

/// A reference placed at a node's column: the columns it spans there —
/// `None` off the grid — and each corner's row `dr` rows down, `row + step
/// · dr` (`step` 0 for a `$`-fixed row, 1 for a moving one).
#[derive(Debug, Clone, Copy)]
struct Place {
    cols: Option<(u32, u32)>,
    rows: [i64; 2],
    steps: [i64; 2],
}

impl Place {
    fn at(rref: &RangeRef, dc: i64) -> Place {
        let col = |c: &CellRef| i64::from(c.cell.col) + if c.col_abs { 0 } else { dc };
        let (a, b) = (col(&rref.head), col(&rref.tail));
        let on = |col: i64| (1..=i64::from(MAX_COL)).contains(&col);
        let row = |c: &CellRef| (i64::from(c.cell.row), i64::from(!c.row_abs));
        let ((head, head_step), (tail, tail_step)) = (row(&rref.head), row(&rref.tail));
        Place {
            cols: (on(a) && on(b)).then(|| (a.min(b) as u32, a.max(b) as u32)),
            rows: [head, tail],
            steps: [head_step, tail_step],
        }
    }

    /// The range the reference reads `dr` rows down — the range its
    /// corners span there, as [`RangeRef::autofill`] straightens them —
    /// or `None` off the grid.
    #[inline]
    fn range(&self, dr: i64) -> Option<Range> {
        let (lo, hi) = self.cols?;
        let a = self.rows[0] + self.steps[0] * dr;
        let b = self.rows[1] + self.steps[1] * dr;
        let on = |row: i64| (1..=i64::from(MAX_ROW)).contains(&row);
        (on(a) && on(b)).then(|| Range::from_coords(lo, a.min(b) as u32, hi, a.max(b) as u32))
    }
}

/// A program bound to a node: where its references are at the node's
/// column, what its hoisted subtrees came to, and its stack. Kept by the
/// caller from node to node, so a warm one allocates nothing.
#[derive(Debug, Default)]
pub struct Frame {
    places: Vec<Place>,
    hoisted: Vec<Value>,
    stack: Vec<Item>,
    /// The texts the row being run made so far.
    texts: Vec<Value>,
}

impl Program {
    /// Compiles a template's tree.
    pub(crate) fn compile(ast: &Expr) -> Program {
        let mut c = Compiler::default();
        let mut ops = Vec::new();
        c.expr(ast, &mut ops, true);
        Program {
            ops: ops.into(),
            hoisted: c.hoisted,
            hoists: c.hoists,
            consts: c.consts,
            slots: c.slots,
            refs: c.refs.into(),
            aggregates: c.aggregates as usize,
        }
    }

    /// Every reference, as written where the template was: the `k` a
    /// [`Reader`] is asked to read for.
    pub fn refs(&self) -> &[QualifiedRef] {
        &self.refs
    }

    /// How many aggregates with a `$`-headed leading range the program
    /// has: the `agg` a [`Reader`] is asked to resume for is below it.
    pub fn aggregates(&self) -> usize {
        self.aggregates
    }

    /// Places the references at a node `dc` columns from where the
    /// template was written.
    pub fn place(&self, frame: &mut Frame, dc: i64) {
        frame.places.clear();
        frame.places.extend(self.refs.iter().map(|q| Place::at(&q.rref, dc)));
    }

    /// Runs each hoisted subtree for the node placed, at its row `dr` rows
    /// down (any of its rows: the subtrees read the same at each). A
    /// program with none leaves the frame's as they were: it reads none.
    #[inline]
    pub fn hoist<R: Reader>(&self, frame: &mut Frame, dr: i64, cells: &R) {
        if self.hoists.is_empty() {
            return;
        }
        frame.hoisted.clear();
        for &(start, end) in &self.hoists {
            let cx = Cx { program: self, places: &frame.places, hoisted: &[], cells, dr };
            let ops = &self.hoisted[start as usize..end as usize];
            let value = cx.run(ops, &mut frame.stack, &mut frame.texts);
            frame.hoisted.push(value);
        }
    }

    /// The formula's value `dr` rows down the node placed and hoisted.
    #[inline]
    pub fn eval<R: Reader>(&self, frame: &mut Frame, dr: i64, cells: &R) -> Value {
        let cx = Cx { program: self, places: &frame.places, hoisted: &frame.hoisted, cells, dr };
        cx.run(&self.ops, &mut frame.stack, &mut frame.texts)
    }
}

/// Builds a [`Program`].
#[derive(Default)]
struct Compiler {
    hoisted: Vec<Op>,
    hoists: Vec<(u32, u32)>,
    consts: Vec<Value>,
    slots: Vec<Slot>,
    refs: Vec<QualifiedRef>,
    aggregates: u32,
}

impl Compiler {
    fn constant(&mut self, value: Value, out: &mut Vec<Op>) {
        out.push(Op::Const(self.consts.len() as u32));
        self.consts.push(value);
    }

    fn reference(&mut self, q: &QualifiedRef) -> u32 {
        self.refs.push(q.clone());
        (self.refs.len() - 1) as u32
    }

    /// Compiles `e` into `out`. Where `hoist`, a row-invariant call or
    /// operator goes to the hoisted subtrees instead, whole, and `out`
    /// reads its value.
    fn expr(&mut self, e: &Expr, out: &mut Vec<Op>, hoist: bool) {
        let computed = matches!(
            e,
            Expr::Func { .. } | Expr::Binary { .. } | Expr::Unary { .. } | Expr::Percent(_)
        );
        if hoist && computed && invariant(e) {
            let mut sub = Vec::new();
            self.expr(e, &mut sub, false);
            if let [Op::Const(_)] = sub[..] {
                out.extend(sub);
                return;
            }
            let start = self.hoisted.len() as u32;
            self.hoisted.extend(sub);
            out.push(Op::Hoisted(self.hoists.len() as u32));
            self.hoists.push((start, self.hoisted.len() as u32));
            return;
        }
        match e {
            Expr::Number(n) => self.constant(Value::Number(*n), out),
            Expr::Slot(slot) => {
                self.slots.push(*slot);
                out.push(Op::Slot((self.slots.len() - 1) as u32));
            }
            Expr::Text(text) => self.constant(Value::Text(text.clone()), out),
            Expr::Bool(b) => self.constant(Value::Bool(*b), out),
            Expr::RefError => self.constant(Value::Error(CellError::Ref), out),
            Expr::Ref(q) => {
                let k = self.reference(q);
                out.push(Op::Ref(k));
            }
            Expr::Percent(x) => {
                self.expr(x, out, hoist);
                out.push(Op::Percent);
            }
            Expr::Unary { op, expr } => {
                self.expr(expr, out, hoist);
                out.push(match op {
                    crate::UnOp::Neg => Op::Neg,
                    crate::UnOp::Plus => Op::Plus,
                });
            }
            Expr::Binary { op, lhs, rhs } => {
                let at = out.len();
                self.expr(lhs, out, hoist);
                let mid = out.len();
                self.expr(rhs, out, hoist);
                if let (&[lhs], &[rhs]) = (&out[at..mid], &out[mid..]) {
                    if let (Some(lhs), Some(rhs)) = (src(lhs), src(rhs)) {
                        out.truncate(at);
                        return out.push(Op::Arith { op: *op, lhs, rhs });
                    }
                }
                out.push(Op::Binary(*op));
            }
            Expr::Func { id, args, .. } => self.call(*id, args, out, hoist),
        }
    }

    /// Numbers the next aggregate whose leading range resumes.
    fn aggregate(&mut self) -> u32 {
        self.aggregates += 1;
        self.aggregates - 1
    }

    fn call(&mut self, id: FuncId, args: &[Expr], out: &mut Vec<Op>, hoist: bool) {
        use FuncId::*;
        let arity = |lo: usize, hi: usize| (lo..=hi).contains(&args.len());
        let wrong = match id {
            If => !arity(1, 3),
            Not | Abs | Sqrt | Int | Len => !arity(1, 1),
            Round => !arity(2, 2),
            Vlookup => !arity(3, 4),
            SumIf | AverageIf | Index | Match => !arity(2, 3),
            CountIf => !arity(2, 2),
            Rand => !args.is_empty(),
            _ => false,
        };
        if wrong {
            return self.constant(Value::Error(CellError::Value), out);
        }
        match id {
            Sum | Product | Count | CountA | Average | Min | Max | And | Or => {
                if let [Expr::Ref(q)] = args {
                    let k = self.reference(q);
                    let agg = if resumes(q) { self.aggregate() } else { NO_AGGREGATE };
                    return out.push(Op::Aggregate { id, k, agg });
                }
                out.push(Op::Begin(id));
                let mut exits = Vec::with_capacity(args.len());
                for (i, arg) in args.iter().enumerate() {
                    match arg {
                        Expr::Ref(q) if i == 0 && resumes(q) => {
                            let (k, agg) = (self.reference(q), self.aggregate());
                            exits.push(out.len());
                            out.push(Op::Resume { id, k, agg, end: 0 });
                        }
                        _ => {
                            self.expr(arg, out, hoist);
                            exits.push(out.len());
                            out.push(Op::Fold { id, end: 0 });
                        }
                    }
                }
                out.push(Op::Finish(id));
                land(out, &exits);
            }
            If => {
                self.expr(&args[0], out, hoist);
                let test = out.len();
                out.push(Op::Test { otherwise: 0, end: 0 });
                self.branch(args.get(1), true, out, hoist);
                let jump = out.len();
                out.push(Op::Jump(0));
                let otherwise = out.len();
                self.branch(args.get(2), false, out, hoist);
                let skip = |from: usize, to: usize| (to - from - 1) as u32;
                out[test] =
                    Op::Test { otherwise: skip(test, otherwise), end: skip(test, out.len()) };
                out[jump] = Op::Jump(skip(jump, out.len()));
            }
            Now | Today | Rand => out.push(Op::Call { id, argc: 0 }),
            Unknown => self.constant(Value::Error(CellError::Name), out),
            _ => {
                let mut exits = Vec::new();
                for (i, arg) in args.iter().enumerate() {
                    self.expr(arg, out, hoist);
                    if checks_after(id, i) {
                        exits.push(out.len());
                        out.push(Op::Guard { id, arg: i as u32, end: 0 });
                    }
                }
                out.push(Op::Call { id, argc: args.len() as u32 });
                land(out, &exits);
            }
        }
    }

    /// One of `IF`'s branches — `TRUE` or `FALSE` where it has none — as
    /// the scalar `IF` gives.
    fn branch(&mut self, arg: Option<&Expr>, missing: bool, out: &mut Vec<Op>, hoist: bool) {
        match arg {
            None => self.constant(Value::Bool(missing), out),
            Some(arg) => {
                self.expr(arg, out, hoist);
                if let Expr::Ref(_) = arg {
                    out.push(Op::Scalar);
                }
            }
        }
    }
}

/// Whether an aggregate's leading range `q` resumes its fold: on the
/// formula's own sheet, its head `$`-fixed — the range autofill repeats or
/// grows from one cell of a run to the next.
fn resumes(q: &QualifiedRef) -> bool {
    q.sheet.is_none() && q.rref.head.is_fixed()
}

/// The operand a one-push op pushes.
fn src(op: Op) -> Option<Src> {
    Some(match op {
        Op::Const(i) => Src::Const(i),
        Op::Slot(i) => Src::Slot(i),
        Op::Ref(k) => Src::Ref(k),
        Op::Hoisted(i) => Src::Hoisted(i),
        _ => return None,
    })
}

/// Points each op at `exits` past the last op of `out`.
fn land(out: &mut [Op], exits: &[usize]) {
    let here = out.len();
    for &at in exits {
        let skip = (here - at - 1) as u32;
        match &mut out[at] {
            Op::Fold { end, .. } | Op::Resume { end, .. } | Op::Guard { end, .. } => *end = skip,
            op => unreachable!("{op:?} does not exit a call"),
        }
    }
}

/// Whether call `id` checks its argument `arg` before it evaluates the
/// next one (see [`Cx::guard`]).
fn checks_after(id: FuncId, arg: usize) -> bool {
    match id {
        FuncId::Vlookup => arg <= 2,
        FuncId::SumIf | FuncId::CountIf | FuncId::AverageIf | FuncId::Index | FuncId::Match => {
            arg <= 1
        }
        FuncId::Concatenate => true,
        _ => false,
    }
}

/// Whether `e` comes to one value at every row of a node: it reads only
/// ranges whose rows are `$`-fixed at both corners, steps no literal and
/// calls nothing volatile.
fn invariant(e: &Expr) -> bool {
    match e {
        Expr::Number(_) | Expr::Text(_) | Expr::Bool(_) | Expr::RefError => true,
        Expr::Slot(_) => false,
        Expr::Ref(q) => q.rref.head.row_abs && q.rref.tail.row_abs,
        Expr::Func { id, args, .. } => {
            !matches!(id, FuncId::Now | FuncId::Today | FuncId::Rand) && args.iter().all(invariant)
        }
        Expr::Binary { lhs, rhs, .. } => invariant(lhs) && invariant(rhs),
        Expr::Unary { expr, .. } | Expr::Percent(expr) => invariant(expr),
    }
}

/// What [`eval_binary`] gives for two numbers, in one step; `None` for
/// `&`, which formats them.
#[inline]
fn arithmetic(op: BinOp, a: f64, b: f64) -> Option<Item> {
    Some(match op {
        BinOp::Add => Item::Num(a + b),
        BinOp::Sub => Item::Num(a - b),
        BinOp::Mul => Item::Num(a * b),
        BinOp::Div if b == 0.0 => Item::Err(CellError::Div0),
        BinOp::Div => Item::Num(a / b),
        BinOp::Pow => Item::Num(a.powf(b)),
        BinOp::Concat => return None,
        _ => Item::Bool(holds(op, a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal))),
    })
}

/// A run of a program over one row, `dr` rows down its node.
struct Cx<'c, R> {
    program: &'c Program,
    places: &'c [Place],
    hoisted: &'c [Value],
    cells: &'c R,
    dr: i64,
}

#[inline]
fn pop(stack: &mut Vec<Item>) -> Item {
    stack.pop().expect("an op's operands are on the stack")
}

/// The error a scalar is, if it is one.
fn error_of(v: &Value) -> Option<CellError> {
    match v {
        Value::Error(e) => Some(*e),
        _ => None,
    }
}

/// `value` as an operand, a text kept in `texts`.
fn item(value: Value, texts: &mut Vec<Value>) -> Item {
    match value {
        Value::Number(n) => Item::Num(n),
        Value::Bool(b) => Item::Bool(b),
        Value::Error(e) => Item::Err(e),
        Value::Empty => Item::Empty,
        text => {
            texts.push(text);
            Item::Text((texts.len() - 1) as u32)
        }
    }
}

impl<R: Reader> Cx<'_, R> {
    /// Runs `ops` to the value they leave. The loop does what most rows
    /// do — push operands, numbers through arithmetic, aggregates open and
    /// closed — and hands every other op to [`Self::step`], out of line, so
    /// that it stays small.
    fn run(&self, ops: &[Op], stack: &mut Vec<Item>, texts: &mut Vec<Value>) -> Value {
        texts.clear();
        // Most filled formulas compile to one such op: no stack.
        match *ops {
            [Op::Arith { op, lhs, rhs }] => {
                return self.value(self.arith(op, lhs, rhs, texts), texts)
            }
            [Op::Aggregate { id, k, agg }] => {
                return self.value(self.aggregate_of(id, k, agg), texts)
            }
            _ => {}
        }
        let mut pc = 0;
        while let Some(&op) = ops.get(pc) {
            pc += 1;
            match op {
                Op::Const(_) | Op::Slot(_) | Op::Ref(_) | Op::Hoisted(_) => {
                    stack.push(self.operand(src(op).expect("a push")));
                }
                Op::Binary(bin) => {
                    let (rhs, lhs) = (pop(stack), pop(stack));
                    let numbers = self.number(lhs).zip(self.number(rhs));
                    let done = numbers.and_then(|(a, b)| arithmetic(bin, a, b));
                    stack.push(match done {
                        Some(item) => item,
                        None => self.binary(bin, lhs, rhs, texts),
                    });
                }
                Op::Arith { op: bin, lhs, rhs } => stack.push(self.arith(bin, lhs, rhs, texts)),
                Op::Aggregate { id, k, agg } => stack.push(self.aggregate_of(id, k, agg)),
                Op::Begin(id) => stack.push(Item::Acc(start(id))),
                Op::Finish(id) => {
                    let top = stack.last_mut().expect("a fold");
                    let Item::Acc(state) = *top else { unreachable!("a fold, not {top:?}") };
                    *top = finish(id, state);
                }
                op => pc += self.step(op, stack, texts),
            }
        }
        self.value(pop(stack), texts)
    }

    /// The value a program leaves, its last operand.
    #[inline]
    fn value(&self, top: Item, texts: &mut [Value]) -> Value {
        match top {
            Item::Num(n) => Value::Number(n),
            Item::Text(i) => std::mem::replace(&mut texts[i as usize], Value::Empty),
            _ => self.scalar(top, texts).into_owned(),
        }
    }

    /// Every op but those [`Self::run`] does itself; returns how many ops
    /// to skip.
    #[inline(never)]
    fn step(&self, op: Op, stack: &mut Vec<Item>, texts: &mut Vec<Value>) -> usize {
        match op {
            Op::Scalar => {
                if let Some(&top @ Item::Ref(..)) = stack.last() {
                    stack.pop();
                    let value = self.scalar(top, texts).into_owned();
                    stack.push(item(value, texts));
                }
            }
            Op::Neg | Op::Plus | Op::Percent => {
                let top = pop(stack);
                let n =
                    self.number(top).ok_or(()).or_else(|()| self.scalar(top, texts).as_number());
                stack.push(match n {
                    Ok(n) if op == Op::Neg => Item::Num(-n),
                    Ok(n) if op == Op::Plus => Item::Num(n),
                    Ok(n) => Item::Num(n / 100.0),
                    Err(e) => Item::Err(e),
                });
            }
            Op::Test { otherwise, end } => {
                let test = pop(stack);
                match self.scalar(test, texts).as_bool() {
                    Ok(true) => {}
                    Ok(false) => return otherwise as usize,
                    Err(e) => {
                        stack.push(Item::Err(e));
                        return end as usize;
                    }
                }
            }
            Op::Jump(n) => return n as usize,
            Op::Fold { id, end } => {
                let operand = pop(stack);
                let folded = self.fold(id, acc(stack), operand, texts);
                return settle(stack, folded, end);
            }
            Op::Resume { id, k, agg, end } => {
                let folded = self.resume(id, k as usize, agg as usize, acc(stack));
                return settle(stack, folded, end);
            }
            Op::Guard { id, arg, end } => {
                let at = stack.len() - 1 - arg as usize;
                if let Some(e) = self.guard(id, &stack[at..], texts) {
                    stack.truncate(at);
                    stack.push(Item::Err(e));
                    return end as usize;
                }
            }
            Op::Call { id, argc } => {
                let at = stack.len() - argc as usize;
                let value = self.call(id, &stack[at..], texts);
                stack.truncate(at);
                stack.push(item(value, texts));
            }
            op => unreachable!("{op:?} runs in the loop"),
        }
        0
    }

    /// [`Op::Arith`].
    #[inline(always)]
    fn arith(&self, op: BinOp, lhs: Src, rhs: Src, texts: &mut Vec<Value>) -> Item {
        let numbers = self.fetch(lhs).zip(self.fetch(rhs));
        match numbers.and_then(|(a, b)| arithmetic(op, a, b)) {
            Some(item) => item,
            None => self.binary(op, self.operand(lhs), self.operand(rhs), texts),
        }
    }

    /// [`Op::Aggregate`]: everything down to the scan of the cells in one
    /// frame.
    #[inline(never)]
    fn aggregate_of(&self, id: FuncId, k: u32, agg: u32) -> Item {
        let folded = if agg == NO_AGGREGATE {
            self.fold(id, start(id), self.operand(Src::Ref(k)), &[])
        } else {
            self.resume(id, k as usize, agg as usize, start(id))
        };
        match folded {
            Ok(state) => finish(id, state),
            Err(e) => Item::Err(e),
        }
    }

    /// [`eval_binary`] for operands that are not two numbers, or for `&`.
    #[inline(never)]
    fn binary(&self, op: BinOp, lhs: Item, rhs: Item, texts: &mut Vec<Value>) -> Item {
        let value = eval_binary(op, &self.scalar(lhs, texts), &self.scalar(rhs, texts));
        item(value, texts)
    }

    /// What the op `src` stands for pushes.
    #[inline(always)]
    fn operand(&self, src: Src) -> Item {
        match src {
            Src::Const(i) => Item::Const(i),
            Src::Slot(i) => Item::Num(self.program.slots[i as usize].at(self.dr)),
            Src::Ref(k) => match self.places[k as usize].range(self.dr) {
                Some(range) => Item::Ref(k, range),
                None => Item::Err(CellError::Ref),
            },
            Src::Hoisted(i) => Item::Hoisted(i),
        }
    }

    /// [`Self::number`] of [`Self::operand`].
    #[inline(always)]
    fn fetch(&self, src: Src) -> Option<f64> {
        self.number(self.operand(src))
    }

    /// The operand as a number, if it is one: the way arithmetic takes
    /// numbers, which [`Self::scalar`] and [`eval_binary`] take for
    /// everything else.
    #[inline(always)]
    fn number(&self, operand: Item) -> Option<f64> {
        let value = match operand {
            Item::Num(n) => return Some(n),
            Item::Const(i) => &self.program.consts[i as usize],
            Item::Hoisted(i) => &self.hoisted[i as usize],
            Item::Ref(k, range) if range.is_cell() => {
                return match *self.cells.read(k as usize, range.head()) {
                    Value::Number(n) => Some(n),
                    _ => None,
                };
            }
            _ => return None,
        };
        match *value {
            Value::Number(n) => Some(n),
            _ => None,
        }
    }

    /// An operand as a scalar: a range of one cell reads it, a wider one
    /// is `#VALUE!`.
    fn scalar<'v>(&'v self, operand: Item, texts: &'v [Value]) -> Cow<'v, Value> {
        match operand {
            Item::Num(n) => Cow::Owned(Value::Number(n)),
            Item::Bool(b) => Cow::Owned(Value::Bool(b)),
            Item::Err(e) => Cow::Owned(Value::Error(e)),
            Item::Empty => Cow::Owned(Value::Empty),
            Item::Text(i) => Cow::Borrowed(&texts[i as usize]),
            Item::Const(i) => Cow::Borrowed(&self.program.consts[i as usize]),
            Item::Hoisted(i) => Cow::Borrowed(&self.hoisted[i as usize]),
            Item::Ref(k, range) if range.is_cell() => self.cells.read(k as usize, range.head()),
            Item::Ref(..) => Cow::Owned(Value::Error(CellError::Value)),
            Item::Acc(_) => unreachable!("a fold is no operand"),
        }
    }

    /// Reference `k`'s cells in `range`, as an aggregate folds them.
    fn cells_of(&self, k: usize, range: Range) -> Cells<'_, R> {
        Cells { cells: self.cells, k, range }
    }

    /// Folds an operand into aggregate `id`'s fold: every cell of a
    /// range, or the scalar.
    #[inline(always)]
    fn fold(
        &self,
        id: FuncId,
        state: FoldState,
        operand: Item,
        texts: &[Value],
    ) -> Result<FoldState, CellError> {
        match operand {
            Item::Ref(_, range) if range.area() > MAX_RANGE_CELLS => Err(CellError::Value),
            Item::Ref(k, range) => aggregate(id, state, self.cells_of(k as usize, range)),
            _ => aggregate(id, state, &*self.scalar(operand, texts)),
        }
    }

    /// Folds reference `k`, aggregate `agg`'s leading range, into `init`:
    /// from where the reader says the fold stands, over the rows after
    /// it, then tells the reader where it stands now.
    #[inline]
    fn resume(
        &self,
        id: FuncId,
        k: usize,
        agg: usize,
        init: FoldState,
    ) -> Result<FoldState, CellError> {
        let Some(range) = self.places[k].range(self.dr) else {
            // Off the grid: folded as the `#REF!` it reads as.
            return aggregate(id, init, &Value::Error(CellError::Ref));
        };
        if range.area() > MAX_RANGE_CELLS {
            return Err(CellError::Value);
        }
        let (head, tail) = (range.head(), range.tail());
        let mut state = init;
        let mut todo = Some(range);
        if let Some((resumed, through)) = self.cells.resume_fold(agg, id, range) {
            // Debug builds hold every resumed fold to the fold it stands
            // for, so each suite that evaluates a formula checks it.
            #[cfg(debug_assertions)]
            {
                let folded = Range::from_coords(head.col, head.row, tail.col, through);
                let fresh = aggregate(id, init, self.cells_of(k, folded));
                debug_assert!(
                    fresh.is_ok_and(|fresh| fresh.bits() == resumed.bits()),
                    "{id:?} over {folded}: remembered {resumed:?}, folds to {fresh:?}"
                );
            }
            state = resumed;
            todo = (through < tail.row)
                .then(|| Range::from_coords(head.col, through + 1, tail.col, tail.row));
        }
        match todo {
            // The one row a fold carried down a column goes on by.
            Some(todo) if todo.is_cell() => {
                state = aggregate(id, state, &*self.cells.read(k, todo.head()))?;
            }
            Some(todo) => state = aggregate(id, state, self.cells_of(k, todo))?,
            None => {}
        }
        self.cells.remember_fold(agg, id, range, state);
        Ok(state)
    }

    /// The error call `id` gives up with once it knows the last of `args`,
    /// before it evaluates another; `None` to go on. These are the checks
    /// [`Self::call`] counts on having passed.
    fn guard(&self, id: FuncId, args: &[Item], texts: &[Value]) -> Option<CellError> {
        let last = *args.last().expect("the argument just evaluated");
        let range = match last {
            Item::Ref(_, range) => Some(range),
            _ => None,
        };
        match (id, args.len() - 1) {
            (FuncId::Vlookup | FuncId::Match, 0)
            | (FuncId::SumIf | FuncId::CountIf | FuncId::AverageIf, 1)
            | (FuncId::Concatenate, _) => error_of(&self.scalar(last, texts)),
            (FuncId::Vlookup, 1)
            | (FuncId::SumIf | FuncId::CountIf | FuncId::AverageIf | FuncId::Index, 0) => {
                range.is_none().then_some(CellError::Value)
            }
            (FuncId::Match, 1) => match range {
                Some(line) if line.is_line() && line.area() <= MAX_RANGE_CELLS => None,
                _ => Some(CellError::Value),
            },
            (FuncId::Vlookup, 2) => {
                let Item::Ref(_, table) = args[1] else { unreachable!("checked a range") };
                match self.scalar(last, texts).as_number() {
                    Err(e) => Some(e),
                    Ok(col) => {
                        let col = col as i64;
                        (col < 1 || col > i64::from(table.width())).then_some(CellError::Ref)
                    }
                }
            }
            (FuncId::Index, 1) => self.scalar(last, texts).as_number().err(),
            _ => None,
        }
    }

    /// Call `id` of `args`, its [`Self::guard`]s passed.
    fn call(&self, id: FuncId, args: &[Item], texts: &[Value]) -> Value {
        let scalar = |arg: Item| self.scalar(arg, texts);
        let result = match id {
            FuncId::Not => {
                self.single(args, texts).and_then(|v| v.as_bool()).map(|b| Value::Bool(!b))
            }
            FuncId::Abs | FuncId::Sqrt | FuncId::Int => {
                let f = match id {
                    FuncId::Abs => f64::abs,
                    FuncId::Sqrt => f64::sqrt,
                    _ => f64::floor,
                };
                self.single(args, texts).and_then(|v| v.as_number()).map(|n| Value::Number(f(n)))
            }
            FuncId::Len => self
                .single(args, texts)
                .and_then(|v| v.as_text())
                .map(|s| Value::Number(s.chars().count() as f64)),
            FuncId::Round => match (scalar(args[0]).as_number(), scalar(args[1]).as_number()) {
                (Ok(n), Ok(d)) => {
                    let m = 10f64.powi(d as i32);
                    Ok(Value::Number((n * m).round() / m))
                }
                (Err(e), _) | (_, Err(e)) => Err(e),
            },
            FuncId::Concatenate => args
                .iter()
                .try_fold(String::new(), |mut s, &arg| {
                    s.push_str(&scalar(arg).as_text()?);
                    Ok(s)
                })
                .map(Value::Text),
            FuncId::Vlookup => self.vlookup(args, texts),
            FuncId::SumIf | FuncId::CountIf | FuncId::AverageIf => {
                self.cond_aggregate(id, args, texts)
            }
            FuncId::Index => self.index(args, texts),
            FuncId::Match => self.match_fn(args, texts),
            // Volatile functions read the injected clock; without one they
            // fall back to deterministic zeros.
            FuncId::Now => Ok(Value::Number(self.cells.volatile().map_or(0.0, VolatileCtx::now))),
            FuncId::Today => {
                Ok(Value::Number(self.cells.volatile().map_or(0.0, VolatileCtx::today)))
            }
            FuncId::Rand => {
                Ok(Value::Number(self.cells.volatile().map_or(0.0, VolatileCtx::next_rand)))
            }
            _ => unreachable!("{id:?} compiles to no call"),
        };
        result.unwrap_or_else(Value::Error)
    }

    /// The one argument of a one-argument function, an error as such.
    fn single<'v>(
        &'v self,
        args: &[Item],
        texts: &'v [Value],
    ) -> Result<Cow<'v, Value>, CellError> {
        let value = self.scalar(args[0], texts);
        match error_of(&value) {
            Some(e) => Err(e),
            None => Ok(value),
        }
    }

    /// The 1-based position of `needle` in reference `k`'s `line`.
    fn position(&self, k: u32, line: Range, needle: &Value, exact: bool) -> Option<u64> {
        let scan = |mut f: &mut dyn FnMut(Scan, &Value) -> ControlFlow<u64, Scan>| {
            self.cells.fold(k as usize, line, (0, None), &mut f)
        };
        position_in(scan, needle, exact)
    }

    /// `SUMIF`/`COUNTIF`/`AVERAGEIF`: criteria over one range, optionally
    /// summing a second, read in the criteria range's shape from its head.
    fn cond_aggregate(
        &self,
        id: FuncId,
        args: &[Item],
        texts: &[Value],
    ) -> Result<Value, CellError> {
        let Item::Ref(crit_k, crit_range) = args[0] else { return Err(CellError::Value) };
        let criterion = self.scalar(args[1], texts);
        let criterion = Criterion::of(&criterion);
        let sum_range = match args.get(2) {
            None => None,
            Some(&Item::Ref(k, range)) => Some((k as usize, range.head())),
            Some(_) => return Err(CellError::Value),
        };
        if crit_range.area() > MAX_RANGE_CELLS {
            return Err(CellError::Value);
        }
        let want_sum = id != FuncId::CountIf;
        let width = u64::from(crit_range.width());
        // (cells visited, cells that matched, their sum)
        let init = (0u64, 0u64, 0.0);
        let flow = self.cells.fold(crit_k as usize, crit_range, init, &mut |acc, v| {
            let (at, count, sum) = acc;
            if !criterion.matches(v) {
                return ControlFlow::Continue((at + 1, count, sum));
            }
            let summed = match sum_range {
                // COUNTIF only counts.
                _ if !want_sum => Ok(0.0),
                None => v.as_number(),
                Some((k, head)) => {
                    // The cell at the same offset from the sum range's head.
                    let col = i64::from(head.col) + (at % width) as i64;
                    let row = i64::from(head.row) + (at / width) as i64;
                    match Cell::try_new(col, row) {
                        Ok(cell) => self.cells.read(k, cell).as_number(),
                        Err(_) => return ControlFlow::Break(CellError::Ref),
                    }
                }
            };
            ControlFlow::Continue((at + 1, count + 1, summed.map_or(sum, |n| sum + n)))
        });
        let (_, count, sum) = match flow {
            ControlFlow::Continue(acc) => acc,
            ControlFlow::Break(e) => return Err(e),
        };
        Ok(match id {
            FuncId::CountIf => Value::Number(count as f64),
            FuncId::SumIf => Value::Number(sum),
            _ if count == 0 => return Err(CellError::Div0),
            _ => Value::Number(sum / count as f64),
        })
    }

    /// `INDEX(range, row, [col])`.
    fn index(&self, args: &[Item], texts: &[Value]) -> Result<Value, CellError> {
        let Item::Ref(k, table) = args[0] else { return Err(CellError::Value) };
        let row = self.scalar(args[1], texts).as_number()? as i64;
        let col = match args.get(2) {
            None => 1,
            Some(&arg) => self.scalar(arg, texts).as_number()? as i64,
        };
        if row < 1 || col < 1 || row > i64::from(table.height()) || col > i64::from(table.width()) {
            return Err(CellError::Ref);
        }
        let head = table.head();
        let cell = Cell::new(head.col + (col - 1) as u32, head.row + (row - 1) as u32);
        Ok(self.cells.read(k as usize, cell).into_owned())
    }

    /// `MATCH(value, line, [0|1])`.
    fn match_fn(&self, args: &[Item], texts: &[Value]) -> Result<Value, CellError> {
        let needle = self.scalar(args[0], texts);
        let Item::Ref(k, line) = args[1] else { return Err(CellError::Value) };
        let exact = match args.get(2) {
            None => false,
            Some(&arg) => self.scalar(arg, texts).as_number()? == 0.0,
        };
        let found = self.position(k, line, &needle, exact);
        found.map(|i| Value::Number(i as f64)).ok_or(CellError::Na)
    }

    /// `VLOOKUP(value, table, col, [approximate])`.
    fn vlookup(&self, args: &[Item], texts: &[Value]) -> Result<Value, CellError> {
        let needle = self.scalar(args[0], texts);
        let Item::Ref(k, table) = args[1] else { return Err(CellError::Value) };
        let col = self.scalar(args[2], texts).as_number()? as i64;
        let exact = match args.get(3) {
            None => false, // Excel default is approximate match
            Some(&arg) => !self.scalar(arg, texts).as_bool()?,
        };
        let (head, tail) = (table.head(), table.tail());
        let lookup_column = Range::from_coords(head.col, head.row, head.col, tail.row);
        let found = self.position(k, lookup_column, &needle, exact).ok_or(CellError::Na)?;
        let cell = Cell::new(head.col + (col - 1) as u32, head.row + (found - 1) as u32);
        Ok(self.cells.read(k as usize, cell).into_owned())
    }
}

/// The fold under the operand just taken off the stack.
#[inline]
fn acc(stack: &[Item]) -> FoldState {
    match stack.last() {
        Some(Item::Acc(state)) => *state,
        other => unreachable!("a fold under an aggregate's operand, not {other:?}"),
    }
}

/// Puts an aggregate's fold back on the stack, or its error in its place;
/// returns the ops to skip: none, or the rest of the call.
#[inline]
fn settle(stack: &mut [Item], folded: Result<FoldState, CellError>, end: u32) -> usize {
    let top = stack.last_mut().expect("a fold");
    match folded {
        Ok(state) => {
            *top = Item::Acc(state);
            0
        }
        Err(e) => {
            *top = Item::Err(e);
            end as usize
        }
    }
}

/// What an aggregate folds: a range's cells, or one value.
trait Source {
    fn fold<A>(
        self,
        init: A,
        step: impl FnMut(A, &Value) -> Result<A, CellError>,
    ) -> Result<A, CellError>;
}

impl Source for &Value {
    fn fold<A>(
        self,
        init: A,
        mut step: impl FnMut(A, &Value) -> Result<A, CellError>,
    ) -> Result<A, CellError> {
        step(init, self)
    }
}

/// Reference `k`'s cells in `range`, read through a [`Reader`].
struct Cells<'c, R> {
    cells: &'c R,
    k: usize,
    range: Range,
}

impl<R: Reader> Source for Cells<'_, R> {
    #[inline]
    fn fold<A>(
        self,
        init: A,
        mut step: impl FnMut(A, &Value) -> Result<A, CellError>,
    ) -> Result<A, CellError> {
        let flow = self.cells.fold(self.k, self.range, init, &mut |acc, v| match step(acc, v) {
            Ok(acc) => ControlFlow::Continue(acc),
            Err(e) => ControlFlow::Break(e),
        });
        match flow {
            ControlFlow::Continue(acc) => Ok(acc),
            ControlFlow::Break(e) => Err(e),
        }
    }
}

/// Aggregate `id`'s fold as it starts.
fn start(id: FuncId) -> FoldState {
    match id {
        FuncId::Sum => 0.0.pack(),
        FuncId::Product => 1.0.pack(),
        FuncId::Average => (0.0, 0u64).pack(),
        FuncId::Min | FuncId::Max => None::<f64>.pack(),
        FuncId::And => true.pack(),
        FuncId::Or => false.pack(),
        _ => 0u64.pack(),
    }
}

/// Folds `source` into aggregate `id`'s fold `state`, each function with
/// the accumulator it keeps (see [`FoldState`]), step by step as its tree
/// walk does: a `SUM`, `PRODUCT`, `AVERAGE`, `MIN` or `MAX` takes numbers,
/// skips other values and stops at an error; a `COUNT` counts numbers, a
/// `COUNTA` what is not blank; an `AND` / `OR` skips blanks and stops at
/// what is no truth value.
#[inline(always)]
fn aggregate(id: FuncId, state: FoldState, source: impl Source) -> Result<FoldState, CellError> {
    fn numbers<A>(mut f: impl FnMut(A, f64) -> A) -> impl FnMut(A, &Value) -> Result<A, CellError> {
        move |acc, v| match v {
            Value::Number(n) => Ok(f(acc, *n)),
            Value::Error(e) => Err(*e),
            _ => Ok(acc),
        }
    }
    match id {
        FuncId::Sum => {
            source.fold(f64::unpack(state), numbers(|acc, n| acc + n)).map(Carried::pack)
        }
        FuncId::Product => {
            source.fold(f64::unpack(state), numbers(|acc, n| acc * n)).map(Carried::pack)
        }
        FuncId::Count => source
            .fold(u64::unpack(state), |count, v| {
                Ok(count + u64::from(matches!(v, Value::Number(_))))
            })
            .map(Carried::pack),
        FuncId::CountA => source
            .fold(u64::unpack(state), |count, v| Ok(count + u64::from(!v.is_empty())))
            .map(Carried::pack),
        FuncId::Average => source
            .fold(<(f64, u64)>::unpack(state), numbers(|(sum, count), n| (sum + n, count + 1)))
            .map(Carried::pack),
        FuncId::Min | FuncId::Max => {
            let take_max = id == FuncId::Max;
            let best = numbers(move |best: Option<f64>, n| {
                Some(match best {
                    None => n,
                    Some(b) if take_max => b.max(n),
                    Some(b) => b.min(n),
                })
            });
            source.fold(Option::<f64>::unpack(state), best).map(Carried::pack)
        }
        FuncId::And | FuncId::Or => {
            let is_and = id == FuncId::And;
            let step = move |acc: bool, v: &Value| {
                if v.is_empty() {
                    return Ok(acc);
                }
                let b = v.as_bool()?;
                Ok(if is_and { acc && b } else { acc || b })
            };
            source.fold(bool::unpack(state), step).map(Carried::pack)
        }
        _ => unreachable!("{id:?} is no aggregate"),
    }
}

/// Aggregate `id`'s value from its fold.
fn finish(id: FuncId, state: FoldState) -> Item {
    match id {
        FuncId::Sum | FuncId::Product => Item::Num(f64::unpack(state)),
        FuncId::Count | FuncId::CountA => Item::Num(u64::unpack(state) as f64),
        FuncId::Average => match <(f64, u64)>::unpack(state) {
            (_, 0) => Item::Err(CellError::Div0),
            (sum, count) => Item::Num(sum / count as f64),
        },
        FuncId::Min | FuncId::Max => Item::Num(Option::<f64>::unpack(state).unwrap_or(0.0)),
        _ => Item::Bool(bool::unpack(state)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn program(src: &str) -> Program {
        Program::compile(&parse(src).unwrap())
    }

    #[test]
    fn row_invariant_calls_and_operators_are_hoisted_whole() {
        for (src, hoisted, per_row) in [
            // The whole product: a call over a fixed range times a literal.
            ("SUM($A$1:$A$8)*3", 1, 1),
            ("SUM($A$1:A8)*3", 0, 3),
            // Rows fixed, column moving: one value down a node's column.
            ("SUM(A$1:B$8)+$C1", 1, 1),
            // A volatile call, a moving read, a bare range: never.
            ("RAND()*$B$1", 0, 3),
            ("A1+B1", 0, 1),
            ("$B$2", 0, 1),
            // Two maximal subtrees; the arity error stays a constant.
            ("IF(A1>0,ROUND($B$1*2,1),-$C$3)+NOT(1,2)", 2, 7),
        ] {
            let p = program(src);
            assert_eq!((p.hoists.len(), p.ops.len()), (hoisted, per_row), "{src}: {:?}", p.ops);
        }
    }

    #[test]
    fn only_a_leading_own_sheet_range_with_a_fixed_head_resumes() {
        assert_eq!(program("SUM($A$1:A9)+AVERAGE($B$1:B9,C1)*MIN(C1,$A$1:A9)").aggregates(), 2);
        assert_eq!(
            program("SUM(A1:A9)+SUM(Data!$A$1:A9)+SUM($A1:A9)+SUMIF($A$1:A9,1)").aggregates(),
            0
        );
        assert_eq!(program("SUM($A$1:A9)+MAX($A$1:A9)").aggregates(), 2);
    }
}
