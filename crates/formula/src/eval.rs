//! Formula interpreter.
//!
//! Evaluation is a substrate concern (the paper's contribution is the
//! formula *graph*, not the calculator), but the engine needs real
//! recalculation to demonstrate the end-to-end "update → find dependents →
//! re-evaluate" loop, and the workload generator needs evaluable formulae.

use crate::ast::{BinOp, Expr, FuncId, UnOp};
use crate::value::{CellError, Value};
use std::ops::ControlFlow;
use taco_grid::a1::RangeRef;
use taco_grid::{Cell, Range};

/// An injected time/randomness source for the volatile functions
/// (`NOW`, `TODAY`, `RAND`).
///
/// Real wall-clock time and OS entropy would break the engine's core
/// determinism contract — full and demand-driven recalculation must
/// produce bit-identical values, and a replayed WAL
/// must reproduce the workbook exactly. Hosts therefore *inject* the
/// clock: two evaluations under the same `EvalClock` are bit-identical,
/// and advancing the clock is an explicit edit-like event (the engine
/// re-dirties volatile formulae when its clock changes).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalClock {
    /// Value `NOW()` returns (an Excel-style serial date-time number).
    pub now: f64,
    /// Value `TODAY()` returns (an Excel-style serial date number).
    pub today: f64,
    /// Seed for `RAND()`. Draws are a pure function of
    /// `(rand_seed, cell, draw index within the cell)`, so they do not
    /// depend on evaluation order across cells — the property that keeps
    /// a demand-driven pass bit-identical to a full one.
    pub rand_seed: u64,
}

/// Per-evaluation volatile context: the injected [`EvalClock`] plus the
/// identity of the cell being evaluated, which salts `RAND()` so distinct
/// cells draw distinct (but reproducible) values.
#[derive(Debug)]
pub struct VolatileCtx {
    clock: EvalClock,
    salt: u64,
    draws: std::cell::Cell<u32>,
}

impl VolatileCtx {
    /// A context for evaluating the formula at `cell` under `clock`.
    pub fn for_cell(clock: EvalClock, cell: Cell) -> Self {
        let salt = (u64::from(cell.col) << 32) | u64::from(cell.row);
        VolatileCtx { clock, salt, draws: std::cell::Cell::new(0) }
    }

    /// The injected `NOW()` value.
    pub fn now(&self) -> f64 {
        self.clock.now
    }

    /// The injected `TODAY()` value.
    pub fn today(&self) -> f64 {
        self.clock.today
    }

    /// The next `RAND()` draw in `[0, 1)`: a splitmix64 hash of
    /// `(seed, cell, draw index)`, independent of the order cells are
    /// evaluated in.
    pub fn next_rand(&self) -> f64 {
        let i = self.draws.get();
        self.draws.set(i + 1);
        let mut z = self.clock.rand_seed ^ self.salt.rotate_left(17) ^ (u64::from(i) << 1);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Map the top 53 bits onto [0, 1).
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Provides cell values to the evaluator. Implemented by the sheet model
/// in `taco-engine` and by test fixtures here.
pub trait CellProvider {
    /// Current value of `cell` (`Value::Empty` when blank).
    fn value(&self, cell: Cell) -> Value;

    /// Value of a cell on the named sheet (for `Sheet2!A1`-style
    /// references). Single-sheet providers keep the default, which treats
    /// every sheet qualifier as a broken reference (`#REF!`); the workbook
    /// engine overrides it to route across sheets.
    fn sheet_value(&self, sheet: &str, cell: Cell) -> Value {
        let _ = (sheet, cell);
        Value::Error(CellError::Ref)
    }

    /// The volatile-function context for the evaluation in progress.
    /// Providers that don't inject a clock keep the default (`None`),
    /// under which `NOW()`/`TODAY()`/`RAND()` all evaluate to `0`.
    fn volatile(&self) -> Option<&VolatileCtx> {
        None
    }

    /// Folds the value of every cell of `range` — on the sheet named
    /// `sheet`, or on the formula's own for `None` — into `init`, by
    /// reference, in [`Range::cells`] (row-major) order, until `f` breaks.
    /// Every function that reads a range reads it through here, so the
    /// order is a contract: it fixes the order floating-point folds add
    /// in and which error a range reports first.
    ///
    /// The default asks [`CellProvider::value`] or
    /// [`CellProvider::sheet_value`] cell by cell; a provider that keeps
    /// its cells in order overrides it with a scan.
    fn fold_range<A, B>(
        &self,
        sheet: Option<&str>,
        range: Range,
        init: A,
        f: &mut impl FnMut(A, &Value) -> ControlFlow<B, A>,
    ) -> ControlFlow<B, A> {
        range.cells().try_fold(init, |acc, c| f(acc, &value_on(self, sheet, c)))
    }

    /// Where the fold of aggregate `id` over a leading part of `range` (on
    /// the formula's own sheet) already stands, for a provider that
    /// remembers: the state after the rows from the range's first through
    /// the returned one, across all its columns — a prefix of `range` in
    /// [`Range::cells`] order, so the evaluator goes on from the row after
    /// it and does the very additions a fold from the first row does.
    /// `None`, the default, makes it fold the whole range.
    ///
    /// Asked only for the range an aggregate starts with, and only when
    /// its head corner is `$`-fixed: the reference autofill repeats (FF)
    /// or grows (FR) from one cell of a run to the next.
    fn resume_fold(&self, id: FuncId, range: Range) -> Option<(FoldState, u32)> {
        let _ = (id, range);
        None
    }

    /// Told the state of aggregate `id` after the whole of `range`, every
    /// time [`CellProvider::resume_fold`] was asked and the fold met no
    /// error. A fold that stops at an error value is never reported.
    fn remember_fold(&self, id: FuncId, range: Range, state: FoldState) {
        let _ = (id, range, state);
    }
}

impl<F: Fn(Cell) -> Value> CellProvider for F {
    fn value(&self, cell: Cell) -> Value {
        self(cell)
    }
}

/// Resolves a possibly sheet-qualified cell read through the provider.
fn value_on<P: CellProvider + ?Sized>(cells: &P, sheet: Option<&str>, cell: Cell) -> Value {
    match sheet {
        None => cells.value(cell),
        Some(s) => cells.sheet_value(s, cell),
    }
}

/// Maximum number of cells a single range argument may cover during
/// evaluation; larger ranges produce `#VALUE!` instead of hanging.
pub const MAX_RANGE_CELLS: u64 = 4_000_000;

/// Evaluates an expression against a provider.
pub fn eval<P: CellProvider>(expr: &Expr, cells: &P) -> Value {
    eval_at(expr, 0, 0, cells)
}

/// Evaluates an expression as it reads `dc` columns and `dr` rows from
/// where it was written: every reference is moved by
/// [`RangeRef::autofill`](taco_grid::a1::RangeRef::autofill) first, one
/// that leaves the grid is `#REF!`, and a literal slot reads as its value
/// [`Slot::at`](crate::ast::Slot::at) `dr` — what the formula of that
/// cell of its run evaluates to, without building it.
pub fn eval_at<P: CellProvider>(expr: &Expr, dc: i64, dr: i64, cells: &P) -> Value {
    eval_in(expr, &Ctx { cells, dc, dr })
}

/// [`RangeRef::autofill`]; a lone formula, a run of one, sits at `(0, 0)`
/// and moves nothing.
#[inline]
pub(crate) fn moved(rref: &RangeRef, dc: i64, dr: i64) -> Option<RangeRef> {
    if (dc, dr) == (0, 0) {
        Some(*rref)
    } else {
        rref.autofill(dc, dr)
    }
}

/// An evaluation in progress: the provider, and how far the expression
/// has moved from where its references were written.
struct Ctx<'p, P> {
    cells: &'p P,
    dc: i64,
    dr: i64,
}

fn eval_in<P: CellProvider>(expr: &Expr, cx: &Ctx<'_, P>) -> Value {
    eval_operand(expr, cx).scalar(cx.cells)
}

/// Where an aggregate's fold stands: an accumulator and a count, of which
/// each function uses what it needs (`SUM` the accumulator, `COUNT` the
/// count, `AVERAGE` both, `MIN` the count as "seen a number"). Opaque to
/// a provider that remembers it — see [`CellProvider::resume_fold`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldState {
    acc: f64,
    count: u64,
}

#[cfg(debug_assertions)]
impl FoldState {
    fn bits(self) -> (u64, u64) {
        (self.acc.to_bits(), self.count)
    }
}

/// A fold accumulator that fits a [`FoldState`], bit for bit.
trait Carried: Copy {
    fn pack(self) -> FoldState;
    fn unpack(state: FoldState) -> Self;
}

impl Carried for f64 {
    fn pack(self) -> FoldState {
        FoldState { acc: self, count: 0 }
    }
    fn unpack(state: FoldState) -> Self {
        state.acc
    }
}

impl Carried for u64 {
    fn pack(self) -> FoldState {
        FoldState { acc: 0.0, count: self }
    }
    fn unpack(state: FoldState) -> Self {
        state.count
    }
}

impl Carried for (f64, u64) {
    fn pack(self) -> FoldState {
        FoldState { acc: self.0, count: self.1 }
    }
    fn unpack(state: FoldState) -> Self {
        (state.acc, state.count)
    }
}

impl Carried for Option<f64> {
    fn pack(self) -> FoldState {
        FoldState { acc: self.unwrap_or(0.0), count: u64::from(self.is_some()) }
    }
    fn unpack(state: FoldState) -> Self {
        (state.count != 0).then_some(state.acc)
    }
}

impl Carried for bool {
    fn pack(self) -> FoldState {
        FoldState { acc: 0.0, count: u64::from(self) }
    }
    fn unpack(state: FoldState) -> Self {
        state.count != 0
    }
}

/// An intermediate operand: functions like SUM accept ranges, scalar
/// operators do not. A range carries the sheet qualifier of the reference
/// it came from (`None` = the formula's own sheet).
enum Operand<'a> {
    Scalar(Value),
    Range(Option<&'a str>, Range),
}

impl Operand<'_> {
    fn scalar<P: CellProvider>(self, cells: &P) -> Value {
        match self {
            Operand::Scalar(v) => v,
            // A bare multi-cell range in scalar position (e.g. `=A1:A3`)
            // is a #VALUE! error in classic evaluation.
            Operand::Range(sheet, r) => {
                if r.is_cell() {
                    value_on(cells, sheet, r.head())
                } else {
                    Value::Error(CellError::Value)
                }
            }
        }
    }
}

fn eval_operand<'a, P: CellProvider>(expr: &'a Expr, cx: &Ctx<'_, P>) -> Operand<'a> {
    match expr {
        Expr::Number(n) => Operand::Scalar(Value::Number(*n)),
        Expr::Slot(slot) => Operand::Scalar(Value::Number(slot.at(cx.dr))),
        Expr::Text(s) => Operand::Scalar(Value::Text(s.clone())),
        Expr::Bool(b) => Operand::Scalar(Value::Bool(*b)),
        Expr::RefError => Operand::Scalar(Value::Error(CellError::Ref)),
        Expr::Ref(r) => match moved(&r.rref, cx.dc, cx.dr) {
            Some(moved) => Operand::Range(r.sheet_name(), moved.range()),
            None => Operand::Scalar(Value::Error(CellError::Ref)),
        },
        Expr::Percent(e) => {
            let v = eval_operand(e, cx).scalar(cx.cells);
            Operand::Scalar(match v.as_number() {
                Ok(n) => Value::Number(n / 100.0),
                Err(e) => Value::Error(e),
            })
        }
        Expr::Unary { op, expr } => {
            let v = eval_operand(expr, cx).scalar(cx.cells);
            Operand::Scalar(match (op, v.as_number()) {
                (UnOp::Neg, Ok(n)) => Value::Number(-n),
                (UnOp::Plus, Ok(n)) => Value::Number(n),
                (_, Err(e)) => Value::Error(e),
            })
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_operand(lhs, cx).scalar(cx.cells);
            let r = eval_operand(rhs, cx).scalar(cx.cells);
            Operand::Scalar(eval_binary(*op, l, r))
        }
        Expr::Func { id, args, .. } => Operand::Scalar(eval_func(*id, args, cx)),
    }
}

fn eval_binary(op: BinOp, l: Value, r: Value) -> Value {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Pow => {
            let (a, b) = match (l.as_number(), r.as_number()) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => return Value::Error(e),
            };
            match op {
                Add => Value::Number(a + b),
                Sub => Value::Number(a - b),
                Mul => Value::Number(a * b),
                Div => {
                    if b == 0.0 {
                        Value::Error(CellError::Div0)
                    } else {
                        Value::Number(a / b)
                    }
                }
                Pow => Value::Number(a.powf(b)),
                _ => unreachable!(),
            }
        }
        Concat => match (l.as_text(), r.as_text()) {
            (Ok(a), Ok(b)) => Value::Text(a + &b),
            (Err(e), _) | (_, Err(e)) => Value::Error(e),
        },
        Eq | Ne | Lt | Le | Gt | Ge => compare(op, &l, &r),
    }
}

/// Excel-style comparison: numbers compare numerically, text
/// case-insensitively; mixed number/text compares with text high.
fn compare(op: BinOp, l: &Value, r: &Value) -> Value {
    use std::cmp::Ordering;
    if let Value::Error(e) = l {
        return Value::Error(*e);
    }
    if let Value::Error(e) = r {
        return Value::Error(*e);
    }
    let ord = match (l, r) {
        (Value::Text(a), Value::Text(b)) => a.to_ascii_lowercase().cmp(&b.to_ascii_lowercase()),
        (Value::Text(_), _) => Ordering::Greater,
        (_, Value::Text(_)) => Ordering::Less,
        _ => {
            let a = l.as_number().unwrap_or(0.0);
            let b = r.as_number().unwrap_or(0.0);
            a.partial_cmp(&b).unwrap_or(Ordering::Equal)
        }
    };
    let b = match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!("compare called with non-comparison op"),
    };
    Value::Bool(b)
}

/// Folds the value of every cell of `range` into `acc`, until `f` fails.
fn fold_cells<P: CellProvider, A>(
    cells: &P,
    sheet: Option<&str>,
    range: Range,
    acc: A,
    f: &mut impl FnMut(A, &Value) -> Result<A, CellError>,
) -> Result<A, CellError> {
    if range.area() > MAX_RANGE_CELLS {
        return Err(CellError::Value);
    }
    let flow = cells.fold_range(sheet, range, acc, &mut |acc, v| match f(acc, v) {
        Ok(acc) => ControlFlow::Continue(acc),
        Err(e) => ControlFlow::Break(e),
    });
    match flow {
        ControlFlow::Continue(acc) => Ok(acc),
        ControlFlow::Break(e) => Err(e),
    }
}

/// The range an aggregate starts with, if its fold may be resumed (see
/// [`CellProvider::resume_fold`]): on the formula's own sheet, head
/// corner `$`-fixed.
fn resumable<P>(args: &[Expr], cx: &Ctx<'_, P>) -> Option<Range> {
    match args.first()? {
        Expr::Ref(r) if r.sheet.is_none() && r.rref.head.is_fixed() => {
            Some(moved(&r.rref, cx.dc, cx.dr)?.range())
        }
        _ => None,
    }
}

/// Folds the scalar values of the arguments of aggregate `id` into
/// `init`, in order: a scalar argument is itself, a range every cell
/// value. The accumulator is handed along by value, so a sum over a
/// column lives in a register. A [`resumable`] first range goes on from
/// where the provider remembers its fold standing: the same steps from
/// the same state, so the same bits.
fn fold_values<P: CellProvider, A: Carried>(
    id: FuncId,
    args: &[Expr],
    cx: &Ctx<'_, P>,
    init: A,
    mut f: impl FnMut(A, &Value) -> Result<A, CellError>,
) -> Result<A, CellError> {
    let mut acc = init;
    let mut rest = args;
    if let Some(range) = resumable(args, cx) {
        if range.area() > MAX_RANGE_CELLS {
            return Err(CellError::Value);
        }
        let mut todo = Some(range);
        if let Some((state, through)) = cx.cells.resume_fold(id, range) {
            let (head, tail) = (range.head(), range.tail());
            // Debug builds hold every resumed fold to the fold it stands
            // for, so each suite that evaluates a formula checks it.
            #[cfg(debug_assertions)]
            {
                let folded = Range::from_coords(head.col, head.row, tail.col, through);
                let fresh = fold_cells(cx.cells, None, folded, init, &mut f).map(Carried::pack);
                debug_assert!(
                    fresh.is_ok_and(|fresh| fresh.bits() == state.bits()),
                    "{id:?} over {folded}: remembered {state:?}, folds to {fresh:?}"
                );
            }
            acc = A::unpack(state);
            todo = (through < tail.row)
                .then(|| Range::from_coords(head.col, through + 1, tail.col, tail.row));
        }
        if let Some(todo) = todo {
            acc = fold_cells(cx.cells, None, todo, acc, &mut f)?;
        }
        cx.cells.remember_fold(id, range, acc.pack());
        rest = &args[1..];
    }
    for arg in rest {
        acc = match eval_operand(arg, cx) {
            Operand::Scalar(v) => f(acc, &v)?,
            Operand::Range(sheet, r) => fold_cells(cx.cells, sheet, r, acc, &mut f)?,
        };
    }
    Ok(acc)
}

/// [`fold_values`] over the numbers: non-numeric and empty cells inside
/// ranges are skipped (Excel SUM semantics), but error values propagate.
fn fold_numbers<P: CellProvider, A: Carried>(
    id: FuncId,
    args: &[Expr],
    cx: &Ctx<'_, P>,
    init: A,
    mut f: impl FnMut(A, f64) -> A,
) -> Result<A, CellError> {
    fold_values(id, args, cx, init, |acc, v| match v {
        Value::Number(n) => Ok(f(acc, *n)),
        Value::Error(e) => Err(*e),
        _ => Ok(acc),
    })
}

fn eval_func<P: CellProvider>(id: FuncId, args: &[Expr], cx: &Ctx<'_, P>) -> Value {
    let result = match id {
        FuncId::Sum => fold_numbers(id, args, cx, 0.0, |acc, n| acc + n).map(Value::Number),
        FuncId::Product => fold_numbers(id, args, cx, 1.0, |acc, n| acc * n).map(Value::Number),
        // Counts numeric values only, like Excel.
        FuncId::Count => fold_values(id, args, cx, 0u64, |count, v| {
            Ok(count + u64::from(matches!(v, Value::Number(_))))
        })
        .map(|count| Value::Number(count as f64)),
        FuncId::CountA => {
            fold_values(id, args, cx, 0u64, |count, v| Ok(count + u64::from(!v.is_empty())))
                .map(|count| Value::Number(count as f64))
        }
        FuncId::Average => {
            fold_numbers(id, args, cx, (0.0, 0u64), |(sum, count), n| (sum + n, count + 1))
                .and_then(|(sum, count)| {
                    if count == 0 {
                        Err(CellError::Div0)
                    } else {
                        Ok(Value::Number(sum / count as f64))
                    }
                })
        }
        FuncId::Min | FuncId::Max => {
            let take_max = id == FuncId::Max;
            fold_numbers(id, args, cx, None, |best: Option<f64>, n| {
                Some(match best {
                    None => n,
                    Some(b) if take_max => b.max(n),
                    Some(b) => b.min(n),
                })
            })
            .map(|best| Value::Number(best.unwrap_or(0.0)))
        }
        FuncId::If => {
            if args.is_empty() || args.len() > 3 {
                Err(CellError::Value)
            } else {
                match eval_in(&args[0], cx).as_bool() {
                    Err(e) => Err(e),
                    Ok(true) => Ok(args.get(1).map_or(Value::Bool(true), |a| eval_in(a, cx))),
                    Ok(false) => Ok(args.get(2).map_or(Value::Bool(false), |a| eval_in(a, cx))),
                }
            }
        }
        FuncId::And | FuncId::Or => {
            let is_and = id == FuncId::And;
            fold_values(id, args, cx, is_and, |acc, v| {
                if v.is_empty() {
                    return Ok(acc);
                }
                let b = v.as_bool()?;
                Ok(if is_and { acc && b } else { acc || b })
            })
            .map(Value::Bool)
        }
        FuncId::Not => single_arg(args, cx).and_then(|v| v.as_bool()).map(|b| Value::Bool(!b)),
        FuncId::Abs => num1(args, cx, f64::abs),
        FuncId::Sqrt => num1(args, cx, f64::sqrt),
        FuncId::Int => num1(args, cx, f64::floor),
        FuncId::Round => {
            if args.len() != 2 {
                Err(CellError::Value)
            } else {
                let n = eval_in(&args[0], cx).as_number();
                let d = eval_in(&args[1], cx).as_number();
                match (n, d) {
                    (Ok(n), Ok(d)) => {
                        let m = 10f64.powi(d as i32);
                        Ok(Value::Number((n * m).round() / m))
                    }
                    (Err(e), _) | (_, Err(e)) => Err(e),
                }
            }
        }
        FuncId::Len => single_arg(args, cx)
            .and_then(|v| v.as_text())
            .map(|s| Value::Number(s.chars().count() as f64)),
        FuncId::Concatenate => {
            let mut s = String::new();
            let mut err = None;
            for a in args {
                match eval_in(a, cx).as_text() {
                    Ok(t) => s.push_str(&t),
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
            match err {
                Some(e) => Err(e),
                None => Ok(Value::Text(s)),
            }
        }
        FuncId::Vlookup => vlookup(args, cx),
        FuncId::SumIf | FuncId::CountIf | FuncId::AverageIf => cond_aggregate(id, args, cx),
        FuncId::Index => index(args, cx),
        FuncId::Match => match_fn(args, cx),
        // Volatile functions read the injected clock (see [`EvalClock`]);
        // without one they fall back to deterministic zeros.
        FuncId::Now => Ok(Value::Number(cx.cells.volatile().map_or(0.0, VolatileCtx::now))),
        FuncId::Today => Ok(Value::Number(cx.cells.volatile().map_or(0.0, VolatileCtx::today))),
        FuncId::Rand => {
            if args.is_empty() {
                Ok(Value::Number(cx.cells.volatile().map_or(0.0, VolatileCtx::next_rand)))
            } else {
                Err(CellError::Value)
            }
        }
        FuncId::Unknown => Err(CellError::Name),
    };
    result.unwrap_or_else(Value::Error)
}

fn single_arg<P: CellProvider>(args: &[Expr], cx: &Ctx<'_, P>) -> Result<Value, CellError> {
    if args.len() != 1 {
        return Err(CellError::Value);
    }
    let v = eval_in(&args[0], cx);
    if let Value::Error(e) = v {
        return Err(e);
    }
    Ok(v)
}

fn num1<P: CellProvider>(
    args: &[Expr],
    cx: &Ctx<'_, P>,
    f: impl Fn(f64) -> f64,
) -> Result<Value, CellError> {
    single_arg(args, cx).and_then(|v| v.as_number()).map(|n| Value::Number(f(n)))
}

/// SUMIF/COUNTIF/AVERAGEIF: criteria over one range, optionally summing a
/// second, same-shaped range.
fn cond_aggregate<P: CellProvider>(
    id: FuncId,
    args: &[Expr],
    cx: &Ctx<'_, P>,
) -> Result<Value, CellError> {
    let want_sum_range = id != FuncId::CountIf;
    if args.len() < 2 || args.len() > if want_sum_range { 3 } else { 2 } {
        return Err(CellError::Value);
    }
    let Operand::Range(crit_sheet, crit_range) = eval_operand(&args[0], cx) else {
        return Err(CellError::Value);
    };
    let criterion = eval_in(&args[1], cx);
    if let Value::Error(e) = criterion {
        return Err(e);
    }
    // Without a sum range the cells that match are the cells summed.
    let sum_range = match args.get(2) {
        None => None,
        Some(a) => match eval_operand(a, cx) {
            Operand::Range(s, r) => Some((s, r)),
            Operand::Scalar(_) => return Err(CellError::Value),
        },
    };
    if crit_range.area() > MAX_RANGE_CELLS {
        return Err(CellError::Value);
    }
    let width = u64::from(crit_range.width());
    // (cells visited, cells that matched, their sum)
    let flow = cx.cells.fold_range(crit_sheet, crit_range, (0u64, 0u64, 0.0), &mut |acc, v| {
        let (at, count, sum) = acc;
        if !criterion_matches(v, &criterion) {
            return ControlFlow::Continue((at + 1, count, sum));
        }
        let summed = match sum_range {
            // COUNTIF only counts.
            _ if !want_sum_range => Ok(0.0),
            None => v.as_number(),
            Some((sum_sheet, sum_range)) => {
                // The cell at the same offset from the sum range's head.
                let col = i64::from(sum_range.head().col) + (at % width) as i64;
                let row = i64::from(sum_range.head().row) + (at / width) as i64;
                match Cell::try_new(col, row) {
                    Ok(sc) => value_on(cx.cells, sum_sheet, sc).as_number(),
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
        _ => {
            if count == 0 {
                return Err(CellError::Div0);
            }
            Value::Number(sum / count as f64)
        }
    })
}

/// Excel-style criterion matching: a plain value means equality; a text
/// criterion may start with a comparison operator (`">=10"`).
fn criterion_matches(v: &Value, criterion: &Value) -> bool {
    if let Value::Text(s) = criterion {
        for (op, f) in [
            (">=", BinOp::Ge),
            ("<=", BinOp::Le),
            ("<>", BinOp::Ne),
            (">", BinOp::Gt),
            ("<", BinOp::Lt),
            ("=", BinOp::Eq),
        ] {
            if let Some(rest) = s.strip_prefix(op) {
                let rhs = rest
                    .trim()
                    .parse::<f64>()
                    .map(Value::Number)
                    .unwrap_or_else(|_| Value::Text(rest.trim().to_string()));
                return compare(f, v, &rhs) == Value::Bool(true);
            }
        }
    }
    values_equal(v, criterion)
}

/// INDEX(range, row, [col]): the value at a 1-based position in a range.
fn index<P: CellProvider>(args: &[Expr], cx: &Ctx<'_, P>) -> Result<Value, CellError> {
    if args.len() < 2 || args.len() > 3 {
        return Err(CellError::Value);
    }
    let Operand::Range(sheet, table) = eval_operand(&args[0], cx) else {
        return Err(CellError::Value);
    };
    let row = eval_in(&args[1], cx).as_number()? as i64;
    let col = match args.get(2) {
        None => 1,
        Some(a) => eval_in(a, cx).as_number()? as i64,
    };
    if row < 1 || col < 1 || row > i64::from(table.height()) || col > i64::from(table.width()) {
        return Err(CellError::Ref);
    }
    Ok(value_on(
        cx.cells,
        sheet,
        Cell::new(table.head().col + (col - 1) as u32, table.head().row + (row - 1) as u32),
    ))
}

/// MATCH(value, range, [0|1]): 1-based position of a value in a one-
/// dimensional range (0 = exact, 1 = largest ≤ value, the default).
fn match_fn<P: CellProvider>(args: &[Expr], cx: &Ctx<'_, P>) -> Result<Value, CellError> {
    if args.len() < 2 || args.len() > 3 {
        return Err(CellError::Value);
    }
    let needle = eval_in(&args[0], cx);
    if let Value::Error(e) = needle {
        return Err(e);
    }
    let Operand::Range(sheet, range) = eval_operand(&args[1], cx) else {
        return Err(CellError::Value);
    };
    if !range.is_line() || range.area() > MAX_RANGE_CELLS {
        return Err(CellError::Value);
    }
    let exact = match args.get(2) {
        None => false,
        Some(a) => eval_in(a, cx).as_number()? == 0.0,
    };
    let found = position_in(cx.cells, sheet, range, &needle, exact);
    found.map(|i| Value::Number(i as f64)).ok_or(CellError::Na)
}

/// The 1-based position in `line` (read in [`Range::cells`] order) of the
/// first value equal to `needle` or — when not `exact` — of the last value
/// that is at most `needle` (which finds the largest such value in a
/// sorted line).
fn position_in<P: CellProvider>(
    cells: &P,
    sheet: Option<&str>,
    line: Range,
    needle: &Value,
    exact: bool,
) -> Option<u64> {
    let wanted = needle.as_number();
    // (cells visited, position of the best so far)
    let flow = cells.fold_range(sheet, line, (0u64, None), &mut |(visited, best), v| {
        let at = visited + 1;
        if exact {
            if values_equal(v, needle) {
                return ControlFlow::Break(at);
            }
            return ControlFlow::Continue((at, best));
        }
        match (v.as_number(), &wanted) {
            (Ok(a), Ok(b)) if a <= *b => ControlFlow::Continue((at, Some(at))),
            _ => ControlFlow::Continue((at, best)),
        }
    });
    match flow {
        ControlFlow::Break(at) => Some(at),
        ControlFlow::Continue((_, best)) => best,
    }
}

fn vlookup<P: CellProvider>(args: &[Expr], cx: &Ctx<'_, P>) -> Result<Value, CellError> {
    if args.len() < 3 || args.len() > 4 {
        return Err(CellError::Value);
    }
    let needle = eval_in(&args[0], cx);
    if let Value::Error(e) = needle {
        return Err(e);
    }
    let Operand::Range(sheet, table) = eval_operand(&args[1], cx) else {
        return Err(CellError::Value);
    };
    let col_index = eval_in(&args[2], cx).as_number()? as i64;
    if col_index < 1 || col_index > i64::from(table.width()) {
        return Err(CellError::Ref);
    }
    let exact = match args.get(3) {
        None => false, // Excel default is approximate match
        Some(a) => !eval_in(a, cx).as_bool()?,
    };
    let (head, tail) = (table.head(), table.tail());
    let lookup_column = Range::from_coords(head.col, head.row, head.col, tail.row);
    let found = position_in(cx.cells, sheet, lookup_column, &needle, exact).ok_or(CellError::Na)?;
    let result = Cell::new(head.col + (col_index - 1) as u32, head.row + (found - 1) as u32);
    Ok(value_on(cx.cells, sheet, result))
}

fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Text(x), Value::Text(y)) => x.eq_ignore_ascii_case(y),
        _ => match (a.as_number(), b.as_number()) {
            (Ok(x), Ok(y)) => x == y,
            _ => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use std::collections::HashMap;

    struct Fixture(HashMap<Cell, Value>);

    impl CellProvider for Fixture {
        fn value(&self, cell: Cell) -> Value {
            self.0.get(&cell).cloned().unwrap_or(Value::Empty)
        }
    }

    fn fixture(entries: &[(&str, Value)]) -> Fixture {
        Fixture(entries.iter().map(|(a1, v)| (Cell::parse_a1(a1).unwrap(), v.clone())).collect())
    }

    fn run(src: &str, fix: &Fixture) -> Value {
        eval(&parse(src).unwrap(), fix)
    }

    /// A fixture carrying a [`VolatileCtx`], the way the engine's sheet
    /// view does.
    struct ClockFixture(Fixture, VolatileCtx);

    impl CellProvider for ClockFixture {
        fn value(&self, cell: Cell) -> Value {
            self.0.value(cell)
        }

        fn volatile(&self) -> Option<&VolatileCtx> {
            Some(&self.1)
        }
    }

    #[test]
    fn volatile_functions_default_to_zero_without_a_clock() {
        let fx = fixture(&[]);
        assert_eq!(run("NOW()", &fx), Value::Number(0.0));
        assert_eq!(run("TODAY()", &fx), Value::Number(0.0));
        assert_eq!(run("RAND()", &fx), Value::Number(0.0));
        assert_eq!(run("RAND(1)", &fx), Value::Error(CellError::Value));
    }

    #[test]
    fn volatile_functions_read_the_injected_clock() {
        let clock = EvalClock { now: 45000.5, today: 45000.0, rand_seed: 7 };
        let cell = Cell::parse_a1("C3").unwrap();
        let fx = ClockFixture(fixture(&[]), VolatileCtx::for_cell(clock, cell));
        assert_eq!(eval(&parse("NOW()").unwrap(), &fx), Value::Number(45000.5));
        assert_eq!(eval(&parse("TODAY()+1").unwrap(), &fx), Value::Number(45001.0));
    }

    /// Remembers every fold it is told of and resumes from the longest
    /// remembered prefix, counting the cells read in between.
    struct Remembering {
        cells: Fixture,
        folds: std::cell::RefCell<Vec<(FuncId, Range, FoldState)>>,
        reads: std::cell::Cell<u32>,
    }

    impl Remembering {
        fn run(&self, src: &str) -> (Value, u32) {
            self.reads.set(0);
            (eval(&parse(src).unwrap(), self), self.reads.get())
        }
    }

    impl CellProvider for Remembering {
        fn value(&self, cell: Cell) -> Value {
            self.reads.set(self.reads.get() + 1);
            self.cells.value(cell)
        }

        fn resume_fold(&self, id: FuncId, range: Range) -> Option<(FoldState, u32)> {
            let folds = self.folds.borrow();
            let prefixes = folds.iter().filter(|(known, r, _)| {
                *known == id
                    && r.head() == range.head()
                    && r.tail().col == range.tail().col
                    && r.tail().row <= range.tail().row
            });
            prefixes.max_by_key(|(_, r, _)| r.tail().row).map(|(_, r, s)| (*s, r.tail().row))
        }

        fn remember_fold(&self, id: FuncId, range: Range, state: FoldState) {
            self.folds.borrow_mut().push((id, range, state));
        }
    }

    #[test]
    fn an_aggregate_resumes_only_a_leading_own_sheet_range_with_a_fixed_head() {
        let n = Value::Number;
        let cells = [
            ("A1", n(0.1)),
            ("A2", n(0.2)),
            ("A3", Value::Text("x".into())),
            ("A4", n(1e16)),
            ("A5", n(-1e16)),
            ("A6", n(0.7)),
            ("B1", n(10.0)),
            ("B4", Value::Bool(true)),
            ("B7", Value::Error(CellError::Div0)),
        ];
        let plain = fixture(&cells);
        let fx = Remembering {
            cells: fixture(&cells),
            folds: Default::default(),
            reads: Default::default(),
        };
        for func in ["SUM", "PRODUCT", "COUNT", "COUNTA", "AVERAGE", "MIN", "MAX", "AND", "OR"] {
            // One column growing, two columns growing, the same range again.
            for (range, longer) in [("$A$1:A3", "$A$1:A6"), ("$A$1:B2", "$A$1:B6")] {
                let (first, _) = fx.run(&format!("{func}({range})"));
                assert!(same(&first, &run(&format!("{func}({range})"), &plain)), "{func}({range})");
                let src = format!("{func}({longer},B1,5)");
                let (resumed, reads) = fx.run(&src);
                assert!(same(&resumed, &run(&src, &plain)), "{src}: {resumed:?}");
                // (`AND` and `OR` stop at the text in A3: nothing to resume.)
                if !matches!(resumed, Value::Error(_)) {
                    let (old_cells, new_cells) =
                        if longer.ends_with("B6") { (4, 8) } else { (3, 3) };
                    // (a debug build folds the remembered part over, to check it)
                    let checked = |cells: u32| if cfg!(debug_assertions) { cells } else { 0 };
                    assert_eq!(reads, new_cells + 1 + checked(old_cells), "{src}");
                    let again = 1 + checked(old_cells + new_cells);
                    assert_eq!(fx.run(&src), (resumed, again), "{src}, again: only B1 is read");
                }
            }
        }
        // Not a range whose head moves with the formula, not a range after
        // the first argument (the fold would differ in its last bits), not
        // one on a named sheet, and not a fold that met an error.
        fx.folds.borrow_mut().clear();
        for src in ["SUM(A1:A6)", "SUM(B1,$A$1:A6)", "SUM(Other!$A$1:A6)", "SUM($B$1:B7)"] {
            let (got, _) = fx.run(src);
            assert!(same(&got, &run(src, &plain)), "{src}");
            assert!(fx.folds.borrow().is_empty(), "{src}");
        }
        assert_eq!(fx.run("SUM($B$1:B7)").0, Value::Error(CellError::Div0));
    }

    #[test]
    fn evaluating_at_an_offset_is_evaluating_the_autofilled_formula() {
        let n = Value::Number;
        let fx = fixture(&[("A1", n(1.0)), ("A2", n(2.0)), ("A3", n(4.0)), ("B3", n(8.0))]);
        for (src, dc, dr) in [
            ("SUM($A$1:A1)", 0, 2),
            ("A1+$A$1*A$2", 1, 2),
            ("IF(A2>1,SUMIF($A$1:A2,\">0\",B1:B1),B2)", 0, 1),
            ("A2+1", 0, -2),
            ("SUM(B2:C3)", -2, 0),
            ("VLOOKUP(2,A1:B2,2,FALSE)", 0, 1),
        ] {
            let ast = parse(src).unwrap();
            let filled = ast.map_refs(&mut |q| q.autofill(dc, dr));
            assert!(same(&eval_at(&ast, dc, dr, &fx), &eval(&filled, &fx)), "{src} by {dc},{dr}");
        }
        assert_eq!(eval_at(&parse("A2+1").unwrap(), 0, -2, &fx), Value::Error(CellError::Ref));
    }

    #[test]
    fn rand_is_deterministic_per_cell_and_draw() {
        let clock = EvalClock { rand_seed: 0xDEAD_BEEF, ..EvalClock::default() };
        let cell = Cell::parse_a1("B2").unwrap();
        let draw = |cell| {
            let fx = ClockFixture(fixture(&[]), VolatileCtx::for_cell(clock, cell));
            eval(&parse("RAND()+RAND()").unwrap(), &fx)
        };
        // Same cell, fresh context → bit-identical; values stay in [0, 2).
        assert_eq!(draw(cell), draw(cell));
        match draw(cell) {
            Value::Number(n) => assert!((0.0..2.0).contains(&n), "{n}"),
            other => panic!("expected number, got {other:?}"),
        }
        // A different cell draws a different stream.
        assert_ne!(draw(cell), draw(Cell::parse_a1("B3").unwrap()));
        // Successive draws within one evaluation differ (index salt).
        let fx = ClockFixture(fixture(&[]), VolatileCtx::for_cell(clock, cell));
        let a = eval(&parse("RAND()").unwrap(), &fx);
        let b = eval(&parse("RAND()").unwrap(), &fx);
        assert_ne!(a, b);
    }

    #[test]
    fn arithmetic_and_precedence() {
        let fx = fixture(&[]);
        assert_eq!(run("1+2*3", &fx), Value::Number(7.0));
        assert_eq!(run("(1+2)*3", &fx), Value::Number(9.0));
        assert_eq!(run("2^3", &fx), Value::Number(8.0));
        assert_eq!(run("10/4", &fx), Value::Number(2.5));
        assert_eq!(run("1/0", &fx), Value::Error(CellError::Div0));
        assert_eq!(run("50%", &fx), Value::Number(0.5));
        assert_eq!(run("-5", &fx), Value::Number(-5.0));
    }

    #[test]
    fn references_and_sum() {
        let fx = fixture(&[
            ("A1", Value::Number(1.0)),
            ("A2", Value::Number(2.0)),
            ("A3", Value::Number(3.0)),
            ("B1", Value::Text("x".into())),
        ]);
        assert_eq!(run("A1+A2", &fx), Value::Number(3.0));
        assert_eq!(run("SUM(A1:A3)", &fx), Value::Number(6.0));
        // Text inside SUM range is skipped.
        assert_eq!(run("SUM(A1:B3)", &fx), Value::Number(6.0));
        // Bare multi-cell range in scalar context errors.
        assert_eq!(run("A1:A3", &fx), Value::Error(CellError::Value));
        // Empty cell numeric coercion.
        assert_eq!(run("A9+1", &fx), Value::Number(1.0));
    }

    #[test]
    fn aggregates() {
        let fx = fixture(&[
            ("A1", Value::Number(4.0)),
            ("A2", Value::Number(-1.0)),
            ("A3", Value::Number(9.0)),
        ]);
        assert_eq!(run("MIN(A1:A3)", &fx), Value::Number(-1.0));
        assert_eq!(run("MAX(A1:A3)", &fx), Value::Number(9.0));
        assert_eq!(run("AVERAGE(A1:A3)", &fx), Value::Number(4.0));
        assert_eq!(run("COUNT(A1:A9)", &fx), Value::Number(3.0));
        assert_eq!(run("COUNTA(A1:A9)", &fx), Value::Number(3.0));
        assert_eq!(run("AVERAGE(B1:B9)", &fx), Value::Error(CellError::Div0));
        assert_eq!(run("PRODUCT(A1,A3)", &fx), Value::Number(36.0));
    }

    #[test]
    fn if_and_logic() {
        let fx = fixture(&[("A1", Value::Number(5.0)), ("A2", Value::Number(5.0))]);
        // The Fig. 2 shape: IF(A1=A2, then, else).
        assert_eq!(run("IF(A1=A2,1,2)", &fx), Value::Number(1.0));
        assert_eq!(run("IF(A1>9,1,2)", &fx), Value::Number(2.0));
        assert_eq!(run("AND(TRUE,A1=5)", &fx), Value::Bool(true));
        assert_eq!(run("OR(FALSE,A1<0)", &fx), Value::Bool(false));
        assert_eq!(run("NOT(TRUE)", &fx), Value::Bool(false));
    }

    #[test]
    fn comparisons_mixed_types() {
        let fx = fixture(&[]);
        assert_eq!(run("\"abc\"=\"ABC\"", &fx), Value::Bool(true));
        assert_eq!(run("\"a\"<\"b\"", &fx), Value::Bool(true));
        // Text sorts above numbers.
        assert_eq!(run("\"a\">99", &fx), Value::Bool(true));
        assert_eq!(run("1<>2", &fx), Value::Bool(true));
    }

    #[test]
    fn text_functions() {
        let fx = fixture(&[("A1", Value::Number(7.0))]);
        assert_eq!(run("\"v=\"&A1", &fx), Value::Text("v=7".into()));
        assert_eq!(run("LEN(\"hello\")", &fx), Value::Number(5.0));
        assert_eq!(run("CONCATENATE(\"a\",1,TRUE)", &fx), Value::Text("a1TRUE".into()));
    }

    #[test]
    fn vlookup_exact_and_approx() {
        let fx = fixture(&[
            ("D1", Value::Number(10.0)),
            ("E1", Value::Text("ten".into())),
            ("D2", Value::Number(20.0)),
            ("E2", Value::Text("twenty".into())),
            ("D3", Value::Number(30.0)),
            ("E3", Value::Text("thirty".into())),
        ]);
        assert_eq!(run("VLOOKUP(20,D1:E3,2,FALSE)", &fx), Value::Text("twenty".into()));
        assert_eq!(run("VLOOKUP(25,D1:E3,2)", &fx), Value::Text("twenty".into()));
        assert_eq!(run("VLOOKUP(5,D1:E3,2)", &fx), Value::Error(CellError::Na));
        assert_eq!(run("VLOOKUP(20,D1:E3,2,TRUE)", &fx), Value::Text("twenty".into()));
        assert_eq!(run("VLOOKUP(20,D1:E3,9,FALSE)", &fx), Value::Error(CellError::Ref));
    }

    #[test]
    fn unknown_function_is_name_error() {
        let fx = fixture(&[]);
        assert_eq!(run("FROBNICATE(1)", &fx), Value::Error(CellError::Name));
    }

    #[test]
    fn error_propagation() {
        let fx = fixture(&[("A1", Value::Error(CellError::Div0))]);
        assert_eq!(run("A1+1", &fx), Value::Error(CellError::Div0));
        assert_eq!(run("SUM(A1:A3)", &fx), Value::Error(CellError::Div0));
        assert_eq!(run("IF(A1,1,2)", &fx), Value::Error(CellError::Div0));
    }

    #[test]
    fn sheet_qualified_reads_route_through_provider() {
        struct TwoSheets;
        impl CellProvider for TwoSheets {
            fn value(&self, _c: Cell) -> Value {
                Value::Number(1.0)
            }
            fn sheet_value(&self, sheet: &str, c: Cell) -> Value {
                if sheet.eq_ignore_ascii_case("Data") {
                    Value::Number(f64::from(c.row) * 10.0)
                } else {
                    Value::Error(CellError::Ref)
                }
            }
        }
        let fx = TwoSheets;
        assert_eq!(eval(&parse("Data!A3").unwrap(), &fx), Value::Number(30.0));
        assert_eq!(eval(&parse("SUM(Data!A1:A4)").unwrap(), &fx), Value::Number(100.0));
        assert_eq!(eval(&parse("'DATA'!A2+A1").unwrap(), &fx), Value::Number(21.0));
        assert_eq!(eval(&parse("Other!A1").unwrap(), &fx), Value::Error(CellError::Ref));
        assert_eq!(eval(&parse("VLOOKUP(10,Data!A1:B1,2)").unwrap(), &fx), Value::Number(10.0));
    }

    /// The same cells as a [`Fixture`] (plus a sheet named `Data` holding
    /// them shifted one row down), read by scanning a dense grid: a
    /// provider that overrides [`CellProvider::fold_range`].
    struct Scanned {
        rows: Vec<Vec<Value>>,
    }

    impl Scanned {
        fn of(fix: &Fixture) -> Scanned {
            let mut rows = vec![vec![Value::Empty; 8]; 12];
            for (cell, v) in &fix.0 {
                rows[cell.row as usize - 1][cell.col as usize - 1] = v.clone();
            }
            Scanned { rows }
        }

        fn at(&self, col: u32, row: u32) -> &Value {
            static EMPTY: Value = Value::Empty;
            self.rows.get(row as usize - 1).and_then(|r| r.get(col as usize - 1)).unwrap_or(&EMPTY)
        }
    }

    impl CellProvider for Scanned {
        fn value(&self, cell: Cell) -> Value {
            self.at(cell.col, cell.row).clone()
        }

        fn sheet_value(&self, sheet: &str, cell: Cell) -> Value {
            if sheet.eq_ignore_ascii_case("Data") {
                self.at(cell.col, cell.row + 1).clone()
            } else {
                Value::Error(CellError::Ref)
            }
        }

        fn fold_range<A, B>(
            &self,
            sheet: Option<&str>,
            range: Range,
            init: A,
            f: &mut impl FnMut(A, &Value) -> ControlFlow<B, A>,
        ) -> ControlFlow<B, A> {
            let down = match sheet {
                None => 0,
                Some(s) if s.eq_ignore_ascii_case("Data") => 1,
                Some(_) => {
                    return range
                        .cells()
                        .try_fold(init, |acc, _| f(acc, &Value::Error(CellError::Ref)))
                }
            };
            let mut acc = init;
            for row in range.head().row..=range.tail().row {
                for col in range.head().col..=range.tail().col {
                    acc = f(acc, self.at(col, row + down))?;
                }
            }
            ControlFlow::Continue(acc)
        }
    }

    /// A [`Fixture`] answering for the sheet `Data` like [`Scanned`], cell
    /// by cell: a provider that overrides only the per-cell reads.
    struct PerCell(Fixture);

    impl CellProvider for PerCell {
        fn value(&self, cell: Cell) -> Value {
            self.0.value(cell)
        }

        fn sheet_value(&self, sheet: &str, cell: Cell) -> Value {
            if sheet.eq_ignore_ascii_case("Data") {
                self.0.value(Cell::new(cell.col, cell.row + 1))
            } else {
                Value::Error(CellError::Ref)
            }
        }
    }

    /// `==`, except numbers compare by bit pattern.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    #[test]
    fn scanning_a_range_and_reading_it_cell_by_cell_give_the_same_bits() {
        let n = Value::Number;
        // Sums whose last bits depend on the order of addition, text and
        // blanks to skip, a lookup column, and an error below row 8.
        let cells = [
            ("A1", n(0.1)),
            ("A2", n(0.2)),
            ("A3", n(0.3)),
            ("A4", Value::Text("x".into())),
            ("A6", n(1e16)),
            ("A7", n(-1e16)),
            ("A8", n(0.7)),
            ("A10", Value::Error(CellError::Div0)),
            ("B1", n(1.5)),
            ("B2", Value::Bool(true)),
            ("B3", n(-2.25)),
            ("B5", n(1e-3)),
            ("B8", n(3.0)),
            ("C1", n(10.0)),
            ("C2", n(20.0)),
            ("C3", n(30.0)),
            ("C4", n(40.0)),
            ("D1", Value::Text("ten".into())),
            ("D2", Value::Text("twenty".into())),
            ("D3", n(0.1 + 0.2)),
            ("D4", Value::Text("forty".into())),
        ];
        let per_cell = PerCell(fixture(&cells));
        let scanned = Scanned::of(&per_cell.0);
        let mut formulas = Vec::new();
        for range in
            ["A1:A8", "A1:B8", "A3:C9", "B2:B2", "F1:G9", "A1:A12", "Data!A1:B7", "Nope!A1:A3"]
        {
            for func in ["SUM", "PRODUCT", "AVERAGE", "MIN", "MAX", "COUNT", "COUNTA", "AND", "OR"]
            {
                formulas.push(format!("{func}({range})"));
                formulas.push(format!("{func}(B1,{range},2)"));
            }
            for func in ["SUMIF", "COUNTIF", "AVERAGEIF"] {
                formulas.push(format!("{func}({range},\">0.15\")"));
                formulas.push(format!("{func}({range},0.2)"));
            }
            formulas.push(format!("SUMIF({range},\">0\",B1:B1)"));
            formulas.push(format!("AVERAGEIF({range},\"<>x\",Data!C1:C1)"));
            formulas.push(format!("INDEX({range},2,1)"));
            formulas.push(format!("INDEX({range},3,2)"));
        }
        for table in ["C1:D4", "Data!C1:D3", "A1:B12"] {
            for (needle, exact) in
                [("20", "FALSE"), ("25", "TRUE"), ("5", "TRUE"), ("0.3", "FALSE")]
            {
                formulas.push(format!("VLOOKUP({needle},{table},2,{exact})"));
            }
        }
        for line in ["C1:C4", "A1:A8", "A1:A12", "Data!C1:C3", "A3:D3"] {
            for (needle, kind) in
                [("20", "0"), ("25", "1"), ("0.3", "0"), ("\"X\"", "0"), ("1e17", "1")]
            {
                formulas.push(format!("MATCH({needle},{line},{kind})"));
            }
        }
        for src in &formulas {
            let ast = parse(src).unwrap();
            let (a, b) = (eval(&ast, &per_cell), eval(&ast, &scanned));
            assert!(same(&a, &b), "{src}: cell by cell {a:?}, scanned {b:?}");
        }
        // The fixtures exercise what they are meant to.
        let run = |src: &str| eval(&parse(src).unwrap(), &scanned);
        assert_eq!(run("SUM(A1:A12)"), Value::Error(CellError::Div0));
        assert_eq!(run("SUM(Data!A1:A3)"), n(0.2 + 0.3));
        assert_ne!(run("SUM(A1:A8)"), run("SUM(A8,A7,A6,A3,A2,A1)"));
        assert_eq!(run("MATCH(0.3,Data!A1:A3,0)"), n(2.0));
    }

    #[test]
    fn default_provider_rejects_sheet_qualifiers() {
        let fx = fixture(&[("A1", Value::Number(5.0))]);
        assert_eq!(run("Sheet2!A1", &fx), Value::Error(CellError::Ref));
        assert_eq!(run("SUM(Sheet2!A1:A3)", &fx), Value::Error(CellError::Ref));
    }
}

#[cfg(test)]
mod lookup_tests {
    use super::*;
    use crate::parser::parse;
    use std::collections::HashMap;

    struct Fixture(HashMap<Cell, Value>);

    impl CellProvider for Fixture {
        fn value(&self, cell: Cell) -> Value {
            self.0.get(&cell).cloned().unwrap_or(Value::Empty)
        }
    }

    fn grid(entries: &[(&str, f64)]) -> Fixture {
        Fixture(
            entries
                .iter()
                .map(|(a1, v)| (Cell::parse_a1(a1).unwrap(), Value::Number(*v)))
                .collect(),
        )
    }

    fn run(src: &str, fix: &Fixture) -> Value {
        eval(&parse(src).unwrap(), fix)
    }

    #[test]
    fn sumif_with_criteria_range_only() {
        let fx = grid(&[("A1", 1.0), ("A2", 5.0), ("A3", 10.0), ("A4", 5.0)]);
        assert_eq!(run("SUMIF(A1:A4,5)", &fx), Value::Number(10.0));
        assert_eq!(run("SUMIF(A1:A4,\">4\")", &fx), Value::Number(20.0));
        assert_eq!(run("SUMIF(A1:A4,\"<=5\")", &fx), Value::Number(11.0));
    }

    #[test]
    fn sumif_with_separate_sum_range() {
        let fx = grid(&[
            ("A1", 1.0),
            ("A2", 2.0),
            ("A3", 1.0),
            ("B1", 10.0),
            ("B2", 20.0),
            ("B3", 30.0),
        ]);
        assert_eq!(run("SUMIF(A1:A3,1,B1:B3)", &fx), Value::Number(40.0));
    }

    #[test]
    fn countif_and_averageif() {
        let fx = grid(&[("A1", 2.0), ("A2", 4.0), ("A3", 6.0)]);
        assert_eq!(run("COUNTIF(A1:A3,\">3\")", &fx), Value::Number(2.0));
        assert_eq!(run("AVERAGEIF(A1:A3,\">2\")", &fx), Value::Number(5.0));
        assert_eq!(run("AVERAGEIF(A1:A3,\">99\")", &fx), Value::Error(CellError::Div0));
        assert_eq!(run("COUNTIF(A1:A3,\"<>4\")", &fx), Value::Number(2.0));
    }

    #[test]
    fn index_two_dimensional() {
        let fx = grid(&[("A1", 1.0), ("B1", 2.0), ("A2", 3.0), ("B2", 4.0)]);
        assert_eq!(run("INDEX(A1:B2,2,2)", &fx), Value::Number(4.0));
        assert_eq!(run("INDEX(A1:A2,2)", &fx), Value::Number(3.0));
        assert_eq!(run("INDEX(A1:B2,3,1)", &fx), Value::Error(CellError::Ref));
        assert_eq!(run("INDEX(A1:B2,0,1)", &fx), Value::Error(CellError::Ref));
    }

    #[test]
    fn match_exact_and_approx() {
        let fx = grid(&[("A1", 10.0), ("A2", 20.0), ("A3", 30.0)]);
        assert_eq!(run("MATCH(20,A1:A3,0)", &fx), Value::Number(2.0));
        assert_eq!(run("MATCH(25,A1:A3,1)", &fx), Value::Number(2.0));
        assert_eq!(run("MATCH(25,A1:A3)", &fx), Value::Number(2.0));
        assert_eq!(run("MATCH(5,A1:A3,0)", &fx), Value::Error(CellError::Na));
        // MATCH needs a 1-D range.
        let fx2 = grid(&[("A1", 1.0), ("B2", 2.0)]);
        assert_eq!(run("MATCH(1,A1:B2,0)", &fx2), Value::Error(CellError::Value));
    }

    #[test]
    fn index_match_idiom() {
        // The INDEX/MATCH lookup idiom common in real sheets.
        let fx = grid(&[
            ("A1", 100.0),
            ("A2", 200.0),
            ("A3", 300.0),
            ("B1", 7.0),
            ("B2", 8.0),
            ("B3", 9.0),
        ]);
        assert_eq!(run("INDEX(B1:B3,MATCH(200,A1:A3,0))", &fx), Value::Number(8.0));
    }
}
