//! The oracles the engine's tests compare against, each built on as
//! little of what it checks as it can be, so agreement with it is
//! evidence, not an echo. Meant for test-sized inputs.
//!
//! - [`dependents`] / [`precedents`]: the transitive dependents or
//!   precedents of a range, closed cell by cell over the dependency list
//!   itself. They share no R-tree, pattern or edge code with
//!   [`taco_core::FormulaGraph`]; each step scans every dependency.
//! - [`evaluate`]: every formula of a workbook's texts and values,
//!   evaluated after the formula cells it reads by the tree-walk
//!   evaluator ([`taco_formula::eval`]) through a provider of its own. It
//!   shares the parser and that evaluator with the engine, and nothing
//!   else: no runs, templates, compiled programs, remembered or carried
//!   folds, cell stores, formula graph or schedule.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use taco_core::Dependency;
use taco_formula::eval::{eval, CellProvider, EvalClock, VolatileCtx};
use taco_formula::{parser, CellError, Expr, Value};
use taco_grid::{Cell, Range};

/// Every cell that reads `probe`, directly or through other formula cells.
pub fn dependents(deps: &[Dependency], probe: Range) -> BTreeSet<Cell> {
    closure(probe, |r, next| {
        next.extend(deps.iter().filter(|d| d.prec.overlaps(&r)).map(|d| d.dep))
    })
}

/// Every cell that `probe` reads, directly or through other formula cells.
pub fn precedents(deps: &[Dependency], probe: Range) -> BTreeSet<Cell> {
    closure(probe, |r, next| {
        deps.iter().filter(|d| r.contains_cell(d.dep)).for_each(|d| next.extend(d.prec.cells()))
    })
}

/// Worklist closure: `step` names the cells one range reaches in one hop.
fn closure(probe: Range, step: impl Fn(Range, &mut Vec<Cell>)) -> BTreeSet<Cell> {
    let (mut found, mut work, mut next) = (BTreeSet::new(), vec![probe], Vec::new());
    while let Some(r) = work.pop() {
        step(r, &mut next);
        work.extend(next.drain(..).filter(|&c| found.insert(c)).map(Range::cell));
    }
    found
}

/// What a cell of [`evaluate`]'s input holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// A formula, as its text (a leading `=` optional).
    Formula(String),
    /// A plain value.
    Value(Value),
}

/// One sheet of [`evaluate`]'s input: its name and its cells.
#[derive(Debug, Clone, Default)]
pub struct Sheet {
    /// The name formulas qualify its cells with (matched ignoring ASCII
    /// case).
    pub name: String,
    /// Its non-blank cells.
    pub cells: Vec<(Cell, Entry)>,
}

/// What [`evaluate`] found.
#[derive(Debug, Clone, Default)]
pub struct Evaluated {
    /// By sheet: the value of every formula cell the cycle rule keeps.
    pub values: Vec<BTreeMap<Cell, Value>>,
    /// The formula cells the cycle rule leaves out, `(sheet, cell)`.
    pub cyclic: BTreeSet<(usize, Cell)>,
}

impl Evaluated {
    /// Holds each formula cell of `got`, `(sheet, cell, value)`, to its
    /// value here, bit for bit, but those the cycle rule leaves out;
    /// returns how many of them it left out.
    ///
    /// # Panics
    ///
    /// At the first cell whose value differs, or that is not a formula
    /// cell here.
    pub fn assert_agrees<'a>(
        &self,
        got: impl IntoIterator<Item = (usize, Cell, &'a Value)>,
    ) -> usize {
        let mut left_out = 0;
        for (sheet, cell, got) in got {
            if self.cyclic.contains(&(sheet, cell)) {
                left_out += 1;
                continue;
            }
            let want = self.values[sheet].get(&cell);
            let same = match (got, want) {
                (Value::Number(a), Some(Value::Number(b))) => a.to_bits() == b.to_bits(),
                (got, want) => Some(got) == want,
            };
            assert!(same, "sheet {sheet} {cell}: {got:?}, the reference {want:?}");
        }
        left_out
    }
}

/// Evaluates every formula of `sheets` under `clock`, each after the
/// formula cells it reads, by [`taco_formula::eval`] on its parsed text.
///
/// What a formula reads is its dependency read set
/// ([`Expr::collect_refs`]): unqualified references and those naming
/// its own sheet read that sheet, others the sheet they name, and a
/// reference to no sheet reads nothing (it evaluates to `#REF!`).
///
/// **The cycle rule.** A formula cell on a cycle of such reads — a cell
/// reading itself included — and every formula cell that reads one,
/// directly or through others, has no value here: it is listed in
/// [`Evaluated::cyclic`] and left out of the comparison, whatever the
/// engine flagged it. On a workbook with no cell-level cycle the list is
/// empty, and every formula cell has its value.
///
/// # Panics
///
/// If a formula text does not parse.
pub fn evaluate(sheets: &[Sheet], clock: EvalClock) -> Evaluated {
    let book = Book::new(sheets);
    let n = book.formulas.len();
    // The formula cells each formula reads, by id, and the cells that read
    // themselves.
    let mut reads: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut loops = vec![false; n];
    for (id, &(sheet, _, ref expr)) in book.formulas.iter().enumerate() {
        for q in expr.collect_refs() {
            let Some(on) = book.resolve(sheet, q.sheet_name()) else { continue };
            let range = q.range();
            let (head, tail) = (range.head(), range.tail());
            for col in head.col..=tail.col {
                let column = Cell { col, row: head.row }..=Cell { col, row: tail.row };
                for (_, slot) in book.cells[on].range(column) {
                    if let Slot::Formula(read) = *slot {
                        loops[id] |= read == id;
                        reads[id].push(read);
                    }
                }
            }
        }
    }
    // Components after everything they read; a component of several
    // cells, or of one that reads itself, is a cycle.
    let mut out = Evaluated { values: vec![BTreeMap::new(); sheets.len()], ..Default::default() };
    let mut value: Vec<Option<Value>> = vec![None; n];
    let mut cyclic = vec![false; n];
    for component in components(&reads) {
        let id = component[0];
        let on_cycle = component.len() > 1 || loops[id];
        if on_cycle || component.iter().any(|&m| reads[m].iter().any(|&r| cyclic[r])) {
            for &m in &component {
                cyclic[m] = true;
                let (sheet, cell, _) = book.formulas[m];
                out.cyclic.insert((sheet, cell));
            }
            continue;
        }
        let (sheet, cell, ref expr) = book.formulas[id];
        let at = At { book: &book, value: &value, sheet, vol: VolatileCtx::for_cell(clock, cell) };
        let result = eval(expr, &at);
        out.values[sheet].insert(cell, result.clone());
        value[id] = Some(result);
    }
    out
}

/// A cell of [`Book`]: a plain value, or a formula by id.
enum Slot {
    Value(Value),
    Formula(usize),
}

/// [`evaluate`]'s input, indexed.
struct Book {
    /// Lower-cased sheet name → sheet.
    names: BTreeMap<String, usize>,
    /// By sheet.
    cells: Vec<BTreeMap<Cell, Slot>>,
    /// `(sheet, cell, tree)` by id.
    formulas: Vec<(usize, Cell, Expr)>,
}

impl Book {
    fn new(sheets: &[Sheet]) -> Book {
        let mut book = Book { names: BTreeMap::new(), cells: Vec::new(), formulas: Vec::new() };
        for (k, sheet) in sheets.iter().enumerate() {
            book.names.insert(sheet.name.to_ascii_lowercase(), k);
            let mut cells = BTreeMap::new();
            for (cell, entry) in &sheet.cells {
                let slot = match entry {
                    Entry::Value(v) => Slot::Value(v.clone()),
                    Entry::Formula(text) => {
                        let src = text.strip_prefix('=').unwrap_or(text);
                        let expr = parser::parse(src)
                            .unwrap_or_else(|e| panic!("{}!{cell}: {src:?}: {e}", sheet.name));
                        book.formulas.push((k, *cell, expr));
                        Slot::Formula(book.formulas.len() - 1)
                    }
                };
                cells.insert(*cell, slot);
            }
            book.cells.push(cells);
        }
        book
    }

    /// The sheet a reference on sheet `own` qualified with `name` reads.
    fn resolve(&self, own: usize, name: Option<&str>) -> Option<usize> {
        match name {
            None => Some(own),
            Some(name) => self.names.get(&name.to_ascii_lowercase()).copied(),
        }
    }
}

/// What a blank cell reads as.
static EMPTY: Value = Value::Empty;

/// The provider one formula cell is evaluated through.
struct At<'a> {
    book: &'a Book,
    /// The formulas evaluated so far, by id.
    value: &'a [Option<Value>],
    sheet: usize,
    vol: VolatileCtx,
}

impl At<'_> {
    /// What `cell` of sheet `sheet` reads as.
    fn read(&self, sheet: usize, cell: Cell) -> &Value {
        match self.book.cells[sheet].get(&cell) {
            None => &EMPTY,
            Some(Slot::Value(v)) => v,
            Some(Slot::Formula(id)) => {
                self.value[*id].as_ref().expect("a formula is evaluated after what it reads")
            }
        }
    }
}

impl CellProvider for At<'_> {
    fn value(&self, cell: Cell) -> Value {
        self.read(self.sheet, cell).clone()
    }

    fn sheet_value(&self, sheet: &str, cell: Cell) -> Value {
        match self.book.resolve(self.sheet, Some(sheet)) {
            Some(on) => self.read(on, cell).clone(),
            None => Value::Error(CellError::Ref),
        }
    }

    fn volatile(&self) -> Option<&VolatileCtx> {
        Some(&self.vol)
    }

    fn fold_range<A, B>(
        &self,
        sheet: Option<&str>,
        range: Range,
        init: A,
        f: &mut impl FnMut(A, &Value) -> ControlFlow<B, A>,
    ) -> ControlFlow<B, A> {
        match self.book.resolve(self.sheet, sheet) {
            Some(on) => range.cells().try_fold(init, |acc, cell| f(acc, self.read(on, cell))),
            None => {
                let missing = Value::Error(CellError::Ref);
                range.cells().try_fold(init, |acc, _| f(acc, &missing))
            }
        }
    }
}

/// The strongly connected components of the graph `succ` lists, each
/// after every component it reaches (Tarjan's algorithm, iterative).
fn components(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let n = succ.len();
    let (mut num, mut low, mut on_stack) = (vec![UNSEEN; n], vec![0; n], vec![false; n]);
    let (mut next, mut open, mut out) = (0, Vec::new(), Vec::new());
    for root in 0..n {
        if num[root] != UNSEEN {
            continue;
        }
        // Frames: a node and the index of its next successor.
        let mut frames = vec![(root, 0)];
        (num[root], low[root], on_stack[root]) = (next, next, true);
        next += 1;
        open.push(root);
        while let Some(&mut (v, ref mut i)) = frames.last_mut() {
            if let Some(&w) = succ[v].get(*i) {
                *i += 1;
                if num[w] == UNSEEN {
                    (num[w], low[w], on_stack[w]) = (next, next, true);
                    next += 1;
                    open.push(w);
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(num[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == num[v] {
                let mut component = Vec::new();
                while let Some(w) = open.pop() {
                    on_stack[w] = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                out.push(component);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(names: &[&str]) -> BTreeSet<Cell> {
        names.iter().map(|s| Cell::parse_a1(s).unwrap()).collect()
    }

    #[test]
    fn evaluates_across_sheets_and_leaves_cycles_out() {
        let c = |s: &str| Cell::parse_a1(s).unwrap();
        let f = |s: &str| Entry::Formula(s.to_string());
        let sheets = [
            Sheet {
                name: "A".into(),
                cells: vec![
                    (c("A1"), Entry::Value(Value::Number(1.0))),
                    (c("B1"), f("=B!A1+1")),
                    (c("C1"), f("=SUM(C1:C2)")),
                    (c("D1"), f("=C1*2")),
                    (c("E1"), f("='a'!A1+Nope!A1")),
                    (c("F1"), f("=B!B1+A!A1")),
                ],
            },
            Sheet { name: "B".into(), cells: vec![(c("A1"), f("=A!A1*2")), (c("B1"), f("=A!F1"))] },
        ];
        let got = evaluate(&sheets, EvalClock::default());
        assert_eq!(got.values[0][&c("B1")], Value::Number(3.0));
        assert_eq!(got.values[1][&c("A1")], Value::Number(2.0));
        assert_eq!(got.values[0][&c("E1")], Value::Error(CellError::Ref));
        let cyclic = [(0, c("C1")), (0, c("D1")), (0, c("F1")), (1, c("B1"))];
        assert_eq!(got.cyclic, cyclic.into_iter().collect());
        assert_eq!(got.values.iter().map(BTreeMap::len).sum::<usize>(), 3);
    }

    #[test]
    fn closes_over_ranges_chains_and_cycles() {
        let d = |p: &str, c: &str| {
            Dependency::new(Range::parse_a1(p).unwrap(), Cell::parse_a1(c).unwrap())
        };
        // C1 = SUM(A1:B2); D1 = C1 + E1; E1 = D1 (a cycle).
        let deps = [d("A1:B2", "C1"), d("C1", "D1"), d("E1", "D1"), d("D1", "E1")];
        let r = |s: &str| Range::parse_a1(s).unwrap();
        assert_eq!(dependents(&deps, r("B2")), cells(&["C1", "D1", "E1"]));
        assert_eq!(dependents(&deps, r("A3:B9")), cells(&[]));
        assert_eq!(precedents(&deps, r("C1")), cells(&["A1", "B1", "A2", "B2"]));
        assert_eq!(precedents(&deps, r("D1")), cells(&["C1", "E1", "D1", "A1", "B1", "A2", "B2"]));
        assert!(precedents(&[], r("A1:Z9")).is_empty());
    }
}
