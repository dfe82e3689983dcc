use crate::cells::{CellStore, Cursor, EMPTY};
use crate::order::Schedule;
use crate::sheet::{CellContent, Run};
use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use taco_core::{Dependency, FormulaGraph, QueryScratch};
use taco_formula::eval::{EvalClock, FoldState, VolatileCtx};
use taco_formula::program::{Frame, Program, Reader};
use taco_formula::{CellError, FormulaError, FuncId, Template, Value};
use taco_grid::a1::SheetRef;
use taco_grid::{Cell, Range};

/// The *other* sheets, as this sheet's formulas read them. The workbook
/// supplies an implementation during multi-sheet recalculation; a
/// standalone engine uses [`NoExternal`], which turns every foreign
/// reference into `#REF!`.
pub(crate) trait ExternalSheets {
    /// The sheet named `sheet`: `Some` id whose cells [`Self::cells`]
    /// gives, `None` for a sheet that reads as blank, `Err` for no sheet.
    /// Asked once per node and reference.
    fn resolve(&self, sheet: &str) -> Result<Option<usize>, CellError>;

    /// The cells of sheet `id`, as [`Self::resolve`] named it.
    fn cells(&self, id: usize) -> &CellStore;
}

/// The standalone-engine external view: no other sheets exist.
pub(crate) struct NoExternal;

impl ExternalSheets for NoExternal {
    fn resolve(&self, _sheet: &str) -> Result<Option<usize>, CellError> {
        Err(CellError::Ref)
    }

    fn cells(&self, _id: usize) -> &CellStore {
        unreachable!("no sheet resolves")
    }
}

/// One sheet's part of the most recent recalculation pass (see
/// [`Engine::last_pass`]): what it evaluated and the grain it ordered at.
/// How long ordering and evaluation took is the hub's to say: an attached
/// workbook records a `sheet.order` and a `sheet.eval` span per sheet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SheetPass {
    /// The sheet's index in its workbook (`0` for a standalone engine).
    pub sheet: usize,
    /// Cells evaluated.
    pub cells: u32,
    /// The nodes the pass's orderings on the sheet made of them (see
    /// `crate::order`): a run's stretch of dirty cells ordered as one
    /// counts once, a cell ordered on its own once. At most `cells`.
    pub nodes: u32,
}

/// What an edit reported back before recalculation: the information the
/// asynchronous model needs to "return control to the user".
#[derive(Debug, Clone)]
pub struct EditReceipt {
    /// Ranges marked dirty (the dependents of the edit).
    pub dirty: Vec<Range>,
}

/// Runs of folds remembered per sheet: a sheet's worth of cumulative
/// columns, each with what else sums the column from its top.
const FOLDS_KEPT: usize = 32;

/// States remembered per run of folds before they are thinned out.
const MARKS_KEPT: usize = 64;

/// Where a fold stood after the rows down to `through`.
#[derive(Clone, Copy)]
struct Mark {
    through: u32,
    /// The write clock when `state` was computed.
    at: u64,
    state: FoldState,
}

/// The folds of one aggregate over ranges with one head cell and one
/// last column — the ranges a run of autofilled cells folds, each a
/// prefix of the next in [`Range::cells`] order — as marks ascending by
/// last row.
struct Fold {
    id: FuncId,
    head: Cell,
    tail_col: u32,
    marks: Vec<Mark>,
}

impl Fold {
    fn is_of(&self, id: FuncId, range: Range) -> bool {
        self.id == id && self.head == range.head() && self.tail_col == range.tail().col
    }
}

/// Folds of aggregates over their leading range, remembered from one
/// pass to the next (answers [`Reader::resume_fold`] where a node
/// carries nothing yet — see [`Carries`]), so that a formula re-evaluated
/// because *another* of its precedents changed (`=SUM($A$1:A900)+D1`
/// after an edit to `D1`) does not re-read the 900 cells: it finds its
/// fold whole — the state a fold from the first row reaches, by the same
/// steps, bit-identical, which debug builds assert at every use.
///
/// A fold over `$A$1:A{r}` resumes from the remembered fold over the
/// longest `$A$1:A{q}`, `q <= r`, that still holds. A run keeps up to
/// [`MARKS_KEPT`] of them and then thins them to half, evenly by row, so
/// what a pass down a column leaves behind is marks spread along it:
/// after an edit at row `r` the first cell below re-reads from the mark
/// above `r`, not from the top, and the node carries the rest.
///
/// A mark holds as long as no cell of its range has been written since:
/// every write of a cell value (an edit, a clear, a recalculated result)
/// ticks a clock and stamps the cell's column with it by row
/// ([`CellStore::last_write`]), so a write *below* the range — the next
/// row of a formula column the range runs down, recalculated in the same
/// pass — leaves the mark standing.
#[derive(Default)]
struct Folds {
    /// Ticks once per write of cell values.
    clock: u64,
    /// A ring of [`FOLDS_KEPT`]; in a `RefCell` because evaluation only
    /// has `&self`.
    kept: RefCell<Vec<Fold>>,
    /// Where the next new run goes once the ring is full.
    next: std::cell::Cell<usize>,
    /// Folds resumed so far, from a mark or from a node's carry.
    carried: std::cell::Cell<u64>,
    /// Cells the resumed and the unresumed folds still had to read (test
    /// instrumentation; unlike a count of reads it leaves out what debug
    /// builds re-read to check).
    #[cfg(test)]
    folded: std::cell::Cell<u64>,
    /// Searches of the ring so far (test instrumentation).
    #[cfg(test)]
    lookups: std::cell::Cell<u64>,
}

impl Folds {
    /// The clock of a write of cell values about to be made.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Drops every remembered fold (the cell store was rebuilt).
    fn forget(&mut self) {
        self.kept.get_mut().clear();
    }

    /// The slot of the run a fold of `id` over `range` belongs to: a
    /// search of the ring, which a node makes once per aggregate and
    /// keeps the answer of.
    fn find(&self, id: FuncId, range: Range) -> Option<usize> {
        #[cfg(test)]
        self.lookups.set(self.lookups.get() + 1);
        self.kept.borrow().iter().position(|fold| fold.is_of(id, range))
    }

    /// [`Reader::resume_fold`] over `cells`, from the marks of the
    /// run at `slot` (see [`Self::find`]).
    fn resume(
        &self,
        slot: Option<usize>,
        id: FuncId,
        range: Range,
        cells: &CellStore,
    ) -> Option<(FoldState, u32)> {
        let mut kept = self.kept.borrow_mut();
        let marks = &mut kept.get_mut(slot?).filter(|fold| fold.is_of(id, range))?.marks;
        let mut below = marks.partition_point(|mark| mark.through <= range.tail().row);
        while below > 0 {
            let mark = marks[below - 1];
            let folded = Range::new(range.head(), Cell::new(range.tail().col, mark.through));
            if mark.at >= cells.last_write(folded) {
                return Some((mark.state, mark.through));
            }
            // Written into since, and so for good.
            below -= 1;
            marks.remove(below);
        }
        None
    }

    /// [`Reader::remember_fold`], as a mark of the run at `slot` —
    /// of a new run where that is `None` or has gone to another since.
    /// Returns the run's slot.
    fn remember(&self, slot: Option<usize>, id: FuncId, range: Range, state: FoldState) -> usize {
        let mut kept = self.kept.borrow_mut();
        let slot = slot.filter(|&slot| kept.get(slot).is_some_and(|fold| fold.is_of(id, range)));
        let slot = slot.unwrap_or_else(|| {
            let fold =
                Fold { id, head: range.head(), tail_col: range.tail().col, marks: Vec::new() };
            if kept.len() < FOLDS_KEPT {
                kept.push(fold);
                kept.len() - 1
            } else {
                let slot = self.next.get();
                self.next.set((slot + 1) % FOLDS_KEPT);
                kept[slot] = fold;
                slot
            }
        });
        let marks = &mut kept[slot].marks;
        let mark = Mark { through: range.tail().row, at: self.clock, state };
        let at = marks.partition_point(|known| known.through < mark.through);
        if marks.get(at).is_some_and(|known| known.through == mark.through) {
            marks[at] = mark;
            return slot;
        }
        marks.insert(at, mark);
        if marks.len() > MARKS_KEPT {
            // Thin to about half, evenly by row: a mark stays if it is a
            // fair share of the rows below the last one kept. This one
            // stays too: the next cell of the run goes on from it.
            let rows = marks[marks.len() - 1].through - marks[0].through;
            let apart = (rows / (MARKS_KEPT as u32 / 2)).max(1);
            let (mut i, mut kept_through) = (0, None);
            marks.retain(|known| {
                let keep = i == at || kept_through.is_none_or(|k| known.through - k >= apart);
                if keep {
                    kept_through = Some(known.through);
                }
                i += 1;
                keep
            });
        }
        slot
    }
}

/// A headless spreadsheet over TACO's formula graph (its [`taco_core::Config`]
/// chooses full TACO, InRow or NoComp).
pub struct Engine {
    /// Cell contents and dirty marks (see [`CellStore`]).
    cells: CellStore,
    graph: FormulaGraph,
    /// Buffers for the graph queries the edit path makes: warm after the
    /// first edits, so finding an edit's dependents allocates only the
    /// receipt's result vector.
    query: QueryScratch,
    /// The sheet's name when mounted in a [`crate::Workbook`]; references
    /// qualified with this name (`Sheet1!A1` inside `Sheet1`) are treated
    /// as local. `None` for a standalone engine.
    sheet_name: Option<String>,
    /// The pass's order, in buffers that persist on the engine, so
    /// steady-state recalculation performs no per-recalc (let alone
    /// per-cell) allocations.
    schedule: Schedule,
    /// The node being evaluated, in buffers that persist likewise.
    node: Node,
    /// Remembered folds; every write to `cells` carries its clock.
    folds: Folds,
    /// Runs alive: the formulas this sheet holds, one per run of cells
    /// sharing it (each [`Run`] counts itself in and out).
    runs_alive: Arc<AtomicUsize>,
    /// Injected volatile-function clock (NOW/TODAY/RAND read it).
    clock: EvalClock,
    /// Total formula evaluations performed over the engine's lifetime
    /// (the recalc counter demand-driven tests assert on).
    evaluated_total: u64,
    /// Neighbour lists built so far (test instrumentation: a pass builds
    /// one per node it orders).
    #[cfg(test)]
    pub(crate) nbr_lists: std::cell::Cell<u64>,
    /// Neighbour entries pushed while ordering so far, roots included
    /// (test instrumentation).
    #[cfg(test)]
    pub(crate) nbr_entries: std::cell::Cell<u64>,
}

impl Engine {
    /// An engine using the full TACO compressed graph.
    pub fn with_taco() -> Self {
        Engine::new(FormulaGraph::taco())
    }

    /// An engine using the uncompressed NoComp graph.
    pub fn with_nocomp() -> Self {
        Engine::new(FormulaGraph::nocomp())
    }

    /// Wraps a graph into an empty sheet.
    pub fn new(graph: FormulaGraph) -> Self {
        Engine {
            cells: CellStore::default(),
            graph,
            query: QueryScratch::new(),
            sheet_name: None,
            schedule: Schedule::default(),
            node: Node::default(),
            folds: Folds::default(),
            runs_alive: Arc::default(),
            clock: EvalClock::default(),
            evaluated_total: 0,
            #[cfg(test)]
            nbr_lists: Default::default(),
            #[cfg(test)]
            nbr_entries: Default::default(),
        }
    }

    /// This sheet's part of the most recent recalculation pass (of the
    /// one under way, so far), `None` if it ordered nothing here.
    pub fn last_pass(&self) -> Option<SheetPass> {
        let (cells, nodes) = (self.schedule.order().len(), self.schedule.extents().len());
        (cells > 0).then_some(SheetPass { sheet: 0, cells: cells as u32, nodes: nodes as u32 })
    }

    /// Starts a recalculation pass: nothing ordered, nothing viewed, and
    /// no order or evaluated list left over from the pass before (the
    /// workbook begins one on every sheet, so those a pass never reaches
    /// report nothing).
    pub(crate) fn begin_pass(&mut self) {
        self.schedule.begin();
    }

    /// The cells the most recent recalculation pass evaluated (or flagged
    /// `#CYCLE!`), sorted by `(col, row)`: exactly the cells whose cached
    /// value that pass may have changed. Empty for a sheet the pass
    /// evaluated nothing on.
    pub fn last_evaluated(&self) -> &[Cell] {
        self.schedule.evaluated()
    }

    /// The nodes the pass under way, or the most recent one, made here
    /// (test instrumentation).
    #[cfg(test)]
    pub(crate) fn nodes_made(&self) -> usize {
        self.schedule.nodes_made()
    }

    /// The injected volatile-function clock.
    pub fn clock(&self) -> EvalClock {
        self.clock
    }

    /// Injects a new volatile-function clock and re-dirties every
    /// volatile formula (its dependents follow through the graph, exactly
    /// as if the formula had been edited). Returns the number of volatile
    /// formula cells found.
    pub fn set_clock(&mut self, clock: EvalClock) -> usize {
        self.clock = clock;
        let volatile = self.volatile_cells();
        for &c in &volatile {
            self.mark_cells_dirty(&[c]);
            self.mark_dependents_dirty(Range::cell(c));
        }
        volatile.len()
    }

    /// Stores the clock without any dirty marking (the workbook routes
    /// volatile dirtiness itself, across sheets).
    pub(crate) fn set_clock_value(&mut self, clock: EvalClock) {
        self.clock = clock;
    }

    /// Every formula cell calling a volatile function, sorted.
    pub(crate) fn volatile_cells(&self) -> Vec<Cell> {
        self.cells
            .iter()
            .filter(|(_, content)| {
                content.run.as_ref().is_some_and(|run| run.template().is_volatile())
            })
            .map(|(c, _)| c)
            .collect()
    }

    /// Total formula evaluations performed since the engine was created —
    /// the counter demand-driven recalculation is asserted against.
    pub fn evaluated_total(&self) -> u64 {
        self.evaluated_total
    }

    /// Names the sheet (workbook mounting).
    pub(crate) fn set_sheet_name(&mut self, name: String) {
        self.sheet_name = Some(name);
    }

    /// The sheet's name, when mounted in a workbook.
    pub fn sheet_name(&self) -> Option<&str> {
        self.sheet_name.as_deref()
    }

    /// `true` iff a reference qualified with `sheet` resolves to this
    /// sheet: unqualified, or qualified with this sheet's own name.
    pub(crate) fn is_local(&self, sheet: Option<&SheetRef>) -> bool {
        sheet.is_none_or(|s| self.sheet_name.as_deref().is_some_and(|n| s.matches(n)))
    }

    /// The underlying formula graph.
    pub fn graph(&self) -> &FormulaGraph {
        &self.graph
    }

    /// Mutable access to the formula graph (structural edits).
    pub(crate) fn graph_mut(&mut self) -> &mut FormulaGraph {
        &mut self.graph
    }

    /// Takes the whole cell store, dirty marks included (structural
    /// edits rebuild it).
    pub(crate) fn take_cells(&mut self) -> CellStore {
        self.folds.forget();
        std::mem::take(&mut self.cells)
    }

    /// Writes one cell with no graph or dirty bookkeeping (rebuilds and
    /// restores, which carry their own).
    pub(crate) fn put_cell(&mut self, cell: Cell, content: CellContent) {
        self.cells.insert(cell, content, self.folds.tick());
    }

    /// Marks every formula cell dirty (a conservative full-recalc request,
    /// e.g. after restoring from an untrusted image).
    pub fn mark_all_formulas_dirty(&mut self) {
        self.cells.mark_formulas_dirty_in(Range::from_coords(1, 1, u32::MAX, u32::MAX));
    }

    /// Current value of a cell (`Empty` when blank).
    pub fn value(&self, cell: Cell) -> Value {
        self.cells.value(cell).clone()
    }

    /// What `cell` holds, `None` when blank (unlike [`Engine::value`],
    /// tells a blank cell from one holding `Value::Empty`).
    pub fn content(&self, cell: Cell) -> Option<&CellContent> {
        self.cells.get(cell)
    }

    /// The formula text of a cell, if it is a formula cell.
    pub fn formula_of(&self, cell: Cell) -> Option<String> {
        self.run_at(cell).map(|run| run.at(cell).to_string())
    }

    /// Number of formula cells.
    pub fn formula_cells(&self) -> usize {
        self.cells.formulas()
    }

    /// Number of distinct formulas the formula cells hold: an autofilled
    /// run, or a run of formulas typed as one would be filled, is one.
    pub fn formula_templates(&self) -> usize {
        self.runs_alive.load(Ordering::Relaxed)
    }

    /// Folds resumed from a remembered state instead of started over,
    /// since the engine was created (see [`Reader::resume_fold`]).
    pub fn folds_carried(&self) -> u64 {
        self.folds.carried.get()
    }

    /// Number of non-empty cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` iff the sheet has no content.
    pub fn is_empty(&self) -> bool {
        self.cells.len() == 0
    }

    /// Cells currently awaiting recalculation.
    pub fn dirty_count(&self) -> usize {
        self.cells.dirty_count()
    }

    /// Iterates over every non-empty cell and its content in `(col, row)`
    /// order (persistence and verification walks).
    pub fn cells(&self) -> impl Iterator<Item = (Cell, &CellContent)> {
        self.cells.iter()
    }

    /// The cell store (the workbook shares it with other sheets'
    /// evaluation, read-only).
    pub(crate) fn store(&self) -> &CellStore {
        &self.cells
    }

    /// Slots the cell store has allocated (tests bounding memory).
    #[doc(hidden)]
    pub fn slot_capacity(&self) -> usize {
        self.cells.slot_capacity()
    }

    // ---- edits ---------------------------------------------------------

    /// Sets a pure value, returning the dependents receipt.
    pub fn set_value(&mut self, cell: Cell, v: Value) -> EditReceipt {
        self.detach_formula(cell);
        self.put_cell(cell, CellContent::pure(v));
        self.mark_dependents_dirty(Range::cell(cell))
    }

    /// Sets a formula (with or without leading `=`), parses it, updates the
    /// graph, and returns the dependents receipt. Only same-sheet
    /// references enter this sheet's graph; sheet-qualified ones are the
    /// workbook's to route (a standalone engine evaluates them to
    /// `#REF!`).
    pub fn set_formula(&mut self, cell: Cell, src: &str) -> Result<EditReceipt, FormulaError> {
        let run = self.run_for(cell, src)?;
        Ok(self.set_run(cell, run))
    }

    /// The run of the cell above `cell` or of the cell to its left, if a
    /// formula typed at `cell` as `text` (no leading `=`) would be its
    /// next cell: what filling that run to `cell` would have written.
    ///
    /// Failing that, a run of one above that the formula would extend if
    /// its numeric literals stepped ([`At::step_below`]) becomes a run of
    /// two: the cell above is put in a run of the stepped template —
    /// holding, there, the very formula it held — and that run returned.
    /// A longer run's steps are fixed by its cells; a formula off its line
    /// starts a run of its own.
    ///
    /// [`At::step_below`]: taco_formula::template::At::step_below
    fn run_beside(&mut self, cell: Cell, text: &str) -> Option<Arc<Run>> {
        let above = (cell.row > 1).then(|| Cell::new(cell.col, cell.row - 1));
        let left = (cell.col > 1).then(|| Cell::new(cell.col - 1, cell.row));
        let [above_run, left_run] = [above, left].map(|c| c.and_then(|c| self.run_at(c)));
        let left_run = left_run.filter(|left| !above_run.is_some_and(|up| Arc::ptr_eq(up, left)));
        let beside = [above_run, left_run];
        if let Some(run) = beside.into_iter().flatten().find(|run| run.at(cell).reads_as(text)) {
            return Some(Arc::clone(run));
        }
        // The cell store holds the one pointer to a run of one.
        let above = above?;
        let alone = above_run.filter(|run| Arc::strong_count(run) == 1)?;
        let stepped = alone.at(above).step_below(text)?;
        debug_assert_eq!(stepped.at(0, 0).to_string(), alone.at(above).to_string());
        let run = Run::new(stepped, above, &self.runs_alive);
        self.cells.repoint(above, Arc::clone(&run));
        Some(run)
    }

    /// The run a cell holding the formula `src` (leading `=` optional) at
    /// `cell` is part of: a neighbour's ([`Self::run_beside`]), in which
    /// case `src` is not even parsed — the run holds it — and a new run
    /// of one otherwise.
    pub(crate) fn run_for(&mut self, cell: Cell, src: &str) -> Result<Arc<Run>, FormulaError> {
        let text = src.strip_prefix('=').unwrap_or(src);
        match self.run_beside(cell, text) {
            Some(run) => Ok(run),
            None => Ok(Run::new(Template::parse(text)?, cell, &self.runs_alive)),
        }
    }

    /// [`Self::run_for`] a formula already parsed or built.
    pub(crate) fn run_of(&mut self, cell: Cell, formula: Template) -> Arc<Run> {
        self.run_beside(cell, formula.text())
            .unwrap_or_else(|| Run::new(formula, cell, &self.runs_alive))
    }

    /// Makes `cell` a cell of `run`: registers what the run's formula
    /// reads there with the graph and marks the cell and its dependents
    /// dirty.
    pub(crate) fn set_run(&mut self, cell: Cell, run: Arc<Run>) -> EditReceipt {
        self.detach_formula(cell);
        self.attach_reads(cell, &run);
        self.put_cell(cell, CellContent::formula_cell(run, Value::Empty));
        self.mark_cells_dirty(&[cell]);
        self.mark_dependents_dirty(Range::cell(cell))
    }

    /// Clears every cell in `range` (values and formulae).
    pub fn clear_range(&mut self, range: Range) -> EditReceipt {
        self.graph.clear_cells(range);
        self.cells.remove_range(range, self.folds.tick());
        self.mark_dependents_dirty(range)
    }

    /// Autofills the formula at `src` over `targets` (the tool that
    /// generates tabular locality): every target joins one run. Fails if
    /// `src` has no formula.
    pub fn autofill(&mut self, src: Cell, targets: Range) -> Result<EditReceipt, CellError> {
        let run = self.fill_run(src).ok_or(CellError::Value)?;
        let mut dirty = Vec::new();
        for cell in targets.cells().filter(|&cell| cell != src) {
            dirty.extend(self.set_run(cell, Arc::clone(&run)).dirty);
        }
        Ok(EditReceipt { dirty })
    }

    /// The run an autofill from `src` puts its targets in, `None` if `src`
    /// holds no formula. The source's own run, as long as its text at any
    /// cell is what autofill writes there — the printer's, with every
    /// literal copied as `src` holds it — and every reference is still on
    /// the grid at `src`; otherwise (a formula typed with other spacing or
    /// case, a reference already lost, literals that step along the run) a
    /// run of the source's formula as the printer writes it, which the
    /// source itself, as ever, is not part of.
    pub(crate) fn fill_run(&self, src: Cell) -> Option<Arc<Run>> {
        let run = self.run_at(src)?;
        let at = run.at(src);
        let template = run.template();
        Some(if at.is_whole() && template.prints_itself() && !template.is_stepped() {
            Arc::clone(run)
        } else {
            Run::new(Template::printed(at.to_ast()), src, &self.runs_alive)
        })
    }

    /// Registers with the graph what `run`'s formula reads, at `cell`, on
    /// this sheet.
    pub(crate) fn attach_reads(&mut self, cell: Cell, run: &Run) {
        for (sheet, rref) in run.at(cell).reads() {
            if self.is_local(sheet) {
                self.graph.add_dependency(&Dependency::from_ref(&rref, cell));
            }
        }
    }

    /// Removes the graph dependencies of a formula cell before overwriting.
    fn detach_formula(&mut self, cell: Cell) {
        if self.run_at(cell).is_some() {
            self.graph.clear_cells(Range::cell(cell));
        }
    }

    /// Queries the graph for dependents of `of` and marks the formula cells
    /// among them dirty. This is the control-latency critical path.
    fn mark_dependents_dirty(&mut self, of: Range) -> EditReceipt {
        let dirty = self.find_dependents(of);
        self.mark_ranges_dirty(&dirty);
        EditReceipt { dirty }
    }

    /// Marks the formula cells inside `ranges` dirty (workbook cross-sheet
    /// routing enters here).
    pub(crate) fn mark_ranges_dirty(&mut self, ranges: &[Range]) {
        for &range in ranges {
            self.cells.mark_formulas_dirty_in(range);
        }
    }

    /// Marks the formula cells among `cells` dirty.
    pub(crate) fn mark_cells_dirty(&mut self, cells: &[Cell]) {
        self.cells.mark_cells_dirty(cells);
    }

    /// The run the formula cell at `cell` is part of, if it is one.
    pub(crate) fn run_at(&self, cell: Cell) -> Option<&Arc<Run>> {
        self.cells.get(cell)?.run.as_ref()
    }

    // ---- recalculation ----------------------------------------------------
    //
    // A pass is *order from roots, then evaluate the order*. The roots are
    // every dirty cell (a full pass) or the dirty cells of the ranges
    // somebody is looking at (the workbook's demand pass, which comes
    // back with more roots as cross-sheet reads turn up).

    /// Re-evaluates all dirty formula cells in dependency order; cycles
    /// evaluate to `#CYCLE!`. Returns the number of cells evaluated.
    pub fn recalculate(&mut self) -> usize {
        self.begin_pass();
        self.order_from(None);
        self.evaluate_ordered(&NoExternal)
    }

    /// The evaluation order of the pass under way, or of the most recent
    /// one until the next begins. The scheduler's invariant is that every
    /// cell's dirty precedents come strictly earlier (cycle members
    /// excepted).
    pub fn ordered(&self) -> &[Cell] {
        self.schedule.order()
    }

    /// Appends to the pass's order the dirty cells inside `within` — all
    /// of them for `None` — and the dirty cells they read on this sheet,
    /// each after the ones it reads, by runs: see [`crate::order`]. What
    /// an earlier call ordered stays where it is and what a later one adds
    /// goes behind everything it reads, so any sequence of calls leaves a
    /// valid order. Cycle members are recorded for
    /// [`Self::evaluate_ordered`] to flag.
    ///
    /// Runs entirely on the reusable [`Schedule`] buffers: zero
    /// steady-state allocations.
    pub(crate) fn order_from(&mut self, within: Option<Range>) {
        let mut schedule = std::mem::take(&mut self.schedule);
        schedule.order_from(self, within);
        self.schedule = schedule;
    }

    /// Evaluates the pass's order, with a view of other sheets' values
    /// (the workbook's `OtherSheets`), and unmarks exactly the cells in
    /// it; members of cycles get `#CYCLE!` first. Fully deterministic:
    /// the order depends only on the dirty set, the local graph and the
    /// roots asked for. Returns the number of cells evaluated.
    pub(crate) fn evaluate_ordered<E: ExternalSheets>(&mut self, ext: &E) -> usize {
        // Take the schedule and the node out so the loop can borrow `cells`
        // mutably; they go back (capacity intact) afterwards.
        let mut schedule = std::mem::take(&mut self.schedule);
        let mut node = std::mem::take(&mut self.node);
        // The stores may have changed shape since the last pass.
        node.results = Cursor::default();
        node.binds.clear();
        for &cell in schedule.cycles() {
            let at = self.folds.tick();
            self.cells.store_result(&mut node.results, cell, Value::Error(CellError::Cycle), at);
        }
        let order = schedule.order();
        for extent in schedule.extents() {
            let cells = &order[extent.begin as usize..(extent.begin + extent.len) as usize];
            self.evaluate_node(&mut node, cells, extent.up, ext);
        }
        let evaluated = order.len();
        schedule.close();
        self.cells.unmark(schedule.evaluated());
        self.schedule = schedule;
        self.node = node;
        self.evaluated_total += evaluated as u64;
        evaluated
    }

    /// Evaluates one node — `cells`, one run's down one column, in the
    /// order given (bottom-up if `up`) — and stores each result before the
    /// next row is evaluated. The run's program is bound to the node once
    /// ([`Node::start`]): each reference placed at the node's column and
    /// bound to its column's place in the store, each row-invariant
    /// subtree run, at the first row. Then each row runs the rest of the
    /// program on a [`NodeView`] that reads through those bindings and
    /// carries the node's folds from row to row (see [`Carries`]); its
    /// result goes through the cursor the node's column and page were
    /// found through once.
    fn evaluate_node<E: ExternalSheets>(
        &mut self,
        node: &mut Node,
        cells: &[Cell],
        up: bool,
        ext: &E,
    ) {
        let Some(run) = self.cells.run_through(&mut node.results, cells[0]).map(Arc::clone) else {
            return;
        };
        let (template, (dc, first)) = (run.template(), run.offset(cells[0]));
        let program = template.program();
        node.start(program, cells[0].col, up, dc, self.sheet_name.as_deref(), ext);
        let last = cells.len() - 1;
        let stride = (cells.len() / (MARKS_KEPT / 2)).max(1);
        let mut next_mark = 0;
        for (index, &cell) in cells.iter().enumerate() {
            debug_assert!(
                self.cells
                    .run_through(&mut node.results, cell)
                    .is_some_and(|r| Arc::ptr_eq(r, &run)),
                "{cell} is not of its node's run"
            );
            let vol = template.is_volatile().then(|| VolatileCtx::for_cell(self.clock, cell));
            let mark = index == next_mark || index == last;
            if index == next_mark {
                next_mark += stride;
            }
            let view = NodeView {
                cells: &self.cells,
                folds: &self.folds,
                ext,
                binds: &node.binds,
                carries: &node.carries,
                vol: vol.as_ref(),
                row: cell.row,
                mark,
            };
            let dr = first + i64::from(cell.row) - i64::from(cells[0].row);
            if index == 0 {
                program.hoist(&mut node.frame, dr, &view);
            }
            let value = program.eval(&mut node.frame, dr, &view);
            let at = self.folds.tick();
            self.cells.store_result(&mut node.results, cell, value, at);
        }
    }

    // ---- passthrough graph queries ----------------------------------------

    /// Dependents of `r` per the formula graph, on the engine's warm
    /// query buffers.
    pub fn find_dependents(&mut self, r: Range) -> Vec<Range> {
        let mut out = Vec::new();
        self.graph.find_dependents_with_scratch(r, &mut self.query, &mut out);
        out
    }

    /// Precedents of `r` per the formula graph, on the engine's warm
    /// query buffers.
    pub fn find_precedents(&mut self, r: Range) -> Vec<Range> {
        let mut out = Vec::new();
        self.graph.find_precedents_with_scratch(r, &mut self.query, &mut out);
        out
    }
}

/// One aggregate's fold as a node carries it down its rows: where
/// [`Folds`] keeps the run's marks, and the fold the latest row
/// remembered.
#[derive(Clone, Copy)]
struct Carry {
    id: FuncId,
    head: Cell,
    tail_col: u32,
    /// The run's slot in [`Folds`], as the node's one search found it or
    /// its first mark made it.
    slot: Option<usize>,
    /// `(state, through, at)`: the fold over rows `head.row..=through`,
    /// remembered while row `at` was evaluated.
    last: Option<(FoldState, u32, u32)>,
}

impl Carry {
    fn is_of(&self, id: FuncId, range: Range) -> bool {
        self.id == id && self.head == range.head() && self.tail_col == range.tail().col
    }
}

/// The folds a node carries from row to row, one per aggregate of its
/// program with a `$`-headed leading range ([`Program::aggregates`]): the
/// fold it went on from and where it stands, so the next row goes on over
/// its new rows only.
///
/// A carried fold is what a row before remembered, and it holds as long
/// as no cell of its range has been written since. Within a node the only
/// writes are the node's own results — its rows before the one being
/// evaluated, in its column — so that is one comparison of rows
/// ([`Carries::untouched`]). A carry that does not hold asks [`Folds`],
/// which the node searches once per aggregate, at its first row; a fold
/// that met an error is never remembered, so the next row goes on from
/// the carry before it. Marks go to [`Folds`] at the node's first row,
/// every n/32 rows of a node of n and at its last row — spread along the
/// column as [`Folds`] would thin them to — for later passes to resume
/// from.
#[derive(Default)]
struct Carries {
    col: u32,
    up: bool,
    entries: Vec<std::cell::Cell<Option<Carry>>>,
}

impl Carries {
    /// Starts a node down column `col` (bottom-up if `up`) of a program
    /// with `aggregates` such aggregates, carrying nothing yet.
    #[inline]
    fn start(&mut self, col: u32, up: bool, aggregates: usize) {
        (self.col, self.up) = (col, up);
        if !self.entries.is_empty() || aggregates > 0 {
            self.entries.clear();
            self.entries.resize(aggregates, Default::default());
        }
    }

    /// Whether no cell of `head..=(tail_col, through)` has been written
    /// since row `at` was evaluated, now that row `row` is: the writes in
    /// between are the node's results for the rows from `at` to the one
    /// before `row`.
    fn untouched(&self, at: u32, row: u32, head: Cell, tail_col: u32, through: u32) -> bool {
        let (first, last) = if self.up { (row + 1, at) } else { (at, row - 1) };
        first > last
            || self.col < head.col
            || self.col > tail_col
            || last < head.row
            || first > through
    }
}

/// Whose cells a reference of a node's program reads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    /// The sheet's own: unqualified, or qualified with its own name.
    Own,
    /// Another sheet's, by its [`ExternalSheets`] id.
    Other(usize),
    /// A sheet that reads as blank.
    Blank,
    /// No such sheet: every cell reads as the error.
    Missing(CellError),
}

/// A reference of a node's program, bound for the node: whose cells it
/// reads, and the cursor its reads go through — the column and page read
/// last, kept from node to node within a pass.
#[derive(Debug)]
struct Bound {
    source: Source,
    at: std::cell::Cell<Cursor>,
}

/// A node's evaluation in progress: its program bound (the references'
/// places, the hoisted values, the stack), its folds carried, and where
/// its results go. One per engine, started afresh per node.
#[derive(Default)]
struct Node {
    frame: Frame,
    /// One per reference of the program, in its order.
    binds: Vec<Bound>,
    carries: Carries,
    results: Cursor,
}

impl Node {
    /// Binds `program` to a node down column `col`, `dc` columns from the
    /// run's anchor, on the sheet named `own` beside the sheets `ext`
    /// resolves: each reference placed, its qualifier resolved, and its
    /// cursor kept where the node before read the same sheet for it.
    fn start<E: ExternalSheets>(
        &mut self,
        program: &Program,
        col: u32,
        up: bool,
        dc: i64,
        own: Option<&str>,
        ext: &E,
    ) {
        self.carries.start(col, up, program.aggregates());
        program.place(&mut self.frame, dc);
        self.binds.truncate(program.refs().len());
        for (k, q) in program.refs().iter().enumerate() {
            let source = match q.sheet_name() {
                Some(name) if !own.is_some_and(|own| own.eq_ignore_ascii_case(name)) => {
                    match ext.resolve(name) {
                        Ok(Some(id)) => Source::Other(id),
                        Ok(None) => Source::Blank,
                        Err(e) => Source::Missing(e),
                    }
                }
                _ => Source::Own,
            };
            match self.binds.get_mut(k) {
                Some(bound) if bound.source == source => {}
                Some(bound) => *bound = Bound { source, at: Default::default() },
                None => self.binds.push(Bound { source, at: Default::default() }),
            }
        }
    }
}

/// What a node's program reads through, row by row: the cell store and
/// the other sheets' through the node's bindings, the volatile-function
/// context of the cell being evaluated, and the node's carried folds
/// before [`Folds`].
struct NodeView<'a, E: ExternalSheets> {
    cells: &'a CellStore,
    folds: &'a Folds,
    ext: &'a E,
    binds: &'a [Bound],
    carries: &'a Carries,
    vol: Option<&'a VolatileCtx>,
    /// The row being evaluated.
    row: u32,
    /// Whether the folds this row remembers go to [`Folds`] as marks.
    mark: bool,
}

impl<E: ExternalSheets> NodeView<'_, E> {
    /// The store reference `k` reads, if it reads one.
    #[inline]
    fn store(&self, k: usize) -> Option<&CellStore> {
        match self.binds[k].source {
            Source::Own => Some(self.cells),
            Source::Other(id) => Some(self.ext.cells(id)),
            Source::Blank | Source::Missing(_) => None,
        }
    }

    /// What every cell of a sheet that is not read reads as.
    fn blank(&self, k: usize) -> Value {
        match self.binds[k].source {
            Source::Missing(e) => Value::Error(e),
            _ => Value::Empty,
        }
    }
}

impl<E: ExternalSheets> Reader for NodeView<'_, E> {
    #[inline(always)]
    fn read(&self, k: usize, cell: Cell) -> Cow<'_, Value> {
        match self.store(k) {
            Some(store) => Cow::Borrowed(store.read(&self.binds[k].at, cell)),
            None if matches!(self.binds[k].source, Source::Blank) => Cow::Borrowed(&EMPTY),
            None => Cow::Owned(self.blank(k)),
        }
    }

    #[inline]
    fn fold<A, B>(
        &self,
        k: usize,
        range: Range,
        init: A,
        f: &mut impl FnMut(A, &Value) -> ControlFlow<B, A>,
    ) -> ControlFlow<B, A> {
        let store = self.store(k);
        // Debug builds hold every scan to the cell-by-cell read it
        // replaces, so each suite that evaluates a formula checks it.
        #[cfg(debug_assertions)]
        let mut cell_by_cell = range.cells();
        #[cfg(debug_assertions)]
        let f = &mut |acc: A, v: &Value| {
            let cell = cell_by_cell.next().expect("a scan visits no more cells than its range");
            let blank = self.blank(k);
            let want = store.map_or(&blank, |store| store.value(cell));
            let same = match (v, want) {
                (Value::Number(a), Value::Number(b)) => a.to_bits() == b.to_bits(),
                _ => v == want,
            };
            debug_assert!(same, "scan of {range} for reference {k}: {v:?} at {cell}, not {want:?}");
            f(acc, v)
        };
        let flow = match store {
            Some(store) => store.fold_through(&self.binds[k].at, range, init, f),
            None => {
                let blank = self.blank(k);
                range.cells().try_fold(init, |acc, _| f(acc, &blank))
            }
        };
        #[cfg(debug_assertions)]
        debug_assert!(
            flow.is_break() || cell_by_cell.next().is_none(),
            "scan of {range} for reference {k} stopped short"
        );
        flow
    }

    fn volatile(&self) -> Option<&VolatileCtx> {
        self.vol
    }

    /// From the node's carry where it holds (see [`Carries`]); else from
    /// [`Folds`], whose ring the node searches once per aggregate.
    #[inline]
    fn resume_fold(&self, agg: usize, id: FuncId, range: Range) -> Option<(FoldState, u32)> {
        let (head, tail) = (range.head(), range.tail());
        let entry = &self.carries.entries[agg];
        let resumed = match entry.get().filter(|carry| carry.is_of(id, range)) {
            Some(Carry { last: Some((state, through, at)), .. })
                if through <= tail.row
                    && self.carries.untouched(at, self.row, head, tail.col, through) =>
            {
                Some((state, through))
            }
            Some(carry) => self.folds.resume(carry.slot, id, range, self.cells),
            None => {
                let slot = self.folds.find(id, range);
                entry.set(Some(Carry { id, head, tail_col: tail.col, slot, last: None }));
                self.folds.resume(slot, id, range, self.cells)
            }
        };
        let folds = self.folds;
        folds.carried.set(folds.carried.get() + u64::from(resumed.is_some()));
        #[cfg(test)]
        {
            let rows = resumed.map_or(range.height(), |(_, through)| tail.row - through);
            folds.folded.set(folds.folded.get() + u64::from(rows) * u64::from(range.width()));
        }
        resumed
    }

    #[inline]
    fn remember_fold(&self, agg: usize, id: FuncId, range: Range, state: FoldState) {
        let entry = &self.carries.entries[agg];
        let mut carry = entry.get().expect("a fold is resumed before it is remembered");
        if self.mark {
            carry.slot = Some(self.folds.remember(carry.slot, id, range, state));
        }
        carry.last = Some((state, range.tail().row, self.row));
        entry.set(Some(carry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> Cell {
        Cell::parse_a1(s).unwrap()
    }

    fn r(s: &str) -> Range {
        Range::parse_a1(s).unwrap()
    }

    fn n(v: f64) -> Value {
        Value::Number(v)
    }

    #[test]
    fn values_and_formulas_evaluate() {
        let mut e = Engine::with_taco();
        e.set_value(c("A1"), n(2.0));
        e.set_value(c("A2"), n(3.0));
        e.set_formula(c("B1"), "=A1+A2").unwrap();
        e.recalculate();
        assert_eq!(e.value(c("B1")), n(5.0));
    }

    #[test]
    fn update_propagates_through_chain() {
        let mut e = Engine::with_taco();
        e.set_value(c("A1"), n(1.0));
        for row in 2..=20u32 {
            e.set_formula(Cell::new(1, row), &format!("=A{}+1", row - 1)).unwrap();
        }
        e.recalculate();
        assert_eq!(e.value(c("A20")), n(20.0));

        // Update the head: all downstream cells must go dirty and refresh.
        let receipt = e.set_value(c("A1"), n(100.0));
        assert_eq!(receipt.dirty.iter().map(Range::area).sum::<u64>(), 19);
        assert_eq!(e.dirty_count(), 19);
        e.recalculate();
        assert_eq!(e.value(c("A20")), n(119.0));
    }

    #[test]
    fn a_value_typed_over_a_dirty_formula_leaves_the_dirty_set() {
        let mut e = Engine::with_taco();
        e.set_value(c("A1"), n(2.0));
        e.set_formula(c("B1"), "=A1*2").unwrap();
        assert_eq!(e.dirty_count(), 1);
        e.set_value(c("B1"), n(7.0));
        let before = e.evaluated_total();
        assert_eq!(e.dirty_count(), 0, "only a formula is dirty");
        assert_eq!(e.recalculate(), 0);
        assert_eq!(e.evaluated_total(), before);
        assert_eq!(e.value(c("B1")), n(7.0));
    }

    #[test]
    fn cumulative_sum_via_autofill() {
        let mut e = Engine::with_taco();
        for row in 1..=10u32 {
            e.set_value(Cell::new(1, row), n(f64::from(row)));
        }
        // B1 = SUM($A$1:A1), autofill down: FR expanding windows.
        e.set_formula(c("B1"), "=SUM($A$1:A1)").unwrap();
        e.autofill(c("B1"), r("B2:B10")).unwrap();
        e.recalculate();
        assert_eq!(e.value(c("B10")), n(55.0));
        assert_eq!(e.value(c("B5")), n(15.0));
        // The graph compressed the fill into few edges.
        assert!(e.graph().num_edges() <= 2, "got {}", e.graph().num_edges());
    }

    #[test]
    fn fig2_if_chain_recalculates() {
        let mut e = Engine::with_taco();
        // Column A: group ids; column M: amounts; column N: running
        // group-subtotals, exactly the Fig. 2 shape.
        let groups = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0];
        for (i, g) in groups.iter().enumerate() {
            let row = i as u32 + 2;
            e.set_value(Cell::new(1, row), n(*g));
            e.set_value(Cell::new(13, row), n(10.0));
        }
        e.set_formula(c("N2"), "=M2").unwrap();
        e.set_formula(c("N3"), "=IF(A3=A2,N2+M3,M3)").unwrap();
        e.autofill(c("N3"), r("N4:N7")).unwrap();
        e.recalculate();
        // Group 1 rows 2-4 accumulate 10,20,30; group 2 resets.
        assert_eq!(e.value(c("N4")), n(30.0));
        assert_eq!(e.value(c("N5")), n(10.0));
        assert_eq!(e.value(c("N6")), n(20.0));
        assert_eq!(e.value(c("N7")), n(10.0));
    }

    #[test]
    fn clear_range_detaches_dependencies() {
        let mut e = Engine::with_taco();
        e.set_value(c("A1"), n(1.0));
        e.set_formula(c("B1"), "=A1*2").unwrap();
        e.recalculate();
        assert_eq!(e.value(c("B1")), n(2.0));
        e.clear_range(r("B1"));
        assert_eq!(e.value(c("B1")), Value::Empty);
        // A1 edits no longer dirty anything.
        let receipt = e.set_value(c("A1"), n(9.0));
        assert!(receipt.dirty.is_empty());
    }

    #[test]
    fn overwrite_formula_updates_graph() {
        let mut e = Engine::with_taco();
        e.set_value(c("A1"), n(1.0));
        e.set_value(c("A2"), n(2.0));
        e.set_formula(c("B1"), "=A1").unwrap();
        e.set_formula(c("B1"), "=A2").unwrap();
        e.recalculate();
        assert_eq!(e.value(c("B1")), n(2.0));
        assert!(e.set_value(c("A1"), n(5.0)).dirty.is_empty());
        assert_eq!(e.set_value(c("A2"), n(5.0)).dirty.iter().map(Range::area).sum::<u64>(), 1);
    }

    #[test]
    fn cycles_become_cycle_errors() {
        let mut e = Engine::with_taco();
        e.set_formula(c("A1"), "=B1+1").unwrap();
        e.set_formula(c("B1"), "=A1+1").unwrap();
        e.recalculate();
        assert!(
            e.value(c("A1")) == Value::Error(CellError::Cycle)
                || e.value(c("B1")) == Value::Error(CellError::Cycle),
            "at least one cycle member must be flagged"
        );
    }

    #[test]
    fn taco_and_nocomp_engines_agree() {
        let build = |mut e: Engine| {
            for row in 1..=30u32 {
                e.set_value(Cell::new(1, row), n(f64::from(row)));
            }
            e.set_formula(c("B1"), "=A1*2").unwrap();
            e.autofill(c("B1"), r("B2:B30")).unwrap();
            e.set_formula(c("C1"), "=SUM(B1:B30)").unwrap();
            e.recalculate();
            e
        };
        let taco = build(Engine::with_taco());
        let nocomp = build(Engine::with_nocomp());
        assert_eq!(taco.value(c("C1")), nocomp.value(c("C1")));
        assert_eq!(taco.value(c("C1")), n(2.0 * (30.0 * 31.0 / 2.0)));
        assert!(taco.graph().num_edges() < nocomp.graph().num_edges());
    }

    #[test]
    fn vlookup_sheet() {
        let mut e = Engine::with_taco();
        // Rate table in F1:G3.
        for (i, (k, v)) in [(1.0, 0.1), (2.0, 0.2), (3.0, 0.3)].iter().enumerate() {
            e.set_value(Cell::new(6, i as u32 + 1), n(*k));
            e.set_value(Cell::new(7, i as u32 + 1), n(*v));
        }
        for row in 1..=5u32 {
            e.set_value(Cell::new(1, row), n(f64::from(row % 3 + 1)));
            e.set_formula(Cell::new(2, row), &format!("=VLOOKUP(A{row},$F$1:$G$3,2,FALSE)"))
                .unwrap();
        }
        e.recalculate();
        assert_eq!(e.value(c("B1")), n(0.2));
        assert_eq!(e.value(c("B2")), n(0.3));
        assert_eq!(e.value(c("B3")), n(0.1));
        // The five FF lookups compress well: 5 deps over the table + 5 on
        // column A.
        assert!(e.graph().num_edges() <= 4, "got {}", e.graph().num_edges());
    }

    #[test]
    fn receipt_reports_the_dirty_dependents() {
        let mut e = Engine::with_taco();
        e.set_value(c("A1"), n(1.0));
        e.set_formula(c("B1"), "=A1").unwrap();
        let receipt = e.set_value(c("A1"), n(2.0));
        assert_eq!(receipt.dirty, vec![Range::cell(c("B1"))]);
    }

    /// Folds resumed from memory so far.
    fn carried(e: &Engine) -> u64 {
        e.folds_carried()
    }

    /// Cells that leading ranges still had read since the last call.
    fn folded(e: &Engine) -> u64 {
        e.folds.folded.replace(0)
    }

    /// What `SUM(range)` must be, added up here from the cell values.
    fn added_up(e: &Engine, range: &str) -> Value {
        let mut sum = 0.0;
        for cell in r(range).cells() {
            match e.value(cell) {
                Value::Number(v) => sum += v,
                Value::Error(err) => return Value::Error(err),
                _ => {}
            }
        }
        n(sum)
    }

    #[test]
    fn a_fold_is_remembered_until_a_cell_of_its_range_is_written() {
        let mut e = Engine::with_taco();
        for row in 1..=100u32 {
            e.set_value(Cell::new(1, row), n(f64::from(row)));
        }
        e.set_formula(c("C1"), "=SUM($A$1:A100)+B1").unwrap();
        // A head that moves with the formula starts no run: never asked for.
        e.set_formula(c("C2"), "=SUM(A1:A9)+B1").unwrap();
        e.recalculate();
        assert_eq!((e.value(c("C1")), carried(&e), folded(&e)), (n(5050.0), 0, 100));

        // A precedent outside the range changes: the range is not re-read.
        e.set_value(c("B1"), n(1.0));
        e.recalculate();
        assert_eq!((e.value(c("C1")), e.value(c("C2"))), (n(5051.0), n(46.0)));
        assert_eq!((carried(&e), folded(&e)), (1, 0));

        // A cell of the range changes: re-read.
        e.set_value(c("A7"), n(107.0));
        e.recalculate();
        assert_eq!((e.value(c("C1")), carried(&e), folded(&e)), (n(5151.0), 1, 100));

        // A write below the range, in its column, leaves the fold standing…
        e.set_value(c("A200"), n(1.0));
        e.set_value(c("B1"), n(2.0));
        e.recalculate();
        assert_eq!((e.value(c("C1")), carried(&e), folded(&e)), (n(5152.0), 2, 0));

        // …and a longer range goes on from it, over the new rows only.
        e.set_formula(c("C3"), "=SUM($A$1:A200)").unwrap();
        e.recalculate();
        assert_eq!((e.value(c("C3")), carried(&e), folded(&e)), (n(5151.0), 3, 100));
        // Both are remembered now, each found whole.
        e.set_value(c("B1"), n(3.0));
        e.recalculate();
        assert_eq!((e.value(c("C1")), carried(&e), folded(&e)), (n(5153.0), 4, 0));
        // A write between their last rows drops the longer one only, which
        // goes on from the shorter.
        e.set_value(c("A150"), n(1.0));
        e.set_value(c("B1"), n(4.0));
        e.recalculate();
        assert_eq!((e.value(c("C1")), e.value(c("C3"))), (n(5154.0), n(5152.0)));
        assert_eq!((carried(&e), folded(&e)), (6, 100));
    }

    /// A sheet whose column `col` sums column `of` cumulatively, `rows`
    /// rows of it, autofilled from row 1.
    fn cumulative(e: &mut Engine, col: u32, of: &str, rows: u32) {
        let cell = Cell::new(col, 1);
        e.set_formula(cell, &format!("=SUM(${of}$1:{of}1)")).unwrap();
        e.autofill(cell, Range::from_coords(col, 2, col, rows)).unwrap();
    }

    #[test]
    fn a_cumulative_column_reads_each_cell_once() {
        const ROWS: u32 = 2048;
        let mut e = Engine::with_taco();
        for row in 1..=ROWS {
            e.set_value(Cell::new(1, row), n(f64::from(row) / 8.0));
        }
        cumulative(&mut e, 2, "A", ROWS);
        assert_eq!(e.recalculate(), ROWS as usize);
        // n cells read where cell-by-cell evaluation reads n²/2 ≈ 2.1 M.
        assert_eq!((carried(&e), folded(&e)), (u64::from(ROWS) - 1, u64::from(ROWS)));
        assert_eq!(e.value(Cell::new(2, ROWS)), added_up(&e, "A1:A2048"));

        // An edit at row r: the first cell below goes on from the mark the
        // pass before left above r (marks thinned to one in n/32 rows are
        // under n/16 apart), the rest from the cell above (one row each).
        for at in [1, 700, 701, 1999, ROWS] {
            e.set_value(Cell::new(1, at), n(-3.5));
            assert_eq!(e.recalculate(), (ROWS - at + 1) as usize);
            let read = folded(&e);
            let rest = u64::from(ROWS - at);
            assert!(read > rest && read <= rest + u64::from(ROWS) / 16, "edit at row {at}: {read}");
            assert_eq!(e.value(Cell::new(2, ROWS)), added_up(&e, "A1:A2048"));
        }
    }

    /// Searches of the ring of remembered folds since the last call.
    fn lookups(e: &Engine) -> u64 {
        e.folds.lookups.replace(0)
    }

    #[test]
    fn a_node_searches_the_remembered_folds_once_per_aggregate() {
        const ROWS: u32 = 2048;
        let mut e = Engine::with_taco();
        for row in 1..=ROWS {
            e.set_value(Cell::new(1, row), n(f64::from(row) / 8.0));
        }
        cumulative(&mut e, 2, "A", ROWS);
        // Two aggregates a row: one growing, one over a fixed range.
        e.set_formula(c("C1"), "=AVERAGE($A$1:A1)+SUM($A$1:$A$8)").unwrap();
        e.autofill(c("C1"), Range::from_coords(3, 2, 3, ROWS)).unwrap();
        lookups(&e);
        assert_eq!(e.recalculate(), 2 * ROWS as usize);
        // A node per column, a search per node and aggregate: when every
        // cell looked its fold up to resume it and again to remember it,
        // that was 2 · 3 · n searches.
        assert_eq!(lookups(&e), 3);
        assert_eq!(e.value(Cell::new(2, ROWS)), added_up(&e, "A1:A2048"));
        for at in [1, 700, ROWS] {
            e.set_value(Cell::new(1, at), n(-3.5));
            assert_eq!(e.recalculate(), 2 * (ROWS - at + 1) as usize);
            assert_eq!(lookups(&e), 3, "edit at row {at}");
            assert_eq!(e.value(Cell::new(2, ROWS)), added_up(&e, "A1:A2048"));
        }
    }

    #[test]
    fn a_row_invariant_subtree_is_evaluated_once_per_node() {
        const ROWS: u32 = 2048;
        let mut e = Engine::with_taco();
        for row in 1..=ROWS {
            e.set_value(Cell::new(1, row), n(f64::from(row) / 8.0));
        }
        // Typed row by row, one run: its literal steps, its sum is fixed.
        for row in 1..=ROWS {
            e.set_formula(Cell::new(2, row), &format!("=SUM($A$1:$A$8)*{row}")).unwrap();
        }
        assert_eq!(e.formula_templates(), 1);
        let sum = (1..=8).map(|row| f64::from(row) / 8.0).sum::<f64>();
        for edit in [None, Some(3), Some(8)] {
            if let Some(row) = edit {
                e.set_value(Cell::new(1, row), n(-1.5));
            }
            folded(&e);
            assert_eq!(e.recalculate(), ROWS as usize);
            // One node, one sum: eight cells read once, and no row going on
            // from the row above (a row at a time, that was n − 1 carries).
            assert_eq!((carried(&e), folded(&e)), (0, 8), "{edit:?}");
            let sum = if edit.is_some() { added_up(&e, "A1:A8") } else { n(sum) };
            let Value::Number(sum) = sum else { panic!("{sum:?}") };
            for row in [1, 2, 1000, ROWS] {
                assert_eq!(e.value(Cell::new(2, row)), n(sum * f64::from(row)), "{edit:?} B{row}");
            }
        }
    }

    /// Column and page lookups this thread has made since the last call.
    fn store_lookups() -> u64 {
        crate::cells::LOOKUPS.with(|n| n.replace(0))
    }

    #[test]
    fn a_scalar_read_inside_its_page_looks_nothing_up() {
        // `D{r} = D{r-1}+A{r}` down one page: a pass looks up what its one
        // node reads, and what its ordering reads, once, however long.
        let mut counted = Vec::new();
        for rows in [60, 250] {
            let mut e = Engine::with_taco();
            for row in 1..=rows {
                e.set_value(Cell::new(1, row), n(f64::from(row)));
            }
            e.set_formula(c("D1"), "=A1").unwrap();
            e.set_formula(c("D2"), "=D1+A2").unwrap();
            e.autofill(c("D2"), Range::from_coords(4, 3, 4, rows)).unwrap();
            e.recalculate();
            e.set_value(c("A1"), n(0.5));
            store_lookups();
            assert_eq!(e.recalculate(), rows as usize);
            counted.push(store_lookups());
            let total = 0.5 + f64::from(rows * (rows + 1) / 2 - 1);
            assert_eq!(e.value(Cell::new(4, rows)), n(total));
        }
        assert_eq!(counted[0], counted[1], "{counted:?} lookups for 60 and 250 rows");
        assert!(counted[1] < 24, "{counted:?}");
    }

    /// Neighbour entries the scheduler pushed since the last call.
    fn entries(e: &Engine) -> u64 {
        e.nbr_entries.replace(0)
    }

    #[test]
    fn a_cumulative_column_over_a_formula_column_orders_in_linear_entries() {
        const ROWS: u32 = 2048;
        let mut e = Engine::with_taco();
        for row in 1..=ROWS {
            e.set_value(Cell::new(1, row), n(f64::from(row) / 8.0));
        }
        e.set_formula(c("B1"), "=A1*2").unwrap();
        e.autofill(c("B1"), Range::from_coords(2, 2, 2, ROWS)).unwrap();
        cumulative(&mut e, 3, "B", ROWS);
        entries(&e);
        assert_eq!(e.recalculate(), 2 * ROWS as usize);
        // Two nodes, each listed once, the column of totals reading the
        // doubled one: where a cell order lists row r's r precedents,
        // n²/2 ≈ 2.1 M entries.
        let pushed = entries(&e);
        assert!(pushed <= 4 * u64::from(ROWS), "{pushed} entries");
        assert_eq!(e.value(Cell::new(3, ROWS)), added_up(&e, "B1:B2048"));
        assert_eq!((carried(&e), folded(&e)), (u64::from(ROWS) - 1, u64::from(ROWS)));

        // An edit dirties one doubled cell and the totals from its row
        // down: one node each.
        e.set_value(c("A700"), n(-3.5));
        assert_eq!(e.recalculate(), 1 + (ROWS - 699) as usize);
        assert!(entries(&e) <= 4 * u64::from(ROWS));
        assert_eq!(e.value(Cell::new(3, ROWS)), added_up(&e, "B1:B2048"));
    }

    #[test]
    fn a_fold_carries_down_a_formula_column_recalculated_in_the_same_pass() {
        const ROWS: u32 = 300;
        // The summed column is itself formulas, left or right of the
        // cumulative one: evaluated before it column by column, or — to
        // its right — interleaved with it row by row, each input written
        // just below the range the previous total folded. And a
        // two-column range over both.
        for (input, total, other) in [(2, 3, 4), (3, 2, 4), (4, 2, 3)] {
            let mut e = Engine::with_taco();
            for row in 1..=ROWS {
                e.set_value(Cell::new(1, row), n(f64::from(row) / 8.0));
                e.set_formula(Cell::new(input, row), &format!("=A{row}*3")).unwrap();
                e.set_formula(Cell::new(other, row), &format!("=A{row}+1")).unwrap();
            }
            let of = taco_grid::a1::col_to_letters(input);
            cumulative(&mut e, total, &of, ROWS);
            let (low, high) = (input.min(other), input.max(other));
            let (low, high) =
                (taco_grid::a1::col_to_letters(low), taco_grid::a1::col_to_letters(high));
            e.set_formula(c("F1"), &format!("=AVERAGE(${low}$1:{high}1)")).unwrap();
            e.autofill(c("F1"), Range::from_coords(6, 2, 6, ROWS)).unwrap();
            e.recalculate();
            let rows = u64::from(ROWS);
            let wide = if high == "D" && low == "B" { 3 } else { 2 };
            assert_eq!((carried(&e), folded(&e)), (2 * (rows - 1), rows + wide * rows), "{of}");
            let summed = format!("{of}1:{of}{ROWS}");
            assert_eq!(e.value(Cell::new(total, ROWS)), added_up(&e, &summed));

            e.set_value(c("A100"), n(0.25));
            e.recalculate();
            // Both columns go back to a mark above row 100 once, then carry.
            let (read, rest) = (folded(&e), (rows - 100) * (1 + wide));
            assert!(read > rest && read <= rest + 100 * (1 + wide), "{of}: {read}");
            assert_eq!(e.value(Cell::new(total, ROWS)), added_up(&e, &summed));
        }
    }

    #[test]
    fn recalculated_cells_clears_and_errors_drop_a_remembered_sum() {
        let mut e = Engine::with_taco();
        for row in 1..=80u32 {
            e.set_value(Cell::new(1, row), n(1.0));
            if row <= 10 {
                e.set_formula(Cell::new(2, row), &format!("=A{row}*2")).unwrap();
            }
        }
        e.set_formula(c("D1"), "=SUM($A$1:B80)+C1").unwrap();
        e.set_formula(c("D2"), "=SUM($B$1:B80)+C1").unwrap();
        e.recalculate();
        let d1 = |e: &Engine| (e.value(c("D1")), added_up(e, "A1:B80"));
        assert_eq!(d1(&e), (n(100.0), n(100.0)));
        assert_eq!(e.value(c("D2")), n(20.0));

        // B3 changes through recalculation only — the one write into
        // D2's range.
        e.set_value(c("A3"), n(11.0));
        e.recalculate();
        assert_eq!(d1(&e), (n(130.0), n(130.0)));
        assert_eq!((e.value(c("D2")), added_up(&e, "B1:B80")), (n(40.0), n(40.0)));

        e.clear_range(r("A10:B11"));
        e.recalculate();
        assert_eq!(d1(&e), (n(126.0), n(126.0)));

        // Text is skipped by the sum itself but breaks `=A5*2`: the error
        // must come through, and go away again.
        e.set_value(c("A5"), Value::Text("n/a".into()));
        e.recalculate();
        assert_eq!(d1(&e), (Value::Error(CellError::Value), Value::Error(CellError::Value)));
        e.set_value(c("A5"), n(1.0));
        e.recalculate();
        assert_eq!(d1(&e), (n(126.0), n(126.0)));

        // Rows move: the formula's range is rewritten and re-read.
        e.insert_rows(4, 2);
        e.set_value(c("A4"), n(1000.0));
        e.recalculate();
        assert_eq!(d1(&e).0, n(1126.0));
        assert_eq!(added_up(&e, "A1:B82"), n(1126.0));

        // Through all of it the loose precedent never forced a re-read.
        let before = (carried(&e), folded(&e)).0;
        e.set_value(c("C1"), n(0.5));
        e.recalculate();
        assert_eq!((e.value(c("D1")), carried(&e), folded(&e)), (n(1126.5), before + 2, 0));
    }
}
