use crate::cells::{CellStore, Cursor, SheetValues};
use crate::order::{Extent, Schedule, Stretch};
use crate::sheet::{CellContent, Run};
use crate::workbook::OtherSheets;
use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use taco_formula::eval::{EvalClock, VolatileCtx};
use taco_formula::program::{FoldState, Frame, Program, Reader};
use taco_formula::{CellError, FormulaError, FuncId, Template, Value};
use taco_grid::{Cell, Range};

/// One sheet's part of the most recent recalculation pass (see
/// [`Engine::last_pass`]): what it evaluated and the grain it ordered at.
/// How long ordering and evaluation took is the hub's to say: an attached
/// workbook records a `sheet.order` and a `sheet.eval` span per sheet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SheetPass {
    /// The sheet's index in its workbook.
    pub sheet: usize,
    /// Cells evaluated.
    pub cells: u32,
    /// The nodes the pass's orderings on the sheet made of them (see
    /// `crate::order`): a run's stretch of dirty cells ordered as one
    /// counts once, a cell ordered on its own once. At most `cells`.
    pub nodes: u32,
}

/// The ranges a sheet's edits wrote since their dependents were last
/// marked ([`Engine::drain_origins`]): the seeds of the next dependents
/// query. A one-column range joins its column's open interval when the
/// two overlap or touch, so a column typed row by row stays one seed
/// however many records wrote it; one that does not closes the interval
/// and opens the next. A union of touching intervals holds exactly their
/// cells, so no seed stands for a cell nobody wrote.
#[derive(Default)]
struct Origins {
    /// `(col, lo, hi)`, at most one per column, ascending by column.
    open: Vec<(u32, u32, u32)>,
    /// Closed intervals, and ranges over several columns.
    closed: Vec<Range>,
    /// Whether a formula was written or recorded: if not, no origin holds
    /// a formula cell to mark (a value or a clear leaves none behind).
    formulas: bool,
}

impl Origins {
    /// Records `range` as written, `formula` if with a formula.
    fn record(&mut self, range: Range, formula: bool) {
        self.formulas |= formula;
        let (head, tail) = (range.head(), range.tail());
        if head.col != tail.col {
            self.closed.push(range);
            return;
        }
        let (col, lo, hi) = (head.col, head.row, tail.row);
        match self.open.binary_search_by_key(&col, |&(c, _, _)| c) {
            Ok(i) => {
                let open = &mut self.open[i];
                if lo <= open.2.saturating_add(1) && open.1 <= hi.saturating_add(1) {
                    (open.1, open.2) = (open.1.min(lo), open.2.max(hi));
                } else {
                    self.closed.push(Range::from_coords(col, open.1, col, open.2));
                    *open = (col, lo, hi);
                }
            }
            Err(i) => self.open.insert(i, (col, lo, hi)),
        }
    }

    fn is_empty(&self) -> bool {
        self.open.is_empty() && self.closed.is_empty()
    }

    /// Moves every origin into `seeds`, each distinct range once; returns
    /// whether a formula was written.
    fn drain_into(&mut self, seeds: &mut Vec<Range>) -> bool {
        seeds.append(&mut self.closed);
        let open = self.open.drain(..);
        seeds.extend(open.map(|(col, lo, hi)| Range::from_coords(col, lo, col, hi)));
        seeds.sort_unstable_by_key(|r| (r.head(), r.tail()));
        seeds.dedup();
        std::mem::take(&mut self.formulas)
    }
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

/// One sheet of a [`crate::Workbook`]: its cells and the recalculation
/// state over them. Its dependencies are the workbook's graph's, in the
/// sheet's band. The workbook edits and recalculates it;
/// [`crate::Workbook::sheet`] lends it out read-only.
pub struct Engine {
    /// Cell contents and dirty marks (see [`CellStore`]).
    cells: CellStore,
    /// What the edits since the last [`Self::drain_origins`] wrote.
    origins: Origins,
    /// The sheet's name in its [`crate::Workbook`]; references qualified
    /// with this name (`Sheet1!A1` inside `Sheet1`) are treated as local.
    sheet_name: String,
    /// What the pass under way, or the most recent one, evaluated here:
    /// its extents in evaluation order, and their cells.
    pass: Vec<Extent>,
    pass_cells: usize,
    /// The node being evaluated, in buffers that persist from pass to
    /// pass, so steady-state recalculation performs no per-recalc (let
    /// alone per-cell) allocations.
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
    /// Stretches read off the store so far (test instrumentation: one
    /// pass reads them once per sheet it orders on).
    #[cfg(test)]
    pub(crate) stretches_read: std::cell::Cell<u64>,
    /// Extents put in an order so far (test instrumentation).
    #[cfg(test)]
    pub(crate) extents_emitted: std::cell::Cell<u64>,
}

impl Engine {
    /// An empty sheet named `sheet_name` (a workbook mounts it).
    pub(crate) fn new(sheet_name: String) -> Self {
        Engine {
            cells: CellStore::default(),
            origins: Origins::default(),
            sheet_name,
            pass: Vec::new(),
            pass_cells: 0,
            node: Node::default(),
            folds: Folds::default(),
            runs_alive: Arc::default(),
            clock: EvalClock::default(),
            evaluated_total: 0,
            #[cfg(test)]
            nbr_lists: Default::default(),
            #[cfg(test)]
            nbr_entries: Default::default(),
            #[cfg(test)]
            stretches_read: Default::default(),
            #[cfg(test)]
            extents_emitted: Default::default(),
        }
    }

    /// This sheet's part of the most recent recalculation pass (of the
    /// one under way, so far), `None` if it evaluated nothing here.
    pub fn last_pass(&self) -> Option<SheetPass> {
        let (cells, nodes) = (self.pass_cells as u32, self.pass.len() as u32);
        (cells > 0).then_some(SheetPass { sheet: 0, cells, nodes })
    }

    /// Starts a recalculation pass: nothing evaluated here yet (the
    /// workbook begins one on every sheet, so those a pass never reaches
    /// report nothing).
    pub(crate) fn begin_pass(&mut self) {
        self.pass.clear();
        self.pass_cells = 0;
    }

    /// The cells the most recent recalculation pass evaluated (or flagged
    /// `#CYCLE!`), sorted by `(col, row)` (test instrumentation).
    #[cfg(test)]
    pub(crate) fn last_evaluated(&self) -> Vec<Cell> {
        let mut cells: Vec<Cell> = self.ordered_cells().collect();
        cells.sort_unstable();
        cells
    }

    /// Stores the clock without any dirty marking (the workbook marks
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

    /// The sheet's name in its workbook.
    pub fn sheet_name(&self) -> &str {
        &self.sheet_name
    }

    /// Takes the whole cell store, dirty marks included (structural
    /// edits rebuild it).
    pub(crate) fn take_cells(&mut self) -> CellStore {
        self.folds.forget();
        std::mem::take(&mut self.cells)
    }

    /// Writes one cell with no dirty bookkeeping (rebuilds and restores,
    /// which carry their own).
    pub(crate) fn put_cell(&mut self, cell: Cell, content: CellContent) {
        self.cells.insert(cell, content, self.folds.tick());
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

    /// A copy of the sheet's cell values for readers on other threads,
    /// made from `prev`, an earlier copy of this sheet (`None`: none):
    /// every page of the cell store nothing was written to since `prev`
    /// was made is `prev`'s, shared, and every other page is copied — so
    /// after a structural edit, which rebuilds the store, every page is.
    /// Returns the copy and the pages copied.
    pub fn publish(&self, prev: Option<&SheetValues>) -> (SheetValues, usize) {
        self.cells.publish(prev, self.folds.clock)
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

    // An edit writes the store and records the range it wrote as an
    // origin (the workbook keeps the graph in step); its dependents are
    // marked later, with every other origin the workbook's edits recorded
    // meanwhile, from what [`Self::drain_origins`] hands over.

    /// Sets a pure value.
    pub(crate) fn set_value(&mut self, cell: Cell, v: Value) {
        self.put_cell(cell, CellContent::pure(v));
        self.origins.record(Range::cell(cell), false);
    }

    /// The run of the cell above `cell` or of the cell to its left, if a
    /// formula typed at `cell` as `text` (no leading `=`) would be its
    /// next cell: what filling that run to `cell` would have written.
    /// "Above" is the nearest cell up the column that holds anything, past
    /// vacant rows: a run spans blank rows, so a column typed in pairs
    /// with blank rows between them is one run, but never a value — the
    /// value is the cell above then, and holds no run.
    ///
    /// Failing that, a run of one right above that the formula would
    /// extend if its numeric literals stepped ([`At::step_below`]) becomes
    /// a run of two: the cell above is put in a run of the stepped
    /// template — holding, there, the very formula it held — and that run
    /// returned. A longer run's steps are fixed by its cells; a formula
    /// off its line starts a run of its own.
    ///
    /// [`At::step_below`]: taco_formula::template::At::step_below
    fn run_beside(&mut self, cell: Cell, text: &str) -> Option<Arc<Run>> {
        let over = self.cells.occupied_above(cell);
        let left = (cell.col > 1).then(|| Cell::new(cell.col - 1, cell.row));
        let above_run = over.and_then(|(_, content)| content.run.as_ref());
        let left_run = left.and_then(|c| self.run_at(c));
        let left_run = left_run.filter(|left| !above_run.is_some_and(|up| Arc::ptr_eq(up, left)));
        let beside = [above_run, left_run];
        if let Some(run) = beside.into_iter().flatten().find(|run| run.at(cell).reads_as(text)) {
            return Some(Arc::clone(run));
        }
        // The cell store holds the one pointer to a run of one.
        let (above, _) = over.filter(|(up, _)| up.row + 1 == cell.row)?;
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

    /// Makes `cell` a cell of `run`. The cell is an origin, marked dirty
    /// with its dependents.
    pub(crate) fn set_run(&mut self, cell: Cell, run: Arc<Run>) {
        self.put_cell(cell, CellContent::formula_cell(run, Value::Empty));
        self.origins.record(Range::cell(cell), true);
    }

    /// Clears every cell in `range` (values and formulae).
    pub(crate) fn clear_range(&mut self, range: Range) {
        self.cells.remove_range(range, self.folds.tick());
        self.origins.record(range, false);
    }

    /// Records the formula cells of `range` as written, for
    /// [`Self::drain_origins`] (a structural edit's changed cells, a
    /// referrer it disturbed, a volatile cell the clock moved, a formula
    /// an added sheet resolved).
    pub(crate) fn record_origin(&mut self, range: Range) {
        self.origins.record(range, true);
    }

    /// Whether edits recorded origins since the last
    /// [`Self::drain_origins`].
    pub(crate) fn has_origins(&self) -> bool {
        !self.origins.is_empty()
    }

    /// Hands over every origin recorded since the last call: `seeds` is
    /// overwritten with them, and the formula cells inside them are
    /// marked dirty — one interval at a time, what the edits wrote, and
    /// only if they wrote a formula. Every formula cell inside an origin
    /// is one an edit wrote or recorded (an origin is a union of touching
    /// written ranges, and a value or a clear leaves no formula behind),
    /// so no other cell is marked; the workbook marks their dependents.
    pub(crate) fn drain_origins(&mut self, seeds: &mut Vec<Range>) {
        seeds.clear();
        if self.origins.drain_into(seeds) {
            self.mark_ranges_dirty(seeds);
        }
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

    /// Marks the formula cells inside `ranges` dirty (the dependents the
    /// workbook's query found here enter through this).
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
    // The workbook orders a pass across all its sheets (`crate::order`)
    // and hands each sheet the stretches of that order on it to evaluate.

    /// The cells of the pass under way, or of the most recent one until
    /// the next begins, in evaluation order: the formula cells in each
    /// evaluated extent's rows, found by a walk over every row it spans,
    /// blank ones included. The scheduler's invariant is that every
    /// cell's dirty precedents come strictly earlier (cycle members
    /// excepted).
    pub fn ordered_cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.pass.iter().flat_map(move |extent| {
            let rows = extent.lo..=extent.hi;
            let (down, up) = if extent.up { (0, usize::MAX) } else { (usize::MAX, 0) };
            let rows = rows.clone().take(down).chain(rows.rev().take(up));
            let cells = rows.map(move |row| Cell { col: extent.col, row });
            cells.filter(|&cell| self.run_at(cell).is_some())
        })
    }

    /// Flags `cell`, a member of a cycle, `#CYCLE!`: before any member is
    /// evaluated, so one that reads a member still open in the cycle
    /// search reads that.
    pub(crate) fn flag_cycle(&mut self, cell: Cell) {
        let at = self.folds.tick();
        let error = Value::Error(CellError::Cycle);
        self.cells.store_result(&mut Cursor::default(), cell, error, at);
    }

    /// Evaluates `extents`, a stretch of `schedule`'s order on this sheet,
    /// with a view of the other sheets' values, and unmarks exactly their
    /// cells. Fully deterministic: the order depends only on the dirty
    /// sets, the formulas and the roots asked for. Returns the number of
    /// cells evaluated.
    pub(crate) fn evaluate(
        &mut self,
        extents: &[Extent],
        schedule: &Schedule,
        ext: &OtherSheets<'_>,
    ) -> usize {
        // Take the node out so the loop can borrow `cells` mutably; it
        // goes back (capacity intact) afterwards.
        let mut node = std::mem::take(&mut self.node);
        // The stores may have changed shape since the last evaluation.
        node.results = Cursor::default();
        node.binds.clear();
        let mut evaluated = 0;
        for extent in extents {
            evaluated += self.evaluate_node(&mut node, extent, schedule.stretches_of(extent), ext);
        }
        let evaluated = evaluated as usize;
        self.cells.unmark(evaluated, extents.iter().map(|e| (e.col, e.lo, e.hi)));
        self.node = node;
        self.pass.extend_from_slice(extents);
        self.pass_cells += evaluated;
        self.evaluated_total += evaluated as u64;
        evaluated
    }

    /// Evaluates one node — `extent`'s cells, one run's down one column,
    /// the rows of `stretches` inside it with blank rows perhaps between
    /// them, in its order (bottom-up if `up`); each row's offset is its
    /// own — and stores each result before the next row is evaluated. The
    /// run's program is bound to the node once ([`Node::start`]): each
    /// reference placed at the node's column and bound to its column's
    /// place in the store, each row-invariant subtree run, at the first
    /// row. Then each row runs the rest of the program on a [`NodeView`]
    /// that reads through those bindings and carries the node's folds from
    /// row to row (see [`Carries`]); its result goes through the cursor
    /// the node's column and page were found through once. Returns the
    /// node's cells.
    fn evaluate_node(
        &mut self,
        node: &mut Node,
        extent: &Extent,
        stretches: &[Stretch],
        ext: &OtherSheets<'_>,
    ) -> u32 {
        let (col, up) = (extent.col, extent.up);
        let cells: u32 = stretches.iter().map(|s| s.rows(extent)).map(|(a, b)| b - a + 1).sum();
        let top = Cell { col, row: if up { extent.hi } else { extent.lo } };
        let Some(run) = self.cells.run_through(&mut node.results, top).map(Arc::clone) else {
            return cells;
        };
        let (template, (dc, first)) = (run.template(), run.offset(top));
        let program = template.program();
        node.start(program, col, up, dc, ext);
        let last = cells as usize - 1;
        let stride = (cells as usize / (MARKS_KEPT / 2)).max(1);
        let (mut index, mut next_mark) = (0, 0);
        for k in 0..stretches.len() {
            let (lo, hi) = stretches[if up { stretches.len() - 1 - k } else { k }].rows(extent);
            for j in 0..=hi - lo {
                let cell = Cell { col, row: if up { hi - j } else { lo + j } };
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
                let dr = first + i64::from(cell.row) - i64::from(top.row);
                if index == 0 {
                    program.hoist(&mut node.frame, dr, &view);
                }
                let value = program.eval(&mut node.frame, dr, &view);
                let at = self.folds.tick();
                self.cells.store_result(&mut node.results, cell, value, at);
                index += 1;
            }
        }
        cells
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
    /// Another sheet's, by its [`OtherSheets`] id.
    Other(usize),
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
    /// run's anchor, on the sheet `ext` is the view from: each reference
    /// placed, its qualifier resolved, and its cursor kept where the node
    /// before read the same sheet for it.
    fn start(&mut self, program: &Program, col: u32, up: bool, dc: i64, ext: &OtherSheets<'_>) {
        self.carries.start(col, up, program.aggregates());
        program.place(&mut self.frame, dc);
        self.binds.truncate(program.refs().len());
        for (k, q) in program.refs().iter().enumerate() {
            let source = match q.sheet_name().map(|name| ext.resolve(name)) {
                None => Source::Own,
                Some(Ok(id)) if id == ext.own() => Source::Own,
                Some(Ok(id)) => Source::Other(id),
                Some(Err(e)) => Source::Missing(e),
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
struct NodeView<'a> {
    cells: &'a CellStore,
    folds: &'a Folds,
    ext: &'a OtherSheets<'a>,
    binds: &'a [Bound],
    carries: &'a Carries,
    vol: Option<&'a VolatileCtx>,
    /// The row being evaluated.
    row: u32,
    /// Whether the folds this row remembers go to [`Folds`] as marks.
    mark: bool,
}

impl NodeView<'_> {
    /// The store reference `k` reads, or the error every cell of a sheet
    /// that does not exist reads as.
    #[inline]
    fn store(&self, k: usize) -> Result<&CellStore, CellError> {
        match self.binds[k].source {
            Source::Own => Ok(self.cells),
            Source::Other(id) => Ok(self.ext.cells(id)),
            Source::Missing(e) => Err(e),
        }
    }
}

impl Reader for NodeView<'_> {
    #[inline(always)]
    fn read(&self, k: usize, cell: Cell) -> Cow<'_, Value> {
        match self.store(k) {
            Ok(store) => Cow::Borrowed(store.read(&self.binds[k].at, cell)),
            Err(e) => Cow::Owned(Value::Error(e)),
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
            let want = match store {
                Ok(store) => Cow::Borrowed(store.value(cell)),
                Err(e) => Cow::Owned(Value::Error(e)),
            };
            let same = match (v, &*want) {
                (Value::Number(a), Value::Number(b)) => a.to_bits() == b.to_bits(),
                (v, want) => v == want,
            };
            debug_assert!(same, "scan of {range} for reference {k}: {v:?} at {cell}, not {want:?}");
            f(acc, v)
        };
        let flow = match store {
            Ok(store) => store.fold_through(&self.binds[k].at, range, init, f),
            Err(e) => {
                let missing = Value::Error(e);
                range.cells().try_fold(init, |acc, _| f(acc, &missing))
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
    use crate::{RecalcMode, SheetId, Workbook};
    use proptest::prelude::*;

    /// The sheet of [`Workbook::one_sheet`].
    const S: SheetId = SheetId(0);

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
        let mut wb = Workbook::one_sheet();
        wb.set_value(S, c("A1"), n(2.0));
        wb.set_value(S, c("A2"), n(3.0));
        wb.set_formula(S, c("B1"), "=A1+A2").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("B1")), n(5.0));
    }

    #[test]
    fn update_propagates_through_chain() {
        let mut wb = Workbook::one_sheet();
        wb.set_value(S, c("A1"), n(1.0));
        for row in 2..=20u32 {
            wb.set_formula(S, Cell::new(1, row), &format!("=A{}+1", row - 1)).unwrap();
        }
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("A20")), n(20.0));

        // Update the head: all downstream cells must go dirty and refresh.
        let receipt = wb.set_value(S, c("A1"), n(100.0));
        assert_eq!(receipt.dirty.iter().map(|(_, r)| r.area()).sum::<u64>(), 19);
        assert_eq!(wb.dirty_count(), 19);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("A20")), n(119.0));
    }

    #[test]
    fn a_value_typed_over_a_dirty_formula_leaves_the_dirty_set() {
        let mut wb = Workbook::one_sheet();
        wb.set_value(S, c("A1"), n(2.0));
        wb.set_formula(S, c("B1"), "=A1*2").unwrap();
        assert_eq!(wb.dirty_count(), 1);
        wb.set_value(S, c("B1"), n(7.0));
        let before = wb.evaluated_total();
        assert_eq!(wb.dirty_count(), 0, "only a formula is dirty");
        assert_eq!(wb.recalculate(RecalcMode::Serial), 0);
        assert_eq!(wb.evaluated_total(), before);
        assert_eq!(wb.value(S, c("B1")), n(7.0));
    }

    #[test]
    fn cumulative_sum_via_autofill() {
        let mut wb = Workbook::one_sheet();
        for row in 1..=10u32 {
            wb.set_value(S, Cell::new(1, row), n(f64::from(row)));
        }
        // B1 = SUM($A$1:A1), autofill down: FR expanding windows.
        wb.set_formula(S, c("B1"), "=SUM($A$1:A1)").unwrap();
        wb.autofill(S, c("B1"), r("B2:B10")).unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("B10")), n(55.0));
        assert_eq!(wb.value(S, c("B5")), n(15.0));
        // The graph compressed the fill into few edges.
        assert!(wb.sheet(S).graph().num_edges() <= 2, "got {}", wb.sheet(S).graph().num_edges());
    }

    #[test]
    fn fig2_if_chain_recalculates() {
        let mut wb = Workbook::one_sheet();
        // Column A: group ids; column M: amounts; column N: running
        // group-subtotals, exactly the Fig. 2 shape.
        let groups = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0];
        for (i, g) in groups.iter().enumerate() {
            let row = i as u32 + 2;
            wb.set_value(S, Cell::new(1, row), n(*g));
            wb.set_value(S, Cell::new(13, row), n(10.0));
        }
        wb.set_formula(S, c("N2"), "=M2").unwrap();
        wb.set_formula(S, c("N3"), "=IF(A3=A2,N2+M3,M3)").unwrap();
        wb.autofill(S, c("N3"), r("N4:N7")).unwrap();
        wb.recalculate(RecalcMode::Serial);
        // Group 1 rows 2-4 accumulate 10,20,30; group 2 resets.
        assert_eq!(wb.value(S, c("N4")), n(30.0));
        assert_eq!(wb.value(S, c("N5")), n(10.0));
        assert_eq!(wb.value(S, c("N6")), n(20.0));
        assert_eq!(wb.value(S, c("N7")), n(10.0));
    }

    #[test]
    fn clear_range_detaches_dependencies() {
        let mut wb = Workbook::one_sheet();
        wb.set_value(S, c("A1"), n(1.0));
        wb.set_formula(S, c("B1"), "=A1*2").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("B1")), n(2.0));
        wb.clear_range(S, r("B1"));
        assert_eq!(wb.value(S, c("B1")), Value::Empty);
        // A1 edits no longer dirty anything.
        let receipt = wb.set_value(S, c("A1"), n(9.0));
        assert!(receipt.dirty.is_empty());
    }

    #[test]
    fn overwrite_formula_updates_graph() {
        let mut wb = Workbook::one_sheet();
        wb.set_value(S, c("A1"), n(1.0));
        wb.set_value(S, c("A2"), n(2.0));
        wb.set_formula(S, c("B1"), "=A1").unwrap();
        wb.set_formula(S, c("B1"), "=A2").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("B1")), n(2.0));
        assert!(wb.set_value(S, c("A1"), n(5.0)).dirty.is_empty());
        assert_eq!(
            wb.set_value(S, c("A2"), n(5.0)).dirty.iter().map(|(_, r)| r.area()).sum::<u64>(),
            1
        );
    }

    #[test]
    fn cycles_become_cycle_errors() {
        let mut wb = Workbook::one_sheet();
        wb.set_formula(S, c("A1"), "=B1+1").unwrap();
        wb.set_formula(S, c("B1"), "=A1+1").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert!(
            wb.value(S, c("A1")) == Value::Error(CellError::Cycle)
                || wb.value(S, c("B1")) == Value::Error(CellError::Cycle),
            "at least one cycle member must be flagged"
        );
    }

    #[test]
    fn taco_and_nocomp_engines_agree() {
        let build = |mut wb: Workbook| {
            for row in 1..=30u32 {
                wb.set_value(S, Cell::new(1, row), n(f64::from(row)));
            }
            wb.set_formula(S, c("B1"), "=A1*2").unwrap();
            wb.autofill(S, c("B1"), r("B2:B30")).unwrap();
            wb.set_formula(S, c("C1"), "=SUM(B1:B30)").unwrap();
            wb.recalculate(RecalcMode::Serial);
            wb
        };
        let mut nocomp = Workbook::over(taco_core::FormulaGraph::nocomp());
        nocomp.add_sheet("Sheet1").unwrap();
        let taco = build(Workbook::one_sheet());
        let nocomp = build(nocomp);
        assert_eq!(taco.value(S, c("C1")), nocomp.value(S, c("C1")));
        assert_eq!(taco.value(S, c("C1")), n(2.0 * (30.0 * 31.0 / 2.0)));
        assert!(taco.sheet(S).graph().num_edges() < nocomp.sheet(S).graph().num_edges());
    }

    #[test]
    fn vlookup_sheet() {
        let mut wb = Workbook::one_sheet();
        // Rate table in F1:G3.
        for (i, (k, v)) in [(1.0, 0.1), (2.0, 0.2), (3.0, 0.3)].iter().enumerate() {
            wb.set_value(S, Cell::new(6, i as u32 + 1), n(*k));
            wb.set_value(S, Cell::new(7, i as u32 + 1), n(*v));
        }
        for row in 1..=5u32 {
            wb.set_value(S, Cell::new(1, row), n(f64::from(row % 3 + 1)));
            wb.set_formula(S, Cell::new(2, row), &format!("=VLOOKUP(A{row},$F$1:$G$3,2,FALSE)"))
                .unwrap();
        }
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("B1")), n(0.2));
        assert_eq!(wb.value(S, c("B2")), n(0.3));
        assert_eq!(wb.value(S, c("B3")), n(0.1));
        // The five FF lookups compress well: 5 deps over the table + 5 on
        // column A.
        assert!(wb.sheet(S).graph().num_edges() <= 4, "got {}", wb.sheet(S).graph().num_edges());
    }

    #[test]
    fn receipt_reports_the_dirty_dependents() {
        let mut wb = Workbook::one_sheet();
        wb.set_value(S, c("A1"), n(1.0));
        wb.set_formula(S, c("B1"), "=A1").unwrap();
        let receipt = wb.set_value(S, c("A1"), n(2.0));
        assert_eq!(receipt.dirty, vec![(S, Range::cell(c("B1")))]);
    }

    /// Folds resumed from memory so far.
    fn carried(wb: &Workbook) -> u64 {
        wb.sheet(S).folds_carried()
    }

    /// Cells that leading ranges still had read since the last call.
    fn folded(wb: &Workbook) -> u64 {
        wb.sheet(S).folds.folded.replace(0)
    }

    /// What `SUM(range)` must be, added up here from the cell values.
    fn added_up(wb: &Workbook, range: &str) -> Value {
        let mut sum = 0.0;
        for cell in r(range).cells() {
            match wb.value(S, cell) {
                Value::Number(v) => sum += v,
                Value::Error(err) => return Value::Error(err),
                _ => {}
            }
        }
        n(sum)
    }

    #[test]
    fn a_fold_is_remembered_until_a_cell_of_its_range_is_written() {
        let mut wb = Workbook::one_sheet();
        for row in 1..=100u32 {
            wb.set_value(S, Cell::new(1, row), n(f64::from(row)));
        }
        wb.set_formula(S, c("C1"), "=SUM($A$1:A100)+B1").unwrap();
        // A head that moves with the formula starts no run: never asked for.
        wb.set_formula(S, c("C2"), "=SUM(A1:A9)+B1").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!((wb.value(S, c("C1")), carried(&wb), folded(&wb)), (n(5050.0), 0, 100));

        // A precedent outside the range changes: the range is not re-read.
        wb.set_value(S, c("B1"), n(1.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!((wb.value(S, c("C1")), wb.value(S, c("C2"))), (n(5051.0), n(46.0)));
        assert_eq!((carried(&wb), folded(&wb)), (1, 0));

        // A cell of the range changes: re-read.
        wb.set_value(S, c("A7"), n(107.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!((wb.value(S, c("C1")), carried(&wb), folded(&wb)), (n(5151.0), 1, 100));

        // A write below the range, in its column, leaves the fold standing…
        wb.set_value(S, c("A200"), n(1.0));
        wb.set_value(S, c("B1"), n(2.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!((wb.value(S, c("C1")), carried(&wb), folded(&wb)), (n(5152.0), 2, 0));

        // …and a longer range goes on from it, over the new rows only.
        wb.set_formula(S, c("C3"), "=SUM($A$1:A200)").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!((wb.value(S, c("C3")), carried(&wb), folded(&wb)), (n(5151.0), 3, 100));
        // Both are remembered now, each found whole.
        wb.set_value(S, c("B1"), n(3.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!((wb.value(S, c("C1")), carried(&wb), folded(&wb)), (n(5153.0), 4, 0));
        // A write between their last rows drops the longer one only, which
        // goes on from the shorter.
        wb.set_value(S, c("A150"), n(1.0));
        wb.set_value(S, c("B1"), n(4.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!((wb.value(S, c("C1")), wb.value(S, c("C3"))), (n(5154.0), n(5152.0)));
        assert_eq!((carried(&wb), folded(&wb)), (6, 100));
    }

    /// A sheet whose column `col` sums column `of` cumulatively, `rows`
    /// rows of it, autofilled from row 1.
    fn cumulative(wb: &mut Workbook, col: u32, of: &str, rows: u32) {
        let cell = Cell::new(col, 1);
        wb.set_formula(S, cell, &format!("=SUM(${of}$1:{of}1)")).unwrap();
        wb.autofill(S, cell, Range::from_coords(col, 2, col, rows)).unwrap();
    }

    #[test]
    fn a_cumulative_column_reads_each_cell_once() {
        const ROWS: u32 = 2048;
        let mut wb = Workbook::one_sheet();
        for row in 1..=ROWS {
            wb.set_value(S, Cell::new(1, row), n(f64::from(row) / 8.0));
        }
        cumulative(&mut wb, 2, "A", ROWS);
        assert_eq!(wb.recalculate(RecalcMode::Serial), ROWS as usize);
        // n cells read where cell-by-cell evaluation reads n²/2 ≈ 2.1 M.
        assert_eq!((carried(&wb), folded(&wb)), (u64::from(ROWS) - 1, u64::from(ROWS)));
        assert_eq!(wb.value(S, Cell::new(2, ROWS)), added_up(&wb, "A1:A2048"));

        // An edit at row r: the first cell below goes on from the mark the
        // pass before left above r (marks thinned to one in n/32 rows are
        // under n/16 apart), the rest from the cell above (one row each).
        for at in [1, 700, 701, 1999, ROWS] {
            wb.set_value(S, Cell::new(1, at), n(-3.5));
            assert_eq!(wb.recalculate(RecalcMode::Serial), (ROWS - at + 1) as usize);
            let read = folded(&wb);
            let rest = u64::from(ROWS - at);
            assert!(read > rest && read <= rest + u64::from(ROWS) / 16, "edit at row {at}: {read}");
            assert_eq!(wb.value(S, Cell::new(2, ROWS)), added_up(&wb, "A1:A2048"));
        }
    }

    /// Searches of the ring of remembered folds since the last call.
    fn lookups(wb: &Workbook) -> u64 {
        wb.sheet(S).folds.lookups.replace(0)
    }

    #[test]
    fn a_node_searches_the_remembered_folds_once_per_aggregate() {
        const ROWS: u32 = 2048;
        let mut wb = Workbook::one_sheet();
        for row in 1..=ROWS {
            wb.set_value(S, Cell::new(1, row), n(f64::from(row) / 8.0));
        }
        cumulative(&mut wb, 2, "A", ROWS);
        // Two aggregates a row: one growing, one over a fixed range.
        wb.set_formula(S, c("C1"), "=AVERAGE($A$1:A1)+SUM($A$1:$A$8)").unwrap();
        wb.autofill(S, c("C1"), Range::from_coords(3, 2, 3, ROWS)).unwrap();
        lookups(&wb);
        assert_eq!(wb.recalculate(RecalcMode::Serial), 2 * ROWS as usize);
        // A node per column, a search per node and aggregate: when every
        // cell looked its fold up to resume it and again to remember it,
        // that was 2 · 3 · n searches.
        assert_eq!(lookups(&wb), 3);
        assert_eq!(wb.value(S, Cell::new(2, ROWS)), added_up(&wb, "A1:A2048"));
        for at in [1, 700, ROWS] {
            wb.set_value(S, Cell::new(1, at), n(-3.5));
            assert_eq!(wb.recalculate(RecalcMode::Serial), 2 * (ROWS - at + 1) as usize);
            assert_eq!(lookups(&wb), 3, "edit at row {at}");
            assert_eq!(wb.value(S, Cell::new(2, ROWS)), added_up(&wb, "A1:A2048"));
        }
    }

    #[test]
    fn a_row_invariant_subtree_is_evaluated_once_per_node() {
        const ROWS: u32 = 2048;
        let mut wb = Workbook::one_sheet();
        for row in 1..=ROWS {
            wb.set_value(S, Cell::new(1, row), n(f64::from(row) / 8.0));
        }
        // Typed row by row, one run: its literal steps, its sum is fixed.
        for row in 1..=ROWS {
            wb.set_formula(S, Cell::new(2, row), &format!("=SUM($A$1:$A$8)*{row}")).unwrap();
        }
        assert_eq!(wb.sheet(S).formula_templates(), 1);
        let sum = (1..=8).map(|row| f64::from(row) / 8.0).sum::<f64>();
        for edit in [None, Some(3), Some(8)] {
            if let Some(row) = edit {
                wb.set_value(S, Cell::new(1, row), n(-1.5));
            }
            folded(&wb);
            assert_eq!(wb.recalculate(RecalcMode::Serial), ROWS as usize);
            // One node, one sum: eight cells read once, and no row going on
            // from the row above (a row at a time, that was n − 1 carries).
            assert_eq!((carried(&wb), folded(&wb)), (0, 8), "{edit:?}");
            let sum = if edit.is_some() { added_up(&wb, "A1:A8") } else { n(sum) };
            let Value::Number(sum) = sum else { panic!("{sum:?}") };
            for row in [1, 2, 1000, ROWS] {
                assert_eq!(
                    wb.value(S, Cell::new(2, row)),
                    n(sum * f64::from(row)),
                    "{edit:?} B{row}"
                );
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
            let mut wb = Workbook::one_sheet();
            for row in 1..=rows {
                wb.set_value(S, Cell::new(1, row), n(f64::from(row)));
            }
            wb.set_formula(S, c("D1"), "=A1").unwrap();
            wb.set_formula(S, c("D2"), "=D1+A2").unwrap();
            wb.autofill(S, c("D2"), Range::from_coords(4, 3, 4, rows)).unwrap();
            wb.recalculate(RecalcMode::Serial);
            wb.set_value(S, c("A1"), n(0.5));
            store_lookups();
            assert_eq!(wb.recalculate(RecalcMode::Serial), rows as usize);
            counted.push(store_lookups());
            let total = 0.5 + f64::from(rows * (rows + 1) / 2 - 1);
            assert_eq!(wb.value(S, Cell::new(4, rows)), n(total));
        }
        assert_eq!(counted[0], counted[1], "{counted:?} lookups for 60 and 250 rows");
        assert!(counted[1] < 24, "{counted:?}");
    }

    /// Neighbour entries the scheduler pushed since the last call.
    fn entries(wb: &Workbook) -> u64 {
        wb.sheet(S).nbr_entries.replace(0)
    }

    #[test]
    fn a_cumulative_column_over_a_formula_column_orders_in_linear_entries() {
        const ROWS: u32 = 2048;
        let mut wb = Workbook::one_sheet();
        for row in 1..=ROWS {
            wb.set_value(S, Cell::new(1, row), n(f64::from(row) / 8.0));
        }
        wb.set_formula(S, c("B1"), "=A1*2").unwrap();
        wb.autofill(S, c("B1"), Range::from_coords(2, 2, 2, ROWS)).unwrap();
        cumulative(&mut wb, 3, "B", ROWS);
        entries(&wb);
        assert_eq!(wb.recalculate(RecalcMode::Serial), 2 * ROWS as usize);
        // Two nodes, each listed once, the column of totals reading the
        // doubled one: where a cell order lists row r's r precedents,
        // n²/2 ≈ 2.1 M entries.
        let pushed = entries(&wb);
        assert!(pushed <= 4 * u64::from(ROWS), "{pushed} entries");
        assert_eq!(wb.value(S, Cell::new(3, ROWS)), added_up(&wb, "B1:B2048"));
        assert_eq!((carried(&wb), folded(&wb)), (u64::from(ROWS) - 1, u64::from(ROWS)));

        // An edit dirties one doubled cell and the totals from its row
        // down: one node each.
        wb.set_value(S, c("A700"), n(-3.5));
        assert_eq!(wb.recalculate(RecalcMode::Serial), 1 + (ROWS - 699) as usize);
        assert!(entries(&wb) <= 4 * u64::from(ROWS));
        assert_eq!(wb.value(S, Cell::new(3, ROWS)), added_up(&wb, "B1:B2048"));
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
            let mut wb = Workbook::one_sheet();
            for row in 1..=ROWS {
                wb.set_value(S, Cell::new(1, row), n(f64::from(row) / 8.0));
                wb.set_formula(S, Cell::new(input, row), &format!("=A{row}*3")).unwrap();
                wb.set_formula(S, Cell::new(other, row), &format!("=A{row}+1")).unwrap();
            }
            let of = taco_grid::a1::col_to_letters(input);
            cumulative(&mut wb, total, &of, ROWS);
            let (low, high) = (input.min(other), input.max(other));
            let (low, high) =
                (taco_grid::a1::col_to_letters(low), taco_grid::a1::col_to_letters(high));
            wb.set_formula(S, c("F1"), &format!("=AVERAGE(${low}$1:{high}1)")).unwrap();
            wb.autofill(S, c("F1"), Range::from_coords(6, 2, 6, ROWS)).unwrap();
            wb.recalculate(RecalcMode::Serial);
            let rows = u64::from(ROWS);
            let wide = if high == "D" && low == "B" { 3 } else { 2 };
            assert_eq!((carried(&wb), folded(&wb)), (2 * (rows - 1), rows + wide * rows), "{of}");
            let summed = format!("{of}1:{of}{ROWS}");
            assert_eq!(wb.value(S, Cell::new(total, ROWS)), added_up(&wb, &summed));

            wb.set_value(S, c("A100"), n(0.25));
            wb.recalculate(RecalcMode::Serial);
            // Both columns go back to a mark above row 100 once, then carry.
            let (read, rest) = (folded(&wb), (rows - 100) * (1 + wide));
            assert!(read > rest && read <= rest + 100 * (1 + wide), "{of}: {read}");
            assert_eq!(wb.value(S, Cell::new(total, ROWS)), added_up(&wb, &summed));
        }
    }

    /// A column typed in pairs with two blank rows after each — the
    /// `dense(2)` shape of the generated workbooks — from row 1 to `rows`:
    /// `text(r)` at every row `r` with `r % 4 < 2`.
    fn in_pairs(wb: &mut Workbook, col: u32, rows: u32, text: impl Fn(u32) -> String) -> Vec<Cell> {
        let rows = (1..=rows).filter(|row| row % 4 < 2);
        let cells: Vec<Cell> = rows.map(|row| Cell::new(col, row)).collect();
        for &cell in &cells {
            wb.set_formula(S, cell, &text(cell.row)).unwrap();
        }
        cells
    }

    #[test]
    fn a_column_typed_in_pairs_is_one_template_and_one_node() {
        const ROWS: u32 = 1024;
        let mut wb = Workbook::one_sheet();
        for row in 1..=ROWS + 2 {
            wb.set_value(S, Cell::new(1, row), n(f64::from(row % 19) / 4.0));
        }
        let windows = in_pairs(&mut wb, 2, ROWS, |r| format!("=SUM(A{r}:A{})", r + 2));
        assert_eq!((wb.sheet(S).formula_templates(), windows.len()), (1, 512));
        assert_eq!(wb.recalculate(RecalcMode::Serial), windows.len());
        assert_eq!(wb.nodes_made(), 1, "the blank rows between the pairs cut no node");
        for &cell in &windows {
            let want = added_up(&wb, &format!("A{}:A{}", cell.row, cell.row + 2));
            assert_eq!(wb.value(S, cell), want, "{cell}");
        }

        // Totals in the same shape, over the same data: an edit at row r
        // re-evaluates the totals below r as one node, and the windows
        // over r (one pair's) as another.
        let totals = in_pairs(&mut wb, 3, ROWS, |r| format!("=SUM($A$1:A{r})"));
        assert_eq!(wb.sheet(S).formula_templates(), 2);
        assert_eq!(wb.recalculate(RecalcMode::Serial), totals.len());
        assert_eq!(wb.nodes_made(), 1);
        for at in [1, 2, 700, 703, ROWS] {
            wb.set_value(S, Cell::new(1, at), n(-3.5));
            let below = totals.iter().filter(|c| c.row >= at).count();
            let over = windows.iter().filter(|c| (c.row..=c.row + 2).contains(&at)).count();
            assert_eq!(wb.recalculate(RecalcMode::Serial), below + over, "edit at row {at}");
            let nodes = usize::from(below > 0) + usize::from(over > 0);
            assert_eq!(wb.nodes_made(), nodes, "edit at row {at}");
            for cell in [totals[totals.len() - 1], windows[windows.len() / 2]] {
                let range = if cell.col == 3 {
                    format!("A1:A{}", cell.row)
                } else {
                    format!("A{}:A{}", cell.row, cell.row + 2)
                };
                assert_eq!(wb.value(S, cell), added_up(&wb, &range), "{cell} after row {at}");
            }
        }
    }

    #[test]
    fn a_run_spans_blank_rows_but_not_a_value() {
        let mut wb = Workbook::one_sheet();
        wb.set_formula(S, c("B1"), "=A1*2").unwrap();
        // Typed right below, then at the grid's last row: joined, and the
        // look up the column costs the same there — where a walk up the
        // rows would look up each of a million.
        store_lookups();
        wb.set_formula(S, c("B2"), "=A2*2").unwrap();
        let near = store_lookups();
        let far = Cell::new(2, taco_grid::MAX_ROW);
        wb.set_formula(S, far, &format!("=A{}*2", far.row)).unwrap();
        assert_eq!(store_lookups(), near);
        assert_eq!(wb.sheet(S).formula_templates(), 1);
        // A value between stops the join; a formula that is not the
        // run's next cell does not join either.
        wb.set_value(S, c("B500000"), n(1.0));
        wb.set_formula(S, c("B600000"), "=A600000*2").unwrap();
        wb.set_formula(S, c("B7"), "=A7*3").unwrap();
        assert_eq!(wb.sheet(S).formula_templates(), 3);
        // A stepped run joins across blank rows too, on its line.
        wb.set_formula(S, c("C1"), "=A1*1").unwrap();
        wb.set_formula(S, c("C2"), "=A2*2").unwrap();
        wb.set_formula(S, c("C9"), "=A9*9").unwrap();
        wb.set_formula(S, c("C12"), "=A12*13").unwrap();
        assert_eq!(wb.sheet(S).formula_templates(), 5);
        // A run of one is stepped only from the row right above.
        wb.set_formula(S, c("D1"), "=A1*1").unwrap();
        wb.set_formula(S, c("D3"), "=A3*3").unwrap();
        assert_eq!(wb.sheet(S).formula_templates(), 7);
    }

    #[test]
    fn marking_a_mixed_column_marks_exactly_its_formula_cells() {
        // A cumulative column cut by values on both sides of two formula-bit
        // word edges (64 | 65, 256 | 257, the second also a page edge) and
        // by blank rows inside a word.
        let mut wb = Workbook::one_sheet();
        for row in 1..=600u32 {
            wb.set_value(S, Cell::new(1, row), n(f64::from(row % 7)));
            let cell = Cell::new(3, row);
            if [64, 65, 256, 257].contains(&row) {
                wb.set_value(S, cell, n(-1.0));
            } else if !(129..=140).contains(&row) {
                wb.set_formula(S, cell, &format!("=SUM($A$1:A{row})")).unwrap();
            }
        }
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.dirty_count(), 0);
        let range = r("C1:C600");
        wb.engine_mut(0).mark_ranges_dirty(&[range]);
        let formulas = wb
            .sheet(S)
            .cells()
            .filter(|(cell, k)| range.contains_cell(*cell) && k.is_formula())
            .count();
        assert_eq!((wb.dirty_count(), formulas), (600 - 4 - 12, 600 - 4 - 12));
        wb.recalculate(RecalcMode::Serial);

        // A value edit, recalculated, is what the texts rebuild to.
        wb.set_value(S, c("A1"), n(100.0));
        assert_eq!(wb.recalculate(RecalcMode::Serial), formulas);
        let mut rebuilt = Workbook::one_sheet();
        for (cell, k) in wb.sheet(S).cells() {
            match wb.formula_of(S, cell) {
                Some(text) => rebuilt.set_formula(S, cell, &text).unwrap(),
                None => rebuilt.set_value(S, cell, k.value.clone()),
            };
        }
        rebuilt.recalculate(RecalcMode::Serial);
        let values = |wb: &Workbook| {
            wb.sheet(S).cells().map(|(c, k)| (c, k.value.clone())).collect::<Vec<_>>()
        };
        assert_eq!(values(&wb), values(&rebuilt));
    }

    /// Stretches read, extents emitted and cells evaluated by a full pass
    /// over column B typed row by row as `text(row)` (`None`: left blank)
    /// above `rows` rows of data in column A.
    fn pass_work(rows: u32, text: impl Fn(u32) -> Option<String>) -> (u64, u64, usize) {
        let mut wb = Workbook::one_sheet();
        for row in 1..=rows {
            wb.set_value(S, Cell::new(1, row), n(f64::from(row) / 8.0));
            if let Some(src) = text(row) {
                wb.set_formula(S, Cell::new(2, row), &src).unwrap();
            }
        }
        wb.sheet(S).stretches_read.set(0);
        wb.sheet(S).extents_emitted.set(0);
        let cells = wb.recalculate(RecalcMode::Serial);
        (wb.sheet(S).stretches_read.get(), wb.sheet(S).extents_emitted.get(), cells)
    }

    #[test]
    fn a_full_pass_over_each_recalc_column_idiom_is_as_much_work_at_four_times_the_rows() {
        // The column idioms of the generated `recalc` workbook, as its
        // generator types them. A pass reads a stretch per run and dirty
        // interval and emits an extent per node, however many rows.
        let cumulative = |row: u32| Some(format!("=SUM($A$1:A{row})"));
        let chain =
            |row: u32| Some(if row == 1 { "=A1".into() } else { format!("=B{}+A{row}", row - 1) });
        let fixed = |row: u32| Some(format!("=SUM($A$1:$A$8)*{row}"));
        for (name, text) in [
            ("cumulative", &cumulative as &dyn Fn(u32) -> Option<String>),
            ("chain", &chain),
            ("fixed", &fixed),
        ] {
            let (stretches, extents, cells) = pass_work(256, text);
            assert_eq!(cells, 256, "{name}");
            assert_eq!(pass_work(1024, text), (stretches, extents, 1024), "{name}");
            assert!(stretches <= 2 && extents <= 2, "{name}: {stretches} and {extents}");
        }
        // The window column is typed in pairs with two blank rows between:
        // one node, but each pair its own dirty interval — marking reads
        // the formula bits, which stop at a blank row — so one stretch a
        // pair, not a stretch a cell.
        let window = |rows: u32| {
            move |row: u32| {
                (row % 4 < 2 && row + 2 <= rows).then(|| format!("=SUM(A{row}:A{})", row + 2))
            }
        };
        assert_eq!(pass_work(256, window(256)), (64, 1, 127));
        assert_eq!(pass_work(1024, window(1024)), (256, 1, 511));
    }

    #[test]
    fn the_generated_recalc_workbook_orders_a_few_nodes_per_sheet() {
        use taco_workload::{gen_persist_workload, persist_github_like, PersistParams};
        // The workbook of the benchmark's `recalc` workload: 16 sheets of
        // 1 024 rows, whose window column is typed in pairs.
        let params =
            PersistParams { rows: 1_024, sheets: 16, burst_edits: 0, ..persist_github_like() };
        let mut wb = crate::Workbook::with_taco();
        wb.apply_batch(&gen_persist_workload(&params).build).unwrap();
        let templates: usize =
            (0..16).map(|s| wb.sheet(crate::SheetId(s)).formula_templates()).sum();
        let cells = wb.recalculate(crate::RecalcMode::Serial);
        let nodes: u32 = wb.last_pass().iter().map(|p| p.nodes).sum();
        // A run of two rows per pair of the window column, that was 4 191
        // nodes (and as many templates) for 57 359 cells.
        assert_eq!((cells, nodes, templates), (57_359, 111, 111));
    }

    #[test]
    fn a_batch_marks_the_formulas_it_wrote_once_per_interval() {
        use taco_store::EditRecord;
        // Two columns typed row by row, taking turns, down past several
        // pages of the store: each column is one origin, put in the dirty
        // set whole, however many rows and pages it spans.
        for rows in [300u32, 1_200] {
            let mut wb = Workbook::one_sheet();
            let values: Vec<EditRecord> = (1..=rows)
                .map(|row| EditRecord::SetValue {
                    sheet: 0,
                    cell: Cell::new(1, row),
                    value: n(1.0),
                })
                .collect();
            wb.apply_batch(&values).unwrap();
            let formulas: Vec<EditRecord> = (1..=rows)
                .flat_map(|row| {
                    [(2, "*2"), (3, "+1")].map(|(col, op)| EditRecord::SetFormula {
                        sheet: 0,
                        cell: Cell::new(col, row),
                        src: format!("=A{row}{op}"),
                    })
                })
                .collect();
            let inserts = |wb: &Workbook| wb.sheet(S).cells.dirty_inserts.get();
            let before = inserts(&wb);
            wb.apply_batch(&formulas).unwrap();
            assert_eq!(inserts(&wb) - before, 2, "{rows} rows");
            assert_eq!(wb.dirty_count(), 2 * rows as usize);
            assert_eq!(wb.recalculate(RecalcMode::Serial), 2 * rows as usize);
            assert_eq!(wb.value(S, Cell::new(3, rows)), n(2.0));
        }
    }

    #[test]
    fn an_edit_above_a_fibonacci_column_marks_it_in_one_range() {
        use taco_store::EditRecord;
        // A3:A10000 = SUM(A{r-2}:A{r-1}) is one RR edge whose window reads
        // its own column: the edit's one dependents query closes it in one
        // step, a single range, where a walk would step a row at a time.
        const ROWS: u32 = 10_000;
        let mut wb = Workbook::one_sheet();
        let seeds = [1, 2].map(|row| EditRecord::SetValue {
            sheet: 0,
            cell: Cell::new(1, row),
            value: n(1.0),
        });
        let column = (3..=ROWS).map(|row| EditRecord::SetFormula {
            sheet: 0,
            cell: Cell::new(1, row),
            src: format!("=SUM(A{}:A{})", row - 2, row - 1),
        });
        wb.apply_batch(&seeds.into_iter().chain(column).collect::<Vec<_>>()).unwrap();
        assert_eq!(wb.sheet(S).graph().num_edges(), 1);
        wb.recalculate(RecalcMode::Serial);

        let (queries, ranges) = (wb.dependents_queries, wb.dependents_ranges);
        wb.set_value(S, c("A1"), n(2.0));
        assert_eq!(wb.dependents_queries - queries, 1);
        assert_eq!(wb.dependents_ranges - ranges, 1);
        let dirty: Vec<Cell> = wb.sheet(S).store().dirty().collect();
        assert_eq!(dirty, (3..=ROWS).map(|row| Cell::new(1, row)).collect::<Vec<_>>());
        assert_eq!(wb.recalculate(RecalcMode::Serial), (ROWS - 2) as usize);
        assert_eq!(wb.value(S, c("A5")), n(7.0));
        assert_eq!(wb.assert_reference(None), 0);
    }

    #[test]
    fn recalculated_cells_clears_and_errors_drop_a_remembered_sum() {
        let mut wb = Workbook::one_sheet();
        for row in 1..=80u32 {
            wb.set_value(S, Cell::new(1, row), n(1.0));
            if row <= 10 {
                wb.set_formula(S, Cell::new(2, row), &format!("=A{row}*2")).unwrap();
            }
        }
        wb.set_formula(S, c("D1"), "=SUM($A$1:B80)+C1").unwrap();
        wb.set_formula(S, c("D2"), "=SUM($B$1:B80)+C1").unwrap();
        wb.recalculate(RecalcMode::Serial);
        let d1 = |wb: &Workbook| (wb.value(S, c("D1")), added_up(wb, "A1:B80"));
        assert_eq!(d1(&wb), (n(100.0), n(100.0)));
        assert_eq!(wb.value(S, c("D2")), n(20.0));

        // B3 changes through recalculation only — the one write into
        // D2's range.
        wb.set_value(S, c("A3"), n(11.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(d1(&wb), (n(130.0), n(130.0)));
        assert_eq!((wb.value(S, c("D2")), added_up(&wb, "B1:B80")), (n(40.0), n(40.0)));

        wb.clear_range(S, r("A10:B11"));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(d1(&wb), (n(126.0), n(126.0)));

        // Text is skipped by the sum itself but breaks `=A5*2`: the error
        // must come through, and go away again.
        wb.set_value(S, c("A5"), Value::Text("n/a".into()));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(d1(&wb), (Value::Error(CellError::Value), Value::Error(CellError::Value)));
        wb.set_value(S, c("A5"), n(1.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(d1(&wb), (n(126.0), n(126.0)));

        // Rows move: the formula's range is rewritten and re-read.
        wb.insert_rows(S, 4, 2);
        wb.set_value(S, c("A4"), n(1000.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(d1(&wb).0, n(1126.0));
        assert_eq!(added_up(&wb, "A1:B82"), n(1126.0));

        // Through all of it the loose precedent never forced a re-read.
        let before = (carried(&wb), folded(&wb)).0;
        wb.set_value(S, c("C1"), n(0.5));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!((wb.value(S, c("D1")), carried(&wb), folded(&wb)), (n(1126.5), before + 2, 0));
    }

    /// An edit of the TACO ≡ NoComp property below, on an 8 × 14 grid.
    #[derive(Debug, Clone)]
    enum Op {
        SetValue(Cell, f64),
        SetFormula(Cell, String),
        Autofill(Cell, Range),
        Clear(Range),
        InsertRows(u32, u32),
        DeleteRows(u32, u32),
        Recalc,
    }

    const W: u32 = 8;
    const H: u32 = 14;

    fn arb_cell() -> impl Strategy<Value = Cell> {
        (1u32..=W, 1u32..=H).prop_map(|(c, r)| Cell::new(c, r))
    }

    fn arb_formula_at() -> impl Strategy<Value = (Cell, String)> {
        (arb_cell(), arb_cell(), arb_cell(), 0u8..5).prop_map(|(at, a, b, kind)| {
            let (a, b) = (a.to_a1(), b.to_a1());
            let src = match kind {
                0 => format!("={a}+1"),
                1 => format!("=SUM({}:{})", a.clone().min(b.clone()), a.max(b)),
                2 => format!("=IF({a}>{b},{a},{b})"),
                3 => format!("={a}*2-{b}"),
                _ => format!("=MAX({a},{b},0)"),
            };
            (at, src)
        })
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (arb_cell(), -50i32..50).prop_map(|(c, v)| Op::SetValue(c, f64::from(v))),
            3 => arb_formula_at().prop_map(|(c, s)| Op::SetFormula(c, s)),
            1 => (arb_cell(), arb_cell(), arb_cell()).prop_map(|(src, a, b)| {
                Op::Autofill(src, Range::new(a, b))
            }),
            1 => (arb_cell(), arb_cell()).prop_map(|(a, b)| Op::Clear(Range::new(a, b))),
            1 => (1u32..=H, 1u32..=3).prop_map(|(at, n)| Op::InsertRows(at, n)),
            1 => (1u32..=H, 1u32..=3).prop_map(|(at, n)| Op::DeleteRows(at, n)),
            1 => Just(Op::Recalc),
        ]
    }

    fn apply(wb: &mut Workbook, ops: &[Op]) {
        for op in ops {
            match op {
                Op::SetValue(c, v) => {
                    wb.set_value(S, *c, n(*v));
                }
                Op::SetFormula(c, s) => {
                    wb.set_formula(S, *c, s).expect("generated formulae parse");
                }
                Op::Autofill(src, targets) => {
                    // Only meaningful if src currently holds a formula.
                    let _ = wb.autofill(S, *src, *targets);
                }
                Op::Clear(r) => {
                    wb.clear_range(S, *r);
                }
                Op::InsertRows(at, n) => {
                    wb.insert_rows(S, *at, *n);
                }
                Op::DeleteRows(at, n) => {
                    wb.delete_rows(S, *at, *n);
                }
                Op::Recalc => {
                    wb.recalculate(RecalcMode::Serial);
                }
            }
        }
        wb.recalculate(RecalcMode::Serial);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary edit scripts produce identical sheets over a TACO
        /// and a NoComp graph: compression must be invisible to the user.
        #[test]
        fn taco_and_nocomp_engines_are_indistinguishable(
            ops in prop::collection::vec(arb_op(), 1..25)
        ) {
            let mut taco = Workbook::one_sheet();
            let mut nocomp = Workbook::over(taco_core::FormulaGraph::nocomp());
            nocomp.add_sheet("Sheet1").unwrap();
            apply(&mut taco, &ops);
            apply(&mut nocomp, &ops);
            let values = |wb: &Workbook| {
                wb.sheet(S).cells().map(|(c, k)| (c, k.value().clone())).collect::<Vec<_>>()
            };
            prop_assert_eq!(values(&taco), values(&nocomp), "after {:?}", ops);
            let deps = |wb: &Workbook| {
                let mut deps = wb.sheet(S).graph().decompress_all();
                deps.sort_unstable_by_key(|d| (d.dep, d.prec.head(), d.prec.tail()));
                deps
            };
            prop_assert_eq!(deps(&taco), deps(&nocomp), "after {:?}", ops);
            let edges = |wb: &Workbook| wb.sheet(S).graph().num_edges();
            prop_assert!(edges(&taco) <= edges(&nocomp));
        }
    }
}
