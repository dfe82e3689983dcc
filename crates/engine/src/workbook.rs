//! Multi-sheet workbooks: one formula graph with a band per sheet, and
//! the one recalculation schedule over the sheets.
//!
//! The paper evaluates TACO per sheet, but the Enron/Github workbooks it
//! draws from are multi-sheet with `Sheet2!A1`-style cross-references. A
//! [`Workbook`] keeps:
//!
//! - every sheet's **own** cell store, in the sheet's coordinates (an
//!   [`Engine`] shard);
//! - **one** compressed formula graph ([`taco_core::FormulaGraph`]) for
//!   all of them, sheet k's column c at graph column `k · 2¹⁵ + c` — the
//!   sheet's band ([`taco_core::Band`]). A reference is an edge wherever
//!   it points: inside the band, or from another sheet's band, so
//!   `Data!A{r}` read by `Out!B{r}` filled down is one compressed edge,
//!   as the same fill on one sheet is. A band's own edges are exactly the
//!   graph a sheet of its own would hold ([`Workbook::sheet`] shows
//!   them). The dependents of an edit or a batch, on whichever sheets,
//!   are one query of the graph from everything it wrote, and so are
//!   [`Workbook::find_dependents`] and [`Workbook::find_precedents`];
//! - one routine, `Workbook::bind`, that turns a formula's reads into
//!   dependencies: on an edit, and when an added sheet resolves a
//!   reference that named it while it was missing. An open, which stores
//!   no graph, derives it from the formulas a column stretch of a run at
//!   a time (`derive`), binding by this routine only what is not one
//!   edge a read;
//! - recalculation is **one pass** over **one schedule**, whoever asks
//!   (`crate::order`): the workbook's dirty cells are ordered as (sheet,
//!   node) pairs, each after the dirty cells it reads on any sheet, by one
//!   Tarjan search whose probes follow a formula's qualified reads to the
//!   sheet they name. The roots are each sheet with dirty cells, in id
//!   order ([`Workbook::recalculate`]), or a viewport
//!   ([`Workbook::recalc_demand`]). For each root the pass orders from it
//!   and then evaluates what that appended, one same-sheet stretch of the
//!   order at a time: that sheet's engine mutably, every other sheet's
//!   cells shared. What was ordered is evaluated and unmarked; what was
//!   not stays dirty, untouched. Ordering and evaluating sheet by sheet
//!   reads each sheet's formulas and slots just before evaluating them.
//!
//! The order depends only on the dirty sets, the formulas and the roots,
//! and every evaluation is deterministic, so the same edits always
//! recalculate to **bit-identical** values, exactly those a fresh
//! evaluation of the final texts gives (property-tested against
//! `taco_workload::reference::evaluate` and a rebuild in
//! `tests/prop_workbook.rs`). Two sheets that read each other are
//! ordinary: only a cycle of *cells* has no order, and its cells get
//! `#CYCLE!` by one rule whether it stays inside a sheet or passes through
//! several.

use crate::cells::CellStore;
use crate::engine::Engine;
use crate::order::Schedule;
use crate::sheet::Run;
use crate::structural::{restate, Restated};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use taco_core::{Band, Dependency, FormulaGraph, StructuralOp, MAX_BANDS};
use taco_formula::{CellError, EvalClock, FormulaError, Template, Value};
use taco_grid::a1::{SheetRef, MAX_SHEET_NAME};
use taco_grid::{Cell, GridError, Range};
use taco_store::{EditRecord, StoreError};

mod derive;

/// Index of a sheet within its workbook (dense, allocation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SheetId(pub usize);

impl SheetId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SheetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sheet#{}", self.0)
    }
}

/// Sheet `sid`'s band of the workbook's graph: the one conversion between
/// a sheet's coordinates and the graph's.
fn band(sid: usize) -> Band {
    Band(sid as u32)
}

/// The band a sheet added at `index` gets, refused past the graph's last
/// column: at most `limit` sheets fit.
fn band_for(index: usize, limit: usize) -> Result<Band, WorkbookError> {
    if index < limit {
        Ok(band(index))
    } else {
        Err(WorkbookError::TooManySheets(index))
    }
}

/// Graph ranges as `(sheet, range)` pairs, sorted and deduplicated.
fn by_sheet(ranges: &[Range]) -> Vec<(SheetId, Range)> {
    let mut out: Vec<(SheetId, Range)> = ranges
        .iter()
        .map(|&r| {
            let band = Band::of(r.head().col);
            (SheetId(band.0 as usize), band.local(r).expect("a graph range lies in one band"))
        })
        .collect();
    out.sort_unstable_by_key(|&(s, range)| (s, range.head(), range.tail()));
    out.dedup();
    out
}

/// The edit or batch under way — whether it collects its dirty ranges,
/// and those so far — and the buffers its flushes query with, kept from
/// edit to edit, so a flush allocates nothing once they are warm.
#[derive(Default)]
struct Pending {
    /// One sheet's origins, in its coordinates.
    origins: Vec<Range>,
    /// Every sheet's, in the graph's: the seeds of the flush's query.
    seeds: Vec<Range>,
    /// What the query found.
    found: Vec<Range>,
    /// Whether the edit or batch under way collects its dirty ranges.
    report: bool,
    /// Its dirty ranges so far, when it does.
    dirty: Vec<(SheetId, Range)>,
}

impl Pending {
    /// Starts an edit or batch; `report`: collect its dirty ranges.
    fn begin(&mut self, report: bool) {
        self.report = report;
        self.dirty.clear();
    }

    /// Reports `range` on sheet `sid` dirty, if the edit under way
    /// collects its ranges.
    fn report(&mut self, sid: usize, range: Range) {
        if self.report {
            self.dirty.push((SheetId(sid), range));
        }
    }

    /// Ends an edit or batch: its dirty ranges, sorted and deduplicated
    /// (none if it collected none).
    fn finish(&mut self) -> Vec<(SheetId, Range)> {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable_by_key(|&(s, range)| (s, range.head(), range.tail()));
        dirty.dedup();
        self.report = false;
        dirty
    }
}

/// Which of a formula's reads [`Workbook::bind`] makes dependencies of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reads {
    /// Every read: the formula was just written.
    All,
    /// The reads of the given sheet alone, another than the formula's: it
    /// was just added, or a structural edit of it moved what the formula
    /// reads.
    Of(usize),
}

/// How [`Workbook::recalculate`] schedules sheet evaluation. There is one
/// schedule; the type and the parameter it fills survive only because
/// `benchmark/`, which the change that removed the parallel schedules
/// could not edit, spells `wb.recalculate(RecalcMode::Serial)`. The next
/// change allowed to edit the benchmark drops both (ROADMAP item 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecalcMode {
    /// The one schedule: one order across sheets, evaluated one sheet's
    /// stretch of it at a time.
    Serial,
}

/// What a workbook edit reported back before recalculation: the dirty
/// ranges per sheet. How long finding them took (the paper's control
/// latency) is the `workbook.apply` span of an attached hub.
#[derive(Debug, Clone)]
pub struct WorkbookReceipt {
    /// Dirty ranges, `(sheet, range)`, sorted and deduplicated.
    pub dirty: Vec<(SheetId, Range)>,
}

impl WorkbookReceipt {
    /// Number of distinct sheets the edit dirtied.
    pub fn sheets_touched(&self) -> usize {
        self.dirty.iter().map(|(s, _)| s).collect::<BTreeSet<_>>().len()
    }
}

/// Errors from workbook-level operations.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkbookError {
    /// A sheet with this name already exists (names are case-insensitive).
    DuplicateSheet(String),
    /// The sheet name failed validation.
    BadSheetName(GridError),
    /// A sheet id is out of range.
    NoSuchSheet(usize),
    /// A sheet at this index would lie past the graph's last column: a
    /// workbook holds at most [`MAX_BANDS`] sheets.
    TooManySheets(usize),
    /// A formula failed to parse.
    Formula(FormulaError),
}

impl fmt::Display for WorkbookError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkbookError::DuplicateSheet(n) => write!(f, "duplicate sheet name {n:?}"),
            WorkbookError::BadSheetName(e) => write!(f, "{e}"),
            WorkbookError::NoSuchSheet(i) => write!(f, "no sheet with index {i}"),
            WorkbookError::TooManySheets(i) => {
                write!(f, "no room for sheet {i}: a workbook holds at most {MAX_BANDS} sheets")
            }
            WorkbookError::Formula(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WorkbookError {}

impl From<FormulaError> for WorkbookError {
    fn from(e: FormulaError) -> Self {
        WorkbookError::Formula(e)
    }
}

/// Which stage of a batch failed — the two have opposite recovery rules,
/// so callers must not conflate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStage {
    /// The record at `index` failed to **apply**: records before it were
    /// applied (and flushed), it and everything after were not.
    Apply,
    /// Every record **applied** to the live workbook, but durably
    /// logging the record at `index` failed: the WAL holds exactly the
    /// records before `index`. Re-applying anything would double-apply;
    /// appending later records would punch a hole in the log. The only
    /// safe continuations are rejecting further logged edits or
    /// rewriting the log wholesale (a compaction).
    Log,
}

/// One failed record inside [`Workbook::apply_batch`] /
/// [`PersistentWorkbook::log_batch`]; see [`BatchStage`] for what
/// `index` means in each case.
///
/// [`PersistentWorkbook::log_batch`]: crate::PersistentWorkbook::log_batch
#[derive(Debug, Clone, PartialEq)]
pub struct BatchError {
    /// Index of the failing record.
    pub index: usize,
    /// Which stage failed.
    pub stage: BatchStage,
    /// Why it failed.
    pub error: taco_store::StoreError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stage = match self.stage {
            BatchStage::Apply => "apply",
            BatchStage::Log => "log",
        };
        write!(f, "batch record {} failed to {stage}: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchError {}

/// One shard: a named sheet with its own cells.
struct SheetShard {
    name: SheetRef,
    engine: Engine,
    /// Whether a formula of the sheet may read a sheet that does not
    /// exist: set when one is bound ([`Workbook::bind`]), and reset,
    /// exactly, by the walk a new sheet's rebind makes
    /// ([`Workbook::rebind_dangling_refs`]).
    dangling: bool,
    /// Reads of the sheet itself ever bound into its band, its graph's
    /// lifetime insert counter (on open, those the formulas make, then
    /// counted on).
    inserted: u64,
}

/// A multi-sheet workbook: one [`Engine`] shard per sheet and one formula
/// graph with a band per sheet. See the module docs.
///
/// # Panics
///
/// [`SheetId`]s are dense indices handed out by `add_sheet`; like slice
/// indexing, every method taking a `SheetId` panics (with a descriptive
/// message) when given an id that does not name a sheet of *this*
/// workbook. Resolve names with [`Workbook::sheet_id`] when in doubt.
pub struct Workbook {
    sheets: Vec<SheetShard>,
    /// Lower-cased sheet name → dense id.
    index: BTreeMap<String, usize>,
    /// The workbook's formula graph: sheet k's dependencies in band k,
    /// and the reads between sheets from band to band.
    graph: FormulaGraph,
    /// The reads of other sheets the binding under way made (at most one
    /// dependency per distinct range a formula reads on another sheet).
    bound: Vec<(usize, Range)>,
    /// Pre-registered metric handles, when attached to an obs hub
    /// ([`Workbook::attach_obs`]). Boxed so the common unattached case
    /// costs one pointer.
    obs: Option<Box<crate::obs::EngineObs>>,
    /// The edit under way and the buffers its flushes query with.
    pending: Pending,
    /// The recalculation order, in buffers kept from pass to pass.
    schedule: Schedule,
    /// The clock every sheet's volatile functions read
    /// ([`Workbook::set_clock`]); a sheet added later starts on it too.
    clock: EvalClock,
    /// Sheets that fit: as many as the graph has bands, or fewer in a
    /// test of the refusal.
    #[cfg(test)]
    pub(crate) sheet_limit: usize,
    /// Cells the dangling-reference rebinds walked so far (test
    /// instrumentation).
    #[cfg(test)]
    pub(crate) cells_walked: u64,
    /// Dependents queries the flushes made, from any number of seeds
    /// each, and the ranges they found (test instrumentation).
    #[cfg(test)]
    pub(crate) dependents_queries: u64,
    #[cfg(test)]
    pub(crate) dependents_ranges: u64,
}

impl Default for Workbook {
    fn default() -> Self {
        Workbook::over(FormulaGraph::taco())
    }
}

impl Workbook {
    /// An empty workbook.
    pub fn new() -> Self {
        Workbook::default()
    }

    /// An empty workbook whose sheets use the full TACO compressed graph.
    pub fn with_taco() -> Self {
        Workbook::new()
    }

    /// An empty workbook over `graph`, of the configuration it has.
    pub(crate) fn over(graph: FormulaGraph) -> Self {
        Workbook {
            sheets: Vec::new(),
            index: BTreeMap::new(),
            graph,
            bound: Vec::new(),
            obs: None,
            pending: Pending::default(),
            schedule: Schedule::default(),
            clock: EvalClock::default(),
            #[cfg(test)]
            sheet_limit: MAX_BANDS as usize,
            #[cfg(test)]
            cells_walked: 0,
            #[cfg(test)]
            dependents_queries: 0,
            #[cfg(test)]
            dependents_ranges: 0,
        }
    }

    /// Attaches this workbook to an observability hub: registers the
    /// engine metric set (labeled `book="<label>"`) and starts recording
    /// recalculation metrics and spans. Registration allocates; everything
    /// the recalc hot paths do afterwards is allocation-free. Attaching a
    /// second time replaces the previous hub.
    pub fn attach_obs(&mut self, obs: &taco_obs::Obs, label: &str) {
        self.obs = Some(Box::new(crate::obs::EngineObs::new(obs, label)));
    }

    /// Whether [`Workbook::attach_obs`] has been called.
    pub fn obs_attached(&self) -> bool {
        self.obs.is_some()
    }

    /// Adds a sheet. Names are validated like formula qualifiers and must
    /// be unique case-insensitively. A workbook holds at most
    /// [`MAX_BANDS`] sheets, as many as the graph has bands.
    ///
    /// Existing formulae that already reference the new name (written
    /// while it resolved to `#REF!`) are re-bound: their reads of it join
    /// the graph and the cells are re-marked dirty, so the next
    /// recalculation sees the new sheet's values.
    pub fn add_sheet(&mut self, name: &str) -> Result<SheetId, WorkbookError> {
        let sref = SheetRef::new(name).map_err(WorkbookError::BadSheetName)?;
        if self.index.contains_key(&sref.key()) {
            return Err(WorkbookError::DuplicateSheet(name.to_string()));
        }
        let id = self.sheets.len();
        band_for(id, self.sheet_limit())?;
        let mut engine = Engine::new(sref.name().to_string());
        engine.set_clock_value(self.clock);
        self.index.insert(sref.key(), id);
        self.sheets.push(SheetShard { name: sref, engine, dangling: false, inserted: 0 });
        self.rebind_dangling_refs(id);
        Ok(SheetId(id))
    }

    /// Sheets that fit in the workbook: as many as the graph has bands.
    #[cfg(not(test))]
    fn sheet_limit(&self) -> usize {
        MAX_BANDS as usize
    }

    #[cfg(test)]
    fn sheet_limit(&self) -> usize {
        self.sheet_limit
    }

    /// Binds the formulae whose qualified references only now resolve
    /// (the sheet with this id was just added) and marks them and their
    /// dependents dirty at once. Walks only the sheets flagged as holding
    /// dangling references, binds each of their formulae's reads of the
    /// new sheet, and leaves each flagged exactly if it still holds one —
    /// a reference to a sheet that is still missing.
    fn rebind_dangling_refs(&mut self, new_id: usize) {
        for sid in 0..self.sheets.len() {
            if !std::mem::take(&mut self.sheets[sid].dangling) {
                continue;
            }
            #[cfg(test)]
            {
                self.cells_walked += self.sheets[sid].engine.len() as u64;
            }
            let cells = self.sheets[sid].engine.cells();
            let formulas: Vec<(Cell, Arc<Run>)> =
                cells.filter_map(|(cell, k)| Some((cell, Arc::clone(k.run.as_ref()?)))).collect();
            for (cell, run) in formulas {
                if self.bind(sid, cell, &run, Reads::Of(new_id)) {
                    self.sheets[sid].engine.record_origin(Range::cell(cell));
                }
            }
        }
        // What the rebind dirtied is no edit's to report.
        let report = std::mem::replace(&mut self.pending.report, false);
        self.flush();
        self.pending.report = report;
    }

    /// Number of sheets.
    pub fn sheet_count(&self) -> usize {
        self.sheets.len()
    }

    /// Validates a caller-supplied id (see the type-level panic note).
    #[track_caller]
    fn ensure_sheet(&self, id: SheetId) {
        assert!(
            id.0 < self.sheets.len(),
            "{id} does not exist in this workbook ({} sheets; ids are dense — resolve names \
             with sheet_id())",
            self.sheets.len()
        );
    }

    /// Resolves a sheet name (case-insensitive).
    pub fn sheet_id(&self, name: &str) -> Option<SheetId> {
        self.index.get(&name.to_ascii_lowercase()).copied().map(SheetId)
    }

    /// The name of a sheet.
    pub fn sheet_name(&self, id: SheetId) -> &str {
        self.ensure_sheet(id);
        self.sheets[id.0].name.name()
    }

    /// Read access to one sheet: its engine (values, formulas, counts)
    /// and its band of the graph.
    pub fn sheet(&self, id: SheetId) -> crate::SheetView<'_> {
        self.ensure_sheet(id);
        let shard = &self.sheets[id.0];
        crate::SheetView::new(&shard.engine, &self.graph, band(id.0), shard.inserted)
    }

    /// Shard access for the schedule.
    pub(crate) fn engine(&self, i: usize) -> &Engine {
        &self.sheets[i].engine
    }

    /// Mutable shard access for the persistence layer (restores cells and
    /// dirty marks directly, bypassing the edit path).
    pub(crate) fn engine_mut(&mut self, i: usize) -> &mut Engine {
        &mut self.sheets[i].engine
    }

    /// The sheet a reference of a formula on sheet `own` reads: `own` for
    /// an unqualified one, else the sheet its qualifier names, if any.
    pub(crate) fn resolve(&self, own: u32, sheet: Option<&SheetRef>) -> Option<u32> {
        match sheet {
            None => Some(own),
            Some(sheet) => sheet_index(&self.index, sheet.name()).map(|sid| sid as u32),
        }
    }

    /// Number of the graph's edges between sheets: a reference filled
    /// down a column is one, however long the column. O(sheets).
    ///
    /// Not a function of the formulas alone: live, reads between sheets
    /// compress in the order they are bound, so a replayed workbook can
    /// hold the same fill in more edges than the live one — 10 live and
    /// 12 replayed on one seed of `prop_formula_runs`, with equal
    /// decompressed reads. A reopened one does not depend on that order:
    /// an open derives one edge per read of each column stretch of a run.
    /// Compare reads with [`Self::cross_table`].
    pub fn cross_edge_count(&self) -> usize {
        let held: usize = (0..self.sheets.len()).map(|sid| self.graph.band_len(band(sid))).sum();
        self.graph.num_edges() - held
    }

    /// Current value of a cell.
    pub fn value(&self, id: SheetId, cell: Cell) -> Value {
        self.ensure_sheet(id);
        self.sheets[id.0].engine.value(cell)
    }

    /// The formula text of a cell, if it is a formula cell.
    pub fn formula_of(&self, id: SheetId, cell: Cell) -> Option<String> {
        self.ensure_sheet(id);
        self.sheets[id.0].engine.formula_of(cell)
    }

    /// Cells awaiting recalculation, across all sheets.
    pub fn dirty_count(&self) -> usize {
        self.sheets.iter().map(|s| s.engine.dirty_count()).sum()
    }

    // ---- edits ---------------------------------------------------------
    //
    // Every edit is *stage, then flush*: a `stage_*` function below makes
    // the local mutation (cell store and the sheet's band of the graph),
    // and the sheet's engine records the ranges it wrote as origins; one
    // `flush` then marks their dependents, on whichever sheets — one query
    // of the graph from all of them. The live methods stage one edit,
    // `apply_batch` stages a run of records, and both flush once at the
    // end (and around each structural edit and added sheet, which move
    // coordinates or mark at once); on an attached hub the two together
    // are one `workbook.apply` span.

    /// One live edit of sheet `id`: `stage`, then flush.
    #[track_caller]
    fn edit(&mut self, id: SheetId, stage: impl FnOnce(&mut Self)) -> WorkbookReceipt {
        self.ensure_sheet(id);
        let start = self.obs.as_deref().map(|o| o.now_ns());
        self.pending.begin(true);
        stage(self);
        self.flush();
        let dirty = self.pending.finish();
        self.on_apply(start, 1, dirty.len());
        WorkbookReceipt { dirty }
    }

    /// Closes the `workbook.apply` span begun at `start` (`None`: no hub).
    fn on_apply(&self, start: Option<u64>, records: usize, dirty: usize) {
        if let (Some(o), Some(start)) = (self.obs.as_deref(), start) {
            o.on_apply(start, records, dirty);
        }
    }

    /// Sets a pure value, marking its dependents on every sheet.
    pub fn set_value(&mut self, id: SheetId, cell: Cell, v: Value) -> WorkbookReceipt {
        self.edit(id, |wb| wb.stage_value(id.0, cell, v))
    }

    /// Sets a formula (leading `=` optional): each reference, qualified
    /// or not, becomes a dependency of the graph.
    pub fn set_formula(
        &mut self,
        id: SheetId,
        cell: Cell,
        src: &str,
    ) -> Result<WorkbookReceipt, WorkbookError> {
        self.ensure_sheet(id);
        let run = self.sheets[id.0].engine.run_for(cell, src)?;
        Ok(self.edit(id, |wb| wb.stage_run(id.0, cell, run)))
    }

    /// Autofills the formula at `src` over `targets` (the tool that
    /// generates tabular locality): every target joins one run, with
    /// cross-sheet references preserved (their sheet qualifier is pinned
    /// under the fill). Fails if `src` has no formula.
    pub fn autofill(
        &mut self,
        id: SheetId,
        src: Cell,
        targets: Range,
    ) -> Result<WorkbookReceipt, CellError> {
        self.ensure_sheet(id);
        let run = self.sheets[id.0].engine.fill_run(src).ok_or(CellError::Value)?;
        Ok(self.edit(id, |wb| {
            for cell in targets.cells().filter(|&cell| cell != src) {
                wb.stage_run(id.0, cell, Arc::clone(&run));
            }
        }))
    }

    /// The `SetFormula` records [`Self::autofill`] stands for, in fill
    /// order: applying them (live or on replay) leaves the workbook as
    /// the fill itself does, which is why a log stores a fill as the
    /// formulas it produced and never as the gesture.
    pub fn autofill_records(
        &self,
        id: SheetId,
        src: Cell,
        targets: Range,
    ) -> Result<Vec<EditRecord>, CellError> {
        self.ensure_sheet(id);
        let run = self.sheets[id.0].engine.fill_run(src).ok_or(CellError::Value)?;
        let filled = targets.cells().filter(|&cell| cell != src);
        Ok(filled
            .map(|cell| EditRecord::SetFormula {
                sheet: id.0 as u32,
                cell,
                src: run.at(cell).to_string(),
            })
            .collect())
    }

    /// Clears every cell in `range` on one sheet, detaching every
    /// dependency of the cleared formulae.
    pub fn clear_range(&mut self, id: SheetId, range: Range) -> WorkbookReceipt {
        self.edit(id, |wb| wb.stage_clear(id.0, range))
    }

    /// Inserts `n` rows before row `at` on `sheet`, workbook-wide: the
    /// sheet's own grid shifts, and every *other* sheet's formulas whose
    /// qualified references target the edited sheet are rewritten under
    /// the same transform (`Sheet1!A5` survives an insert above row 5 as
    /// `Sheet1!A8`; a reference whose whole range is deleted becomes
    /// `#REF!`). The referrers are found in the graph, as the edges into
    /// the sheet's band from others, so only actual referrers are touched.
    pub fn insert_rows(&mut self, sheet: SheetId, at: u32, n: u32) -> WorkbookReceipt {
        self.apply_structural(sheet, StructuralOp::InsertRows { at, n })
    }

    /// Deletes the rows `[at, at + n)` on `sheet`; see
    /// [`Self::insert_rows`] for the workbook-wide contract.
    pub fn delete_rows(&mut self, sheet: SheetId, at: u32, n: u32) -> WorkbookReceipt {
        self.apply_structural(sheet, StructuralOp::DeleteRows { at, n })
    }

    /// Inserts `n` columns before column `at` on `sheet`; see
    /// [`Self::insert_rows`] for the workbook-wide contract.
    pub fn insert_cols(&mut self, sheet: SheetId, at: u32, n: u32) -> WorkbookReceipt {
        self.apply_structural(sheet, StructuralOp::InsertCols { at, n })
    }

    /// Deletes the columns `[at, at + n)` on `sheet`; see
    /// [`Self::insert_rows`] for the workbook-wide contract.
    pub fn delete_cols(&mut self, sheet: SheetId, at: u32, n: u32) -> WorkbookReceipt {
        self.apply_structural(sheet, StructuralOp::DeleteCols { at, n })
    }

    /// Applies one structural edit to `sheet` and marks the fallout
    /// across the workbook (the general form behind
    /// [`Self::insert_rows`] and friends).
    pub fn apply_structural(&mut self, sheet: SheetId, op: StructuralOp) -> WorkbookReceipt {
        self.edit(sheet, |wb| wb.stage_structural(sheet.0, op))
    }

    /// Applies a run of [`EditRecord`]s with **one** dependents query:
    /// every record's local mutation is staged first (cell stores and the
    /// graph mutate in record order, exactly as they would serially), each
    /// recording the ranges it wrote; then one flush marks the closure of
    /// all of them, on every sheet, with one multi-source query of the
    /// graph. N queued edits cost one query — and, at the caller's
    /// discretion, one recalculation — instead of N. A `Structural` or
    /// `AddSheet` record flushes what was staged before it and what it
    /// staged itself: the one moves coordinates, the other marks its
    /// rebind at once.
    ///
    /// Batched application is *result-identical* to applying the same
    /// records one at a time (same cell values after recalculation, same
    /// dirty cells, same graph): the closure over the final graph of
    /// every range the batch wrote is what serial marking leaves (see
    /// DESIGN.md, "One dependents query per batch"), which
    /// `crates/engine/tests/batch.rs` tests cell by cell across the
    /// persistence workload presets and a script per hazard.
    ///
    /// On the first failing record the already-staged prefix is still
    /// flushed — the workbook is left exactly as if the prefix had been
    /// applied serially — and the error names the failing index; later
    /// records are untouched.
    pub fn apply_batch(&mut self, records: &[EditRecord]) -> Result<WorkbookReceipt, BatchError> {
        match self.apply_records(records, true) {
            (dirty, None) => Ok(WorkbookReceipt { dirty }),
            (_, Some(e)) => Err(e),
        }
    }

    /// Applies one edit record: the one-record [`Self::apply_batch`],
    /// minus the receipt, which it neither builds nor sorts (unless a
    /// hub's `workbook.apply` span wants its dirty count).
    pub fn apply_edit(&mut self, rec: &EditRecord) -> Result<(), StoreError> {
        match self.apply_records(std::slice::from_ref(rec), false) {
            (_, None) => Ok(()),
            (_, Some(e)) => Err(e.error),
        }
    }

    /// [`Self::apply_batch`]: the dirty ranges, collected if `report` or
    /// a hub is attached (empty otherwise), and the failing record.
    pub(crate) fn apply_records(
        &mut self,
        records: &[EditRecord],
        report: bool,
    ) -> (Vec<(SheetId, Range)>, Option<BatchError>) {
        let start = self.obs.as_deref().map(|o| o.now_ns());
        self.pending.begin(report || start.is_some());
        let mut failed = None;
        for (index, rec) in records.iter().enumerate() {
            if let Err(error) = self.stage_edit(rec) {
                failed = Some(BatchError { index, stage: BatchStage::Apply, error });
                break;
            }
        }
        self.flush();
        let dirty = self.pending.finish();
        self.on_apply(start, records.len(), dirty.len());
        (dirty, failed)
    }

    // ---- staging -------------------------------------------------------

    /// Stages one record: the only place a record's kind is told apart.
    /// `AddSheet` flushes what was staged and marks its dangling-reference
    /// rebind at once, like [`Self::add_sheet`].
    fn stage_edit(&mut self, rec: &EditRecord) -> Result<(), StoreError> {
        let sheet_of = |s: u32| -> Result<usize, StoreError> {
            if (s as usize) < self.sheets.len() {
                Ok(s as usize)
            } else {
                Err(StoreError::InvalidRecord(format!("no sheet with index {s}")))
            }
        };
        let invalid = |e: &dyn fmt::Display| StoreError::InvalidRecord(e.to_string());
        match rec {
            EditRecord::SetValue { sheet, cell, value } => {
                self.stage_value(sheet_of(*sheet)?, *cell, value.clone());
            }
            EditRecord::SetFormula { sheet, cell, src } => {
                let sid = sheet_of(*sheet)?;
                let run = self.sheets[sid].engine.run_for(*cell, src).map_err(|e| invalid(&e))?;
                self.stage_run(sid, *cell, run);
            }
            EditRecord::ClearRange { sheet, range } => {
                self.stage_clear(sheet_of(*sheet)?, *range);
            }
            EditRecord::AddSheet { name } => {
                self.flush();
                self.add_sheet(name).map_err(|e| invalid(&e))?;
            }
            EditRecord::Structural { sheet, op } => {
                self.stage_structural(sheet_of(*sheet)?, *op);
            }
        }
        Ok(())
    }

    /// Drops what the formula at `cell` of sheet `sid`, if it holds one,
    /// reads: every dependency of it in the graph.
    fn unbind(&mut self, sid: usize, cell: Cell) {
        if self.sheets[sid].engine.run_at(cell).is_some() {
            self.graph.clear_cells(band(sid).range(Range::cell(cell)));
        }
    }

    /// Stages a plain value.
    fn stage_value(&mut self, sid: usize, cell: Cell, v: Value) {
        self.unbind(sid, cell);
        self.sheets[sid].engine.set_value(cell, v);
    }

    /// Stages a cleared range.
    fn stage_clear(&mut self, sid: usize, range: Range) {
        self.graph.clear_cells(band(sid).range(range));
        self.sheets[sid].engine.clear_range(range);
    }

    /// Stages `cell` as a cell of `run`: binds what the run's formula
    /// reads there and hands the cell to the sheet engine.
    fn stage_run(&mut self, sid: usize, cell: Cell, run: Arc<Run>) {
        self.unbind(sid, cell);
        self.bind(sid, cell, &run, Reads::All);
        self.sheets[sid].engine.set_run(cell, run);
    }

    /// Binds what `run`'s formula reads at `cell` of sheet `sid` — the
    /// reads `reads` picks — as dependencies of the graph, one at a time
    /// (Alg. 2): the routine an edit and a sheet added make dependencies
    /// by, and an open those it does not derive a stretch at a time. A read of
    /// the sheet itself is one dependency in its band; a read of another
    /// sheet is one per distinct (sheet, range) the formula reads, from
    /// that sheet's band into this one; a read naming a sheet that does
    /// not exist is none, the evaluator yields `#REF!` for it until a
    /// sheet of that name is added, and the sheet is flagged as holding
    /// one. Marks nothing: an edit's cell is an origin already, and an
    /// opened one is dirty exactly if its image says so. Returns whether
    /// it bound a read of another sheet.
    fn bind(&mut self, sid: usize, cell: Cell, run: &Run, reads: Reads) -> bool {
        if reads != Reads::All && !run.template().names_sheet() {
            return false;
        }
        let Workbook { sheets, index, graph, bound, .. } = self;
        let shard = &mut sheets[sid];
        bound.clear();
        for (sheet, rref) in run.at(cell).reads() {
            let src = match sheet {
                None => sid,
                Some(sheet) => match sheet_index(index, sheet.name()) {
                    Some(src) => src,
                    None => {
                        shard.dangling = true;
                        continue;
                    }
                },
            };
            let wanted = match reads {
                Reads::All => true,
                Reads::Of(only) => src == only,
            };
            let range = rref.range();
            if !wanted || (src != sid && bound.contains(&(src, range))) {
                continue;
            }
            let d = Dependency::from_ref(&rref, cell);
            graph.add_dependency(&Dependency {
                prec: band(src).range(d.prec),
                dep: band(sid).cell(d.dep),
                ..d
            });
            if src == sid {
                shard.inserted += 1;
            } else {
                bound.push((src, range));
            }
        }
        !bound.is_empty()
    }

    /// Stages a structural edit: the sheet's band of the graph and its
    /// cells move, and the referrers on other sheets are rewritten,
    /// flushed before and after — what was staged before it is marked in
    /// the coordinates it was staged in, and what it changed before
    /// anything moves again.
    fn stage_structural(&mut self, sid: usize, op: StructuralOp) {
        self.flush();
        // The distinct formula cells on other sheets that read this one,
        // found *before* anything moves: exactly the formulas whose
        // qualified references may need rewriting.
        let referrers = self.referrers(sid);

        // The band moves: every dependency with an end on this sheet
        // moves that end, as the cells do. The formulas whose value may
        // change are dirty and origins: the flush marks their dependents.
        self.graph.apply_structural_in(band(sid), op);
        let (changed, reshaped) = self.sheets[sid].engine.restructure(op);
        for nc in changed {
            self.pending.report(sid, Range::cell(nc));
        }
        // A sum range read in the shape of a criteria range the edit
        // reshaped does not move the way its ends do: those formulas'
        // reads are bound afresh.
        for cell in reshaped {
            self.graph.clear_cells(band(sid).range(Range::cell(cell)));
            if let Some(run) = self.sheets[sid].engine.run_at(cell).cloned() {
                self.bind(sid, cell, &run, Reads::All);
            }
        }

        // Rewrite each referrer whose references into the edited sheet
        // actually move; identity rewrites are skipped so untouched
        // formulas keep their original source text.
        let own = self.sheets[sid].name.name().to_string();
        for (dsid, dep) in referrers {
            let Some(run) = self.sheets[dsid].engine.run_at(dep).cloned() else {
                continue;
            };
            match restate(op, &own, run.at(dep), false) {
                Restated::Untouched => continue,
                Restated::Disturbed => {
                    // Same text, but a range it reads was cut: what it
                    // reads here is what it is bound to (a shaped sum
                    // range keeps the criteria range's shape).
                    let cell = band(dsid).range(Range::cell(dep));
                    self.graph.clear_reads(cell, band(sid));
                    self.bind(dsid, dep, &run, Reads::Of(sid));
                    self.sheets[dsid].engine.record_origin(Range::cell(dep));
                }
                Restated::Rewritten(ast) => {
                    let run = self.sheets[dsid].engine.run_of(dep, Template::printed(ast));
                    self.stage_run(dsid, dep, run);
                }
            }
            // The referrer itself is dirty; as an origin it stands only
            // for its dependents.
            self.pending.report(dsid, Range::cell(dep));
        }
        self.flush();
    }

    /// The distinct formula cells, `(sheet, cell)`, on other sheets that
    /// read sheet `sid`, sorted: the dependents of the graph's edges from
    /// its band into another. Whoever walks them to rewrite them feeds the
    /// graph's compressor in this order, and a replayed edit must
    /// reproduce the live one bit for bit, whatever order the edges were
    /// made in.
    fn referrers(&self, sid: usize) -> Vec<(usize, Cell)> {
        let mut referrers = Vec::new();
        for e in self.graph.edges_touching(band(sid)) {
            let into = Band::of(e.dep.head().col);
            if Band::of(e.prec.head().col) == band(sid) && into != band(sid) {
                let cells = e.decompress().into_iter().map(|d| d.dep);
                referrers.extend(cells.map(|c| {
                    (into.0 as usize, into.local_cell(c).expect("a dependent in its band"))
                }));
            }
        }
        referrers.sort_unstable();
        referrers.dedup();
        referrers
    }

    // ---- queries -------------------------------------------------------

    /// All direct and transitive dependents of `id!r`, across sheets: one
    /// query of the graph.
    pub fn find_dependents(&self, id: SheetId, r: Range) -> Vec<(SheetId, Range)> {
        self.ensure_sheet(id);
        let mut found = Vec::new();
        self.graph.find_dependents_into([band(id.0).range(r)], &mut found);
        by_sheet(&found)
    }

    /// All direct and transitive precedents of `id!r`, across sheets: one
    /// query of the graph.
    pub fn find_precedents(&self, id: SheetId, r: Range) -> Vec<(SheetId, Range)> {
        self.ensure_sheet(id);
        let mut found = Vec::new();
        self.graph.find_precedents_into([band(id.0).range(r)], &mut found);
        by_sheet(&found)
    }

    /// Marks the dependents of every range the edits staged since the
    /// last flush wrote: one dependents query of the graph, from all of
    /// them on every sheet at once. What it dirtied is reported to the
    /// edit under way. This is the control-latency critical path.
    fn flush(&mut self) {
        let Workbook { sheets, graph, pending, .. } = self;
        pending.seeds.clear();
        for (sid, shard) in sheets.iter_mut().enumerate() {
            if shard.engine.has_origins() {
                shard.engine.drain_origins(&mut pending.origins);
                pending.seeds.extend(pending.origins.iter().map(|&r| band(sid).range(r)));
            }
        }
        if pending.seeds.is_empty() {
            return;
        }
        graph.find_dependents_into(&pending.seeds, &mut pending.found);
        for &found in &pending.found {
            let into = Band::of(found.head().col);
            let range = into.local(found).expect("a graph range lies in one band");
            let sid = into.0 as usize;
            sheets[sid].engine.mark_ranges_dirty(&[range]);
            if pending.report {
                pending.dirty.push((SheetId(sid), range));
            }
        }
        #[cfg(test)]
        {
            self.dependents_queries += 1;
            self.dependents_ranges += self.pending.found.len() as u64;
        }
    }

    // ---- recalculation -------------------------------------------------

    /// Every sheet's part of the most recent recalculation pass, in sheet
    /// order: what it evaluated there and the nodes it ordered them in.
    /// Sheets the pass evaluated nothing on have none.
    pub fn last_pass(&self) -> Vec<crate::SheetPass> {
        let passes = self.sheets.iter().map(|s| s.engine.last_pass());
        passes.enumerate().filter_map(|(sheet, p)| Some(crate::SheetPass { sheet, ..p? })).collect()
    }

    /// Recalculates every dirty formula cell in the workbook; see the
    /// module docs for the schedule. Returns the number of cells
    /// evaluated.
    pub fn recalculate(&mut self, mode: RecalcMode) -> usize {
        // One schedule, nothing to select (see [`RecalcMode`]).
        let RecalcMode::Serial = mode;
        self.pass(None)
    }

    /// Demand-driven recalculation: evaluates **only** the transitive
    /// dirty precedents of `viewport` on sheet `id` (including the
    /// viewport's own dirty cells), leaving every other dirty cell lazily
    /// dirty for a later full pass. It is the full pass started from the
    /// viewport instead of from every dirty cell (see the module docs).
    ///
    /// Every viewport cell ends up with exactly the value a full
    /// recalculation would give it: clean cells are already final (the
    /// dirty invariant), and needed cells see precedents that are either
    /// needed (evaluated first by the schedule) or clean. A follow-up
    /// full recalculation converges to the same state as if demand mode
    /// had never been used, because the deferred cells re-evaluate
    /// against their precedents' final values. Returns the number of
    /// cells evaluated.
    pub fn recalc_demand(&mut self, id: SheetId, viewport: Range) -> Result<usize, WorkbookError> {
        if id.0 >= self.sheets.len() {
            return Err(WorkbookError::NoSuchSheet(id.0));
        }
        Ok(self.pass(Some((id.0, viewport))))
    }

    /// One recalculation pass: for each root — each sheet with dirty
    /// cells, in id order, or `viewport` — order from it across sheets,
    /// then evaluate what that appended, unmarking exactly what was
    /// evaluated.
    fn pass(&mut self, viewport: Option<(usize, Range)>) -> usize {
        let mut schedule = std::mem::take(&mut self.schedule);
        schedule.begin(self.sheets.len());
        // A sheet the pass never reaches must not report the previous
        // pass's counts or evaluated cells.
        for s in &mut self.sheets {
            s.engine.begin_pass();
        }
        let dirty_before = self.dirty_count();
        // Guard wrapping a whole demand pass, the `workbook.recalc` tree
        // under it; that nests under the calling thread's ambient context
        // (the request span when a service worker drives this).
        let demand = self.obs.as_deref().filter(|_| viewport.is_some());
        let demand_span = demand.map(|o| o.demand_guard());
        let recalc_span = self.obs.as_deref().map(|o| o.recalc_guard());
        let mut total = 0usize;
        for sid in 0..self.sheets.len() {
            let within = match viewport {
                None if self.sheets[sid].engine.dirty_count() > 0 => None,
                Some((root, range)) if root == sid => Some(range),
                _ => continue,
            };
            let (from, cycles, cells) =
                (schedule.extents().len(), schedule.cycles().len(), schedule.cells());
            let start = self.obs.as_deref().map(|o| o.now_ns());
            schedule.order_from(self, sid, within);
            if let (Some(o), Some(start)) = (self.obs.as_deref(), start) {
                let nodes = schedule.extents().len() - from;
                o.on_order(start, (schedule.cells() - cells) as u64, nodes as u64);
            }
            total += self.evaluate(&schedule, from, cycles);
        }
        let Workbook { sheets, graph, obs, .. } = self;
        if let (Some(o), Some(mut g)) = (obs.as_deref_mut(), recalc_span) {
            g.a = total as u64;
            g.b = schedule.extents().len() as u64;
            o.on_recalc(g.finish(), total, dirty_before);
            if let Some(mut demand) = demand_span {
                demand.a = total as u64;
                o.on_demand(total);
            }
            o.refresh_gauges(graph, sheets.iter().map(|s| &s.engine));
        }
        self.schedule = schedule;
        total
    }

    /// Evaluates what one ordering appended to `schedule` — its extents
    /// from `from` on, whose cycle members are its cycles from `cycles` on
    /// — flagging the cycle members `#CYCLE!` first, then one same-sheet
    /// stretch of the extents at a time. Returns the cells evaluated.
    fn evaluate(&mut self, schedule: &Schedule, from: usize, cycles: usize) -> usize {
        let Workbook { sheets, index, obs, .. } = self;
        for &(sid, cell) in &schedule.cycles()[cycles..] {
            sheets[sid as usize].engine.flag_cycle(cell);
        }
        let obs = obs.as_deref();
        let mut total = 0;
        for extents in schedule.extents()[from..].chunk_by(|a, b| a.sheet == b.sheet) {
            let own = extents[0].sheet as usize;
            let (before, rest) = sheets.split_at_mut(own);
            let (shard, after) = rest.split_first_mut().expect("an ordered sheet exists");
            let ext = OtherSheets { index, own, before, after };
            let start = obs.map(|o| o.now_ns());
            total += shard.engine.evaluate(extents, schedule, &ext);
            if let (Some(o), Some(start)) = (obs, start) {
                o.on_sheet_eval(start, &shard.engine);
            }
        }
        total
    }

    /// Injects a volatile-function clock into every sheet and re-dirties
    /// volatile formulae workbook-wide, marking their dependents on every
    /// sheet. Returns the number of volatile formula cells found.
    pub fn set_clock(&mut self, clock: EvalClock) -> usize {
        self.clock = clock;
        let mut total = 0usize;
        for shard in &mut self.sheets {
            let engine = &mut shard.engine;
            let vols = engine.volatile_cells();
            engine.set_clock_value(clock);
            for &c in &vols {
                engine.record_origin(Range::cell(c));
            }
            total += vols.len();
        }
        self.flush();
        total
    }

    /// The volatile-function clock the workbook evaluates under.
    pub(crate) fn clock(&self) -> EvalClock {
        self.clock
    }

    /// Total formula evaluations across all sheets since the workbook was
    /// created (the counter demand-driven tests assert on).
    pub fn evaluated_total(&self) -> u64 {
        self.sheets.iter().map(|s| s.engine.evaluated_total()).sum()
    }
}

/// A read of one sheet by a formula on another: `(sheet read, range
/// there, sheet reading, formula cell)`.
#[doc(hidden)]
pub type CrossRead = (usize, Range, usize, Cell);

impl Workbook {
    /// The graph's reads between sheets, decompressed and sorted — a read
    /// held twice shows twice, which binding a formula never makes: what
    /// the property suites hold to the formulas (not part of the API).
    #[doc(hidden)]
    pub fn cross_table(&self) -> Vec<CrossRead> {
        let crossing = self.graph.edges().filter(|e| e.crosses_bands());
        let mut table: Vec<CrossRead> = crossing
            .flat_map(|e| e.decompress())
            .map(|d| {
                let (src, dst) = (Band::of(d.prec.head().col), Band::of(d.dep.col));
                let prec = src.local(d.prec).expect("a range lies in one band");
                let dep = dst.local_cell(d.dep).expect("a cell lies in one band");
                (src.0 as usize, prec, dst.0 as usize, dep)
            })
            .collect();
        table.sort_unstable_by_key(|&(src, prec, dst, dep)| {
            (src, dst, dep, prec.head(), prec.tail())
        });
        table
    }
}

/// The sheet named `name` in `index` (lower-cased name → sheet), if any:
/// looked up without allocating, as it is once per qualified reference of
/// every node ordered and evaluated.
fn sheet_index(index: &BTreeMap<String, usize>, name: &str) -> Option<usize> {
    // The index is keyed by lower-cased name; a name longer than any
    // sheet's names no sheet.
    let mut key = [0u8; 4 * MAX_SHEET_NAME];
    let key = key.get_mut(..name.len())?;
    key.copy_from_slice(name.as_bytes());
    key.make_ascii_lowercase();
    index.get(std::str::from_utf8(key).ok()?).copied()
}

/// The workbook as one sheet's evaluation sees it: that sheet's engine is
/// being written, every other sheet's cells are read in place.
pub(crate) struct OtherSheets<'a> {
    index: &'a BTreeMap<String, usize>,
    /// The sheet being evaluated.
    own: usize,
    /// The sheets before it and after it.
    before: &'a [SheetShard],
    after: &'a [SheetShard],
}

impl OtherSheets<'_> {
    /// The sheet being evaluated.
    pub(crate) fn own(&self) -> usize {
        self.own
    }

    /// The id of the sheet named `sheet`, or `#REF!` for no sheet. Asked
    /// once per node and reference.
    pub(crate) fn resolve(&self, sheet: &str) -> Result<usize, CellError> {
        sheet_index(self.index, sheet).ok_or(CellError::Ref)
    }

    /// The cells of sheet `id`, another than the one being evaluated.
    pub(crate) fn cells(&self, id: usize) -> &CellStore {
        let shard = if id < self.own { &self.before[id] } else { &self.after[id - self.own - 1] };
        shard.engine.store()
    }
}

#[cfg(test)]
impl Workbook {
    /// A workbook of one sheet, `Sheet1`: `SheetId(0)`.
    pub(crate) fn one_sheet() -> Self {
        let mut wb = Workbook::new();
        wb.add_sheet("Sheet1").expect("a valid name");
        wb
    }

    /// The nodes the schedule made in the pass under way, or the most
    /// recent one.
    pub(crate) fn nodes_made(&self) -> usize {
        self.schedule.nodes_made()
    }

    /// Holds every formula cell — of `only`, `(sheet, range)`, if given —
    /// to the value `taco_workload::reference::evaluate` gives the
    /// workbook's texts under the default clock, bit for bit, but those
    /// its cycle rule leaves out; returns how many it left out.
    pub(crate) fn assert_reference(&self, only: Option<(usize, Range)>) -> usize {
        use taco_workload::reference::{evaluate, Entry, Sheet};
        let sheet = |shard: &SheetShard| {
            let cells = shard.engine.cells().map(|(cell, content)| {
                let entry = match content.formula(cell) {
                    Some(f) => Entry::Formula(f.to_string()),
                    None => Entry::Value(content.value().clone()),
                };
                (cell, entry)
            });
            Sheet { name: shard.name.name().to_string(), cells: cells.collect() }
        };
        let input: Vec<Sheet> = self.sheets.iter().map(sheet).collect();
        let inside = |s: usize, cell: Cell| {
            only.is_none_or(|(id, range)| id == s && range.contains_cell(cell))
        };
        let formulas = self.sheets.iter().enumerate().flat_map(|(s, shard)| {
            let cells = shard.engine.cells();
            let cells = cells.filter(move |&(cell, k)| k.is_formula() && inside(s, cell));
            cells.map(move |(cell, k)| (s, cell, k.value()))
        });
        evaluate(&input, EvalClock::default()).assert_agrees(formulas)
    }

    /// A workbook of the same sheets with every formula typed afresh
    /// from its text and every other cell from its value: what binding
    /// every live formula afresh derives.
    pub(crate) fn rebuilt(&self) -> Workbook {
        let mut out = Workbook::new();
        for shard in &self.sheets {
            out.add_sheet(shard.name.name()).expect("a fresh name");
        }
        for (sid, shard) in self.sheets.iter().enumerate() {
            for (cell, content) in shard.engine.cells() {
                match content.formula(cell) {
                    Some(f) => drop(out.set_formula(SheetId(sid), cell, &f.to_string())),
                    None => drop(out.set_value(SheetId(sid), cell, content.value().clone())),
                }
            }
        }
        out
    }

    /// [`Self::cross_table`] as binding every live formula afresh derives
    /// it: what the live one must equal.
    pub(crate) fn derived_cross_table(&self) -> Vec<CrossRead> {
        self.rebuilt().cross_table()
    }

    /// Holds the graph to the formulas: its reads between sheets are
    /// [`Self::derived_cross_table`], and each sheet's band holds,
    /// dependency for dependency, the reads of the sheet itself its
    /// formulas make — what a graph of that sheet alone would.
    pub(crate) fn assert_graph_derives(&self) {
        let rebuilt = self.rebuilt();
        assert_eq!(self.cross_table(), rebuilt.cross_table(), "the reads between sheets");
        let band = |wb: &Workbook, sid| {
            let deps = wb.sheet(SheetId(sid)).graph().decompress_all();
            let mut deps: Vec<(Range, Cell)> = deps.into_iter().map(|d| (d.prec, d.dep)).collect();
            deps.sort_unstable_by_key(|&(prec, dep)| (dep, prec.head(), prec.tail()));
            deps
        };
        for sid in 0..self.sheets.len() {
            assert_eq!(band(self, sid), band(&rebuilt, sid), "sheet {sid}'s band");
        }
    }

    /// Sets how many sheets fit, to test the refusal past the last one
    /// without making them all.
    pub(crate) fn with_sheet_limit(limit: usize) -> Self {
        Workbook { sheet_limit: limit, ..Workbook::new() }
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

    /// Data on `Data`, rollup on `Summary`, including a quoted name.
    fn two_sheet_book() -> (Workbook, SheetId, SheetId) {
        let mut wb = Workbook::with_taco();
        let data = wb.add_sheet("Data").unwrap();
        let summary = wb.add_sheet("My Summary").unwrap();
        for row in 1..=4u32 {
            wb.set_value(data, Cell::new(1, row), n(f64::from(row)));
        }
        wb.set_formula(summary, c("A1"), "=SUM(Data!A1:A4)").unwrap();
        wb.set_formula(summary, c("B1"), "=A1*2").unwrap();
        (wb, data, summary)
    }

    /// The graph gauges, and what they must equal: per-sheet
    /// `FormulaGraph::stats()`, summed.
    fn assert_graph_gauges_exact(wb: &Workbook, hub: &taco_obs::Obs) {
        let (mut edges, mut vertices, mut deps, mut reduced) = (0i64, 0i64, 0i64, 0i64);
        for i in 0..wb.sheet_count() {
            let s = wb.sheet(SheetId(i)).graph().stats();
            edges += s.edges as i64;
            vertices += s.vertices as i64;
            deps += s.dependencies as i64;
            reduced += s.reduced.total() as i64;
        }
        let snap = hub.snapshot();
        let sheets = || (0..wb.sheet_count()).map(|i| wb.sheet(SheetId(i)));
        let formulas: usize =
            sheets().map(|s| s.cells().filter(|(_, k)| k.is_formula()).count()).sum();
        assert_eq!(snap.gauge("taco_formula_cells"), Some(formulas as i64));
        let templates: usize = sheets().map(|s| s.formula_templates()).sum();
        assert_eq!(snap.gauge("taco_formula_templates"), Some(templates as i64));
        assert!(templates <= formulas);
        assert_eq!(snap.gauge("taco_graph_edges"), Some(edges));
        assert_eq!(snap.gauge("taco_graph_vertices"), Some(vertices));
        assert_eq!(snap.gauge("taco_graph_dependencies"), Some(deps));
        assert_eq!(snap.gauge("taco_graph_edges_reduced"), Some(reduced));
    }

    #[test]
    fn gauge_refresh_walks_edges_only_after_a_graph_change() {
        let walks = |wb: &Workbook| wb.obs.as_ref().expect("attached").edge_walks;
        let hub = taco_obs::Obs::new_default();
        let (mut wb, data, summary) = two_sheet_book();
        wb.attach_obs(&hub, "book");
        for row in 1..=6u32 {
            wb.set_formula(data, Cell::new(2, row), &format!("=A{row}*2")).unwrap();
        }
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(walks(&wb), 1, "the first refresh counts the vertices");
        assert_graph_gauges_exact(&wb, &hub);
        assert!(hub.snapshot().gauge("taco_graph_edges_reduced").unwrap() > 0);

        // Value edits leave every graph alone: no recalculation after
        // them walks an edge, and the gauges hold.
        for round in 0..5u32 {
            wb.set_value(data, Cell::new(1, 1 + round % 4), n(f64::from(round)));
            wb.set_value(summary, c("D9"), n(f64::from(round)));
            wb.recalculate(RecalcMode::Serial);
        }
        assert_eq!(walks(&wb), 1);
        assert_graph_gauges_exact(&wb, &hub);

        // A formula edit, a clear and a structural edit each change a
        // graph: one walk at the next refresh, none at the one after.
        wb.set_formula(summary, c("C1"), "=A1+B1").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(walks(&wb), 2);
        assert_graph_gauges_exact(&wb, &hub);
        wb.clear_range(data, r("B2:B3"));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(walks(&wb), 3);
        assert_graph_gauges_exact(&wb, &hub);
        wb.insert_rows(data, 2, 1);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(walks(&wb), 4);
        assert_graph_gauges_exact(&wb, &hub);
        wb.set_value(data, c("A1"), n(7.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(walks(&wb), 4);
        assert_graph_gauges_exact(&wb, &hub);
    }

    #[test]
    fn cross_sheet_formula_evaluates() {
        let (mut wb, _, summary) = two_sheet_book();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(summary, c("A1")), n(10.0));
        assert_eq!(wb.value(summary, c("B1")), n(20.0));
        assert_eq!(wb.cross_edge_count(), 1);
    }

    #[test]
    fn quoted_sheet_names_resolve() {
        let (mut wb, data, _summary) = two_sheet_book();
        wb.set_formula(data, c("C1"), "='My Summary'!A1+1").unwrap();
        // Data!C1 reads Summary!A1, which reads Data!A1:A4: the two sheets
        // read each other, but no cell reads itself, so one pass orders
        // Summary!A1 before Data!C1 and both are exact.
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(data, c("C1")), n(11.0));
        assert_eq!(wb.dirty_count(), 0);
    }

    #[test]
    fn repeated_refs_register_one_edge() {
        let (mut wb, _, summary) = two_sheet_book();
        wb.set_formula(summary, c("D1"), "=Data!A1+Data!A1*2").unwrap();
        // One edge for SUM(Data!A1:A4) in the fixture, one for Data!A1.
        assert_eq!(wb.cross_edge_count(), 2);
    }

    #[test]
    fn unknown_sheet_is_ref_error() {
        let (mut wb, _, summary) = two_sheet_book();
        wb.set_formula(summary, c("C1"), "=Nope!A1+1").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(summary, c("C1")), Value::Error(CellError::Ref));
    }

    #[test]
    fn self_qualified_reference_is_local() {
        let (mut wb, data, _) = two_sheet_book();
        wb.set_formula(data, c("B1"), "=Data!A1*100").unwrap();
        assert_eq!(wb.cross_edge_count(), 1, "self-reference must not add a cross edge");
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(data, c("B1")), n(100.0));
        // And it participates in local dirty propagation.
        let receipt = wb.set_value(data, c("A1"), n(7.0));
        assert!(receipt.dirty.iter().any(|&(s, range)| s == data && range.contains_cell(c("B1"))));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(data, c("B1")), n(700.0));
    }

    #[test]
    fn edits_route_dirtiness_across_sheets() {
        let (mut wb, data, summary) = two_sheet_book();
        wb.recalculate(RecalcMode::Serial);
        let receipt = wb.set_value(data, c("A1"), n(100.0));
        // Summary!A1 (direct) and Summary!B1 (transitive) both dirty.
        assert!(receipt
            .dirty
            .iter()
            .any(|&(s, range)| s == summary && range.contains_cell(c("A1"))));
        assert!(receipt
            .dirty
            .iter()
            .any(|&(s, range)| s == summary && range.contains_cell(c("B1"))));
        assert_eq!(receipt.sheets_touched(), 1);
        assert_eq!(wb.dirty_count(), 2);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(summary, c("A1")), n(109.0));
        assert_eq!(wb.value(summary, c("B1")), n(218.0));
    }

    #[test]
    fn queries_hop_sheets_both_ways() {
        let (mut wb, data, summary) = two_sheet_book();
        wb.recalculate(RecalcMode::Serial);
        let deps = wb.find_dependents(data, r("A2"));
        assert!(deps.iter().any(|&(s, range)| s == summary && range.contains_cell(c("A1"))));
        assert!(deps.iter().any(|&(s, range)| s == summary && range.contains_cell(c("B1"))));

        let precs = wb.find_precedents(summary, r("B1"));
        assert!(precs.iter().any(|&(s, range)| s == summary && range.contains_cell(c("A1"))));
        assert!(precs.iter().any(|&(s, range)| s == data && range == r("A1:A4")));
    }

    #[test]
    fn clear_detaches_cross_edges() {
        let (mut wb, data, summary) = two_sheet_book();
        wb.recalculate(RecalcMode::Serial);
        wb.clear_range(summary, r("A1"));
        assert_eq!(wb.cross_edge_count(), 0);
        let receipt = wb.set_value(data, c("A1"), n(50.0));
        assert!(
            !receipt.dirty.iter().any(|&(s, range)| s == summary && range.contains_cell(c("A1"))),
            "cleared formula must no longer be routed to: {:?}",
            receipt.dirty
        );
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(summary, c("A1")), Value::Empty);
    }

    #[test]
    fn autofill_carries_sheet_qualifiers() {
        let mut wb = Workbook::with_taco();
        let data = wb.add_sheet("Data").unwrap();
        let out = wb.add_sheet("Out").unwrap();
        for row in 1..=6u32 {
            wb.set_value(data, Cell::new(1, row), n(f64::from(row)));
        }
        wb.set_formula(out, c("A1"), "=Data!A1*10").unwrap();
        wb.autofill(out, c("A1"), r("A2:A6")).unwrap();
        assert_eq!(wb.formula_of(out, c("A4")).unwrap(), "Data!A4*10");
        // Six reads of another sheet, one compressed edge.
        assert_eq!((wb.cross_table().len(), wb.cross_edge_count()), (6, 1));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(out, c("A6")), n(60.0));
    }

    #[test]
    fn cross_sheet_sumif_reads_the_implicitly_resized_sum_range() {
        // SUMIF's sum range is shaped to the criteria range (B1:B1 reads
        // B1:B3 here); the cross edge must cover the implicit cells for
        // dirty routing.
        let mut wb = Workbook::with_taco();
        let data = wb.add_sheet("Data").unwrap();
        let summary = wb.add_sheet("Summary").unwrap();
        for row in 1..=3u32 {
            wb.set_value(data, Cell::new(1, row), n(1.0));
        }
        wb.set_value(data, c("B3"), n(7.0));
        wb.set_formula(summary, c("A1"), "=SUMIF(Data!A1:A3,\">0\",Data!B1:B1)").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(summary, c("A1")), n(7.0));
        // Editing an implicitly-read cell propagates.
        let receipt = wb.set_value(data, c("B2"), n(2.0));
        assert!(receipt
            .dirty
            .iter()
            .any(|&(s, range)| s == summary && range.contains_cell(c("A1"))));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(summary, c("A1")), n(9.0));
    }

    #[test]
    fn late_added_sheet_rebinds_dangling_references() {
        let mut wb = Workbook::with_taco();
        let a = wb.add_sheet("A").unwrap();
        wb.set_value(a, c("C1"), n(2.0));
        wb.set_formula(a, c("B1"), "=Late!A1+C1").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(a, c("B1")), Value::Error(CellError::Ref));
        assert_eq!(wb.cross_edge_count(), 0);

        // Adding the sheet re-binds the reference: the edge appears, the
        // formula goes dirty, and edits on the new sheet propagate.
        let late = wb.add_sheet("Late").unwrap();
        assert_eq!(wb.cross_edge_count(), 1);
        assert!(wb.dirty_count() > 0, "dangling formula must be re-marked dirty");
        wb.set_value(late, c("A1"), n(5.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(a, c("B1")), n(7.0));
        wb.set_value(late, c("A1"), n(8.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(a, c("B1")), n(10.0));
    }

    /// Dependents queries the workbook made since it was built.
    fn queries(wb: &Workbook) -> u64 {
        wb.dependents_queries
    }

    /// Two sheets, `In` and `Out`, alike: column A holds `rows` values,
    /// each read by `k` formulas beside it.
    fn fan_book(rows: u32, k: u32) -> Workbook {
        let mut wb = Workbook::new();
        for name in ["In", "Out"] {
            let id = wb.add_sheet(name).unwrap();
            for row in 1..=rows {
                wb.set_value(id, Cell::new(1, row), n(f64::from(row)));
                for j in 1..=k {
                    wb.set_formula(id, Cell::new(1 + j, row), &format!("=A{row}*{j}")).unwrap();
                }
            }
        }
        wb.recalculate(RecalcMode::Serial);
        wb
    }

    #[test]
    fn a_batch_marks_its_dependents_with_one_query_per_flush() {
        const K: u32 = 3;
        for rows in [64u32, 256] {
            let mut wb = fan_book(rows, K);
            // A value into every input cell of both sheets, the sheets
            // taking turns.
            let batch: Vec<EditRecord> = (1..=rows)
                .flat_map(|row| {
                    let cell = Cell::new(1, row);
                    [0, 1].map(|sheet| EditRecord::SetValue { sheet, cell, value: n(2.0) })
                })
                .collect();
            let before = queries(&wb);
            let receipt = wb.apply_batch(&batch).unwrap();
            assert_eq!(queries(&wb) - before, 1, "{rows} rows");
            assert_eq!(wb.dirty_count(), (2 * rows * K) as usize, "{rows} rows");
            assert_eq!(receipt.sheets_touched(), 2);

            // A live edit is the batch of one.
            wb.recalculate(RecalcMode::Serial);
            let before = queries(&wb);
            wb.set_value(SheetId(0), c("A1"), n(3.0));
            assert_eq!(queries(&wb) - before, 1);
            assert_eq!(wb.dirty_count(), K as usize);
        }
    }

    #[test]
    fn a_batch_marks_dependents_across_sheets_with_one_query_per_flush() {
        const K: u32 = 3;
        for rows in [64u32, 256] {
            // `Out` also reads `In`'s first formula column row by row.
            let mut wb = fan_book(rows, K);
            for row in 1..=rows {
                let cell = Cell::new(K + 2, row);
                wb.set_formula(SheetId(1), cell, &format!("=In!B{row}+1")).unwrap();
            }
            wb.recalculate(RecalcMode::Serial);
            // Those reads are one edge between the sheets.
            assert_eq!(wb.cross_edge_count(), 1, "{rows} rows");
            let batch: Vec<EditRecord> = (1..=rows)
                .flat_map(|row| {
                    let cell = Cell::new(1, row);
                    [0, 1].map(|sheet| EditRecord::SetValue { sheet, cell, value: n(2.0) })
                })
                .collect();
            let before = queries(&wb);
            let receipt = wb.apply_batch(&batch).unwrap();
            // One query, whatever sheets the dependents lie on.
            assert_eq!(queries(&wb) - before, 1, "{rows} rows");
            assert_eq!(wb.dirty_count(), (2 * rows * K + rows) as usize, "{rows} rows");
            let across = Range::from_coords(K + 2, 1, K + 2, rows);
            let reported: u64 = receipt
                .dirty
                .iter()
                .filter(|&&(s, r)| s == SheetId(1) && across.contains(&r))
                .map(|(_, r)| r.area())
                .sum();
            assert_eq!(reported, u64::from(rows), "every dependent on the other sheet reported");
            wb.recalculate(RecalcMode::Serial);
            assert_eq!(wb.value(SheetId(1), Cell::new(K + 2, rows)), n(3.0));
        }
    }

    /// A `Data` sheet of `rows` values, and `B{r} = Data!A{r}*2` filled
    /// down a second sheet.
    fn cross_fill(rows: u32) -> Workbook {
        let mut wb = Workbook::new();
        wb.add_sheet("Data").unwrap();
        let out = wb.add_sheet("Out").unwrap();
        let values: Vec<EditRecord> = (1..=rows)
            .map(|row| EditRecord::SetValue {
                sheet: 0,
                cell: Cell::new(1, row),
                value: n(f64::from(row)),
            })
            .collect();
        wb.apply_batch(&values).unwrap();
        wb.set_formula(out, c("B1"), "=Data!A1*2").unwrap();
        wb.autofill(out, c("B1"), Range::from_coords(2, 1, 2, rows)).unwrap();
        wb.recalculate(RecalcMode::Serial);
        wb
    }

    #[test]
    fn a_cross_sheet_fill_is_one_edge_and_one_query_at_any_length() {
        let mut at = Vec::new();
        for rows in [2048u32, 8192] {
            let mut wb = cross_fill(rows);
            assert_eq!(wb.cross_edge_count(), 1, "{rows} rows: one edge for the reference");
            let (queries, ranges) = (wb.dependents_queries, wb.dependents_ranges);
            let edited = Cell::new(1, rows / 2);
            let receipt = wb.set_value(SheetId(0), edited, n(0.5));
            assert_eq!(wb.dependents_queries - queries, 1, "{rows} rows: one query per flush");
            let reading = Range::cell(Cell::new(2, rows / 2));
            assert_eq!(receipt.dirty, [(SheetId(1), reading)], "{rows} rows");
            at.push((wb.cross_edge_count(), wb.dependents_ranges - ranges));
            wb.recalculate(RecalcMode::Serial);
            assert_eq!(wb.value(SheetId(1), reading.head()), n(1.0));
        }
        assert_eq!(at[0], at[1], "the edges and the ranges found do not grow with the fill");
    }

    #[test]
    fn a_sheet_past_the_last_band_is_a_typed_refusal() {
        // At the limit itself: the last band fits, the one after does not.
        let (last, limit) = (MAX_BANDS as usize - 1, MAX_BANDS as usize);
        assert_eq!(band_for(last, limit), Ok(Band(MAX_BANDS - 1)));
        assert_eq!(band_for(last + 1, limit), Err(WorkbookError::TooManySheets(last + 1)));
        // Every way a sheet is added refuses, on a workbook that fits two.
        let mut wb = Workbook::with_sheet_limit(2);
        wb.add_sheet("A").unwrap();
        wb.add_sheet("B").unwrap();
        assert_eq!(wb.add_sheet("C"), Err(WorkbookError::TooManySheets(2)));
        let add = EditRecord::AddSheet { name: "C".into() };
        let err = wb.apply_batch(std::slice::from_ref(&add)).unwrap_err();
        assert_eq!((err.index, err.stage), (0, BatchStage::Apply));
        assert!(matches!(err.error, StoreError::InvalidRecord(_)), "{err}");
        assert!(matches!(wb.apply_edit(&add), Err(StoreError::InvalidRecord(_))));
        assert_eq!(wb.sheet_count(), 2);
    }

    #[test]
    fn a_fill_marks_its_dependents_with_one_query() {
        for rows in [64u32, 256] {
            let mut wb = fan_book(rows, 1);
            wb.set_formula(SheetId(0), c("F1"), "=B1+A1").unwrap();
            wb.set_formula(SheetId(0), c("G1"), "=SUM(F1:F9999)").unwrap();
            wb.recalculate(RecalcMode::Serial);
            let before = queries(&wb);
            let targets = Range::from_coords(6, 2, 6, rows);
            wb.autofill(SheetId(0), c("F1"), targets).unwrap();
            assert_eq!(queries(&wb) - before, 1, "{rows} rows");
            // The filled cells and the total over them.
            assert_eq!(wb.dirty_count(), rows as usize, "{rows} rows");
        }
    }

    #[test]
    fn a_new_sheet_walks_only_sheets_that_may_hold_dangling_references() {
        for k in [4usize, 16] {
            // A chain of k sheets, each reading the one before: no
            // reference dangles, so no sheet added walks a cell.
            let mut wb = Workbook::new();
            for s in 0..k {
                let id = wb.add_sheet(&format!("S{s}")).unwrap();
                wb.set_value(id, c("A1"), n(1.0));
                if s > 0 {
                    wb.set_formula(id, c("B1"), &format!("=S{}!A1+A1", s - 1)).unwrap();
                }
            }
            assert_eq!(wb.cells_walked, 0, "{k} sheets");
            // One typed live on the last sheet: the next sheet added walks
            // that sheet alone, binds it and clears the flag — the sheet
            // after walks nothing.
            let last = SheetId(k - 1);
            wb.set_formula(last, c("C1"), "=Late!A1*10").unwrap();
            wb.set_formula(last, c("D1"), "=Later!A1*10").unwrap();
            let late = wb.add_sheet("Late").unwrap();
            assert_eq!(wb.cells_walked, wb.sheet(last).len() as u64);
            assert!(wb.sheets[last.0].dangling, "D1 still reads a missing sheet");
            let later = wb.add_sheet("Later").unwrap();
            assert_eq!(wb.cells_walked, 2 * wb.sheet(last).len() as u64);
            assert!(!wb.sheets[last.0].dangling);
            wb.add_sheet("Unread").unwrap();
            assert_eq!(wb.cells_walked, 2 * wb.sheet(last).len() as u64);
            wb.set_value(late, c("A1"), n(4.0));
            wb.set_value(later, c("A1"), n(5.0));
            wb.recalculate(RecalcMode::Serial);
            assert_eq!((wb.value(last, c("C1")), wb.value(last, c("D1"))), (n(40.0), n(50.0)));
        }
    }

    #[test]
    fn rebinding_dedups_repeated_references() {
        // The rebind path must apply the same one-edge-per-distinct-range
        // dedup as the live stage_formula path.
        let mut wb = Workbook::with_taco();
        let a = wb.add_sheet("A").unwrap();
        wb.set_formula(a, c("B1"), "=Late!A1+Late!A1*2").unwrap();
        wb.set_formula(a, c("B2"), "=Late!A1+Late!A2:A3").unwrap();
        assert_eq!(wb.cross_edge_count(), 0);
        let late = wb.add_sheet("Late").unwrap();
        // B1: one distinct range; B2: two distinct ranges.
        assert_eq!(wb.cross_table().len(), 3);
        wb.set_value(late, c("A1"), n(4.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(a, c("B1")), n(12.0));
    }

    #[test]
    fn duplicate_and_bad_sheet_names_err() {
        let mut wb = Workbook::with_taco();
        wb.add_sheet("Data").unwrap();
        assert!(matches!(wb.add_sheet("data"), Err(WorkbookError::DuplicateSheet(_))));
        assert!(matches!(wb.add_sheet("a:b"), Err(WorkbookError::BadSheetName(_))));
        assert!(matches!(wb.add_sheet(""), Err(WorkbookError::BadSheetName(_))));
    }

    #[test]
    fn sheets_downstream_of_a_cycle_evaluate_after_it() {
        // A (id 0) only *reads* the sheets B and C, which read each other;
        // the cell-level graph is acyclic, so A must still settle
        // correctly: its pass orders the cells of B and C it reads before
        // it despite A's lower id.
        let mut wb = Workbook::with_taco();
        let a = wb.add_sheet("A").unwrap();
        let b = wb.add_sheet("B").unwrap();
        let c_id = wb.add_sheet("C").unwrap();
        wb.set_formula(a, c("A1"), "=B!A1*10").unwrap();
        wb.set_value(b, c("B1"), n(5.0));
        wb.set_formula(b, c("A1"), "=B1+C!B1").unwrap();
        wb.set_formula(c_id, c("A1"), "=B!B1").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(a, c("A1")), n(50.0));
    }

    #[test]
    fn a_crossed_fill_prints_as_its_replay_does() {
        let mut wb = Workbook::with_taco();
        let s = wb.add_sheet("Only").unwrap();
        for row in 1..=14u32 {
            wb.set_value(s, Cell::new(1, row), n(f64::from(row)));
        }
        wb.set_formula(s, c("C4"), "=SUM(A4:A$5)").unwrap();
        // Two fills, the second from a cell the first wrote, logged as the
        // formulas they write; the replay applies the log.
        let mut log =
            vec![EditRecord::SetFormula { sheet: 0, cell: c("C4"), src: "=SUM(A4:A$5)".into() }];
        for (from, targets) in [(c("C4"), r("C4:C8")), (c("C8"), r("C8:C14"))] {
            log.extend(wb.autofill_records(s, from, targets).unwrap());
            wb.autofill(s, from, targets).unwrap();
        }
        let mut replayed = Workbook::with_taco();
        replayed.add_sheet("Only").unwrap();
        for row in 1..=14u32 {
            replayed.set_value(s, Cell::new(1, row), n(f64::from(row)));
        }
        for rec in &log {
            replayed.apply_edit(rec).unwrap();
        }
        wb.recalculate(RecalcMode::Serial);
        replayed.recalculate(RecalcMode::Serial);
        // Past row 5 the corners cross: straightened, `$` travelling with
        // its row, live as on replay.
        assert_eq!(wb.formula_of(s, c("C7")).as_deref(), Some("SUM(A$5:A7)"));
        assert_eq!(wb.formula_of(s, c("C12")).as_deref(), Some("SUM(A$5:A12)"));
        for cell in r("C4:C14").cells() {
            let live = (wb.formula_of(s, cell), wb.value(s, cell));
            assert_eq!(live, (replayed.formula_of(s, cell), replayed.value(s, cell)), "{cell:?}");
        }
        // Both sheets hold the column as one template.
        let templates = |wb: &Workbook| wb.sheet(s).formula_templates();
        assert_eq!((templates(&wb), templates(&replayed)), (1, 1));
    }

    #[test]
    fn demand_recalc_evaluates_only_viewport_precedents() {
        let mut wb = Workbook::with_taco();
        let s = wb.add_sheet("Only").unwrap();
        wb.set_value(s, c("A1"), n(2.0));
        wb.set_formula(s, c("B1"), "=A1*10").unwrap(); // in viewport
        wb.set_formula(s, c("B2"), "=B1+1").unwrap(); // in viewport, needs B1
        wb.set_formula(s, c("D9"), "=A1*100").unwrap(); // far outside
        let before = wb.evaluated_total();
        let evaluated = wb.recalc_demand(s, r("A1:B4")).unwrap();
        assert_eq!(evaluated, 2, "only B1 and B2 are needed");
        assert_eq!(wb.evaluated_total() - before, 2);
        assert_eq!(wb.value(s, c("B1")), n(20.0));
        assert_eq!(wb.value(s, c("B2")), n(21.0));
        // D9 is still lazily dirty; a full pass converges.
        assert_eq!(wb.dirty_count(), 1);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(s, c("D9")), n(200.0));
        assert_eq!(wb.dirty_count(), 0);
    }

    #[test]
    fn demand_recalc_follows_cross_sheet_precedents() {
        let (mut wb, data, summary) = two_sheet_book();
        wb.set_formula(data, c("E1"), "=A1*1000").unwrap(); // unrelated to viewport
                                                            // Summary!B1 = A1*2 and A1 = SUM(Data!A1:A4): the viewport needs
                                                            // both Summary cells, but not Data!E1.
        let evaluated = wb.recalc_demand(summary, r("B1:B1")).unwrap();
        assert_eq!(evaluated, 2);
        assert_eq!(wb.value(summary, c("B1")), n(20.0));
        assert_eq!(wb.dirty_count(), 1, "Data!E1 deferred");
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(data, c("E1")), n(1000.0));
    }

    #[test]
    fn demand_recalc_of_a_clean_viewport_evaluates_nothing() {
        let (mut wb, _data, summary) = two_sheet_book();
        wb.recalculate(RecalcMode::Serial);
        let evaluated = wb.recalc_demand(summary, r("A1:B4")).unwrap();
        assert_eq!(evaluated, 0);
        assert_eq!(wb.value(summary, c("B1")), n(20.0));
    }

    #[test]
    fn demand_recalc_rejects_unknown_sheets() {
        let mut wb = Workbook::with_taco();
        wb.add_sheet("Only").unwrap();
        let err = wb.recalc_demand(SheetId(3), r("A1:B2"));
        assert!(matches!(err, Err(WorkbookError::NoSuchSheet(3))));
    }

    /// Neighbour lists the sheets' schedulers built since the last call.
    fn lists_built(wb: &Workbook) -> u64 {
        wb.sheets.iter().map(|s| s.engine.nbr_lists.replace(0)).sum()
    }

    /// The (run, interval) nodes the last pass's cells make: maximal
    /// sequences of evaluated cells of one run down one column with only
    /// blank rows between them, on every sheet.
    fn stretches(wb: &Workbook) -> u64 {
        let mut nodes = 0;
        for s in &wb.sheets {
            let mut above: Option<(Cell, &Arc<Run>)> = None;
            for cell in s.engine.last_evaluated() {
                let run = s.engine.run_at(cell).expect("evaluated cells are formulas");
                let blank = |up: Cell| {
                    (up.row + 1..cell.row)
                        .all(|row| s.engine.content(Cell::new(cell.col, row)).is_none())
                };
                let joins = above.is_some_and(|(up, of)| {
                    up.col == cell.col && Arc::ptr_eq(of, run) && blank(up)
                });
                nodes += u64::from(!joins);
                above = Some((cell, run));
            }
        }
        nodes
    }

    /// The nodes the schedule made in the last pass.
    fn nodes_made(wb: &Workbook) -> u64 {
        wb.nodes_made() as u64
    }

    #[test]
    fn a_pass_builds_one_neighbor_list_per_node_it_orders() {
        use taco_workload::{gen_persist_workload, persist_enron_like, persist_giant_sheet};
        let viewport = r("A1:F8");
        for (params, sheet) in [(persist_giant_sheet(), 0), (persist_enron_like(), 2)] {
            let w = gen_persist_workload(&params);
            let mut wb = Workbook::with_taco();
            wb.apply_batch(&w.build).unwrap();
            let (id, dirty) = (SheetId(sheet), wb.dirty_count());

            // From a viewport: one list per node, none twice, on whichever
            // sheet — a node cut to the rows the cells that sent for it
            // read, never more than the stretch of a run it is part of —
            // and none for the cells left dirty.
            let needed = wb.recalc_demand(id, viewport).unwrap();
            assert!(needed > 0 && needed < dirty / 2, "{}: {needed} of {dirty}", params.name);
            let (lists, nodes) = (lists_built(&wb), nodes_made(&wb));
            assert_eq!(lists, nodes, "{}", params.name);
            assert!(stretches(&wb) <= nodes && nodes < needed as u64, "{}", params.name);
            // Nothing in it is dirty now, whatever else is.
            assert_eq!(wb.recalc_demand(id, viewport), Ok(0));
            assert_eq!(lists_built(&wb), 0, "{}", params.name);
            // From every dirty cell: one list per (run, dirty interval).
            assert_eq!(wb.recalculate(RecalcMode::Serial), dirty - needed);
            let (lists, nodes) = (lists_built(&wb), stretches(&wb));
            assert_eq!((lists, nodes_made(&wb)), (nodes, nodes), "{}", params.name);
            assert!(nodes < (dirty - needed) as u64 / 2, "{}: {nodes} nodes", params.name);
        }
    }

    #[test]
    fn clock_injection_is_bit_identical_across_recalcs() {
        let mut wb = Workbook::with_taco();
        let s = wb.add_sheet("Only").unwrap();
        wb.set_formula(s, c("A1"), "=NOW()").unwrap();
        wb.set_formula(s, c("A2"), "=RAND()").unwrap();
        wb.set_formula(s, c("A3"), "=RAND()+RAND()").unwrap();
        wb.set_formula(s, c("B1"), "=A1+A2").unwrap();
        let clock = EvalClock { now: 45_000.5, today: 45_000.0, rand_seed: 7 };
        assert_eq!(wb.set_clock(clock), 3);
        wb.recalculate(RecalcMode::Serial);
        let first: Vec<Value> =
            ["A1", "A2", "A3", "B1"].iter().map(|a| wb.value(s, c(a))).collect();
        assert_eq!(first[0], n(45_000.5));
        // Same clock, same dirty set → bit-identical values on a second
        // pass.
        assert_eq!(wb.set_clock(clock), 3);
        wb.recalculate(RecalcMode::Serial);
        let again: Vec<Value> =
            ["A1", "A2", "A3", "B1"].iter().map(|a| wb.value(s, c(a))).collect();
        assert_eq!(again, first);
        // A different seed perturbs RAND but not NOW.
        assert_eq!(wb.set_clock(EvalClock { rand_seed: 8, ..clock }), 3);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(s, c("A1")), first[0]);
        assert_ne!(wb.value(s, c("A2")), first[1]);
    }

    #[test]
    fn set_clock_redirties_dependents_across_sheets() {
        let mut wb = Workbook::with_taco();
        let a = wb.add_sheet("A").unwrap();
        let b = wb.add_sheet("B").unwrap();
        wb.set_formula(a, c("A1"), "=TODAY()").unwrap();
        wb.set_formula(b, c("A1"), "=A!A1+1").unwrap();
        wb.set_clock(EvalClock { now: 10.5, today: 10.0, rand_seed: 1 });
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(b, c("A1")), n(11.0));
        wb.set_clock(EvalClock { now: 20.5, today: 20.0, rand_seed: 1 });
        assert!(wb.dirty_count() >= 2, "volatile cell and its cross-sheet dependent re-dirtied");
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(b, c("A1")), n(21.0));
    }

    /// The ISSUE scenario: `Sheet2!B5 = Sheet1!A2+1` must track `Sheet1`
    /// through a row insert, and die to `#REF!` when its target rows are
    /// deleted outright.
    #[test]
    fn structural_edit_rewrites_cross_sheet_references() {
        let mut wb = Workbook::with_taco();
        let s1 = wb.add_sheet("Sheet1").unwrap();
        let s2 = wb.add_sheet("Sheet2").unwrap();
        for row in 1..=4u32 {
            wb.set_value(s1, Cell::new(1, row), n(f64::from(row) * 10.0));
        }
        wb.set_formula(s2, c("B5"), "=Sheet1!A2+1").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(s2, c("B5")), n(21.0));

        let receipt = wb.insert_rows(s1, 1, 3);
        assert_eq!(wb.formula_of(s2, c("B5")).as_deref(), Some("Sheet1!A5+1"));
        assert!(
            receipt.dirty.iter().any(|&(s, range)| s == s2 && range.contains_cell(c("B5"))),
            "the rewritten referrer must be reported dirty: {:?}",
            receipt.dirty
        );
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(s2, c("B5")), n(21.0), "value survives the shift");
        assert_eq!(wb.value(s1, c("A5")), n(20.0));

        // Deleting every row the reference points at kills it.
        wb.delete_rows(s1, 5, 1);
        assert_eq!(wb.formula_of(s2, c("B5")).as_deref(), Some("#REF!+1"));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(s2, c("B5")), Value::Error(CellError::Ref));
    }

    #[test]
    fn structural_edit_rewrites_cross_sheet_ranges() {
        let (mut wb, data, summary) = two_sheet_book();
        wb.recalculate(RecalcMode::Serial);
        // Insert into the middle of the referenced range: it stretches.
        wb.insert_rows(data, 2, 3);
        assert_eq!(wb.formula_of(summary, c("A1")).as_deref(), Some("SUM(Data!A1:A7)"));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(summary, c("A1")), n(10.0));
        assert_eq!(wb.value(summary, c("B1")), n(20.0), "transitive dependent follows");
        // Delete the whole stretched range: #REF!.
        wb.delete_rows(data, 1, 7);
        assert_eq!(wb.formula_of(summary, c("A1")).as_deref(), Some("SUM(#REF!)"));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(summary, c("A1")), Value::Error(CellError::Ref));
    }

    #[test]
    fn identity_structural_edit_keeps_source_and_cached_values() {
        let (mut wb, data, summary) = two_sheet_book();
        wb.recalculate(RecalcMode::Serial);
        // Rows inserted below everything the summary reads: no rewrite,
        // no dirt, and the referrer keeps its original source text.
        wb.insert_rows(data, 10, 5);
        assert_eq!(wb.formula_of(summary, c("A1")).as_deref(), Some("SUM(Data!A1:A4)"));
        assert_eq!(wb.dirty_count(), 0, "nothing moved that anyone reads");
        assert_eq!(wb.value(summary, c("A1")), n(10.0));
    }

    #[test]
    fn structural_edit_remaps_edges_owned_by_the_edited_sheet() {
        let (mut wb, data, summary) = two_sheet_book();
        wb.set_value(summary, c("Z1"), n(5.0));
        wb.set_formula(data, c("C1"), "='My Summary'!Z1*2").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(data, c("C1")), n(10.0));
        let edges = wb.cross_edge_count();

        // The formula cell moves; its outbound reference (to the *other*
        // sheet) must not be rewritten, but the edge must follow the cell.
        wb.insert_rows(data, 1, 2);
        assert_eq!(wb.formula_of(data, c("C3")).as_deref(), Some("'My Summary'!Z1*2"));
        assert_eq!(wb.cross_edge_count(), edges, "edges remap, not drop");
        let receipt = wb.set_value(summary, c("Z1"), n(7.0));
        assert!(
            receipt.dirty.iter().any(|&(s, range)| s == data && range.contains_cell(c("C3"))),
            "remapped edge must route to the moved formula: {:?}",
            receipt.dirty
        );
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(data, c("C3")), n(14.0));

        // Deleting the formula's own rows drops the cell and its edge.
        wb.delete_rows(data, 3, 1);
        assert_eq!(wb.cross_edge_count(), edges - 1);
        let receipt = wb.set_value(summary, c("Z1"), n(9.0));
        assert!(
            !receipt.dirty.iter().any(|&(s, _)| s == data),
            "a deleted formula must no longer be routed to: {:?}",
            receipt.dirty
        );
    }

    /// The cross-sheet half of the engine's
    /// `a_reshaped_criteria_range_moves_what_the_sum_range_reads`: the
    /// criteria range is on the edited sheet, the sum range on another.
    #[test]
    fn a_reshaped_criteria_range_rebinds_a_sum_range_on_another_sheet() {
        let (mut wb, data, summary) = two_sheet_book();
        for row in 1..=8u32 {
            wb.set_value(summary, Cell::new(26, row), n(f64::from(row)));
        }
        wb.set_value(data, c("C5"), n(1.0));
        wb.set_value(data, c("C6"), n(1.0));
        wb.set_formula(data, c("D1"), "=SUMIF(C5:C6,\">0\",'My Summary'!Z1:Z2)").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(data, c("D1")), n(3.0));
        // The criteria become C5 and C8, matched against Z1 and Z4.
        wb.insert_rows(data, 6, 2);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(data, c("D1")), n(5.0));
        let receipt = wb.set_value(summary, c("Z4"), n(100.0));
        assert!(
            receipt.dirty.iter().any(|&(s, range)| s == data && range.contains_cell(c("D1"))),
            "the formula reads Z4 now: {:?}",
            receipt.dirty
        );
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(data, c("D1")), n(101.0));
    }

    #[test]
    fn column_edits_rewrite_cross_sheet_references() {
        let (mut wb, data, summary) = two_sheet_book();
        wb.recalculate(RecalcMode::Serial);
        wb.insert_cols(data, 1, 2);
        assert_eq!(wb.formula_of(summary, c("A1")).as_deref(), Some("SUM(Data!C1:C4)"));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(summary, c("A1")), n(10.0));
        wb.delete_cols(data, 3, 1);
        assert_eq!(wb.formula_of(summary, c("A1")).as_deref(), Some("SUM(#REF!)"));
    }

    #[test]
    fn batched_structural_record_matches_live_edit() {
        use taco_store::EditRecord;
        let build = || {
            let (mut wb, _, _) = two_sheet_book();
            wb.recalculate(RecalcMode::Serial);
            wb
        };
        let mut live = build();
        live.insert_rows(SheetId(0), 2, 3);
        live.set_value(SheetId(0), c("A9"), n(99.0));
        live.recalculate(RecalcMode::Serial);

        let mut batched = build();
        batched
            .apply_batch(&[
                EditRecord::Structural { sheet: 0, op: StructuralOp::InsertRows { at: 2, n: 3 } },
                EditRecord::SetValue { sheet: 0, cell: c("A9"), value: n(99.0) },
            ])
            .unwrap();
        batched.recalculate(RecalcMode::Serial);

        let summary = SheetId(1);
        assert_eq!(live.formula_of(summary, c("A1")), batched.formula_of(summary, c("A1")));
        assert_eq!(live.value(summary, c("A1")), batched.value(summary, c("A1")));
        assert_eq!(live.value(summary, c("B1")), batched.value(summary, c("B1")));
        assert_eq!(live.cross_edge_count(), batched.cross_edge_count());

        // A structural record naming a missing sheet is a typed error.
        let err = batched
            .apply_batch(&[EditRecord::Structural {
                sheet: 9,
                op: StructuralOp::DeleteRows { at: 1, n: 1 },
            }])
            .unwrap_err();
        assert_eq!(err.index, 0);
    }
}
