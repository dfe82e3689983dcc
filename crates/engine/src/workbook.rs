//! Multi-sheet workbooks: sheet-sharded formula graphs, cross-sheet
//! reference routing, and the one recalculation schedule over them.
//!
//! The paper evaluates TACO per sheet, but the Enron/Github workbooks it
//! draws from are multi-sheet with `Sheet2!A1`-style cross-references. A
//! [`Workbook`] shards state accordingly:
//!
//! - every sheet keeps its **own** cell store and its own compressed
//!   formula graph ([`taco_core::FormulaGraph`]), so each shard stays
//!   exactly as compressible as the paper's per-sheet graphs;
//! - cross-sheet dependencies live in a separate **inter-sheet edge
//!   table** (`cross.rs`): `(source sheet, referenced range) → (target
//!   sheet, formula cell)`, derived from the formulas' qualified
//!   references. Dependents/precedents queries and dirty propagation run
//!   the per-sheet compressed query within a shard and hop through the
//!   edge table between shards;
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
use crate::cross::EdgeTable;
use crate::engine::Engine;
use crate::order::Schedule;
use crate::sheet::Run;
use crate::structural::{restate, Restated};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use taco_core::{FormulaGraph, StructuralOp};
use taco_formula::{CellError, EvalClock, FormulaError, Template, Value};
use taco_grid::a1::{SheetRef, MAX_SHEET_NAME};
use taco_grid::{Cell, GridError, Range};
use taco_store::{EditRecord, StoreError};

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

/// One unit of routing work inside [`Workbook::route`]: a range on a
/// sheet whose dependents on the sheet are known, to be scanned for cross
/// edges out of it.
#[derive(Debug, Clone, Copy)]
struct Job {
    sid: usize,
    range: Range,
}

/// Hashes the routing's `(sheet, cell)` hop keys: a multiply and a
/// rotate per word. The keys are the workbook's own coordinates, not
/// input an adversary picks to collide, so SipHash's keyed rounds buy
/// nothing on a path every cross-sheet hop takes.
#[derive(Default)]
struct HopHasher(u64);

impl Hasher for HopHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What a workbook routes dirtiness with — buffers kept from edit to
/// edit, so routing one record allocates nothing once they are warm —
/// and the receipt of the edit or batch under way.
#[derive(Default)]
struct Routing {
    queue: VecDeque<Job>,
    /// The formula cells the expansion under way hopped to: each fires
    /// at most once per expansion, which both bounds the loop and
    /// deduplicates hops.
    hopped: HashSet<(usize, Cell), BuildHasherDefault<HopHasher>>,
    /// The hops made since the queue last ran dry, not yet expanded: a
    /// wave, whose cells on one sheet are the seeds of one query.
    wave: Vec<(usize, Cell)>,
    /// The seeds of a sheet's dependents query — its origins, a wave's
    /// cells there, a probe — then what the query found.
    seeds: Vec<Range>,
    found: Vec<Range>,
    /// Whether the edit or batch under way collects its dirty ranges.
    report: bool,
    /// Its dirty ranges so far, when it does.
    dirty: Vec<(SheetId, Range)>,
    /// Its cross-sheet hops so far.
    hops: usize,
}

impl Routing {
    /// Takes what a dependents query on sheet `sid` found from `seeds`:
    /// reported with `report`, and queued with the seeds to be scanned for
    /// cross edges if another sheet reads this one (`read`).
    fn take_found(&mut self, sid: usize, read: bool, report: bool) {
        if report {
            self.dirty.extend(self.found.iter().map(|&r| (SheetId(sid), r)));
        }
        if read {
            let ranges = self.seeds.iter().chain(&self.found);
            self.queue.extend(ranges.map(|&range| Job { sid, range }));
        }
    }

    /// Starts an edit or batch; `report`: collect its dirty ranges.
    fn begin(&mut self, report: bool) {
        self.report = report;
        self.dirty.clear();
        self.hops = 0;
    }

    /// Reports `range` on sheet `sid` dirty, if the edit under way
    /// collects its ranges.
    fn report(&mut self, sid: usize, range: Range) {
        if self.report {
            self.dirty.push((SheetId(sid), range));
        }
    }

    /// Ends an edit or batch: its dirty ranges, sorted and deduplicated
    /// (none if it collected none), and its cross-sheet hops.
    fn finish(&mut self) -> (Vec<(SheetId, Range)>, usize) {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable_by_key(|&(s, range)| (s, range.head(), range.tail()));
        dirty.dedup();
        self.report = false;
        (dirty, std::mem::take(&mut self.hops))
    }
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
    /// A sheet id or cross-edge endpoint is out of range.
    NoSuchSheet(usize),
    /// A formula failed to parse.
    Formula(FormulaError),
}

impl fmt::Display for WorkbookError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkbookError::DuplicateSheet(n) => write!(f, "duplicate sheet name {n:?}"),
            WorkbookError::BadSheetName(e) => write!(f, "{e}"),
            WorkbookError::NoSuchSheet(i) => write!(f, "no sheet with index {i}"),
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
    /// applied (and routed), it and everything after were not.
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

/// One shard: a named sheet with its own engine (cells + formula graph).
struct SheetShard {
    name: SheetRef,
    engine: Engine,
    /// Whether a formula of the sheet may read a sheet that does not
    /// exist: set when one is bound ([`Workbook::bind_cross_reads`]), and
    /// reset, exactly, by the walk a new sheet's rebind makes
    /// ([`Workbook::rebind_dangling_refs`]).
    dangling: bool,
}

/// A multi-sheet workbook: one [`Engine`] shard per sheet plus the
/// inter-sheet edge table. See the module docs for the sharding model.
///
/// # Panics
///
/// [`SheetId`]s are dense indices handed out by `add_sheet*`; like slice
/// indexing, every method taking a `SheetId` panics (with a descriptive
/// message) when given an id that does not name a sheet of *this*
/// workbook. Resolve names with [`Workbook::sheet_id`] when in doubt.
#[derive(Default)]
pub struct Workbook {
    sheets: Vec<SheetShard>,
    /// Lower-cased sheet name → dense id.
    index: BTreeMap<String, usize>,
    /// The inter-sheet edge table.
    xedges: EdgeTable,
    /// Pre-registered metric handles, when attached to an obs hub
    /// ([`Workbook::attach_obs`]). Boxed so the common unattached case
    /// costs one pointer.
    obs: Option<Box<crate::obs::EngineObs>>,
    /// Routing buffers, and the receipt of the edit under way.
    routing: Routing,
    /// The recalculation order, in buffers kept from pass to pass.
    schedule: Schedule,
    /// The clock every sheet's volatile functions read
    /// ([`Workbook::set_clock`]); a sheet added later starts on it too.
    clock: EvalClock,
    /// Cells the dangling-reference rebinds walked so far (test
    /// instrumentation).
    #[cfg(test)]
    pub(crate) cells_walked: u64,
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

    /// Adds a sheet backed by a TACO-compressed formula graph. Names are
    /// validated like formula qualifiers and must be unique
    /// case-insensitively.
    ///
    /// Existing formulae that already reference the new name (written
    /// while it resolved to `#REF!`) are re-bound: their cross edges are
    /// registered and the cells re-marked dirty, so the next
    /// recalculation sees the new sheet's values.
    pub fn add_sheet(&mut self, name: &str) -> Result<SheetId, WorkbookError> {
        self.add_sheet_with(name, FormulaGraph::taco())
    }

    /// [`Self::add_sheet`] around the given graph: a graph restored from
    /// an image, or one of another configuration.
    pub(crate) fn add_sheet_with(
        &mut self,
        name: &str,
        graph: FormulaGraph,
    ) -> Result<SheetId, WorkbookError> {
        let sref = SheetRef::new(name).map_err(WorkbookError::BadSheetName)?;
        if self.index.contains_key(&sref.key()) {
            return Err(WorkbookError::DuplicateSheet(name.to_string()));
        }
        let id = self.sheets.len();
        let mut engine = Engine::new(sref.name().to_string(), graph);
        engine.set_clock_value(self.clock);
        self.index.insert(sref.key(), id);
        self.sheets.push(SheetShard { name: sref, engine, dangling: false });
        self.xedges.add_sheet();
        self.rebind_dangling_refs(id);
        Ok(SheetId(id))
    }

    /// Binds the formulae whose qualified references only now resolve
    /// (the sheet with this id was just added), marks them dirty and
    /// routes the resulting dirtiness at once. Walks only the sheets
    /// flagged as holding dangling references, binds each of their
    /// formulae's reads of the new sheet, and leaves each flagged exactly
    /// if it still holds one — a reference to a sheet that is still
    /// missing.
    fn rebind_dangling_refs(&mut self, new_id: usize) {
        let Workbook { sheets, index, xedges, routing, .. } = self;
        for (sid, shard) in sheets.iter_mut().enumerate() {
            if !std::mem::take(&mut shard.dangling) {
                continue;
            }
            #[cfg(test)]
            {
                self.cells_walked += shard.engine.len() as u64;
            }
            for (cell, content) in shard.engine.cells() {
                let Some(run) = &content.run else { continue };
                let edges = xedges.len();
                shard.dangling |= xedges.bind(sid, cell, run, index, Some(new_id));
                if xedges.len() > edges {
                    routing.wave.push((sid, cell));
                }
            }
        }
        if routing.wave.is_empty() {
            return;
        }
        for &(sid, cell) in &routing.wave {
            sheets[sid].engine.mark_cells_dirty(&[cell]);
        }
        self.route(true, false);
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

    /// Read access to one sheet's engine (values, graph stats).
    pub fn sheet(&self, id: SheetId) -> &Engine {
        self.ensure_sheet(id);
        &self.sheets[id.0].engine
    }

    /// Shard access for the schedule.
    pub(crate) fn engine(&self, i: usize) -> &Engine {
        &self.sheets[i].engine
    }

    /// Mutable shard access for the persistence layer (restores cells and
    /// dirty marks directly, bypassing edit routing).
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

    /// Number of inter-sheet edges currently routed.
    pub fn cross_edge_count(&self) -> usize {
        self.xedges.len()
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
    // the local mutation (cell store, formula graph, cross-edge table),
    // and the sheet's engine records the ranges it wrote as origins; one
    // `flush` then marks their dependents — one query per touched sheet,
    // from all of its origins — and routes across sheets. The live
    // methods stage one edit, `apply_batch` stages a run of records, and
    // both flush once at the end (and around each structural edit and
    // added sheet, which move coordinates or route at once); on an
    // attached hub the two together are one `workbook.apply` span.

    /// One live edit of sheet `id`: `stage`, then flush.
    #[track_caller]
    fn edit(&mut self, id: SheetId, stage: impl FnOnce(&mut Self)) -> WorkbookReceipt {
        self.ensure_sheet(id);
        let start = self.obs.as_deref().map(|o| o.now_ns());
        self.routing.begin(true);
        stage(self);
        self.flush();
        let (dirty, hops) = self.routing.finish();
        self.on_apply(start, 1, dirty.len(), hops);
        WorkbookReceipt { dirty }
    }

    /// Closes the `workbook.apply` span begun at `start` (`None`: no hub)
    /// of an edit whose routing made `hops` cross-sheet hops.
    fn on_apply(&self, start: Option<u64>, records: usize, dirty: usize, hops: usize) {
        if let (Some(o), Some(start)) = (self.obs.as_deref(), start) {
            o.on_apply(start, records, dirty, hops);
        }
    }

    /// Sets a pure value, routing dirtiness across sheets.
    pub fn set_value(&mut self, id: SheetId, cell: Cell, v: Value) -> WorkbookReceipt {
        self.edit(id, |wb| wb.stage_value(id.0, cell, v))
    }

    /// Sets a formula (leading `=` optional); same-sheet references go to
    /// the sheet's own graph, qualified ones into the cross-edge table.
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
    /// under the fill) and routed. Fails if `src` has no formula.
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

    /// Clears every cell in `range` on one sheet, detaching both local and
    /// cross-sheet dependencies of the cleared formulae.
    pub fn clear_range(&mut self, id: SheetId, range: Range) -> WorkbookReceipt {
        self.edit(id, |wb| wb.stage_clear(id.0, range))
    }

    /// Inserts `n` rows before row `at` on `sheet`, workbook-wide: the
    /// sheet's own grid shifts, and every *other* sheet's formulas whose
    /// qualified references target the edited sheet are rewritten under
    /// the same transform (`Sheet1!A5` survives an insert above row 5 as
    /// `Sheet1!A8`; a reference whose whole range is deleted becomes
    /// `#REF!`). Rewrites are routed through the cross-edge index, so
    /// only actual referrers are touched.
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

    /// Applies one structural edit to `sheet` and routes the fallout
    /// across the workbook (the general form behind
    /// [`Self::insert_rows`] and friends).
    pub fn apply_structural(&mut self, sheet: SheetId, op: StructuralOp) -> WorkbookReceipt {
        self.edit(sheet, |wb| wb.stage_structural(sheet.0, op))
    }

    /// Applies a run of [`EditRecord`]s with **one** dependents query per
    /// sheet they touch: every record's local mutation is staged first
    /// (cell stores, formula graphs, and the cross-edge table mutate in
    /// record order, exactly as they would serially), each recording the
    /// ranges it wrote; then one flush marks the closure of all of them —
    /// one multi-source dependents query per touched sheet, then one
    /// cross-sheet routing pass. N queued edits cost one query and one
    /// routing pass — and, at the caller's discretion, one recalculation —
    /// instead of N. A `Structural` or `AddSheet` record flushes what was
    /// staged before it and what it staged itself: the one moves
    /// coordinates, the other routes its rebind at once.
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
    /// routed — the workbook is left exactly as if the prefix had been
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
        self.routing.begin(report || start.is_some());
        let mut failed = None;
        for (index, rec) in records.iter().enumerate() {
            if let Err(error) = self.stage_edit(rec) {
                failed = Some(BatchError { index, stage: BatchStage::Apply, error });
                break;
            }
        }
        self.flush();
        let (dirty, hops) = self.routing.finish();
        self.on_apply(start, records.len(), dirty.len(), hops);
        (dirty, failed)
    }

    // ---- staging -------------------------------------------------------

    /// Stages one record: the only place a record's kind is told apart.
    /// `AddSheet` flushes what was staged and routes its
    /// dangling-reference rebind at once, like [`Self::add_sheet`].
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

    /// Stages a plain value.
    fn stage_value(&mut self, sid: usize, cell: Cell, v: Value) {
        // Overwriting a formula cell drops its cross-sheet dependencies
        // (a plain value cell cannot own cross edges — skip the scan).
        if self.sheets[sid].engine.run_at(cell).is_some() {
            self.xedges.remove_dep(sid, cell);
        }
        self.sheets[sid].engine.set_value(cell, v);
    }

    /// Stages a cleared range.
    fn stage_clear(&mut self, sid: usize, range: Range) {
        self.xedges.remove_deps_in(sid, range);
        self.sheets[sid].engine.clear_range(range);
    }

    /// Stages `cell` as a cell of `run`: binds the cross-sheet reads of
    /// the run's formula there and hands the rest to the sheet engine.
    fn stage_run(&mut self, sid: usize, cell: Cell, run: Arc<Run>) {
        if self.sheets[sid].engine.run_at(cell).is_some() {
            self.xedges.remove_dep(sid, cell);
        }
        self.bind_cross_reads(sid, cell, &run);
        self.sheets[sid].engine.set_run(cell, run);
    }

    /// Binds what `run`'s formula reads at `cell` of sheet `sid` on other
    /// sheets ([`EdgeTable::bind`]), flagging the sheet if a read names a
    /// sheet that does not exist. Marks and routes nothing: an edit's
    /// cell is an origin already, and a restored one is dirty exactly if
    /// its image says so.
    pub(crate) fn bind_cross_reads(&mut self, sid: usize, cell: Cell, run: &Run) {
        let Workbook { sheets, index, xedges, .. } = self;
        sheets[sid].dangling |= xedges.bind(sid, cell, run, index, None);
    }

    /// Stages a structural edit: local transform, cross-edge remap, and
    /// referrer rewrites, flushed before and after — what was staged
    /// before it is routed in the coordinates it was staged in, and what
    /// it changed before anything moves again.
    fn stage_structural(&mut self, sid: usize, op: StructuralOp) {
        self.flush();
        // Snapshot the distinct foreign formula cells that read this
        // sheet *before* mutating anything: these are exactly the
        // formulas whose qualified references may need rewriting.
        let referrers = self.xedges.referrers(sid);

        // Local transform. The formulas whose value may change are dirty
        // and origins: the flush marks their dependents and routes any
        // cross edge overlapping them to other sheets.
        let (changed, reshaped) = self.sheets[sid].engine.restructure(op);
        for nc in changed {
            self.routing.report(sid, Range::cell(nc));
        }

        // The edited sheet's own formulas moved; the edges they own
        // follow them. Their referenced ranges live on other sheets and
        // are untouched by this edit — except a sum range there that a
        // criteria range here reshaped: those formulas' edges are bound
        // afresh, like their local reads.
        self.xedges.remap_deps_on(sid, op);
        for cell in reshaped {
            self.xedges.remove_dep(sid, cell);
            if let Some(run) = self.sheets[sid].engine.run_at(cell).cloned() {
                self.bind_cross_reads(sid, cell, &run);
            }
        }

        // Rewrite each referrer whose references into the edited sheet
        // actually move; identity rewrites are skipped so untouched
        // formulas keep their original source text.
        let own = self.sheets[sid].name.name().to_string();
        for (dsid, dep) in referrers {
            let Some(run) = self.sheets[dsid].engine.run_at(dep) else {
                continue;
            };
            match restate(op, &own, run.at(dep), false) {
                Restated::Untouched => continue,
                Restated::Disturbed => {
                    self.sheets[dsid].engine.record_origin(Range::cell(dep));
                }
                Restated::Rewritten(ast) => {
                    let run = self.sheets[dsid].engine.run_of(dep, Template::printed(ast));
                    self.stage_run(dsid, dep, run);
                }
            }
            // The referrer itself is dirty; as an origin it stands only
            // for its dependents.
            self.routing.report(dsid, Range::cell(dep));
        }
        self.flush();
    }

    // ---- queries -------------------------------------------------------

    /// All direct and transitive dependents of `src!r`, across sheets.
    pub fn find_dependents(&mut self, id: SheetId, r: Range) -> Vec<(SheetId, Range)> {
        self.ensure_sheet(id);
        let Workbook { sheets, xedges, routing, .. } = self;
        routing.begin(true);
        routing.seeds.clear();
        routing.seeds.push(r);
        sheets[id.0].engine.find_dependents(&routing.seeds[..], &mut routing.found);
        routing.take_found(id.0, xedges.is_read(id.0), true);
        self.route(false, true);
        self.routing.finish().0
    }

    /// All direct and transitive precedents of `dst!r`, across sheets.
    pub fn find_precedents(&mut self, id: SheetId, r: Range) -> Vec<(SheetId, Range)> {
        self.ensure_sheet(id);
        let Workbook { sheets, xedges, .. } = self;
        let mut out: Vec<(SheetId, Range)> = Vec::new();
        let mut used: HashSet<(usize, usize)> = HashSet::new();
        let mut queue: VecDeque<(usize, Range)> = VecDeque::from([(id.0, r)]);
        let mut local = Vec::new();
        while let Some((sid, seed)) = queue.pop_front() {
            sheets[sid].engine.graph().find_precedents_into(seed, &mut local);
            for range in std::iter::once(seed).chain(local.iter().copied()) {
                for (k, src, prec) in xedges.reads_into(sid, range) {
                    if used.insert((sid, k)) {
                        out.push((SheetId(src), prec));
                        queue.push_back((src, prec));
                    }
                }
            }
            out.extend(local.iter().map(|&range| (SheetId(sid), range)));
        }
        out.sort_unstable_by_key(|&(s, range)| (s, range.head(), range.tail()));
        out.dedup();
        out
    }

    /// Marks the dependents of every range the edits staged since the
    /// last flush wrote: one dependents query per sheet with origins, from
    /// all of them at once ([`Engine::mark_dependents`]), then one
    /// cross-sheet expansion from the origins and what the queries found.
    /// What it dirtied is reported to the edit under way.
    fn flush(&mut self) {
        let Workbook { sheets, xedges, routing, .. } = self;
        for (sid, shard) in sheets.iter_mut().enumerate() {
            if !shard.engine.has_origins() {
                continue;
            }
            shard.engine.mark_dependents(&mut routing.seeds, &mut routing.found);
            // A sheet no other sheet reads has no hop to look for.
            routing.take_found(sid, xedges.is_read(sid), routing.report);
        }
        let report = self.routing.report;
        self.routing.hops += self.route(true, report);
    }

    /// Runs the routing to its end: scans the queued ranges for cross
    /// edges out of them, and each time the queue runs dry expands the
    /// wave of formula cells the edges hopped to — one dependents query
    /// per sheet the wave landed on, from all its cells there — queueing
    /// what that finds, until no hop is left. With `mark` the hopped cells
    /// and their dependents are marked dirty (the edit path), with
    /// `report` they are reported to the edit or query under way. Returns
    /// the cross-sheet hops made.
    fn route(&mut self, mark: bool, report: bool) -> usize {
        let Workbook { sheets, xedges, routing, .. } = self;
        loop {
            while let Some(Job { sid, range }) = routing.queue.pop_front() {
                for (dst, dep) in xedges.hops_from(sid, range) {
                    if routing.hopped.insert((dst, dep)) {
                        if mark {
                            sheets[dst].engine.mark_cells_dirty(&[dep]);
                        }
                        routing.wave.push((dst, dep));
                    }
                }
            }
            if routing.wave.is_empty() {
                break;
            }
            let mut wave = std::mem::take(&mut routing.wave);
            wave.sort_unstable();
            wave.dedup();
            for hops in wave.chunk_by(|a, b| a.0 == b.0) {
                let sid = hops[0].0;
                // A hopped cell is a dependent itself.
                if report {
                    let cells = hops.iter().map(|&(_, cell)| (SheetId(sid), Range::cell(cell)));
                    routing.dirty.extend(cells);
                }
                // The seeds: the cells, a column's consecutive rows as one.
                routing.seeds.clear();
                for &(_, cell) in hops {
                    match routing.seeds.last_mut() {
                        Some(seed)
                            if (seed.tail().col, seed.tail().row + 1) == (cell.col, cell.row) =>
                        {
                            *seed = Range::new(seed.head(), cell);
                        }
                        _ => routing.seeds.push(Range::cell(cell)),
                    }
                }
                let engine = &mut sheets[sid].engine;
                engine.find_dependents(&routing.seeds[..], &mut routing.found);
                if mark {
                    engine.mark_ranges_dirty(&routing.found);
                }
                routing.take_found(sid, xedges.is_read(sid), report);
            }
            wave.clear();
            routing.wave = wave;
        }
        let hops = routing.hopped.len();
        routing.hopped.clear();
        hops
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
        let Workbook { sheets, xedges, obs, .. } = self;
        if let (Some(o), Some(mut g)) = (obs.as_deref_mut(), recalc_span) {
            g.a = total as u64;
            g.b = schedule.extents().len() as u64;
            o.on_recalc(g.finish(), total, dirty_before);
            if let Some(mut demand) = demand_span {
                demand.a = total as u64;
                o.on_demand(total);
            }
            o.refresh_gauges(xedges.len(), sheets.iter().map(|s| &s.engine));
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
    /// volatile formulae workbook-wide, routing their dependents across
    /// sheets. Returns the number of volatile formula cells found.
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

    /// The live cross table, edge for edge, in a canonical order.
    pub(crate) fn cross_table(&self) -> Vec<crate::cross::CrossEdge> {
        self.xedges.canonical()
    }

    /// The cross table binding every live formula afresh derives, in the
    /// same order: what [`Self::cross_table`] must equal.
    pub(crate) fn derived_cross_table(&self) -> Vec<crate::cross::CrossEdge> {
        let mut table = EdgeTable::default();
        for _ in &self.sheets {
            table.add_sheet();
        }
        for (sid, shard) in self.sheets.iter().enumerate() {
            for (cell, content) in shard.engine.cells() {
                if let Some(run) = &content.run {
                    table.bind(sid, cell, run, &self.index, None);
                }
            }
        }
        table.canonical()
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
        let templates: usize = sheets().map(Engine::formula_templates).sum();
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
        assert_eq!(wb.cross_edge_count(), 6);
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

    /// Dependents queries the sheets made since the workbook was built.
    fn queries(wb: &Workbook) -> u64 {
        wb.sheets.iter().map(|s| s.engine.dependents_queries.get()).sum()
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
    fn a_batch_marks_its_dependents_with_one_query_per_touched_sheet() {
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
            assert_eq!(queries(&wb) - before, 2, "{rows} rows");
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
    fn a_batch_expands_its_cross_sheet_hops_with_one_query_per_sheet() {
        const K: u32 = 3;
        for rows in [64u32, 256] {
            // `Out` also reads `In`'s first formula column row by row.
            let mut wb = fan_book(rows, K);
            for row in 1..=rows {
                let cell = Cell::new(K + 2, row);
                wb.set_formula(SheetId(1), cell, &format!("=In!B{row}+1")).unwrap();
            }
            wb.recalculate(RecalcMode::Serial);
            let hub = taco_obs::Obs::new(taco_obs::ObsOptions::default());
            wb.attach_obs(&hub, "hops");
            let batch: Vec<EditRecord> = (1..=rows)
                .flat_map(|row| {
                    let cell = Cell::new(1, row);
                    [0, 1].map(|sheet| EditRecord::SetValue { sheet, cell, value: n(2.0) })
                })
                .collect();
            let before = queries(&wb);
            let receipt = wb.apply_batch(&batch).unwrap();
            // One query per touched sheet, and one for the wave of hops.
            assert_eq!(queries(&wb) - before, 2 + 1, "{rows} rows");
            assert_eq!(wb.dirty_count(), (2 * rows * K + rows) as usize, "{rows} rows");
            let hops = Range::from_coords(K + 2, 1, K + 2, rows);
            let reported =
                receipt.dirty.iter().filter(|&&(s, r)| s == SheetId(1) && hops.contains(&r));
            assert_eq!(reported.count(), rows as usize, "every hop reported");
            let snap = hub.snapshot();
            let counted = snap.histograms.iter().find(|h| h.name == "taco_apply_cross_hops");
            assert_eq!(counted.map(|h| h.sum), Some(u64::from(rows)), "{rows} rows");
            wb.recalculate(RecalcMode::Serial);
            assert_eq!(wb.value(SheetId(1), Cell::new(K + 2, rows)), n(3.0));
        }
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
        assert_eq!(wb.cross_edge_count(), 3);
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
