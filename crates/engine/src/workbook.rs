//! Multi-sheet workbooks: sheet-sharded formula graphs, cross-sheet
//! reference routing, and the sheet-level recalculation schedule.
//!
//! The paper evaluates TACO per sheet, but the Enron/Github workbooks it
//! draws from are multi-sheet with `Sheet2!A1`-style cross-references. A
//! [`Workbook`] shards state accordingly:
//!
//! - every sheet keeps its **own** cell store and its own compressed
//!   formula graph ([`taco_core::FormulaGraph`]), so each shard stays
//!   exactly as compressible as the paper's per-sheet graphs;
//! - cross-sheet dependencies live in a separate **inter-sheet edge
//!   table** ([`CrossEdge`]): `(source sheet, referenced range) → (target
//!   sheet, formula cell)`. Dependents/precedents queries and dirty
//!   propagation run the per-sheet compressed query within a shard and hop
//!   through the edge table between shards;
//! - recalculation is **one pass**, whoever asks: *order from roots,
//!   then evaluate the order*. Every sheet's engine orders its own dirty
//!   cells, each after the dirty cells it reads on that sheet
//!   (`Engine::order_from`, resumable within a pass). The roots are every
//!   dirty cell ([`Workbook::recalculate`]) or the dirty cells of a
//!   viewport ([`Workbook::recalc_demand`]); from a viewport, the cross
//!   edges of each newly ordered cell name ranges on other sheets whose
//!   dirty cells go back in as roots of *their* sheet, until nothing is
//!   added. What was ordered is evaluated and unmarked; what was not
//!   stays dirty, untouched;
//! - evaluation is scheduled **per sheet**: sheets are topologically
//!   leveled by the cross-edge graph (longest-path levels) and those with
//!   anything ordered are evaluated one at a time, level by level, in
//!   ascending sheet order within a level. A sheet reads the sheets of
//!   earlier levels in place; they are final by then. The order depends
//!   only on the cross-edge table and every per-sheet evaluation is
//!   deterministic, so the same edits always recalculate to
//!   **bit-identical** values (property-tested against a rebuild from
//!   the final texts in `tests/prop_workbook.rs`).
//!
//! Cross-sheet *cycles* (sheet A reads B, B reads A) cannot be leveled;
//! the scheduler levels the **SCC condensation** instead: each cyclic
//! component unrolls into consecutive singleton levels in ascending sheet
//! order, and everything downstream of it is placed strictly later, so
//! only the cycle members themselves see stale values. One `recalculate`
//! call relaxes a cyclic component by a single pass over its dirty cells
//! — deterministically. An edit that re-dirties the cycle
//! advances it another pass; a genuine cell-level cycle across sheets
//! never settles, matching Excel's circular-reference behaviour with
//! iterative calculation off.

use crate::cells::CellStore;
use crate::engine::{Engine, ExternalSheets};
use crate::scc::{Digraph, Tarjan};
use crate::sheet::Run;
use crate::structural::{restate, Restated};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::fmt;
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

/// One inter-sheet dependency: the formula at `dst!dep` references the
/// range `src!prec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossEdge {
    /// Sheet holding the referenced range.
    pub src: SheetId,
    /// The referenced range on `src`.
    pub prec: Range,
    /// Sheet holding the referencing formula.
    pub dst: SheetId,
    /// The formula cell on `dst`.
    pub dep: Cell,
}

/// The inter-sheet edge table, indexed both ways so the hot paths only
/// scan the edges of the sheet at hand: routing (`expand`) walks a source
/// sheet's outgoing edges, precedent queries walk a target sheet's
/// incoming edges. Every edge is stored in both buckets.
#[derive(Default)]
struct EdgeTable {
    by_src: Vec<Vec<CrossEdge>>,
    by_dst: Vec<Vec<CrossEdge>>,
    len: usize,
}

impl EdgeTable {
    /// Grows both indices for a newly added sheet.
    fn add_sheet(&mut self) {
        self.by_src.push(Vec::new());
        self.by_dst.push(Vec::new());
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, e: CrossEdge) {
        self.by_src[e.src.0].push(e);
        self.by_dst[e.dst.0].push(e);
        self.len += 1;
    }

    /// Edges whose referenced range lives on `sid`.
    fn outgoing(&self, sid: usize) -> &[CrossEdge] {
        &self.by_src[sid]
    }

    /// Edges whose formula cell lives on `sid`.
    fn incoming(&self, sid: usize) -> &[CrossEdge] {
        &self.by_dst[sid]
    }

    fn iter(&self) -> impl Iterator<Item = &CrossEdge> {
        self.by_src.iter().flatten()
    }

    /// Removes every edge of the formula cell `dst!dep`.
    fn remove_dep(&mut self, dst: SheetId, dep: Cell) {
        self.remove_where(dst, |e| e.dep == dep);
    }

    /// Removes every edge of a formula cell inside `dst!range`.
    fn remove_deps_in(&mut self, dst: SheetId, range: Range) {
        self.remove_where(dst, move |e| range.contains_cell(e.dep));
    }

    fn remove_where(&mut self, dst: SheetId, pred: impl Fn(&CrossEdge) -> bool) {
        let removed: Vec<CrossEdge> =
            self.by_dst[dst.0].iter().filter(|e| pred(e)).copied().collect();
        if removed.is_empty() {
            return;
        }
        self.by_dst[dst.0].retain(|e| !pred(e));
        for src in removed.iter().map(|e| e.src.0).collect::<BTreeSet<_>>() {
            self.by_src[src].retain(|e| !(e.dst == dst && pred(e)));
        }
        self.len -= removed.len();
    }

    /// Remaps the formula-cell end of every edge owned by sheet `sid`
    /// under a structural edit of that sheet (the sheet's own formulas
    /// moved); edges whose formula cell was deleted are dropped along
    /// with the formula. The referenced-range ends on *other* sheets are
    /// untouched — foreign geometry does not change.
    fn remap_deps_on(&mut self, sid: usize, op: StructuralOp) {
        let mut removed = 0usize;
        self.by_dst[sid].retain_mut(|e| match op.map_cell(e.dep) {
            Some(nc) => {
                e.dep = nc;
                true
            }
            None => {
                removed += 1;
                false
            }
        });
        for bucket in &mut self.by_src {
            bucket.retain_mut(|e| {
                if e.dst.0 != sid {
                    return true;
                }
                match op.map_cell(e.dep) {
                    Some(nc) => {
                        e.dep = nc;
                        true
                    }
                    None => false,
                }
            });
        }
        self.len -= removed;
    }
}

/// One unit of routing work inside [`Workbook::expand`]: a range on a
/// sheet, plus what is left to do with it.
#[derive(Debug, Clone, Copy)]
struct Job {
    sid: usize,
    range: Range,
    /// Run the per-sheet dependents query over `range`? `false` when the
    /// caller already has the local closure (engine edit receipts).
    expand_local: bool,
    /// Include `range` itself in the result? (Edit origins and query
    /// probes are not their own dependents.)
    report: bool,
}

impl Job {
    /// A query probe: expand locally, do not report the probe itself.
    fn probe(sid: usize, range: Range) -> Job {
        Job { sid, range, expand_local: true, report: false }
    }

    /// A range whose local closure is already complete: report it and
    /// scan it for cross hops only.
    fn expanded(sid: usize, range: Range) -> Job {
        Job { sid, range, expand_local: false, report: true }
    }

    /// A cross-hop formula cell: it is a dependent (report) whose own
    /// local dependents are still unknown (expand).
    fn hop(sid: usize, cell: Cell) -> Job {
        Job { sid, range: Range::cell(cell), expand_local: true, report: true }
    }

    /// Queues the jobs for one engine edit: the edited range (cross hops
    /// only — the engine already ran and marked the local query) plus the
    /// receipt's dependent ranges.
    fn push_receipt(jobs: &mut Vec<Job>, sid: usize, origin: Range, receipt: crate::EditReceipt) {
        jobs.reserve(receipt.dirty.len() + 1);
        jobs.push(Job { sid, range: origin, expand_local: false, report: false });
        jobs.extend(receipt.dirty.into_iter().map(|r| Job::expanded(sid, r)));
    }
}

/// How [`Workbook::recalculate`] schedules sheet evaluation. There is one
/// schedule; the type and the parameter it fills survive only because
/// `benchmark/`, which the change that removed the parallel schedules
/// could not edit, spells `wb.recalculate(RecalcMode::Serial)`. The next
/// change allowed to edit the benchmark drops both (ROADMAP item 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecalcMode {
    /// Level by level, sheets in ascending id order, one at a time.
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
    /// How far down the engine's order a demand pass has followed the
    /// cross edges into this sheet (see [`Workbook::order_viewport`]).
    hopped: usize,
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
        let id = self.add_sheet_unbound(name, FormulaGraph::taco())?;
        self.rebind_dangling_refs(id.0);
        Ok(id)
    }

    /// [`Self::add_sheet`] around the given graph, minus the
    /// dangling-reference rebind: the persistence restore path adds
    /// sheets whose cross edges and dirty sets are restored verbatim from
    /// the image — re-running the rebind would duplicate cross edges and
    /// spuriously re-dirty formulae that forward-referenced a later sheet.
    pub(crate) fn add_sheet_unbound(
        &mut self,
        name: &str,
        graph: FormulaGraph,
    ) -> Result<SheetId, WorkbookError> {
        let sref = SheetRef::new(name).map_err(WorkbookError::BadSheetName)?;
        if self.index.contains_key(&sref.key()) {
            return Err(WorkbookError::DuplicateSheet(name.to_string()));
        }
        let id = self.sheets.len();
        let mut engine = Engine::new(graph);
        engine.set_sheet_name(sref.name().to_string());
        self.index.insert(sref.key(), id);
        self.sheets.push(SheetShard { name: sref, engine, hopped: 0 });
        self.xedges.add_sheet();
        Ok(SheetId(id))
    }

    /// Registers cross edges for formulae whose qualified references only
    /// now resolve (the sheet with this id was just added), and routes the
    /// resulting dirtiness.
    fn rebind_dangling_refs(&mut self, new_id: usize) {
        let name = &self.sheets[new_id].name;
        let mut edges = Vec::new();
        for (sid, shard) in self.sheets.iter().enumerate() {
            for (cell, content) in shard.engine.cells() {
                let Some(formula) = content.formula(cell) else { continue };
                // One edge per distinct range the formula reads — the
                // same dedup `stage_run` applies on the live path.
                let mut added: Vec<Range> = Vec::new();
                for (sheet, rref) in formula.reads() {
                    let prec = rref.range();
                    if sheet.is_some_and(|s| s.matches(name.name())) && !added.contains(&prec) {
                        added.push(prec);
                        edges.push(CrossEdge {
                            src: SheetId(new_id),
                            prec,
                            dst: SheetId(sid),
                            dep: cell,
                        });
                    }
                }
            }
        }
        if edges.is_empty() {
            return;
        }
        let mut jobs = Vec::with_capacity(edges.len());
        for e in edges {
            self.sheets[e.dst.0].engine.mark_cells_dirty(&[e.dep]);
            jobs.push(Job::hop(e.dst.0, e.dep));
            self.xedges.insert(e);
        }
        let _ = self.expand(jobs, true);
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

    /// Mutable shard access for the persistence layer (restores cells and
    /// dirty marks directly, bypassing edit routing).
    pub(crate) fn engine_mut(&mut self, i: usize) -> &mut Engine {
        &mut self.sheets[i].engine
    }

    /// Inserts a cross edge without routing (persistence restore: the
    /// edge's dirtiness is already captured by the restored dirty sets).
    /// Endpoints must name existing sheets.
    pub(crate) fn insert_cross_edge_raw(&mut self, e: CrossEdge) {
        debug_assert!(e.src.0 < self.sheets.len() && e.dst.0 < self.sheets.len());
        self.xedges.insert(e);
    }

    /// Number of inter-sheet edges currently routed.
    pub fn cross_edge_count(&self) -> usize {
        self.xedges.len()
    }

    /// The inter-sheet edge table (routing diagnostics).
    pub fn cross_edges(&self) -> impl Iterator<Item = &CrossEdge> {
        self.xedges.iter()
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
    // Every edit is *stage, then route*: a `stage_*` function below makes
    // the local mutation (cell store, formula graph, cross-edge table)
    // and queues routing jobs; one `expand` then marks what the jobs
    // dirtied across sheets. The live methods stage one edit,
    // `apply_batch` stages a run of records, and both route once; on an
    // attached hub the two together are one `workbook.apply` span.

    /// One live edit of sheet `id`: `stage`, then route.
    #[track_caller]
    fn edit(
        &mut self,
        id: SheetId,
        stage: impl FnOnce(&mut Self, &mut Vec<Job>),
    ) -> WorkbookReceipt {
        self.ensure_sheet(id);
        let start = self.obs.as_deref().map(|o| o.now_ns());
        let mut jobs = Vec::new();
        stage(self, &mut jobs);
        let dirty = self.expand(jobs, true);
        self.on_apply(start, 1, dirty.len());
        WorkbookReceipt { dirty }
    }

    /// Closes the `workbook.apply` span begun at `start` (`None`: no hub).
    fn on_apply(&self, start: Option<u64>, records: usize, dirty: usize) {
        if let (Some(o), Some(start)) = (self.obs.as_deref(), start) {
            o.on_apply(start, records, dirty);
        }
    }

    /// Sets a pure value, routing dirtiness across sheets.
    pub fn set_value(&mut self, id: SheetId, cell: Cell, v: Value) -> WorkbookReceipt {
        self.edit(id, |wb, jobs| wb.stage_value(id.0, cell, v, jobs))
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
        Ok(self.edit(id, |wb, jobs| wb.stage_run(id.0, cell, run, jobs)))
    }

    /// Autofills the formula at `src` over `targets`, exactly like
    /// [`Engine::autofill`] but with cross-sheet references preserved
    /// (their sheet qualifier is pinned under the fill) and routed.
    pub fn autofill(
        &mut self,
        id: SheetId,
        src: Cell,
        targets: Range,
    ) -> Result<WorkbookReceipt, CellError> {
        self.ensure_sheet(id);
        let run = self.sheets[id.0].engine.fill_run(src).ok_or(CellError::Value)?;
        Ok(self.edit(id, |wb, jobs| {
            for cell in targets.cells().filter(|&cell| cell != src) {
                wb.stage_run(id.0, cell, Arc::clone(&run), jobs);
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
        self.edit(id, |wb, jobs| wb.stage_clear(id.0, range, jobs))
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
        self.edit(sheet, |wb, jobs| wb.stage_structural(sheet.0, op, jobs))
    }

    /// Applies a run of [`EditRecord`]s with **one** dirty-propagation
    /// pass: every record's local mutation is staged first (cell stores,
    /// formula graphs, and the cross-edge table mutate in record order,
    /// exactly as they would serially), then a single routing pass
    /// (`expand`) marks the union of their dirtiness. N queued edits cost
    /// one cross-sheet routing pass — and, at the caller's discretion, one
    /// recalculation — instead of N.
    ///
    /// Batched application is *result-identical* to applying the same
    /// records one at a time (same cell values after recalculation, same
    /// dirty sets, same graph): dirty-marking is monotone and the staged
    /// graph mutations are order-preserving, which
    /// `crates/engine/tests/batch.rs` property-tests across the
    /// persistence workload presets.
    ///
    /// On the first failing record the already-staged prefix is still
    /// routed — the workbook is left exactly as if the prefix had been
    /// applied serially — and the error names the failing index; later
    /// records are untouched.
    pub fn apply_batch(&mut self, records: &[EditRecord]) -> Result<WorkbookReceipt, BatchError> {
        let start = self.obs.as_deref().map(|o| o.now_ns());
        let mut jobs = Vec::new();
        let mut failed = None;
        for (index, rec) in records.iter().enumerate() {
            if let Err(error) = self.stage_edit(rec, &mut jobs) {
                failed = Some(BatchError { index, stage: BatchStage::Apply, error });
                break;
            }
        }
        let dirty = self.expand(jobs, true);
        self.on_apply(start, records.len(), dirty.len());
        match failed {
            Some(e) => Err(e),
            None => Ok(WorkbookReceipt { dirty }),
        }
    }

    /// Applies one edit record — the one-record [`Self::apply_batch`]
    /// (what WAL replay calls per record).
    pub fn apply_edit(&mut self, rec: &EditRecord) -> Result<(), StoreError> {
        self.apply_batch(std::slice::from_ref(rec)).map(drop).map_err(|e| e.error)
    }

    // ---- staging -------------------------------------------------------

    /// Stages one record: the only place a record's kind is told apart.
    /// `AddSheet` routes its dangling-reference rebind at once, like
    /// [`Self::add_sheet`].
    fn stage_edit(&mut self, rec: &EditRecord, jobs: &mut Vec<Job>) -> Result<(), StoreError> {
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
                self.stage_value(sheet_of(*sheet)?, *cell, value.clone(), jobs);
            }
            EditRecord::SetFormula { sheet, cell, src } => {
                let sid = sheet_of(*sheet)?;
                let run = self.sheets[sid].engine.run_for(*cell, src).map_err(|e| invalid(&e))?;
                self.stage_run(sid, *cell, run, jobs);
            }
            EditRecord::ClearRange { sheet, range } => {
                self.stage_clear(sheet_of(*sheet)?, *range, jobs);
            }
            EditRecord::AddSheet { name } => {
                self.add_sheet(name).map_err(|e| invalid(&e))?;
            }
            EditRecord::Structural { sheet, op } => {
                self.stage_structural(sheet_of(*sheet)?, *op, jobs);
            }
        }
        Ok(())
    }

    /// Stages a plain value.
    fn stage_value(&mut self, sid: usize, cell: Cell, v: Value, jobs: &mut Vec<Job>) {
        // Overwriting a formula cell drops its cross-sheet dependencies
        // (a plain value cell cannot own cross edges — skip the scan).
        if self.sheets[sid].engine.run_at(cell).is_some() {
            self.xedges.remove_dep(SheetId(sid), cell);
        }
        let receipt = self.sheets[sid].engine.set_value(cell, v);
        Job::push_receipt(jobs, sid, Range::cell(cell), receipt);
    }

    /// Stages a cleared range.
    fn stage_clear(&mut self, sid: usize, range: Range, jobs: &mut Vec<Job>) {
        self.xedges.remove_deps_in(SheetId(sid), range);
        let receipt = self.sheets[sid].engine.clear_range(range);
        Job::push_receipt(jobs, sid, range, receipt);
    }

    /// Stages `cell` as a cell of `run`: registers cross edges for the
    /// foreign qualified references of the run's formula there and hands
    /// the rest to the sheet engine.
    fn stage_run(&mut self, sid: usize, cell: Cell, run: Arc<Run>, jobs: &mut Vec<Job>) {
        if self.sheets[sid].engine.run_at(cell).is_some() {
            self.xedges.remove_dep(SheetId(sid), cell);
        }
        self.bind_cross_reads(sid, cell, &run);
        let receipt = self.sheets[sid].engine.set_run(cell, run);
        Job::push_receipt(jobs, sid, Range::cell(cell), receipt);
    }

    /// Inserts one cross edge per distinct (sheet, range) that `run`'s
    /// formula reads, at `cell` of sheet `sid`, on another sheet.
    fn bind_cross_reads(&mut self, sid: usize, cell: Cell, run: &Run) {
        let mut added: Vec<(usize, Range)> = Vec::new();
        for (sheet, rref) in run.at(cell).reads() {
            let Some(sheet) = sheet else { continue };
            if self.sheets[sid].name.matches(sheet.name()) {
                continue; // self-qualified: the engine stores it locally
            }
            if let Some(&src) = self.index.get(&sheet.key()) {
                let prec = rref.range();
                if added.contains(&(src, prec)) {
                    continue;
                }
                added.push((src, prec));
                self.xedges.insert(CrossEdge {
                    src: SheetId(src),
                    prec,
                    dst: SheetId(sid),
                    dep: cell,
                });
            }
            // Unknown sheets get no edge: the evaluator yields #REF!
            // until a sheet of that name appears (see
            // `rebind_dangling_refs`).
        }
    }

    /// Stages a structural edit: local transform, cross-edge remap, and
    /// referrer rewrites.
    fn stage_structural(&mut self, sid: usize, op: StructuralOp, jobs: &mut Vec<Job>) {
        // Snapshot the distinct foreign formula cells that read this
        // sheet *before* mutating anything: these are exactly the
        // formulas whose qualified references may need rewriting.
        let mut referrers: Vec<(usize, Cell)> = Vec::new();
        for e in self.xedges.outgoing(sid) {
            if !referrers.contains(&(e.dst.0, e.dep)) {
                referrers.push((e.dst.0, e.dep));
            }
        }
        // The cross table's row order reflects edit history, which a
        // snapshot round trip does not preserve. Rewrite order feeds the
        // destination graphs' compressors, so sort it: a replayed
        // structural edit must reproduce the live one bit for bit.
        referrers.sort_unstable();

        // Local transform. The receipt's dirty ranges are the formulas
        // whose value may change, so they double as hop origins: any
        // cross edge overlapping them routes dirtiness to other sheets.
        let (receipt, reshaped) = self.sheets[sid].engine.restructure(op);
        jobs.extend(receipt.dirty.into_iter().map(|r| Job::expanded(sid, r)));

        // The edited sheet's own formulas moved; the edges they own
        // follow them. Their referenced ranges live on other sheets and
        // are untouched by this edit — except a sum range there that a
        // criteria range here reshaped: those formulas' edges are bound
        // afresh, like their local reads.
        self.xedges.remap_deps_on(sid, op);
        for cell in reshaped {
            self.xedges.remove_dep(SheetId(sid), cell);
            if let Some(run) = self.sheets[sid].engine.run_at(cell).cloned() {
                self.bind_cross_reads(sid, cell, &run);
            }
        }

        // Rewrite each referrer whose references into the edited sheet
        // actually move; identity rewrites are skipped so untouched
        // formulas keep their original source text.
        let own = self.sheets[sid].name.name().to_string();
        let own = Some(own.as_str());
        for (dsid, dep) in referrers {
            let Some(run) = self.sheets[dsid].engine.run_at(dep) else {
                continue;
            };
            match restate(op, own, run.at(dep), false) {
                Restated::Untouched => {}
                Restated::Disturbed => {
                    self.sheets[dsid].engine.mark_cells_dirty(&[dep]);
                    jobs.push(Job::hop(dsid, dep));
                }
                Restated::Rewritten(ast) => {
                    let run = self.sheets[dsid].engine.run_of(dep, Template::printed(ast));
                    self.stage_run(dsid, dep, run, jobs);
                    // The rewrite dirtied the referrer itself; the
                    // formula-edit receipt only reports its dependents.
                    jobs.push(Job::expanded(dsid, Range::cell(dep)));
                }
            }
        }
    }

    // ---- queries -------------------------------------------------------

    /// All direct and transitive dependents of `src!r`, across sheets.
    pub fn find_dependents(&mut self, id: SheetId, r: Range) -> Vec<(SheetId, Range)> {
        self.ensure_sheet(id);
        self.expand(vec![Job::probe(id.0, r)], false)
    }

    /// All direct and transitive precedents of `dst!r`, across sheets.
    pub fn find_precedents(&mut self, id: SheetId, r: Range) -> Vec<(SheetId, Range)> {
        self.ensure_sheet(id);
        let Workbook { sheets, xedges, .. } = self;
        let mut out: Vec<(SheetId, Range)> = Vec::new();
        let mut used: HashSet<(usize, usize)> = HashSet::new();
        let mut queue: VecDeque<(usize, Range)> = VecDeque::from([(id.0, r)]);
        while let Some((sid, seed)) = queue.pop_front() {
            let local = sheets[sid].engine.find_precedents(seed);
            for range in std::iter::once(seed).chain(local.iter().copied()) {
                for (i, e) in xedges.incoming(sid).iter().enumerate() {
                    if range.contains_cell(e.dep) && used.insert((sid, i)) {
                        out.push((e.src, e.prec));
                        queue.push_back((e.src.0, e.prec));
                    }
                }
            }
            out.extend(local.into_iter().map(|range| (SheetId(sid), range)));
        }
        out.sort_unstable_by_key(|&(s, range)| (s, range.head(), range.tail()));
        out.dedup();
        out
    }

    /// Transitive dependents of the queued jobs, hopping the cross-edge
    /// table between sheets; with `mark` the discovered formula cells are
    /// also marked dirty (the edit path). Jobs whose local dependents the
    /// caller already computed (engine edit receipts) skip the second
    /// graph query — the control-latency path pays each per-sheet query
    /// once.
    fn expand(&mut self, jobs: Vec<Job>, mark: bool) -> Vec<(SheetId, Range)> {
        let Workbook { sheets, xedges, .. } = self;
        let mut out: Vec<(SheetId, Range)> = Vec::new();
        // Each cross edge fires at most once per expansion, which both
        // bounds the loop and deduplicates hops.
        let mut hopped: HashSet<(usize, Cell)> = HashSet::new();
        let mut queue: VecDeque<Job> = VecDeque::from(jobs);
        while let Some(job) = queue.pop_front() {
            let Job { sid, range, expand_local, report } = job;
            if expand_local {
                let local = sheets[sid].engine.find_dependents(range);
                if mark {
                    sheets[sid].engine.mark_ranges_dirty(&local);
                }
                queue.extend(local.into_iter().map(|r| Job::expanded(sid, r)));
            }
            if report {
                out.push((SheetId(sid), range));
            }
            for e in xedges.outgoing(sid) {
                if e.prec.overlaps(&range) && hopped.insert((e.dst.0, e.dep)) {
                    if mark {
                        sheets[e.dst.0].engine.mark_cells_dirty(&[e.dep]);
                    }
                    queue.push_back(Job::hop(e.dst.0, e.dep));
                }
            }
        }
        out.sort_unstable_by_key(|&(s, range)| (s, range.head(), range.tail()));
        out.dedup();
        out
    }

    // ---- recalculation -------------------------------------------------

    /// Topological levels of the sheet graph induced by the cross-edge
    /// table: every cross edge either goes from an earlier level to a
    /// later one, or connects two members of the same strongly connected
    /// component (a cross-sheet cycle). Sheets within a level are
    /// independent. The levels are those of the **SCC condensation**
    /// (longest-path), with a multi-sheet SCC occupying one consecutive
    /// singleton level per member in id order — so everything downstream
    /// of a cycle still evaluates strictly after every cycle member.
    pub fn sheet_levels(&self) -> Vec<Vec<SheetId>> {
        self.levels().into_iter().map(|l| l.into_iter().map(SheetId).collect()).collect()
    }

    fn levels(&self) -> Vec<Vec<usize>> {
        /// The sheet graph: an edge from each sheet to the sheets whose
        /// formulas read it.
        struct Sheets<'a>(&'a EdgeTable);
        impl Digraph for Sheets<'_> {
            fn successors(&mut self, v: u32, out: &mut Vec<u32>) {
                let edges = self.0.outgoing(v as usize).iter();
                out.extend(edges.filter(|e| e.src != e.dst).map(|e| e.dst.0 as u32));
            }
        }
        let n = self.sheets.len();
        let mut sccs = Tarjan::default();
        for sheet in 0..n as u32 {
            sccs.search(sheet, &mut Sheets(&self.xedges));
        }
        // Components come out after everything they reach: backwards is
        // an order in which every component follows its predecessors.
        let mut comp_of = vec![0; n];
        for k in 0..sccs.count() {
            for &sheet in &sccs.members()[sccs.bounds(k)] {
                comp_of[sheet as usize] = k;
            }
        }
        // Longest-path base level per component over the condensation; a
        // k-sheet component spans k consecutive singleton levels, and
        // successors start after it.
        let mut base = vec![0usize; sccs.count()];
        let mut height = 0;
        for k in (0..sccs.count()).rev() {
            let members = sccs.bounds(k);
            let after = base[k] + members.len();
            height = height.max(after);
            for &sheet in &sccs.members()[members] {
                for e in self.xedges.outgoing(sheet as usize) {
                    let next = comp_of[e.dst.0];
                    if next != k {
                        base[next] = base[next].max(after);
                    }
                }
            }
        }
        let mut levels: Vec<Vec<usize>> = vec![Vec::new(); height];
        for k in 0..sccs.count() {
            let mut members: Vec<usize> =
                sccs.members()[sccs.bounds(k)].iter().map(|&s| s as usize).collect();
            members.sort_unstable();
            // A trivial component shares its level with independent
            // peers, a cyclic one unrolls into singleton sub-levels.
            for (j, m) in members.into_iter().enumerate() {
                levels[base[k] + j].push(m);
            }
        }
        for level in &mut levels {
            level.sort_unstable();
        }
        levels
    }

    /// Every sheet's part of the most recent recalculation pass, in sheet
    /// order: what it evaluated there and the nodes it ordered them in.
    /// Sheets the pass evaluated nothing on have none.
    pub fn last_pass(&self) -> Vec<crate::SheetPass> {
        let passes = self.sheets.iter().map(|s| s.engine.last_pass());
        passes.enumerate().filter_map(|(sheet, p)| Some(crate::SheetPass { sheet, ..p? })).collect()
    }

    /// Recalculates every dirty formula cell in the workbook, sheet by
    /// sheet in level order; see the module docs for the scheduling
    /// model. Returns the number of cells evaluated.
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
    pub fn recalc_demand(
        &mut self,
        id: SheetId,
        viewport: Range,
        mode: RecalcMode,
    ) -> Result<usize, WorkbookError> {
        let RecalcMode::Serial = mode;
        if id.0 >= self.sheets.len() {
            return Err(WorkbookError::NoSuchSheet(id.0));
        }
        Ok(self.pass(Some((id.0, viewport))))
    }

    /// One recalculation pass: order from the roots — every dirty cell
    /// of each sheet, or what `viewport` needs — and evaluate each
    /// sheet's order, level by level, unmarking exactly what was
    /// evaluated.
    fn pass(&mut self, viewport: Option<(usize, Range)>) -> usize {
        // A sheet the pass never reaches must not report the previous
        // pass's counts or evaluated cells.
        for s in &mut self.sheets {
            s.engine.begin_pass();
            s.hopped = 0;
        }
        // Guard wrapping a whole demand pass: the expansion span and the
        // `workbook.recalc` tree both nest under it.
        let mut demand_span = None;
        // What the pass sets out to evaluate.
        let dirty_before = match viewport {
            None => self.dirty_count(),
            Some((sid, range)) => {
                demand_span = self.obs.as_deref().map(|o| o.demand_guard());
                let expand_start = self.obs.as_deref().map(|o| o.now_ns());
                let closure = self.order_viewport(sid, range);
                if let (Some(o), Some(start_ns)) = (self.obs.as_deref(), expand_start) {
                    o.on_demand_expand(start_ns, closure);
                }
                if let Some(g) = demand_span.as_mut() {
                    g.a = closure as u64;
                }
                closure
            }
        };
        // Tree-building span: per-level spans recorded below nest under
        // it, and it nests under the calling thread's ambient context
        // (the request span when a service worker drives this).
        let recalc_span = self.obs.as_deref().map(|o| o.recalc_guard());
        let levels = self.levels();
        let Workbook { sheets, index, xedges, obs } = self;
        // A full pass orders a sheet when its turn comes, not before:
        // ordering reads the formulas and slots evaluation is about to
        // (all sheets ordered first, evaluation measured 7 % slower).
        let has_work = |engine: &Engine| match viewport {
            None => engine.dirty_count() > 0,
            Some(_) => !engine.ordered().is_empty(),
        };
        let mut total = 0usize;
        let mut levels_walked = 0usize;
        for (level_idx, level) in levels.into_iter().enumerate() {
            let work: Vec<usize> =
                level.into_iter().filter(|&i| has_work(&sheets[i].engine)).collect();
            if work.is_empty() {
                continue;
            }
            levels_walked += 1;
            let mut level_span = obs.as_deref().map(|o| {
                let mut g = o.sheet_level_guard();
                g.a = level_idx as u64;
                g.b = work.len() as u64;
                g
            });
            // Exactly the level's shards with work are borrowed mutably,
            // in ascending sheet order; every other sheet's cells are
            // shared with them read-only. A sheet the level's formulae
            // reference sits in another level: an earlier one, final by
            // now, unless the two share a cycle.
            let mut jobs: Vec<&mut SheetShard> = Vec::with_capacity(work.len());
            let mut others: Vec<Option<&CellStore>> = Vec::with_capacity(sheets.len());
            for (i, shard) in sheets.iter_mut().enumerate() {
                if work.binary_search(&i).is_ok() {
                    jobs.push(shard);
                    others.push(None);
                } else {
                    others.push(Some(shard.engine.store()));
                }
            }
            let ext = OtherSheets { index, cells: &others };
            // On a hub, a `sheet.order` span per sheet of a full pass (a
            // demand pass ordered in `demand.expand`) and a `sheet.eval`.
            let obs = obs.as_deref();
            for shard in jobs.iter_mut() {
                let engine = &mut shard.engine;
                if viewport.is_none() {
                    let start = obs.map(|o| o.now_ns());
                    engine.order_from(None);
                    if let (Some(o), Some(start)) = (obs, start) {
                        o.on_sheet_order(start, engine);
                    }
                }
                let start = obs.map(|o| o.now_ns());
                total += engine.evaluate_ordered(&ext);
                if let (Some(o), Some(start)) = (obs, start) {
                    o.on_sheet_eval(start, engine);
                }
            }
            level_span.take();
        }
        if let (Some(o), Some(mut g)) = (obs.as_deref_mut(), recalc_span) {
            g.a = total as u64;
            g.b = levels_walked as u64;
            o.on_recalc(g.finish(), total, levels_walked, dirty_before);
            o.refresh_gauges(xedges.len(), sheets.iter().map(|s| &s.engine));
        }
        drop(demand_span);
        total
    }

    /// Orders what `viewport` on sheet `sid` needs: its dirty cells and
    /// the dirty cells they read, on their own sheet by the engine's
    /// order and on other sheets through the cross-edge table — each
    /// newly ordered cell's cross edges name ranges whose dirty cells are
    /// further roots on their sheet — until nothing is added. Returns
    /// the number of cells ordered.
    fn order_viewport(&mut self, sid: usize, viewport: Range) -> usize {
        let Workbook { sheets, xedges, .. } = self;
        sheets[sid].engine.order_from(Some(viewport));
        while let Some(sid) = sheets.iter().position(|s| s.hopped < s.engine.ordered().len()) {
            while let Some(&cell) = sheets[sid].engine.ordered().get(sheets[sid].hopped) {
                sheets[sid].hopped += 1;
                for e in xedges.incoming(sid).iter().filter(|e| e.dep == cell) {
                    sheets[e.src.0].engine.order_from(Some(e.prec));
                }
            }
        }
        sheets.iter().map(|s| s.engine.ordered().len()).sum()
    }

    /// Injects a volatile-function clock into every sheet and re-dirties
    /// volatile formulae workbook-wide, routing their dependents across
    /// sheets. Returns the number of volatile formula cells found.
    pub fn set_clock(&mut self, clock: EvalClock) -> usize {
        let mut jobs = Vec::new();
        let mut total = 0usize;
        for sid in 0..self.sheets.len() {
            let vols = self.sheets[sid].engine.volatile_cells();
            self.sheets[sid].engine.set_clock_value(clock);
            total += vols.len();
            for c in vols {
                self.sheets[sid].engine.mark_cells_dirty(&[c]);
                jobs.push(Job::probe(sid, Range::cell(c)));
            }
        }
        self.expand(jobs, true);
        total
    }

    /// Total formula evaluations across all sheets since the workbook was
    /// created (the counter demand-driven tests assert on).
    pub fn evaluated_total(&self) -> u64 {
        self.sheets.iter().map(|s| s.engine.evaluated_total()).sum()
    }
}

/// The other sheets' cells, as one level's evaluation sees them: every
/// sheet the level does not itself recalculate, read in place. Unknown
/// sheet names resolve to `#REF!`.
struct OtherSheets<'a> {
    index: &'a BTreeMap<String, usize>,
    /// By sheet id; `None` for the sheets being recalculated.
    cells: &'a [Option<&'a CellStore>],
}

impl ExternalSheets for OtherSheets<'_> {
    /// `None` for a sheet this level writes: no cross edge leads there,
    /// and it reads as blank.
    fn resolve(&self, sheet: &str) -> Result<Option<usize>, CellError> {
        // The index is keyed by lower-cased name; a name longer than a
        // sheet's may be names no sheet. On the stack: this runs once per
        // cross-sheet reference of every node evaluated.
        let mut key = [0u8; 4 * MAX_SHEET_NAME];
        let key = key.get_mut(..sheet.len()).ok_or(CellError::Ref)?;
        key.copy_from_slice(sheet.as_bytes());
        key.make_ascii_lowercase();
        let key = std::str::from_utf8(key).map_err(|_| CellError::Ref)?;
        let sid = *self.index.get(key).ok_or(CellError::Ref)?;
        Ok(self.cells[sid].map(|_| sid))
    }

    fn cells(&self, id: usize) -> &CellStore {
        self.cells[id].expect("a sheet resolved to its cells")
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
        // Data!C1 reads Summary!A1 — a sheet-level cycle, so Data (lower
        // id) evaluates first and sees Summary!A1 still empty.
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(data, c("C1")), n(1.0));
        // Re-dirtying the chain advances it one pass: now Summary!A1 = 10
        // is visible.
        wb.set_value(data, c("A1"), n(1.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(data, c("C1")), n(11.0));
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
    fn levels_follow_cross_edges() {
        let mut wb = Workbook::with_taco();
        let s0 = wb.add_sheet("S0").unwrap();
        let s1 = wb.add_sheet("S1").unwrap();
        let s2 = wb.add_sheet("S2").unwrap();
        let s3 = wb.add_sheet("S3").unwrap();
        // S1 and S2 read S0; S3 reads S1 and S2.
        wb.set_value(s0, c("A1"), n(1.0));
        wb.set_formula(s1, c("A1"), "=S0!A1+1").unwrap();
        wb.set_formula(s2, c("A1"), "=S0!A1+2").unwrap();
        wb.set_formula(s3, c("A1"), "=S1!A1+S2!A1").unwrap();
        let levels = wb.sheet_levels();
        assert_eq!(levels, vec![vec![s0], vec![s1, s2], vec![s3]]);
        let evaluated = wb.recalculate(RecalcMode::Serial);
        assert_eq!(evaluated, 3);
        assert_eq!(wb.value(s3, c("A1")), n(5.0));
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
        // A (id 0) only *reads* the B↔C cycle; the cell-level graph is
        // acyclic, so A must still settle correctly: the scheduler places
        // the condensation level of {B, C} before A despite A's lower id.
        let mut wb = Workbook::with_taco();
        let a = wb.add_sheet("A").unwrap();
        let b = wb.add_sheet("B").unwrap();
        let c_id = wb.add_sheet("C").unwrap();
        wb.set_formula(a, c("A1"), "=B!A1*10").unwrap();
        wb.set_value(b, c("B1"), n(5.0));
        wb.set_formula(b, c("A1"), "=B1+C!B1").unwrap();
        wb.set_formula(c_id, c("A1"), "=B!B1").unwrap();
        assert_eq!(wb.sheet_levels(), vec![vec![b], vec![c_id], vec![a]]);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(a, c("A1")), n(50.0));
    }

    #[test]
    fn levels_are_the_longest_paths_of_the_sheet_condensation() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=8usize);
            let mut wb = Workbook::with_taco();
            for s in 0..n {
                wb.add_sheet(&format!("S{s}")).unwrap();
            }
            // reads[to][from]: a formula on `to` reads sheet `from`.
            let mut reads = vec![vec![false; n]; n];
            for _ in 0..rng.gen_range(0..=2 * n) {
                let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if from != to {
                    reads[to][from] = true;
                    let cell = Cell::new(1 + from as u32, 1);
                    wb.set_formula(SheetId(to), cell, &format!("=S{from}!A1+1")).unwrap();
                }
            }
            // The oracle: mutual reachability, by closure.
            let mut reach = vec![vec![false; n]; n];
            for (to, row) in reads.iter().enumerate() {
                for (from, &read) in row.iter().enumerate() {
                    reach[from][to] = read || from == to;
                }
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        reach[i][j] |= reach[i][k] && reach[k][j];
                    }
                }
            }
            let scc = |s: usize| (0..n).filter(|&t| reach[s][t] && reach[t][s]).collect::<Vec<_>>();

            let levels = wb.sheet_levels();
            assert!(levels.iter().all(|l| !l.is_empty()), "seed {seed}: {levels:?}");
            let mut level = vec![usize::MAX; n];
            for (i, sheets) in levels.iter().enumerate() {
                for s in sheets {
                    assert_eq!(level[s.0], usize::MAX, "seed {seed}: {s:?} twice");
                    level[s.0] = i;
                }
            }
            let top = |s: usize| scc(s).into_iter().map(|t| level[t]).max().unwrap();
            for s in 0..n {
                for from in (0..n).filter(|&from| reads[s][from]) {
                    assert!(
                        level[from] < level[s] || scc(s).contains(&from),
                        "seed {seed}: S{from} → S{s} in {levels:?}"
                    );
                }
                // A k-sheet component is k consecutive levels, one member
                // each, in id order; its first starts one past the last
                // level of a component its members read, the latest such,
                // or at 0.
                let members = scc(s);
                let rank = members.iter().position(|&t| t == s).unwrap();
                let want = if rank > 0 {
                    level[members[rank - 1]] + 1
                } else {
                    let read = |p: usize| members.iter().any(|&m| reads[m][p]);
                    let outside = (0..n).filter(|&p| read(p) && !members.contains(&p));
                    outside.map(|p| top(p) + 1).max().unwrap_or(0)
                };
                assert_eq!(level[s], want, "seed {seed}: S{s} in {levels:?}");
            }
        }
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
        let evaluated = wb.recalc_demand(s, r("A1:B4"), RecalcMode::Serial).unwrap();
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
        let evaluated = wb.recalc_demand(summary, r("B1:B1"), RecalcMode::Serial).unwrap();
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
        let evaluated = wb.recalc_demand(summary, r("A1:B4"), RecalcMode::Serial).unwrap();
        assert_eq!(evaluated, 0);
        assert_eq!(wb.value(summary, c("B1")), n(20.0));
    }

    #[test]
    fn demand_recalc_rejects_unknown_sheets() {
        let mut wb = Workbook::with_taco();
        wb.add_sheet("Only").unwrap();
        let err = wb.recalc_demand(SheetId(3), r("A1:B2"), RecalcMode::Serial);
        assert!(matches!(err, Err(WorkbookError::NoSuchSheet(3))));
    }

    /// Neighbour lists the sheets' schedulers built since the last call.
    fn lists_built(wb: &Workbook) -> u64 {
        wb.sheets.iter().map(|s| s.engine.nbr_lists.replace(0)).sum()
    }

    /// The (run, interval) nodes the last pass's cells make: maximal
    /// vertical stretches of evaluated cells of one run, on every sheet.
    fn stretches(wb: &Workbook) -> u64 {
        let mut nodes = 0;
        for s in &wb.sheets {
            let mut above: Option<(Cell, &Arc<Run>)> = None;
            for &cell in s.engine.last_evaluated() {
                let run = s.engine.run_at(cell).expect("evaluated cells are formulas");
                let joins = above.is_some_and(|(up, of)| {
                    up.col == cell.col && up.row + 1 == cell.row && Arc::ptr_eq(of, run)
                });
                nodes += u64::from(!joins);
                above = Some((cell, run));
            }
        }
        nodes
    }

    /// The nodes the sheets' schedulers made in the last pass.
    fn nodes_made(wb: &Workbook) -> u64 {
        wb.sheets.iter().map(|s| s.engine.nodes_made() as u64).sum()
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
            let needed = wb.recalc_demand(id, viewport, RecalcMode::Serial).unwrap();
            assert!(needed > 0 && needed < dirty / 2, "{}: {needed} of {dirty}", params.name);
            let (lists, nodes) = (lists_built(&wb), nodes_made(&wb));
            assert_eq!(lists, nodes, "{}", params.name);
            assert!(stretches(&wb) <= nodes && nodes < needed as u64, "{}", params.name);
            // Nothing in it is dirty now, whatever else is.
            assert_eq!(wb.recalc_demand(id, viewport, RecalcMode::Serial), Ok(0));
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
