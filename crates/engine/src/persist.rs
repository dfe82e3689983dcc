//! Workbook persistence: snapshots, WAL-backed editing, and autosave.
//!
//! The division of labour with [`taco_store`]:
//!
//! - `taco_store` owns the bytes — codecs, the sectioned container, the
//!   WAL framing — and works on plain [`WorkbookImage`] data;
//! - this module converts live [`Workbook`]s to and from images
//!   ([`Workbook::save`] / [`Workbook::open`]), replays [`EditRecord`]s
//!   through [`Workbook::apply_batch`] — the path live edits take, each
//!   run of records between added sheets one batch, so the graph is
//!   maintained exactly as it was live and the dirty cells are what
//!   applying the records one by one leaves, for one dependents query
//!   per run — and owns the autosave policy:
//!   [`PersistentWorkbook::log_batch`] appends every applied record to
//!   the sidecar WAL, fsyncs at configurable points, and folds the log
//!   back into a fresh snapshot once it crosses the compaction
//!   threshold.
//!
//! What is stored vs derived: what was typed — pure values and formula
//! *source* text — with each formula's cached value, and the dirty sets,
//! are stored; everything that follows from them is derived on open. The
//! formulas are re-parsed into runs, and the whole compressed graph, each
//! sheet's band and the reads between sheets alike, is derived from the
//! runs in one pass: one edge per read of each column stretch of a run,
//! then one STR bulk load (`Workbook::derive_graph`). No fact is stored
//! twice, and a reopen gets its graph from one source.

use crate::sheet::CellContent;
use crate::view::SheetView;
use crate::workbook::{SheetId, Workbook};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use taco_core::MAX_BANDS;
use taco_grid::Cell;
use taco_store::{
    std_vfs, write_workbook_file_with, CellRecord, EditRecord, ReplayMode, SheetImage, StoreError,
    StoreReader, Vfs, WalReader, WalReplay, WalWriter, WorkbookImage,
};

/// The sidecar WAL path for a snapshot at `path`: `<path>.wal`.
pub fn wal_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// Captures one sheet as an image named `name` — the single conversion
/// point between live cell contents and persistent records.
fn sheet_image(sheet: SheetView<'_>, name: String) -> SheetImage {
    // `cells()` is in `(col, row)` order, the order the image wants.
    let cells = sheet
        .cells()
        .map(|(cell, content)| {
            let value = content.value().clone();
            let rec = match content.formula(cell) {
                None => CellRecord::Pure(value),
                Some(formula) => CellRecord::Formula { src: formula.to_string(), value },
            };
            (cell, rec)
        })
        .collect();
    let dirty = sheet.store().dirty().collect();
    SheetImage { name, cells, dirty }
}

impl Workbook {
    /// Captures the workbook as a plain-data image (see the module docs
    /// for what is stored vs derived).
    pub fn to_image(&self) -> WorkbookImage {
        let sheets = (0..self.sheet_count())
            .map(|i| {
                let id = SheetId(i);
                sheet_image(self.sheet(id), self.sheet_name(id).to_string())
            })
            .collect();
        // Image epoch 0: the persistence owner (`save`, compaction)
        // stamps the real replay epoch before the image hits the disk.
        WorkbookImage { sheets, epoch: 0, clock: self.clock() }
    }

    /// Reconstructs a workbook from an image: every sheet is added, the
    /// way a live `AddSheet` adds one — with no cell yet, its rebind walks
    /// nothing — then every sheet's cells are restored, formula sources
    /// re-parsed into runs and dirty sets re-marked, and last the graph is
    /// derived from the runs of every sheet at once, so that each
    /// formula's qualified reads go to whichever sheets they name.
    pub fn from_image(image: WorkbookImage) -> Result<Self, StoreError> {
        let invalid = |e: &dyn std::fmt::Display| StoreError::InvalidRecord(e.to_string());
        if image.sheets.len() > MAX_BANDS as usize {
            let e = crate::WorkbookError::TooManySheets(MAX_BANDS as usize);
            return Err(invalid(&e));
        }
        let mut wb = Workbook::new();
        // Before any sheet is added, so each starts on the stored clock;
        // the image's dirty sets already hold what it makes dirty.
        wb.set_clock(image.clock);
        for sheet in &image.sheets {
            wb.add_sheet(&sheet.name).map_err(|e| invalid(&e))?;
        }
        for (sid, sheet) in image.sheets.into_iter().enumerate() {
            wb.restore_sheet(sid, sheet.cells, sheet.dirty)?;
        }
        wb.derive_graph();
        Ok(wb)
    }

    /// Puts a stored sheet's cells and dirty marks into sheet `sid`; the
    /// dirty marks are the image's, nothing more. Records arrive in
    /// `(col, row)` order: a formula goes back in the run of the cell
    /// above (past blank rows) or to the left if it is that run's next
    /// cell, and is re-parsed if not.
    fn restore_sheet(
        &mut self,
        sid: usize,
        cells: Vec<(Cell, CellRecord)>,
        dirty: Vec<Cell>,
    ) -> Result<(), StoreError> {
        for (cell, rec) in cells {
            let content = match rec {
                CellRecord::Pure(v) => CellContent::pure(v),
                CellRecord::Formula { src, value } => {
                    let run = self
                        .engine_mut(sid)
                        .run_for(cell, &src)
                        .map_err(|e| StoreError::InvalidRecord(e.to_string()))?;
                    CellContent::formula_cell(run, value)
                }
            };
            self.engine_mut(sid).put_cell(cell, content);
        }
        self.engine_mut(sid).mark_cells_dirty(&dirty);
        Ok(())
    }

    /// Writes the workbook snapshot to `path` and empties any sidecar WAL
    /// (its edits are folded into the snapshot from this point on). The
    /// snapshot's replay epoch is bumped past any snapshot it replaces,
    /// so stale WAL records a crash leaves behind are skipped on open.
    ///
    /// Do not call while a [`PersistentWorkbook`] holds the same path —
    /// use [`PersistentWorkbook::compact`], which keeps its WAL handle
    /// coherent.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        self.save_with(std_vfs(), path)
    }

    /// [`Workbook::save`] through an explicit [`Vfs`].
    pub fn save_with(&self, vfs: Arc<dyn Vfs>, path: &Path) -> Result<(), StoreError> {
        // Epoch bump: every record in the sidecar WAL was stamped with
        // the *previous* snapshot's epoch. Writing the new snapshot one
        // epoch higher makes those records skippable even if the crash
        // window between the snapshot rename and the WAL truncation
        // below is hit.
        let epoch = match StoreReader::open_with(vfs.as_ref(), path) {
            Ok(reader) => reader.epoch() + 1,
            Err(_) => 1,
        };
        self.write_snapshot(vfs.as_ref(), path, epoch)?;
        let wal = wal_path(path);
        if vfs.exists(&wal) {
            WalWriter::create_with(vfs, &wal)?;
        }
        Ok(())
    }

    /// Opens a snapshot and replays its sidecar WAL, if one exists. A
    /// torn final WAL record (crash mid-append) is dropped — that edit
    /// never committed; records stamped with an epoch older than the
    /// snapshot's were already folded in by a compaction and are
    /// skipped; corruption elsewhere is a typed error.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Self::open_with(std_vfs(), path)
    }

    /// [`Workbook::open`] through an explicit [`Vfs`].
    pub fn open_with(vfs: Arc<dyn Vfs>, path: &Path) -> Result<Self, StoreError> {
        let (mut wb, epoch) = Self::open_snapshot(vfs.as_ref(), path)?;
        let wal = wal_path(path);
        if vfs.exists(&wal) {
            let log = WalReader::load_with(vfs.as_ref(), &wal, ReplayMode::TolerateTear)?;
            wb.replay(&log, epoch)?;
        }
        Ok(wb)
    }

    /// Writes the workbook as the snapshot at `path`, stamped with replay
    /// epoch `epoch`.
    fn write_snapshot(&self, vfs: &dyn Vfs, path: &Path, epoch: u64) -> Result<(), StoreError> {
        let mut image = self.to_image();
        image.epoch = epoch;
        write_workbook_file_with(vfs, path, &image)
    }

    /// Reads the snapshot at `path`: the workbook and its replay epoch.
    fn open_snapshot(vfs: &dyn Vfs, path: &Path) -> Result<(Self, u64), StoreError> {
        let reader = StoreReader::open_with(vfs, path)?;
        Ok((Self::from_image(reader.read_all()?)?, reader.epoch()))
    }

    /// Replays `log` over a workbook opened from a snapshot at `epoch`,
    /// through the batch path ([`Workbook::apply_batch`], minus the
    /// receipt): each run of records between `AddSheet` records is one
    /// batch, so the whole log costs one dependents query per sheet per
    /// run, not one per record, and leaves what applying the records one
    /// by one would (see DESIGN.md, "One dependents query per batch").
    ///
    /// Records stamped with an older epoch are skipped: a crash between a
    /// snapshot write and the WAL truncation ([`Self::save`],
    /// [`PersistentWorkbook::compact`]) leaves already-folded edits in the
    /// log behind a snapshot one epoch higher. An `AddSheet` whose name
    /// already exists is a no-op, for a snapshot written *without* a
    /// stamp over a live log (`taco_store::write_workbook_file` of a bare
    /// [`Workbook::to_image`], epoch 0): every record then replays, and
    /// `AddSheet` is the one a second application refuses.
    fn replay(&mut self, log: &WalReplay, epoch: u64) -> Result<(), StoreError> {
        // Where the batch being gathered starts: it ends at the next
        // record that is folded or adds a sheet.
        let mut start = 0;
        for (i, (rec, rec_epoch)) in log.stamped().enumerate() {
            let folded = rec_epoch < epoch;
            if !folded && !matches!(rec, EditRecord::AddSheet { .. }) {
                continue;
            }
            self.replay_batch(&log.records[start..i])?;
            start = i + 1;
            let known_sheet =
                matches!(rec, EditRecord::AddSheet { name } if self.sheet_id(name).is_some());
            if !folded && !known_sheet {
                self.apply_edit(rec)?;
            }
        }
        self.replay_batch(&log.records[start..])
    }

    /// Applies one batch of a replay.
    fn replay_batch(&mut self, records: &[EditRecord]) -> Result<(), StoreError> {
        if records.is_empty() {
            return Ok(());
        }
        match self.apply_records(records, false) {
            (_, None) => Ok(()),
            (_, Some(e)) => Err(e.error),
        }
    }
}

/// Autosave policy for a [`PersistentWorkbook`].
#[derive(Debug, Clone, Copy)]
pub struct PersistOptions {
    /// Fold the WAL into a fresh snapshot once it holds this many
    /// records (`0` disables compaction).
    pub compact_after_records: u64,
    /// Fsync the WAL every `n` appended records (`1` = every edit is an
    /// fsync point; `0` leaves syncing to [`PersistentWorkbook::sync`]
    /// and compaction).
    pub sync_every_records: u64,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions { compact_after_records: 4096, sync_every_records: 1 }
    }
}

/// A workbook with a durable home: every edit goes through the WAL, and
/// the log periodically folds into a fresh snapshot (compaction). Dropped
/// handles lose nothing — reopening replays the WAL over the snapshot.
pub struct PersistentWorkbook {
    wb: Workbook,
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    wal: WalWriter,
    /// The replay epoch of the snapshot on disk; WAL records are stamped
    /// with it, and compaction bumps it (see [`PersistentWorkbook::compact`]).
    epoch: u64,
    opts: PersistOptions,
    appended_since_sync: u64,
    /// Whether the open-time replay truncated a torn WAL tail; folded
    /// into `taco_wal_torn_recoveries_total` when obs is attached.
    replay_torn: bool,
}

impl PersistentWorkbook {
    /// Writes `wb` as a fresh snapshot at `path` (plus an empty sidecar
    /// WAL) and takes ownership of it.
    pub fn create(path: &Path, wb: Workbook, opts: PersistOptions) -> Result<Self, StoreError> {
        Self::create_with(std_vfs(), path, wb, opts)
    }

    /// [`PersistentWorkbook::create`] through an explicit [`Vfs`] —
    /// the fault-injection entry point ([`taco_store::FaultVfs`]).
    pub fn create_with(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        wb: Workbook,
        opts: PersistOptions,
    ) -> Result<Self, StoreError> {
        wb.write_snapshot(vfs.as_ref(), path, 1)?;
        let mut wal = WalWriter::create_with(Arc::clone(&vfs), &wal_path(path))?;
        wal.set_epoch(1);
        Ok(PersistentWorkbook {
            wb,
            vfs,
            path: path.to_path_buf(),
            wal,
            epoch: 1,
            opts,
            appended_since_sync: 0,
            replay_torn: false,
        })
    }

    /// Opens snapshot + WAL at `path`, replaying the log's clean prefix
    /// (a torn tail from a crash is truncated away, so the next append
    /// extends a valid log). Records stamped with an epoch older than
    /// the snapshot's were already folded in by a compaction whose WAL
    /// truncation never hit the disk; they are skipped.
    pub fn open(path: &Path, opts: PersistOptions) -> Result<Self, StoreError> {
        Self::open_with(std_vfs(), path, opts)
    }

    /// [`PersistentWorkbook::open`] through an explicit [`Vfs`].
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        opts: PersistOptions,
    ) -> Result<Self, StoreError> {
        let (mut wb, epoch) = Workbook::open_snapshot(vfs.as_ref(), path)?;
        let (mut wal, replay) = WalWriter::open_append_with(Arc::clone(&vfs), &wal_path(path))?;
        wb.replay(&replay, epoch)?;
        wal.set_epoch(epoch);
        Ok(PersistentWorkbook {
            wb,
            vfs,
            path: path.to_path_buf(),
            wal,
            epoch,
            opts,
            appended_since_sync: 0,
            replay_torn: replay.torn.is_some(),
        })
    }

    /// Attaches workbook, WAL, and compaction metrics to an obs hub: the
    /// engine records recalculation metrics (labeled `book="<label>"`),
    /// the WAL records append/fsync latency and volume, and compactions
    /// are counted and timed. If the opening replay truncated a torn WAL
    /// tail, that recovery is folded into
    /// `taco_wal_torn_recoveries_total` here.
    pub fn attach_obs(&mut self, obs: &taco_obs::Obs, label: &str) {
        self.wb.attach_obs(obs, label);
        let walobs = taco_store::WalObs::new(obs);
        if self.replay_torn {
            walobs.torn_recoveries.inc();
            self.replay_torn = false;
        }
        self.wal.set_obs(walobs);
    }

    /// Read access to the live workbook.
    pub fn workbook(&self) -> &Workbook {
        &self.wb
    }

    /// Mutable access to the live workbook for **non-edit** operations
    /// (recalculation is already exposed as
    /// [`PersistentWorkbook::recalculate`]). Edits applied through this
    /// reference bypass the WAL and will not survive a reopen — route
    /// them through [`PersistentWorkbook::log_edit`] /
    /// [`PersistentWorkbook::log_batch`] instead — and neither will a
    /// clock set through it: use [`PersistentWorkbook::set_clock`].
    pub fn workbook_mut(&mut self) -> &mut Workbook {
        &mut self.wb
    }

    /// Injects a volatile-function clock ([`Workbook::set_clock`]) and
    /// makes it durable: no WAL record carries a clock, the snapshot
    /// does, so this compacts. Returns the number of volatile formula
    /// cells found. An `Err` is a compaction I/O failure and means what
    /// [`BatchStage::Log`] means: the live workbook runs on the new clock
    /// but the disk does not have it, so the caller must stop logging or
    /// compact again.
    ///
    /// [`BatchStage::Log`]: crate::workbook::BatchStage::Log
    pub fn set_clock(&mut self, clock: taco_formula::EvalClock) -> Result<usize, StoreError> {
        let volatile = self.wb.set_clock(clock);
        self.compact()?;
        Ok(volatile)
    }

    /// Applies and durably logs one edit: the one-record
    /// [`Self::log_batch`].
    pub fn log_edit(&mut self, rec: &EditRecord) -> Result<(), StoreError> {
        self.log_batch(std::slice::from_ref(rec)).map(drop).map_err(|e| e.error)
    }

    /// Applies a run of edits with one dirty-propagation pass
    /// ([`Workbook::apply_batch`]) and appends every applied record to the
    /// WAL, observing the fsync and compaction policy **once per batch**
    /// instead of once per record — the durability analogue of write
    /// coalescing, and the autosave hook: may fsync (per
    /// `sync_every_records`) and may compact (per
    /// `compact_after_records`).
    ///
    /// Failures carry a [`BatchStage`]: `Apply` means the prefix before
    /// [`BatchError::index`] applied and logged and nothing else
    /// happened; `Log` means the live workbook is **ahead of the log** —
    /// every record that applied is live in memory, but the WAL holds
    /// only the records before `index` (an append or fsync/compaction
    /// I/O failure). On `Log` the caller must not re-apply or keep
    /// appending, only stop logging or compact (which rewrites the
    /// snapshot from the live state and resets the log).
    ///
    /// [`BatchError::index`]: crate::workbook::BatchError
    /// [`BatchStage`]: crate::workbook::BatchStage
    pub fn log_batch(
        &mut self,
        records: &[EditRecord],
    ) -> Result<crate::workbook::WorkbookReceipt, crate::workbook::BatchError> {
        use crate::workbook::{BatchError, BatchStage};
        let result = self.wb.apply_batch(records);
        let applied = match &result {
            Ok(_) => records.len(),
            Err(e) => e.index,
        };
        for (index, rec) in records[..applied].iter().enumerate() {
            self.wal.append(rec).map_err(|error| BatchError {
                index,
                stage: BatchStage::Log,
                error,
            })?;
            self.appended_since_sync += 1;
        }
        let policy_err = |error| BatchError { index: applied, stage: BatchStage::Log, error };
        if self.opts.sync_every_records > 0
            && self.appended_since_sync >= self.opts.sync_every_records
        {
            self.sync().map_err(policy_err)?;
        }
        if self.opts.compact_after_records > 0
            && self.wal.record_count() >= self.opts.compact_after_records
        {
            self.compact().map_err(policy_err)?;
        }
        result
    }

    /// Recalculates dirty cells (derived state — not logged; a reopened
    /// workbook re-derives the same values from the replayed edits).
    pub fn recalculate(&mut self) -> usize {
        self.wb.recalculate(crate::workbook::RecalcMode::Serial)
    }

    /// An explicit fsync point for the WAL.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync()?;
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Folds the WAL into a fresh snapshot: writes the container one
    /// replay epoch higher, then truncates the log. Crash-ordering note:
    /// the snapshot is fully durable (file + directory fsync) *before*
    /// the WAL resets, so a crash between the two steps leaves records
    /// stamped with the old epoch behind a snapshot at the new epoch —
    /// reopen skips every one of them, including structural edits,
    /// which a naive double replay would shift twice.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let started = self.wal.now_ns();
        self.wb.write_snapshot(self.vfs.as_ref(), &self.path, self.epoch + 1)?;
        self.epoch += 1;
        self.wal.set_epoch(self.epoch);
        self.wal.reset(started)?;
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Records currently in the WAL (since the last compaction).
    pub fn wal_record_count(&self) -> u64 {
        self.wal.record_count()
    }

    /// The replay epoch of the snapshot on disk (bumped by each
    /// compaction).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workbook::RecalcMode;
    use taco_formula::Value;
    use taco_grid::{Cell, Range};

    fn c(s: &str) -> Cell {
        Cell::parse_a1(s).unwrap()
    }

    fn n(v: f64) -> Value {
        Value::Number(v)
    }

    fn set(cell: Cell, v: f64) -> EditRecord {
        EditRecord::SetValue { sheet: 0, cell, value: n(v) }
    }

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("taco_persist_{tag}_{}.taco", std::process::id()))
    }

    fn two_sheet_book() -> Workbook {
        let mut wb = Workbook::with_taco();
        let data = wb.add_sheet("Data").unwrap();
        let summary = wb.add_sheet("My Summary").unwrap();
        for row in 1..=6u32 {
            wb.set_value(data, Cell::new(1, row), n(f64::from(row)));
        }
        wb.set_formula(data, c("B1"), "=A1*2").unwrap();
        wb.autofill(data, c("B1"), Range::parse_a1("B2:B6").unwrap()).unwrap();
        wb.set_formula(summary, c("A1"), "=SUM(Data!B1:B6)").unwrap();
        wb.set_formula(summary, c("B1"), "=A1+'My Summary'!A1").unwrap();
        wb
    }

    #[test]
    fn save_open_round_trips_values_and_queries() {
        let mut wb = two_sheet_book();
        wb.recalculate(RecalcMode::Serial);
        let path = temp("roundtrip");
        wb.save(&path).unwrap();
        let mut back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let (data, summary) = (SheetId(0), SheetId(1));
        assert_eq!(back.sheet_name(data), "Data");
        assert_eq!(back.value(summary, c("A1")), n(42.0));
        assert_eq!(back.cross_edge_count(), wb.cross_edge_count());
        assert_eq!(back.sheet(data).graph().stats(), wb.sheet(data).graph().stats());
        assert_eq!(
            back.find_dependents(data, Range::parse_a1("A3").unwrap()),
            wb.find_dependents(data, Range::parse_a1("A3").unwrap())
        );
        // Edits keep working and the derived graph keeps compressing.
        let receipt = back.set_value(data, c("A3"), n(100.0));
        assert_eq!(receipt.dirty, wb.set_value(data, c("A3"), n(100.0)).dirty);
        back.recalculate(RecalcMode::Serial);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(back.value(summary, c("B1")), wb.value(summary, c("B1")));
    }

    #[test]
    fn dirty_set_survives_reopen() {
        let mut wb = two_sheet_book();
        wb.recalculate(RecalcMode::Serial);
        wb.set_value(SheetId(0), c("A1"), n(50.0)); // leaves dirtiness behind
        let path = temp("dirty");
        wb.save(&path).unwrap();
        let mut back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.dirty_count(), wb.dirty_count());
        assert!(back.dirty_count() > 0);
        back.recalculate(RecalcMode::Serial);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(back.value(SheetId(1), c("A1")), wb.value(SheetId(1), c("A1")));
    }

    #[test]
    fn a_value_over_a_dirty_formula_is_clean_live_reopened_and_moved() {
        let mut wb = two_sheet_book();
        wb.recalculate(RecalcMode::Serial);
        let data = SheetId(0);
        wb.set_formula(data, c("D1"), "=A1+1").unwrap();
        wb.set_formula(data, c("D2"), "=A2+1").unwrap();
        wb.set_value(data, c("D1"), n(5.0));
        assert_eq!(wb.dirty_count(), 1, "D2 alone");
        let path = temp("value_over_dirty");
        wb.save(&path).unwrap();
        let back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.dirty_count(), wb.dirty_count());
        wb.insert_rows(data, 10, 2);
        assert_eq!(wb.dirty_count(), 1, "rows inserted below move nothing");
        assert_eq!(wb.recalculate(RecalcMode::Serial), 1);
        assert_eq!((wb.value(data, c("D1")), wb.value(data, c("D2"))), (n(5.0), n(3.0)));
    }

    #[test]
    fn wal_replay_matches_live_edits() {
        let path = temp("wal");
        let wb = two_sheet_book();
        let mut live = two_sheet_book();
        let mut pers = PersistentWorkbook::create(
            &path,
            wb,
            PersistOptions { compact_after_records: 0, sync_every_records: 1 },
        )
        .unwrap();
        let edits = [
            EditRecord::SetValue { sheet: 0, cell: c("A2"), value: n(20.0) },
            EditRecord::SetFormula { sheet: 1, cell: c("C1"), src: "SUM(Data!A1:A6)".into() },
            EditRecord::AddSheet { name: "Late".into() },
            EditRecord::SetValue { sheet: 2, cell: c("A1"), value: n(7.0) },
            EditRecord::ClearRange { sheet: 0, range: Range::parse_a1("B5:B6").unwrap() },
        ];
        for e in &edits {
            pers.log_edit(e).unwrap();
            live.apply_edit(e).unwrap();
        }
        drop(pers); // no compaction: the snapshot on disk is stale
        let mut reopened = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();

        assert_eq!(reopened.sheet_count(), live.sheet_count());
        assert_eq!(reopened.dirty_count(), live.dirty_count());
        reopened.recalculate(RecalcMode::Serial);
        live.recalculate(RecalcMode::Serial);
        for i in 0..live.sheet_count() {
            let id = SheetId(i);
            assert_eq!(
                reopened.sheet(id).graph().stats(),
                live.sheet(id).graph().stats(),
                "sheet {i} graph stats"
            );
            for (cell, content) in live.sheet(id).cells() {
                assert_eq!(reopened.value(id, cell), *content.value(), "sheet {i} {cell}");
            }
        }
        let probe = Range::parse_a1("A1:A6").unwrap();
        assert_eq!(
            reopened.find_dependents(SheetId(0), probe),
            live.find_dependents(SheetId(0), probe)
        );
    }

    #[test]
    fn compaction_folds_wal_into_snapshot() {
        let path = temp("compact");
        let mut pers = PersistentWorkbook::create(
            &path,
            two_sheet_book(),
            PersistOptions { compact_after_records: 3, sync_every_records: 1 },
        )
        .unwrap();
        for i in 0..10u32 {
            pers.log_edit(&set(Cell::new(4, i + 1), f64::from(i))).unwrap();
        }
        // 10 edits with threshold 3: the WAL folded at least twice and
        // never grew past the threshold.
        assert!(pers.wal_record_count() < 3);
        drop(pers);
        let back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
        assert_eq!(back.value(SheetId(0), Cell::new(4, 10)), n(9.0));
    }

    #[test]
    fn reopen_after_simulated_crash_drops_only_the_torn_edit() {
        let path = temp("crash");
        let mut pers = PersistentWorkbook::create(
            &path,
            two_sheet_book(),
            PersistOptions { compact_after_records: 0, sync_every_records: 1 },
        )
        .unwrap();
        for i in 0..5u32 {
            pers.log_edit(&set(Cell::new(5, i + 1), f64::from(i) * 10.0)).unwrap();
        }
        drop(pers);
        // Crash simulation: chop the WAL mid-record.
        let wal = wal_path(&path);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();
        let back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&wal).ok();
        assert_eq!(back.value(SheetId(0), Cell::new(5, 4)), n(30.0));
        // The torn final edit never committed.
        assert_eq!(back.value(SheetId(0), Cell::new(5, 5)), Value::Empty);
    }

    #[test]
    fn engine_save_open_round_trips() {
        let mut wb = Workbook::one_sheet();
        let s = SheetId(0);
        wb.set_value(s, c("A1"), n(3.0));
        wb.set_formula(s, c("B1"), "=A1*A1").unwrap();
        wb.recalculate(RecalcMode::Serial);
        let path = temp("engine");
        wb.save(&path).unwrap();
        let mut back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.value(s, c("B1")), n(9.0));
        assert_eq!(back.sheet(s).graph().num_edges(), wb.sheet(s).graph().num_edges());
        back.set_value(s, c("A1"), n(4.0));
        back.recalculate(RecalcMode::Serial);
        assert_eq!(back.value(s, c("B1")), n(16.0));
    }

    #[test]
    fn engine_reopen_keeps_self_qualified_references_local() {
        // A sheet reopened must keep its name: `Data!A1` inside `Data`
        // reads locally, not `#REF!`.
        let mut wb = Workbook::with_taco();
        let data = wb.add_sheet("Data").unwrap();
        wb.set_value(data, c("A1"), n(5.0));
        wb.set_formula(data, c("B1"), "=Data!A1*2").unwrap();
        wb.recalculate(RecalcMode::Serial);
        let path = temp("selfqual");
        wb.save(&path).unwrap();
        let mut back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.sheet(data).sheet_name(), "Data");
        assert_eq!(back.cross_edge_count(), 0, "a self-qualified ref is no cross edge");
        back.set_value(data, c("A1"), n(7.0));
        back.recalculate(RecalcMode::Serial);
        assert_eq!(back.value(data, c("B1")), n(14.0), "self-qualified ref must stay local");
    }

    #[test]
    fn forward_referenced_sheet_restores_without_duplicate_edges() {
        // A!B1 references "Late" before Late exists; adding Late rebinds
        // (one cross edge, one dirty cell). The open must come back with
        // exactly the same counts — the read derived once, no cell marked
        // anew — and re-saving must be a byte-level fixed point.
        let mut wb = Workbook::with_taco();
        let a = wb.add_sheet("A").unwrap();
        wb.set_value(a, c("C1"), n(2.0));
        wb.set_formula(a, c("B1"), "=Late!A1+C1").unwrap();
        wb.recalculate(RecalcMode::Serial);
        let late = wb.add_sheet("Late").unwrap();
        wb.set_value(late, c("A1"), n(5.0));
        assert_eq!(wb.cross_edge_count(), 1);

        let bytes = taco_store::encode_workbook(&wb.to_image()).unwrap();
        let mut back = Workbook::from_image(
            taco_store::StoreReader::from_bytes(bytes.clone()).unwrap().read_all().unwrap(),
        )
        .unwrap();
        assert_eq!(back.cross_edge_count(), 1, "rebind must not duplicate the cross edge");
        assert_eq!(back.dirty_count(), wb.dirty_count(), "rebind must not re-dirty cells");
        assert_eq!(
            taco_store::encode_workbook(&back.to_image()).unwrap(),
            bytes,
            "save → open → save must be a fixed point"
        );
        back.recalculate(RecalcMode::Serial);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(back.value(a, c("B1")), wb.value(a, c("B1")));
    }

    #[test]
    fn stale_wal_replays_idempotently_over_a_fresh_snapshot() {
        // Crash window in save/compact: the snapshot already contains the
        // WAL's edits, but the log was not yet truncated. Reopen must
        // tolerate replaying them — including AddSheet, which the normal
        // edit path rejects on a second application.
        let path = temp("stalewal");
        let mut pers = PersistentWorkbook::create(
            &path,
            two_sheet_book(),
            PersistOptions { compact_after_records: 0, sync_every_records: 1 },
        )
        .unwrap();
        pers.log_edit(&EditRecord::AddSheet { name: "Late".into() }).unwrap();
        pers.log_edit(&EditRecord::SetValue { sheet: 2, cell: c("A1"), value: n(7.0) }).unwrap();
        // Simulate the crash: snapshot rewritten, WAL left untruncated.
        taco_store::write_workbook_file(&path, &pers.workbook().to_image()).unwrap();
        let expected_sheets = pers.workbook().sheet_count();
        drop(pers);
        let wb = Workbook::open(&path).expect("stale WAL must replay idempotently");
        assert_eq!(wb.sheet_count(), expected_sheets);
        assert_eq!(wb.value(SheetId(2), c("A1")), n(7.0));
        let pers = PersistentWorkbook::open(&path, PersistOptions::default())
            .expect("persistent open tolerates the stale WAL too");
        assert_eq!(pers.workbook().sheet_count(), expected_sheets);
        drop(pers);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
    }

    #[test]
    fn compact_crash_window_cannot_double_apply_structural_edits() {
        use taco_core::StructuralOp;
        use taco_store::FaultVfs;
        // The epoch protocol's whole reason to exist: a crash after the
        // compaction snapshot is durable but before the WAL truncates
        // leaves structural records in the log. Without epochs, reopen
        // would shift rows a second time.
        let fv = FaultVfs::pristine(11);
        let vfs: Arc<dyn Vfs> = Arc::new(fv.clone());
        let path = PathBuf::from("book.taco");
        let mut pers = PersistentWorkbook::create_with(
            Arc::clone(&vfs),
            &path,
            two_sheet_book(),
            PersistOptions { compact_after_records: 0, sync_every_records: 1 },
        )
        .unwrap();
        pers.log_edit(&set(c("A1"), 100.0)).unwrap();
        pers.log_edit(&EditRecord::Structural {
            sheet: 0,
            op: StructuralOp::InsertRows { at: 2, n: 3 },
        })
        .unwrap();
        // First half of `compact`: the snapshot lands on disk one epoch
        // up; the WAL "crashes" before its reset and keeps the records.
        let mut image = pers.workbook().to_image();
        image.epoch = pers.epoch() + 1;
        write_workbook_file_with(vfs.as_ref(), &path, &image).unwrap();
        let mut live = Workbook::from_image(pers.workbook().to_image()).unwrap();
        drop(pers);

        let back =
            PersistentWorkbook::open_with(Arc::clone(&vfs), &path, PersistOptions::default())
                .unwrap();
        assert_eq!(back.epoch(), 2);
        assert_eq!(back.wal_record_count(), 2, "stale records stay in the log, skipped");
        let mut reopened = Workbook::from_image(back.workbook().to_image()).unwrap();
        reopened.recalculate(RecalcMode::Serial);
        live.recalculate(RecalcMode::Serial);
        // A double-applied InsertRows would move A1's 100 down again.
        assert_eq!(reopened.value(SheetId(0), c("A1")), n(100.0));
        for (cell, content) in live.sheet(SheetId(0)).cells() {
            assert_eq!(reopened.value(SheetId(0), cell), *content.value(), "{cell}");
        }
    }

    #[test]
    fn save_replaces_an_existing_snapshot_atomically() {
        let path = temp("atomic");
        let wb = two_sheet_book();
        wb.save(&path).unwrap();
        let first = std::fs::read(&path).unwrap();
        let mut wb2 = two_sheet_book();
        wb2.set_value(SheetId(0), c("A1"), n(99.0));
        wb2.save(&path).unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_ne!(first, second, "snapshot must be replaced");
        // The temp sibling never lingers.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists(), "tmp file must be renamed away");
        let back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.value(SheetId(0), c("A1")), n(99.0));
    }

    #[test]
    fn structural_edits_survive_wal_replay() {
        use taco_core::StructuralOp;
        let path = temp("structwal");
        let mut live = two_sheet_book();
        let mut pers = PersistentWorkbook::create(
            &path,
            two_sheet_book(),
            PersistOptions { compact_after_records: 0, sync_every_records: 1 },
        )
        .unwrap();
        let edits = [
            // Shift the data down, edit a moved cell, then kill column A
            // (driving the summary's references through a rewrite and the
            // data sheet's own formulas to #REF!), then shift the summary.
            EditRecord::Structural { sheet: 0, op: StructuralOp::InsertRows { at: 2, n: 3 } },
            EditRecord::SetValue { sheet: 0, cell: c("A2"), value: n(20.0) },
            EditRecord::Structural { sheet: 0, op: StructuralOp::DeleteCols { at: 1, n: 1 } },
            EditRecord::Structural { sheet: 1, op: StructuralOp::InsertCols { at: 1, n: 2 } },
        ];
        for e in &edits {
            pers.log_edit(e).unwrap();
            live.apply_edit(e).unwrap();
        }
        drop(pers); // no compaction: replay does all the work
        let mut reopened = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();

        assert_eq!(reopened.dirty_count(), live.dirty_count());
        assert_eq!(reopened.cross_edge_count(), live.cross_edge_count());
        reopened.recalculate(RecalcMode::Serial);
        live.recalculate(RecalcMode::Serial);
        for i in 0..live.sheet_count() {
            let id = SheetId(i);
            assert_eq!(
                reopened.sheet(id).graph().stats(),
                live.sheet(id).graph().stats(),
                "sheet {i} graph stats"
            );
            for (cell, content) in live.sheet(id).cells() {
                assert_eq!(reopened.value(id, cell), *content.value(), "sheet {i} {cell}");
                assert_eq!(
                    reopened.formula_of(id, cell),
                    live.formula_of(id, cell),
                    "sheet {i} {cell} source text"
                );
            }
        }
    }

    #[test]
    fn ref_error_formulas_round_trip_through_snapshots() {
        use taco_core::StructuralOp;
        // A full-range delete leaves `#REF!` in stored formula source;
        // the snapshot restore path re-parses that source and must accept
        // it (and keep evaluating it to the reference error).
        let mut wb = two_sheet_book();
        wb.apply_structural(SheetId(0), StructuralOp::DeleteCols { at: 1, n: 1 });
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.formula_of(SheetId(0), c("A1")).as_deref(), Some("#REF!*2"));
        let path = temp("referr");
        wb.save(&path).unwrap();
        let mut back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.formula_of(SheetId(0), c("A1")).as_deref(), Some("#REF!*2"));
        back.recalculate(RecalcMode::Serial);
        assert_eq!(back.value(SheetId(0), c("A1")), wb.value(SheetId(0), c("A1")));
        assert_eq!(back.value(SheetId(1), c("A1")), wb.value(SheetId(1), c("A1")));
    }

    #[test]
    fn torn_structural_record_never_half_applies() {
        use taco_core::StructuralOp;
        let path = temp("structtorn");
        let mut pers = PersistentWorkbook::create(
            &path,
            two_sheet_book(),
            PersistOptions { compact_after_records: 0, sync_every_records: 1 },
        )
        .unwrap();
        pers.log_edit(&set(c("A1"), 100.0)).unwrap();
        pers.log_edit(&EditRecord::Structural {
            sheet: 0,
            op: StructuralOp::InsertRows { at: 1, n: 4 },
        })
        .unwrap();
        drop(pers);
        // Crash mid-append of the structural record: chop into its tail.
        let wal = wal_path(&path);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 2]).unwrap();
        let mut back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&wal).ok();
        // The value edit committed; the torn structural edit did not, so
        // nothing moved and no cross-sheet reference was rewritten.
        assert_eq!(back.value(SheetId(0), c("A1")), n(100.0));
        assert_eq!(back.formula_of(SheetId(1), c("A1")).as_deref(), Some("SUM(Data!B1:B6)"));
        back.recalculate(RecalcMode::Serial);
        assert_eq!(back.value(SheetId(1), c("A1")), n(240.0));
    }

    /// Dependents queries the workbook made so far.
    fn queries(wb: &Workbook) -> u64 {
        wb.dependents_queries
    }

    #[test]
    fn a_replay_marks_its_dependents_with_one_query_per_run() {
        for rows in [64u32, 256] {
            // Two sheets whose column A feeds three formulas a row.
            let mut wb = Workbook::new();
            for name in ["In", "Out"] {
                let id = wb.add_sheet(name).unwrap();
                for row in 1..=rows {
                    wb.set_value(id, Cell::new(1, row), n(1.0));
                    for j in 1..=3 {
                        wb.set_formula(id, Cell::new(1 + j, row), &format!("=A{row}*{j}")).unwrap();
                    }
                }
            }
            wb.recalculate(RecalcMode::Serial);
            // A log of a value into every input cell, the sheets taking
            // turns, a sheet added half way.
            let mut records: Vec<EditRecord> = (1..=rows)
                .flat_map(|row| {
                    let cell = Cell::new(1, row);
                    [0, 1].map(|sheet| EditRecord::SetValue { sheet, cell, value: n(2.0) })
                })
                .collect();
            records.insert(rows as usize, EditRecord::AddSheet { name: "Late".into() });
            let epochs = vec![1; records.len()];
            let log = WalReplay { records, epochs, ..WalReplay::default() };

            let mut replayed = Workbook::from_image(wb.to_image()).unwrap();
            let mut serial = Workbook::from_image(wb.to_image()).unwrap();
            replayed.replay(&log, 1).unwrap();
            // Two runs of records, two sheets touched in each: one query
            // a run.
            assert_eq!(queries(&replayed), 2, "{rows} rows");
            for rec in &log.records {
                serial.apply_edit(rec).unwrap();
            }
            assert_eq!(queries(&serial), 2 * u64::from(rows), "{rows} rows");
            assert_eq!(replayed.dirty_count(), (2 * 3 * rows) as usize);
            assert_eq!(replayed.dirty_count(), serial.dirty_count());
            assert_eq!(
                replayed.recalculate(RecalcMode::Serial),
                serial.recalculate(RecalcMode::Serial)
            );
        }
    }

    /// `A!B1` reads `Late`, a sheet that does not exist yet.
    fn dangling_book() -> Workbook {
        let mut wb = Workbook::with_taco();
        let a = wb.add_sheet("A").unwrap();
        wb.set_value(a, c("C1"), n(2.0));
        wb.set_formula(a, c("B1"), "=Late!A1+C1").unwrap();
        wb.recalculate(RecalcMode::Serial);
        wb
    }

    #[test]
    fn a_late_sheet_resolves_a_dangling_reference_after_save_and_open() {
        let path = temp("dangling");
        dangling_book().save(&path).unwrap();
        let mut back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.value(SheetId(0), c("B1")), Value::Error(taco_formula::CellError::Ref));
        let late = back.add_sheet("Late").unwrap();
        assert_eq!(back.cross_edge_count(), 1);
        back.set_value(late, c("A1"), n(5.0));
        back.recalculate(RecalcMode::Serial);
        assert_eq!(back.value(SheetId(0), c("B1")), n(7.0));
    }

    #[test]
    fn a_late_sheet_resolves_a_dangling_reference_on_wal_replay() {
        let path = temp("dangling_wal");
        let opts = PersistOptions { compact_after_records: 0, sync_every_records: 1 };
        // Saved with the reference dangling, reopened, and the sheet it
        // reads added through the log.
        PersistentWorkbook::create(&path, dangling_book(), opts).unwrap();
        let mut pers = PersistentWorkbook::open(&path, opts).unwrap();
        let edits = [
            EditRecord::AddSheet { name: "Late".into() },
            EditRecord::SetValue { sheet: 1, cell: c("A1"), value: n(5.0) },
        ];
        for e in &edits {
            pers.log_edit(e).unwrap();
        }
        let live_edges = pers.workbook().cross_edge_count();
        drop(pers);
        let mut reopened = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
        assert_eq!((live_edges, reopened.cross_edge_count()), (1, 1));
        reopened.recalculate(RecalcMode::Serial);
        assert_eq!(reopened.value(SheetId(0), c("B1")), n(7.0));
        reopened.set_value(SheetId(1), c("A1"), n(6.0));
        reopened.recalculate(RecalcMode::Serial);
        assert_eq!(reopened.value(SheetId(0), c("B1")), n(8.0));
    }

    #[test]
    fn an_opened_workbook_flags_only_the_sheets_that_name_a_missing_one() {
        // Three sheets full of formulas; only `Mid` names a sheet that
        // does not exist yet.
        let mut wb = Workbook::with_taco();
        for name in ["First", "Mid", "Last"] {
            let id = wb.add_sheet(name).unwrap();
            for row in 1..=20u32 {
                wb.set_value(id, Cell::new(1, row), n(f64::from(row)));
                wb.set_formula(id, Cell::new(2, row), &format!("=A{row}*2")).unwrap();
            }
        }
        let (first, mid, last) = (SheetId(0), SheetId(1), SheetId(2));
        wb.set_formula(last, c("C1"), "=First!B1+Mid!B2").unwrap();
        wb.set_formula(mid, c("C1"), "=Late!A1+First!B3").unwrap();
        wb.recalculate(RecalcMode::Serial);
        let path = temp("flags");
        wb.save(&path).unwrap();
        let mut back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.cross_table(), wb.cross_table());
        // The first sheet added walks `Mid` alone, and it stays flagged
        // until `Late` itself comes.
        back.add_sheet("Other").unwrap();
        let walked = back.sheet(mid).len() as u64;
        assert_eq!(back.cells_walked, walked);
        let late = back.add_sheet("Late").unwrap();
        assert_eq!(back.cells_walked, 2 * walked);
        back.add_sheet("Unread").unwrap();
        assert_eq!(back.cells_walked, 2 * walked);
        assert_eq!(back.cross_edge_count(), wb.cross_edge_count() + 1);
        back.set_value(late, c("A1"), n(100.0));
        back.recalculate(RecalcMode::Serial);
        assert_eq!(back.value(mid, c("C1")), n(106.0));
        assert_eq!(back.value(first, c("B3")), n(6.0));
    }

    #[test]
    fn a_reopened_workbook_binds_the_live_cross_table_edge_for_edge() {
        use taco_workload::{gen_persist_workload, persist_enron_like, persist_github_like};
        for params in [persist_enron_like(), persist_github_like()] {
            assert!(params.cross, "{}", params.name);
            let w = gen_persist_workload(&params);
            let mut live = Workbook::new();
            live.apply_batch(&w.build).unwrap();
            // After the build, then after the burst: its structural edits
            // and its late sheet.
            for burst in [&[][..], &w.burst[..]] {
                live.apply_batch(burst).unwrap();
                let edges = live.cross_table();
                assert!(!edges.is_empty(), "{}", params.name);
                assert_eq!(live.derived_cross_table(), edges, "{}", params.name);
                let bytes = taco_store::encode_workbook(&live.to_image()).unwrap();
                let reader = taco_store::StoreReader::from_bytes(bytes).unwrap();
                let back = Workbook::from_image(reader.read_all().unwrap()).unwrap();
                assert_eq!(back.cross_table(), edges, "{}", params.name);
                assert_eq!(back.dirty_count(), live.dirty_count(), "{}", params.name);
            }
        }
    }

    /// A stepped literal that passes zero down its column prints `-1`,
    /// which reads back as unary minus on `1`: the typed column is one
    /// run live and reopened (debug builds check every formula that joins
    /// a run against the parser), and a fill from its last cell copies
    /// what that cell prints.
    #[test]
    fn a_literal_stepping_below_zero_round_trips() {
        let mut wb = Workbook::one_sheet();
        let s = SheetId(0);
        wb.set_value(s, c("B1"), n(10.0));
        for row in 1..=8u32 {
            wb.set_value(s, Cell::new(1, row), n(f64::from(row)));
            // `$B$1*2+A1`, `$B$1*1+A2`, … `$B$1*-5+A8`.
            let src = format!("=$B$1*{}+A{row}", 3 - i64::from(row));
            wb.set_formula(s, Cell::new(3, row), &src).unwrap();
        }
        assert_eq!(wb.formula_of(s, c("C4")).as_deref(), Some("$B$1*-1+A4"));
        assert_eq!(wb.sheet(s).formula_templates(), 1);
        wb.autofill(s, c("C8"), Range::parse_a1("C8:C12").unwrap()).unwrap();
        assert_eq!(wb.formula_of(s, c("C12")).as_deref(), Some("$B$1*-5+A12"));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(s, c("C8")), n(-42.0));
        let path = temp("negative_step");
        wb.save(&path).unwrap();
        let mut back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        back.recalculate(RecalcMode::Serial);
        for (cell, content) in wb.sheet(s).cells() {
            assert_eq!(back.formula_of(s, cell), wb.formula_of(s, cell), "{cell}");
            assert_eq!(back.value(s, cell), *content.value(), "{cell}");
        }
        assert_eq!(back.sheet(s).formula_templates(), wb.sheet(s).formula_templates());
    }

    #[test]
    fn a_saved_workbook_reopens_on_its_clock() {
        let clock = taco_formula::EvalClock { now: 45_000.25, today: 45_000.0, rand_seed: 7 };
        let mut wb = Workbook::one_sheet();
        let s = SheetId(0);
        wb.set_clock(clock);
        wb.set_value(s, c("B1"), n(1.0));
        wb.set_formula(s, c("A1"), "=NOW()+B1").unwrap();
        // Saved dirty: the reopened copy evaluates it, under the stored clock.
        let path = temp("clock");
        wb.save(&path).unwrap();
        let mut back = Workbook::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.dirty_count(), 1);
        back.recalculate(RecalcMode::Serial);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(back.value(s, c("A1")), n(45_001.25));
        assert_eq!(wb.value(s, c("A1")), n(45_001.25));
        // A sheet added after the open starts on it too.
        let later = back.add_sheet("Later").unwrap();
        back.set_formula(later, c("A1"), "=TODAY()").unwrap();
        back.recalculate(RecalcMode::Serial);
        assert_eq!(back.value(later, c("A1")), n(45_000.0));
    }

    const CLOCK: taco_formula::EvalClock =
        taco_formula::EvalClock { now: 45_000.25, today: 45_000.0, rand_seed: 7 };
    const CLOCK_OPTS: PersistOptions =
        PersistOptions { compact_after_records: 0, sync_every_records: 1 };

    /// A one-sheet persistent workbook at `clock.taco` on a fault-injecting
    /// disk, with `A1 = NOW()` logged.
    fn volatile_book(seed: u64) -> (taco_store::FaultVfs, PersistentWorkbook) {
        let fv = taco_store::FaultVfs::pristine(seed);
        let vfs: Arc<dyn Vfs> = Arc::new(fv.clone());
        let path = Path::new("clock.taco");
        let mut pers =
            PersistentWorkbook::create_with(vfs, path, Workbook::one_sheet(), CLOCK_OPTS).unwrap();
        let now = EditRecord::SetFormula { sheet: 0, cell: c("A1"), src: "NOW()".into() };
        pers.log_edit(&now).unwrap();
        (fv, pers)
    }

    /// A clock set on a persistent workbook survives a crash: the
    /// records logged after it replay over a snapshot that carries it.
    #[test]
    fn a_persistent_clock_survives_a_crash() {
        let (fv, mut pers) = volatile_book(5);
        assert_eq!(pers.set_clock(CLOCK).unwrap(), 1);
        pers.log_edit(&set(c("B1"), 1.0)).unwrap();
        pers.sync().unwrap();
        pers.recalculate();
        assert_eq!(pers.workbook().value(SheetId(0), c("A1")), n(45_000.25));
        drop(pers);

        let vfs: Arc<dyn Vfs> = Arc::new(fv);
        let mut back =
            PersistentWorkbook::open_with(vfs, Path::new("clock.taco"), CLOCK_OPTS).unwrap();
        back.recalculate();
        assert_eq!(back.workbook().value(SheetId(0), c("A1")), n(45_000.25));
        assert_eq!(back.workbook().value(SheetId(0), c("B1")), n(1.0));
    }

    /// A clock the disk did not take is an error, and the reopened
    /// workbook runs on the clock it had.
    #[test]
    fn a_clock_the_disk_refuses_is_an_error() {
        let (fv, mut pers) = volatile_book(6);
        fv.set_crash_at(fv.op_count());
        assert!(pers.set_clock(CLOCK).is_err());
        drop(pers);

        let vfs: Arc<dyn Vfs> = Arc::new(fv.reopen_from_crash());
        let mut back =
            PersistentWorkbook::open_with(vfs, Path::new("clock.taco"), CLOCK_OPTS).unwrap();
        back.recalculate();
        assert_eq!(back.workbook().value(SheetId(0), c("A1")), n(0.0));
    }

    #[test]
    fn replay_against_wrong_sheet_is_typed() {
        let mut wb = Workbook::with_taco();
        wb.add_sheet("Only").unwrap();
        let bad = EditRecord::SetValue { sheet: 9, cell: c("A1"), value: n(1.0) };
        assert!(matches!(wb.apply_edit(&bad), Err(StoreError::InvalidRecord(_))));
        let bad = EditRecord::SetFormula { sheet: 0, cell: c("A1"), src: "=)!(".into() };
        assert!(matches!(wb.apply_edit(&bad), Err(StoreError::InvalidRecord(_))));
    }
}
