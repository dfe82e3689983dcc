//! A headless spreadsheet engine: the DataSpread-style substrate the paper
//! integrates TACO into (§VI-A).
//!
//! A [`Workbook`] is the one way to edit, recalculate, query and persist a
//! sheet. Each of its sheets is an [`Engine`] shard: a sparse cell store
//! and TACO's compressed formula graph ([`taco_core::FormulaGraph`]),
//! which [`Workbook::sheet`] lends out read-only. Edits follow the
//! paper's interactivity model:
//!
//! 1. a cell changes;
//! 2. the workbook queries the sheet's formula graph for the
//!    **dependents** of the change and marks them dirty — this step is on
//!    the critical path for returning control to the user, and is what
//!    TACO accelerates;
//! 3. dirty formulae are re-evaluated (synchronously here; DataSpread does
//!    it asynchronously — the graph query cost is the same either way).
//!
//! [`Workbook::autofill`] reproduces the formula-generation tool whose
//! `$`-rules create the tabular locality TACO compresses.
//!
//! Multi-sheet files keep one engine shard per sheet, an inter-sheet edge
//! table for `Sheet2!A1`-style cross-references, and one recalculation
//! order across the sheets, each dirty cell after the dirty cells it reads
//! on whichever sheet. Like the
//! graphs' spatial indexes, the edge table is derived state: it follows
//! from the formulas' qualified references, one routine binds every edge
//! (on an edit, when an added sheet resolves a reference, and on open),
//! and a saved workbook stores the formulas, not the table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod cross;
mod engine;
mod obs;
mod order;
mod persist;
mod scc;
mod sheet;
mod structural;
mod workbook;

pub use cells::SheetValues;
pub use engine::{Engine, SheetPass};
pub use persist::{wal_path, PersistOptions, PersistentWorkbook};
pub use sheet::CellContent;
pub use workbook::{
    BatchError, BatchStage, RecalcMode, SheetId, Workbook, WorkbookError, WorkbookReceipt,
};

pub use taco_formula::{CellError, EvalClock, Value};
pub use taco_store::{EditRecord, StoreError};
