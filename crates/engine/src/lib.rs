//! A headless spreadsheet engine: the DataSpread-style substrate the paper
//! integrates TACO into (§VI-A).
//!
//! A [`Workbook`] is the one way to edit, recalculate, query and persist a
//! sheet. Each of its sheets is an [`Engine`] shard, a sparse cell store,
//! and a band of the workbook's one compressed formula graph
//! ([`taco_core::FormulaGraph`]); [`Workbook::sheet`] lends both out
//! read-only. Edits follow the paper's interactivity model:
//!
//! 1. a cell changes;
//! 2. the workbook queries its formula graph for the **dependents** of
//!    the change, on every sheet, and marks them dirty — this step is on
//!    the critical path for returning control to the user, and is what
//!    TACO accelerates;
//! 3. dirty formulae are re-evaluated (synchronously here; DataSpread does
//!    it asynchronously — the graph query cost is the same either way).
//!
//! [`Workbook::autofill`] reproduces the formula-generation tool whose
//! `$`-rules create the tabular locality TACO compresses.
//!
//! Multi-sheet files keep one engine shard per sheet, one graph whose
//! bands are the sheets — so a `Sheet2!A1`-style reference is an ordinary
//! edge, and one filled down a column is one compressed edge — and one
//! recalculation order across the sheets, each dirty cell after the dirty
//! cells it reads on whichever sheet. One routine binds every dependency
//! (on an edit, when an added sheet resolves a reference, and on open);
//! a saved sheet stores its band's own edges, and the reads between
//! sheets are bound again from the formulas on open.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod engine;
#[cfg(test)]
mod invariant;
mod obs;
mod order;
mod persist;
mod scc;
mod sheet;
mod structural;
mod view;
mod workbook;

pub use cells::SheetValues;
pub use engine::{Engine, SheetPass};
pub use persist::{wal_path, PersistOptions, PersistentWorkbook};
pub use sheet::CellContent;
pub use view::{SheetGraph, SheetView};
pub use workbook::{
    BatchError, BatchStage, RecalcMode, SheetId, Workbook, WorkbookError, WorkbookReceipt,
};

pub use taco_formula::{CellError, EvalClock, Value};
pub use taco_store::{EditRecord, StoreError};
