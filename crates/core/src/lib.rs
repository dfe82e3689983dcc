//! TACO: Tabular-locality-based compression of spreadsheet formula graphs.
//!
//! This crate is the paper's primary contribution. A *formula graph* stores,
//! for every formula cell, edges from each range the formula references to
//! the formula cell. Real spreadsheets exhibit **tabular locality** — cells
//! near each other carry structurally similar formulae, because autofill,
//! copy-paste, and programmatic generation repeat one source pattern — and
//! TACO exploits it by replacing arbitrarily long runs of similar
//! dependencies with constant-size *compressed edges*.
//!
//! The pieces, mapped to the paper:
//!
//! - [`pattern`] — the four basic patterns (**RR**, **RF**, **FR**, **FF**)
//!   and the **RR-Chain** extension, each implementing the four key
//!   functions of §III-B (`addDep`, `findDep`, `findPrec`, `removeDep`),
//!   every one O(1) in the run length with no exception: `findDep` /
//!   `findPrec` answer with one range, `removeDep` with at most two edges;
//! - [`edge`] — the compressed-edge representation
//!   `(prec, dep, pattern, meta)` of §II-B, plus the column/row axis
//!   handling (row-wise patterns are the column-wise ones transposed);
//! - [`graph::FormulaGraph`] — the framework of §IV: the greedy
//!   compression algorithm (Alg. 2), the modified BFS for finding
//!   dependents/precedents directly on the compressed graph (Alg. 3), and
//!   incremental maintenance (insert / clear / update);
//! - [`config`] — pattern-set configurations: `taco_full()`,
//!   `taco_in_row()` (the derived-column-only variant of §VI-B), and
//!   `nocomp()` (the uncompressed baseline built in the same framework);
//! - [`stats`] — the graph-size and per-pattern accounting behind
//!   Tables II–V;
//! - [`band`] — grids side by side in one graph: a workbook's sheets,
//!   each a stripe of columns, so a reference between sheets is an
//!   ordinary edge and compresses like one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod band;
pub mod cem;
pub mod config;
pub mod edge;
pub mod graph;
pub mod pattern;
pub mod stats;
pub mod structural;

mod dep;
mod slab;

/// Test helper: 1-based column index to letters (re-exported for tests).
#[doc(hidden)]
pub fn test_col(i: u32) -> String {
    taco_grid::a1::col_to_letters(i)
}

pub use band::{Band, BAND_COLS, MAX_BANDS};
pub use config::Config;
pub use dep::{Cue, Dependency};
pub use edge::{Edge, EdgeId};
pub use graph::{FormulaGraph, QueryStats};
pub use pattern::{ChainDir, PatternMeta, PatternType};
pub use stats::{GraphStats, PatternCounts};
pub use structural::StructuralOp;
