//! Comparison systems from the paper's evaluation (§VI), reimplemented so
//! every experiment runs in-process:
//!
//! - [`calc::NoCompCalc`] — the OpenOffice-Calc-derived baseline
//!   (§VI-E): an uncompressed graph that replaces the R-tree with
//!   pre-partitioned spatial *containers* for overlap lookup;
//! - [`antifreeze::Antifreeze`] — the prior formula-graph-compression
//!   system (§VI-D): precompute each cell's transitive dependents,
//!   compress them to at most `K = 20` bounding ranges, serve queries from
//!   the lookup table, rebuild the table from scratch on modification.
//!   Bounding ranges introduce false positives, and builds are expensive —
//!   both effects the paper reports;
//! - [`cellgraph::CellGraph`] — the RedisGraph stand-in (§VI-D): graph
//!   databases have no spatial vertices, so every range edge is decomposed
//!   into cell→cell edges and bulk-loaded into a generic adjacency-list
//!   store. Reproduces the memory/time blow-up that made RedisGraph DNF;
//! - [`excel_like::ExcelLike`] — the Excel conjecture (§VI-E): store the
//!   graph compressed (memory-efficient, like Excel's shared formulae) but
//!   decompress each edge while traversing, paying per-dependency cost on
//!   every query.
//!
//! All implement [`taco_core::DependencyBackend`], so the differential
//! suites drive them interchangeably with TACO/NoComp.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antifreeze;
pub mod calc;
pub mod cellgraph;
pub mod excel_like;

pub use antifreeze::Antifreeze;
pub use calc::NoCompCalc;
pub use cellgraph::CellGraph;
pub use excel_like::ExcelLike;
