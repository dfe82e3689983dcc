//! Benchmark workloads for the TACO reproduction.
//!
//! The paper evaluates on two real corpora: 593 large Enron `xls` files and
//! 2,238 large Github `xlsx` files. Neither ships with this repository, so
//! [`generator`] synthesizes spreadsheets whose *dependency structure*
//! matches what the paper reports — region-by-region autofill runs of the
//! four basic patterns, cumulative totals, fixed-table lookups, chains,
//! derived columns, the multi-reference Fig. 2 shape, and noise — with
//! per-sheet sizes and tail behaviour (max dependents, longest paths)
//! shaped like Fig. 1. [`corpus`] provides the calibrated `enron_like()`
//! and `github_like()` presets; [`persistence`] emits full edit scripts
//! (values + formula text, cross-sheet rollups and carry chains between
//! consecutive sheets) for the save → edit burst → crash-simulated
//! reopen workload; [`service`] emits
//! deterministic multi-client read/write scripts (reader-heavy,
//! writer-heavy, and mixed presets with zipf-skewed cell targets) for the
//! `taco_service` serving layer, replayable in-process and over TCP.
//! [`reference`](mod@reference) is the cell-by-cell oracle that the formula-graph tests
//! hold every compressed graph to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod generator;
pub mod persistence;
pub mod reference;
pub mod service;

pub use corpus::{enron_like, github_like, CorpusParams};
pub use generator::{Region, SheetParams, SyntheticSheet};
pub use persistence::{
    gen_persist_workload, persist_enron_like, persist_giant_sheet, persist_github_like,
    PersistParams, PersistWorkload,
};
pub use service::{
    gen_service_script, mixed, reader_heavy, writer_heavy, ClientOp, ServiceScript,
    ServiceScriptParams,
};
