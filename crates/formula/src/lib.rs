//! Spreadsheet formula language substrate for the TACO reproduction.
//!
//! The paper's prototype parses real `xls`/`xlsx` formulae (via Apache POI)
//! to extract, for every formula cell, the set of ranges it references —
//! those `(referenced range → formula cell)` pairs are the dependencies the
//! formula graph stores. This crate provides that pipeline natively:
//!
//! - [`lexer`]/[`parser`] — an Excel-style formula grammar (`=IF(A3=A2,
//!   N2+M3, M3)`, `SUM($B$1:B4)*A1`, …) with `$` absolute markers preserved,
//! - [`ast::Expr`] — the parsed tree; [`Formula`] bundles source, AST and
//!   the extracted references,
//! - [`program`] — a template's tree compiled once into a flat postfix
//!   program (SUM/AVERAGE/IF/VLOOKUP/arithmetic/…), bound once per node of
//!   a run and run once per row: what the `taco-engine` substrate
//!   recalculates cells with,
//! - [`eval`] — the same language as a memoryless walk of the tree where
//!   the formula was written, kept as the reference the program is held
//!   to (offsets and remembered folds are the program's alone),
//! - [`autofill`] — the reference-adjustment transform whose `$` rules are
//!   what make autofilled spreadsheets exhibit the RR/RF/FR/FF patterns,
//! - [`template`] — the same transform without building anything: one
//!   [`Template`] read at an offset is the formula autofill would build
//!   there, which is how the engine holds a run of filled cells.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod autofill;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod program;
pub mod template;
pub mod value;

mod error;

pub use ast::{BinOp, Expr, FuncId, UnOp};
pub use error::FormulaError;
pub use eval::{EvalClock, VolatileCtx};
pub use template::Template;
pub use value::{CellError, Value};

use taco_grid::a1::QualifiedRef;

/// A parsed formula on its own: original source, AST, and the extracted
/// references. (The engine holds formulas as [`Template`]s, one per run of
/// cells; this is the form [`autofill`] — the reference for what a
/// template at an offset must be — builds and takes.)
#[derive(Debug, Clone, PartialEq)]
pub struct Formula {
    /// Source text with any leading `=` stripped.
    pub src: String,
    /// Parsed expression tree.
    pub ast: Expr,
    /// Every cell/range reference in the formula, in source order, with
    /// `$` fixed/relative flags per corner and the sheet qualifier (if
    /// any). Same-sheet references become the formula graph's
    /// dependencies; qualified ones become the workbook's inter-sheet
    /// edges.
    pub refs: Vec<QualifiedRef>,
}

impl Formula {
    /// Parses a formula (leading `=` optional).
    pub fn parse(src: &str) -> Result<Self, FormulaError> {
        let body = src.strip_prefix('=').unwrap_or(src);
        let ast = parser::parse(body)?;
        let refs = ast.collect_refs();
        Ok(Formula { src: body.to_string(), ast, refs })
    }

    /// Renders the formula with a leading `=` (canonical, fully
    /// parenthesized form — not necessarily byte-identical to the source).
    pub fn to_string_with_eq(&self) -> String {
        format!("={}", self.ast)
    }

    /// Whether the formula calls a volatile function (`NOW`, `TODAY`,
    /// `RAND`) anywhere in its tree. Volatile formulae re-dirty when the
    /// engine's injected [`EvalClock`] changes, not only when a referenced
    /// cell does.
    pub fn is_volatile(&self) -> bool {
        self.ast.is_volatile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_grid::Range;

    #[test]
    fn parse_extracts_refs_in_order() {
        // The running example from Fig. 2.
        let f = Formula::parse("=IF(A3=A2,N2+M3,M3)").unwrap();
        let got: Vec<Range> = f.refs.iter().map(|r| r.range()).collect();
        let want: Vec<Range> =
            ["A3", "A2", "N2", "M3", "M3"].iter().map(|s| Range::parse_a1(s).unwrap()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn dollar_flags_survive() {
        let f = Formula::parse("=SUM($B$1:B4)*A1").unwrap();
        assert_eq!(f.refs.len(), 2);
        assert!(f.refs[0].rref.head.is_fixed());
        assert!(f.refs[0].rref.tail.is_relative());
        assert!(f.refs[1].rref.head.is_relative());
    }

    #[test]
    fn equals_prefix_is_optional() {
        let a = Formula::parse("=SUM(A1:A3)").unwrap();
        let b = Formula::parse("SUM(A1:A3)").unwrap();
        assert_eq!(a.ast, b.ast);
    }

    #[test]
    fn volatility_is_detected_anywhere_in_the_tree() {
        assert!(Formula::parse("=NOW()").unwrap().is_volatile());
        assert!(Formula::parse("=SUM(A1:A3)+IF(A1>0,RAND(),2)").unwrap().is_volatile());
        assert!(Formula::parse("=-TODAY()%").unwrap().is_volatile());
        assert!(!Formula::parse("=SUM(A1:A3)*2").unwrap().is_volatile());
        // The function set is exact: other names are not volatile.
        assert!(!Formula::parse("=ROUND(A1,2)").unwrap().is_volatile());
    }

    #[test]
    fn sheet_qualifiers_survive() {
        let f = Formula::parse("=SUM('My Sheet'!B1:B4)+Sheet2!A1*C1").unwrap();
        assert_eq!(f.refs.len(), 3);
        assert_eq!(f.refs[0].sheet_name(), Some("My Sheet"));
        assert_eq!(f.refs[1].sheet_name(), Some("Sheet2"));
        assert_eq!(f.refs[2].sheet_name(), None);
    }
}
