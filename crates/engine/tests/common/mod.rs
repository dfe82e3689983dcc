//! Shared by the property suites whose oracle is "the workbook equals a
//! fresh one rebuilt from its own cell texts".

use taco_engine::{SheetId, Workbook};
use taco_formula::Value;
use taco_grid::Cell;

/// Every cell of every sheet as sorted `(sheet, cell, formula-src, value)`
/// rows — the full observable state.
pub fn full_state(wb: &Workbook) -> Vec<(usize, Cell, Option<String>, Value)> {
    let mut out = Vec::new();
    for s in 0..wb.sheet_count() {
        for (cell, content) in wb.sheet(SheetId(s)).cells() {
            let text = content.formula(cell).map(|f| f.to_string());
            out.push((s, cell, text, content.value().clone()));
        }
    }
    out.sort_unstable_by_key(|(s, c, _, _)| (*s, c.row, c.col));
    out
}

/// Rebuilds a fresh workbook from `wb`'s visible cell texts: formula
/// cells re-enter through their (possibly rewritten) source, pure cells
/// through their value.
pub fn rebuild_from_texts(wb: &Workbook) -> Workbook {
    let mut out = Workbook::with_taco();
    for s in 0..wb.sheet_count() {
        let id = out.add_sheet(wb.sheet_name(SheetId(s))).expect("fresh name");
        assert_eq!(id.0, s);
    }
    for s in 0..wb.sheet_count() {
        let id = SheetId(s);
        for (cell, content) in wb.sheet(id).cells() {
            match content.formula(cell) {
                Some(f) => {
                    let src = f.to_string();
                    out.set_formula(id, cell, &format!("={src}"))
                        .unwrap_or_else(|e| panic!("rewritten source {src:?} must re-parse: {e}"));
                }
                None => {
                    out.set_value(id, cell, content.value().clone());
                }
            }
        }
    }
    out
}
