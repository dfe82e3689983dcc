//! Shared by the property suites whose oracles are "the workbook equals a
//! fresh one rebuilt from its own cell texts" and "the workbook's values
//! are the reference evaluator's" (`taco_workload::reference::evaluate`).

use taco_engine::{SheetId, Workbook};
use taco_formula::{EvalClock, Value};
use taco_grid::{Cell, Range};
use taco_workload::reference::{self, Entry};

/// Every cell of every sheet as sorted `(sheet, cell, formula-src, value)`
/// rows — the full observable state.
#[allow(dead_code)] // not every suite that shares this module asks
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

/// Holds `wb`'s graph to its formulas: the reads between sheets and each
/// sheet's band, decompressed, are those of a workbook rebuilt from its
/// texts — every formula bound afresh.
#[allow(dead_code)] // not every suite that shares this module asks
pub fn assert_graph_derives(wb: &Workbook) {
    let rebuilt = rebuild_from_texts(wb);
    assert_eq!(wb.cross_table(), rebuilt.cross_table(), "the reads between sheets");
    let band = |wb: &Workbook, s: usize| {
        let deps = wb.sheet(SheetId(s)).graph().decompress_all();
        let mut deps: Vec<(Range, Cell)> = deps.into_iter().map(|d| (d.prec, d.dep)).collect();
        deps.sort_unstable_by_key(|&(prec, dep)| (dep, prec.head(), prec.tail()));
        deps
    };
    for s in 0..wb.sheet_count() {
        assert_eq!(band(wb, s), band(&rebuilt, s), "sheet {s}'s band");
    }
}

/// `wb`'s cells as `taco_workload::reference::evaluate` reads them: each
/// sheet's formulas by their text, its other cells by their value.
#[allow(dead_code)] // not every suite that shares this module asks
pub fn reference_input(wb: &Workbook) -> Vec<reference::Sheet> {
    let sheet = |s: usize| {
        let id = SheetId(s);
        let cells = wb.sheet(id).cells().map(|(cell, content)| {
            let entry = match content.formula(cell) {
                Some(f) => Entry::Formula(f.to_string()),
                None => Entry::Value(content.value().clone()),
            };
            (cell, entry)
        });
        reference::Sheet { name: wb.sheet_name(id).to_string(), cells: cells.collect() }
    };
    (0..wb.sheet_count()).map(sheet).collect()
}

/// Holds every formula cell of `wb` — of `only` if given — to the value
/// the reference evaluator gives it under `clock`, bit for bit, but those
/// its cycle rule leaves out; returns how many of `wb`'s formula cells
/// (in `only`) it left out.
#[allow(dead_code)] // not every suite that shares this module asks
pub fn assert_reference(wb: &Workbook, clock: EvalClock, only: Option<(SheetId, Range)>) -> usize {
    let want = reference::evaluate(&reference_input(wb), clock);
    let inside = |s: usize, cell: Cell| {
        only.is_none_or(|(id, range)| id.0 == s && range.contains_cell(cell))
    };
    let formulas = (0..wb.sheet_count()).flat_map(|s| {
        let cells = wb
            .sheet(SheetId(s))
            .cells()
            .filter(move |&(cell, k)| k.is_formula() && inside(s, cell));
        cells.map(move |(cell, k)| (s, cell, k.value()))
    });
    want.assert_agrees(formulas)
}
