//! Engine-level structural edits: moving cell contents, rewriting formula
//! references, and updating the formula graph together.

use crate::engine::{EditReceipt, Engine};
use crate::sheet::CellContent;
use std::time::Instant;
use taco_core::StructuralOp;
use taco_formula::Formula;
use taco_grid::a1::{CellRef, QualifiedRef, RangeRef};
use taco_grid::Range;

/// Whether `q` names cells of the edited sheet, `own`. A formula on the
/// edited sheet itself (`local`) reaches it through unqualified and
/// *self-qualified* references (`Data!A1` inside `Data`); a formula on
/// another sheet only through references qualified with its name.
fn reads_edited_sheet(own: Option<&str>, q: &QualifiedRef, local: bool) -> bool {
    match &q.sheet {
        None => local,
        Some(sheet) => own.is_some_and(|n| sheet.matches(n)),
    }
}

/// Rewrites one formula reference under a structural edit of the sheet
/// named `own`, preserving its `$` flags; `None` becomes `#REF!` in the
/// formula. References into the edited sheet share its geometry and
/// remap; references to other sheets pass through unchanged.
pub(crate) fn map_ref(
    op: StructuralOp,
    own: Option<&str>,
    q: &QualifiedRef,
    local: bool,
) -> Option<QualifiedRef> {
    if !reads_edited_sheet(own, q, local) {
        return Some(q.clone());
    }
    let r = &q.rref;
    let nr = op.map_range(r.range())?;
    Some(QualifiedRef {
        sheet: q.sheet.clone(),
        rref: RangeRef {
            head: CellRef { cell: nr.head(), ..r.head },
            tail: CellRef { cell: nr.tail(), ..r.tail },
        },
    })
}

/// Whether the edit band cuts through a range of the edited sheet that
/// one of `refs` names. Such a formula reads cells that moved even when
/// its rewritten text is the old text: a range that straddles an insert
/// point but already ends at the grid's last row or column is stretched,
/// clamped back, and prints the same.
pub(crate) fn band_disturbs(
    op: StructuralOp,
    own: Option<&str>,
    refs: &[QualifiedRef],
    local: bool,
) -> bool {
    refs.iter().any(|q| reads_edited_sheet(own, q, local) && op.disturbs(q.rref.range()))
}

impl Engine {
    /// Inserts `n` rows before row `at`: contents shift, formula references
    /// stretch/shift per Excel semantics, the graph updates incrementally.
    pub fn insert_rows(&mut self, at: u32, n: u32) -> EditReceipt {
        self.apply_structural(StructuralOp::InsertRows { at, n })
    }

    /// Deletes the rows `[at, at + n)`; formulae referencing only deleted
    /// cells become `#REF!` errors.
    pub fn delete_rows(&mut self, at: u32, n: u32) -> EditReceipt {
        self.apply_structural(StructuralOp::DeleteRows { at, n })
    }

    /// Inserts `n` columns before column `at`.
    pub fn insert_cols(&mut self, at: u32, n: u32) -> EditReceipt {
        self.apply_structural(StructuralOp::InsertCols { at, n })
    }

    /// Deletes the columns `[at, at + n)`.
    pub fn delete_cols(&mut self, at: u32, n: u32) -> EditReceipt {
        self.apply_structural(StructuralOp::DeleteCols { at, n })
    }

    /// Applies a structural edit to sheet + graph and dirties only what
    /// the edit can actually change.
    ///
    /// A formula whose rewritten AST equals the old one, and none of
    /// whose ranges the band cuts through, has every reference entirely
    /// on the untouched side of the edited band, so the cells it reads
    /// neither moved nor changed — its cached value stays valid even if
    /// the formula itself shifted. Only formulas whose AST was rewritten
    /// or whose ranges were disturbed (plus their transitive dependents,
    /// via the normal dirty routing) recalculate; previously-dirty cells
    /// stay dirty at their mapped positions. Identity rewrites also keep
    /// the user's original source text.
    pub fn apply_structural(&mut self, op: StructuralOp) -> EditReceipt {
        let start = Instant::now();
        let own = self.sheet_name().map(str::to_string);
        let own = own.as_deref();
        self.graph_mut().apply_structural(op);
        let old = self.take_cells();
        let old_dirty = old.dirty().to_vec();
        let mut changed = Vec::new();
        for (cell, mut content) in old.into_cells() {
            let Some(nc) = op.map_cell(cell) else { continue };
            if let Some(formula) = content.formula() {
                let ast = formula.ast.map_refs(&mut |r| map_ref(op, own, r, true));
                if ast != formula.ast {
                    changed.push(nc);
                    let refs = ast.collect_refs();
                    let formula = Formula { src: ast.to_string(), ast, refs };
                    content = CellContent::formula_cell(formula, content.value);
                } else if band_disturbs(op, own, &formula.refs, true) {
                    changed.push(nc);
                }
            }
            self.put_cell(nc, content);
        }
        for cell in old_dirty {
            if let Some(nc) = op.map_cell(cell) {
                self.mark_cell_dirty(nc);
            }
        }
        let mut dirty = Vec::with_capacity(changed.len());
        for nc in changed {
            self.mark_cell_dirty(nc);
            let dependents = self.find_dependents(Range::cell(nc));
            self.mark_ranges_dirty(&dependents);
            dirty.push(Range::cell(nc));
            dirty.extend(dependents);
        }
        EditReceipt { dirty, control_latency: start.elapsed() }
    }
}

#[cfg(test)]
mod tests {
    use crate::Engine;
    use taco_formula::{CellError, Value};
    use taco_grid::{Cell, Range};

    fn c(s: &str) -> Cell {
        Cell::parse_a1(s).unwrap()
    }

    fn r(s: &str) -> Range {
        Range::parse_a1(s).unwrap()
    }

    fn n(v: f64) -> Value {
        Value::Number(v)
    }

    /// A cumulative-total sheet used by several tests.
    fn cumulative_sheet(rows: u32) -> Engine {
        let mut e = Engine::with_taco();
        for row in 1..=rows {
            e.set_value(Cell::new(1, row), n(1.0));
        }
        e.set_formula(c("B1"), "=SUM($A$1:A1)").unwrap();
        e.autofill(c("B1"), Range::from_coords(2, 2, 2, rows)).unwrap();
        e.recalculate();
        e
    }

    #[test]
    fn insert_rows_shifts_values_and_formulas() {
        let mut e = cumulative_sheet(10);
        assert_eq!(e.value(c("B10")), n(10.0));
        e.insert_rows(5, 2);
        e.recalculate();
        // Row 10's content moved to row 12; the inserted rows are blank so
        // the totals are unchanged.
        assert_eq!(e.value(c("B12")), n(10.0));
        assert_eq!(e.value(c("B5")), Value::Empty);
        // The formula at the moved cell references the stretched range.
        assert_eq!(e.formula_of(c("B12")).unwrap(), "SUM($A$1:A12)");
        // Filling one inserted row updates downstream totals.
        e.set_value(c("A5"), n(100.0));
        e.recalculate();
        assert_eq!(e.value(c("B12")), n(110.0));
    }

    #[test]
    fn delete_rows_shrinks_references() {
        let mut e = cumulative_sheet(10);
        e.delete_rows(3, 2); // drop rows 3-4 (two of the 1.0 inputs)
        e.recalculate();
        assert_eq!(e.value(c("B8")), n(8.0)); // old B10: 10 − 2 inputs
        assert_eq!(e.formula_of(c("B8")).unwrap(), "SUM($A$1:A8)");
    }

    #[test]
    fn delete_referenced_cells_yields_ref_error() {
        let mut e = Engine::with_taco();
        e.set_value(c("A5"), n(7.0));
        e.set_formula(c("C1"), "=A5*2").unwrap();
        e.recalculate();
        assert_eq!(e.value(c("C1")), n(14.0));
        e.delete_rows(5, 1);
        e.recalculate();
        assert_eq!(e.formula_of(c("C1")).unwrap(), "#REF!*2");
        assert_eq!(e.value(c("C1")), Value::Error(CellError::Ref));
        // The graph no longer reports any precedents for C1.
        assert!(e.find_precedents(r("C1")).is_empty());
    }

    #[test]
    fn insert_cols_shifts_column_references() {
        let mut e = Engine::with_taco();
        e.set_value(c("A1"), n(3.0));
        e.set_formula(c("B1"), "=A1*10").unwrap();
        e.recalculate();
        e.insert_cols(2, 2); // push B to D
        e.recalculate();
        assert_eq!(e.value(c("D1")), n(30.0));
        assert_eq!(e.formula_of(c("D1")).unwrap(), "A1*10");
        // Changing A1 still propagates through the shifted graph.
        e.set_value(c("A1"), n(5.0));
        e.recalculate();
        assert_eq!(e.value(c("D1")), n(50.0));
    }

    #[test]
    fn structural_edit_matches_fresh_build() {
        // Inserting rows then recalculating must equal a sheet built in the
        // final layout from scratch.
        let mut edited = cumulative_sheet(8);
        edited.insert_rows(4, 3);
        edited.recalculate();

        let mut fresh = Engine::with_taco();
        for row in 1..=11u32 {
            if !(4..7).contains(&row) {
                fresh.set_value(Cell::new(1, row), n(1.0));
            }
        }
        for row in 1..=11u32 {
            if !(4..7).contains(&row) {
                fresh.set_formula(Cell::new(2, row), &format!("=SUM($A$1:A{row})")).unwrap();
            }
        }
        fresh.recalculate();
        for row in 1..=11u32 {
            let cell = Cell::new(2, row);
            assert_eq!(edited.value(cell), fresh.value(cell), "row {row}");
        }
    }

    #[test]
    fn structural_edit_dirties_only_affected_formulas() {
        // 10 cumulative formulas, all clean. Inserting rows *below* every
        // reference and every formula is a rigid no-op: zero cells dirty
        // (the old behavior re-dirtied all 10).
        let mut e = cumulative_sheet(10);
        assert_eq!(e.dirty_count(), 0);
        let receipt = e.insert_rows(20, 5);
        assert_eq!(e.dirty_count(), 0, "rigid shift below all content dirties nothing");
        assert!(receipt.dirty.is_empty());

        // Inserting in the middle: B1..B5 reference only $A$1:A{row} above
        // the band and keep their cached values; B6..B10 (now B11..B15)
        // stretch and must recalculate.
        let receipt = e.insert_rows(6, 5);
        assert_eq!(e.dirty_count(), 5, "only the formulas whose references changed recalc");
        assert!(!receipt.dirty.is_empty());
        assert_eq!(e.value(c("B5")), n(5.0), "unchanged formulas keep their cached value");
        e.recalculate();
        assert_eq!(e.value(c("B15")), n(10.0));
    }

    #[test]
    fn dirty_cells_survive_at_mapped_positions() {
        let mut e = Engine::with_taco();
        for row in 1..=3u32 {
            e.set_value(Cell::new(1, row), n(f64::from(row)));
            e.set_formula(Cell::new(3, row + 9), &format!("=A{row}*2")).unwrap();
        }
        e.recalculate();
        e.set_value(c("A2"), n(9.0)); // dirties C11 only
        assert_eq!(e.dirty_count(), 1);
        // Insert between the referenced block and the formulas: every
        // reference stays above the band (identity rewrite), but the
        // pending recalculation must move with its cell (C11 → C14).
        e.insert_rows(5, 3);
        assert_eq!(e.dirty_count(), 1);
        e.recalculate();
        assert_eq!(e.value(c("C14")), n(18.0));
    }

    #[test]
    fn identity_rewrite_keeps_original_source_text() {
        let mut e = Engine::with_taco();
        e.set_value(c("A1"), n(2.0));
        // Unidiomatic but user-written spelling that `ast.to_string()`
        // would normalize away.
        e.set_formula(c("B2"), "=(A1 + 1)").unwrap();
        e.recalculate();
        e.insert_rows(5, 2); // below everything: identity rewrite
        assert_eq!(e.formula_of(c("B2")).unwrap(), "(A1 + 1)");
        e.delete_rows(1, 1); // the referenced row dies: source is rewritten
        assert_eq!(e.formula_of(c("B1")).unwrap(), "#REF!+1");
    }

    #[test]
    fn self_qualified_references_remap_with_the_sheet() {
        let mut e = Engine::with_taco();
        e.set_sheet_name("Data".to_string());
        e.set_value(c("A5"), n(7.0));
        e.set_formula(c("C1"), "=Data!A5*2").unwrap();
        e.recalculate();
        assert_eq!(e.value(c("C1")), n(14.0));
        e.insert_rows(3, 2);
        assert_eq!(e.formula_of(c("C1")).unwrap(), "Data!A7*2");
        e.recalculate();
        assert_eq!(e.value(c("C1")), n(14.0));
        // Deleting the qualified target yields #REF! like a local ref.
        e.delete_rows(7, 1);
        e.recalculate();
        assert_eq!(e.formula_of(c("C1")).unwrap(), "#REF!*2");
        assert_eq!(e.value(c("C1")), Value::Error(CellError::Ref));
    }

    #[test]
    fn graph_stays_compressed_after_rigid_shift() {
        let mut e = cumulative_sheet(50);
        let before = e.graph().num_edges();
        e.insert_rows(60, 5); // below everything: rigid no-op
        assert_eq!(e.graph().num_edges(), before);
        e.insert_rows(1, 5); // above everything: rigid shift
        assert_eq!(e.graph().num_edges(), before);
        e.recalculate();
        assert_eq!(e.value(c("B55")), n(50.0));
    }
}
