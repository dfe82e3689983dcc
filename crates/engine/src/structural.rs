//! Engine-level structural edits: moving cell contents and rewriting
//! formula references (the workbook moves the graph's band alongside).

use crate::engine::Engine;
use crate::sheet::CellContent;
use taco_core::StructuralOp;
use taco_formula::template::At;
use taco_formula::{Expr, Template};
use taco_grid::a1::{CellRef, RangeRef, SheetRef};
use taco_grid::{Cell, Range};

/// Whether a reference qualified with `sheet` names cells of the edited
/// sheet, `own`. A formula on the edited sheet itself (`local`) reaches it
/// through unqualified and *self-qualified* references (`Data!A1` inside
/// `Data`); a formula on another sheet only through references qualified
/// with its name.
fn reads_edited_sheet(own: &str, sheet: Option<&SheetRef>, local: bool) -> bool {
    sheet.map_or(local, |sheet| sheet.matches(own))
}

/// Rewrites one reference into the edited sheet under a structural edit,
/// preserving its `$` flags; `None` becomes `#REF!` in the formula.
fn map_rref(op: StructuralOp, r: RangeRef) -> Option<RangeRef> {
    let nr = op.map_range(r.range())?;
    Some(RangeRef {
        head: CellRef { cell: nr.head(), ..r.head },
        tail: CellRef { cell: nr.tail(), ..r.tail },
    })
}

/// What a structural edit of the sheet named `own` does to one formula.
pub(crate) enum Restated {
    /// Every reference reads the cells it read before.
    Untouched,
    /// Same text, but the edit band cuts through a range of the edited
    /// sheet that the formula reads. Such a formula reads cells that
    /// moved: a range that straddles an insert point but already ends at
    /// the grid's last row or column is stretched, clamped back, and
    /// prints the same.
    Disturbed,
    /// References into the edited sheet share its geometry and remap —
    /// this is the rewritten tree; references to other sheets pass
    /// through unchanged.
    Rewritten(Expr),
}

/// See [`Restated`]; `local` says whether the formula sits on the edited
/// sheet itself.
pub(crate) fn restate(op: StructuralOp, own: &str, at: At<'_>, local: bool) -> Restated {
    let mut rewritten = false;
    at.visit_refs(&mut |sheet, rref| {
        rewritten |= reads_edited_sheet(own, sheet, local) && map_rref(op, rref) != Some(rref);
    });
    if rewritten {
        // The rewritten formula is printed afresh, every reference of it.
        return Restated::Rewritten(at.rewrite(&mut |sheet, rref| {
            if reads_edited_sheet(own, sheet, local) {
                map_rref(op, rref)
            } else {
                Some(rref)
            }
        }));
    }
    let disturbed = at
        .reads()
        .any(|(sheet, rref)| reads_edited_sheet(own, sheet, local) && op.disturbs(rref.range()));
    if disturbed {
        Restated::Disturbed
    } else {
        Restated::Untouched
    }
}

impl Engine {
    /// Applies a structural edit to the sheet's cells and dirties only
    /// what the edit can actually change.
    ///
    /// A formula none of whose references the edit rewrites, and none of
    /// whose ranges the band cuts through, has every reference entirely
    /// on the untouched side of the edited band, so the cells it reads
    /// neither moved nor changed — its cached value stays valid even if
    /// the formula itself shifted. Only formulas that were rewritten or
    /// whose ranges were disturbed (plus their transitive dependents, via
    /// the normal dirty marking) recalculate; previously-dirty cells stay
    /// dirty at their mapped positions. A formula that is not rewritten
    /// also keeps the user's original source text.
    ///
    /// A cell that stays where it was stays in its run. One that moved
    /// holds, where it now stands, the formula it held — or the rewritten
    /// one — and like a typed formula joins the run of the cell above
    /// (past blank rows) or to the left if it is that run's next cell: a
    /// run that moves as one (rows inserted above it) is one run
    /// afterwards, and so is a run rows are inserted through whose moved
    /// cells read there as its own cells would; a run the band otherwise
    /// splits is two.
    ///
    /// The formulas that may change are recorded as origins, like any
    /// edit's cells: they and their dependents are marked by the
    /// workbook's next flush, one query for all of them.
    ///
    /// Returns those formula cells, and the ones whose reads must be
    /// registered afresh: the graph moves a dependency the way its two
    /// ends move, but the sum range of a `SUMIF`/`AVERAGEIF` takes its
    /// shape from the criteria range, so once the edit has touched such a
    /// formula — before the edit or after it — the graph must hold what
    /// the formula now reads instead, which the workbook binds.
    pub(crate) fn restructure(&mut self, op: StructuralOp) -> (Vec<Cell>, Vec<Cell>) {
        debug_assert!(!self.has_origins(), "what was written before the edit is flushed first");
        let own = self.sheet_name().to_string();
        let own = own.as_str();
        let old = self.take_cells();
        let old_dirty: Vec<Cell> = old.dirty().filter_map(|cell| op.map_cell(cell)).collect();
        let (mut changed, mut reshaped) = (Vec::new(), Vec::new());
        for (cell, content) in old.into_cells() {
            let Some(nc) = op.map_cell(cell) else { continue };
            let CellContent { value, run } = content;
            let Some(run) = run else {
                self.put_cell(nc, CellContent::pure(value));
                continue;
            };
            let at = run.at(cell);
            let shaped = run.template().shapes_reads();
            let restated = restate(op, own, at, true);
            let touched = !matches!(restated, Restated::Untouched);
            if touched {
                changed.push(nc);
            }
            let moved = match restated {
                Restated::Rewritten(ast) => Some(Template::printed(ast)),
                _ => (nc != cell).then(|| at.to_template()),
            };
            let run = match moved {
                Some(formula) => self.run_of(nc, formula),
                None => run,
            };
            // A rewrite that kills the criteria range leaves a sum range
            // that no longer takes its shape: shaped before or after.
            if touched && (shaped || run.template().shapes_reads()) {
                reshaped.push(nc);
            }
            self.put_cell(nc, CellContent::formula_cell(run, value));
        }
        self.mark_cells_dirty(&old_dirty);
        for &nc in &changed {
            self.record_origin(Range::cell(nc));
        }
        (changed, reshaped)
    }
}

#[cfg(test)]
mod tests {
    use crate::{RecalcMode, SheetId, Workbook};
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

    /// The sheet of [`Workbook::one_sheet`].
    const S: SheetId = SheetId(0);

    /// A cumulative-total sheet used by several tests.
    fn cumulative_sheet(rows: u32) -> Workbook {
        let mut wb = Workbook::one_sheet();
        for row in 1..=rows {
            wb.set_value(S, Cell::new(1, row), n(1.0));
        }
        wb.set_formula(S, c("B1"), "=SUM($A$1:A1)").unwrap();
        wb.autofill(S, c("B1"), Range::from_coords(2, 2, 2, rows)).unwrap();
        wb.recalculate(RecalcMode::Serial);
        wb
    }

    #[test]
    fn insert_rows_shifts_values_and_formulas() {
        let mut wb = cumulative_sheet(10);
        assert_eq!(wb.value(S, c("B10")), n(10.0));
        wb.insert_rows(S, 5, 2);
        wb.recalculate(RecalcMode::Serial);
        // Row 10's content moved to row 12; the inserted rows are blank so
        // the totals are unchanged.
        assert_eq!(wb.value(S, c("B12")), n(10.0));
        assert_eq!(wb.value(S, c("B5")), Value::Empty);
        // The formula at the moved cell references the stretched range.
        assert_eq!(wb.formula_of(S, c("B12")).unwrap(), "SUM($A$1:A12)");
        // Filling one inserted row updates downstream totals.
        wb.set_value(S, c("A5"), n(100.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("B12")), n(110.0));
    }

    #[test]
    fn delete_rows_shrinks_references() {
        let mut wb = cumulative_sheet(10);
        wb.delete_rows(S, 3, 2); // drop rows 3-4 (two of the 1.0 inputs)
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("B8")), n(8.0)); // old B10: 10 − 2 inputs
        assert_eq!(wb.formula_of(S, c("B8")).unwrap(), "SUM($A$1:A8)");
    }

    #[test]
    fn delete_referenced_cells_yields_ref_error() {
        let mut wb = Workbook::one_sheet();
        wb.set_value(S, c("A5"), n(7.0));
        wb.set_formula(S, c("C1"), "=A5*2").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("C1")), n(14.0));
        wb.delete_rows(S, 5, 1);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.formula_of(S, c("C1")).unwrap(), "#REF!*2");
        assert_eq!(wb.value(S, c("C1")), Value::Error(CellError::Ref));
        // The graph no longer reports any precedents for C1.
        assert!(wb.find_precedents(S, r("C1")).is_empty());
    }

    #[test]
    fn insert_cols_shifts_column_references() {
        let mut wb = Workbook::one_sheet();
        wb.set_value(S, c("A1"), n(3.0));
        wb.set_formula(S, c("B1"), "=A1*10").unwrap();
        wb.recalculate(RecalcMode::Serial);
        wb.insert_cols(S, 2, 2); // push B to D
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("D1")), n(30.0));
        assert_eq!(wb.formula_of(S, c("D1")).unwrap(), "A1*10");
        // Changing A1 still propagates through the shifted graph.
        wb.set_value(S, c("A1"), n(5.0));
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("D1")), n(50.0));
    }

    #[test]
    fn structural_edit_matches_fresh_build() {
        // Inserting rows then recalculating must equal a sheet built in the
        // final layout from scratch.
        let mut edited = cumulative_sheet(8);
        edited.insert_rows(S, 4, 3);
        edited.recalculate(RecalcMode::Serial);

        let mut fresh = Workbook::one_sheet();
        for row in 1..=11u32 {
            if !(4..7).contains(&row) {
                fresh.set_value(S, Cell::new(1, row), n(1.0));
            }
        }
        for row in 1..=11u32 {
            if !(4..7).contains(&row) {
                fresh.set_formula(S, Cell::new(2, row), &format!("=SUM($A$1:A{row})")).unwrap();
            }
        }
        fresh.recalculate(RecalcMode::Serial);
        for row in 1..=11u32 {
            let cell = Cell::new(2, row);
            assert_eq!(edited.value(S, cell), fresh.value(S, cell), "row {row}");
        }
    }

    #[test]
    fn an_insert_through_a_cumulative_column_makes_one_dependents_query() {
        for rows in [64u32, 256] {
            let mut wb = cumulative_sheet(rows);
            // Every total from the insert point down stretches: a
            // formula that may change, and an origin of the query.
            let before = wb.dependents_queries;
            let receipt = wb.insert_rows(S, rows / 2, 1);
            assert_eq!(wb.dependents_queries - before, 1, "{rows} rows");
            let changed = (rows - rows / 2 + 1) as usize;
            assert_eq!((wb.dirty_count(), receipt.dirty.len()), (changed, changed), "{rows} rows");
            let before = wb.dependents_queries;
            wb.delete_rows(S, rows / 2, 1);
            assert_eq!(wb.dependents_queries - before, 1, "{rows} rows");
            wb.recalculate(RecalcMode::Serial);
            assert_eq!(wb.value(S, Cell::new(2, rows)), n(f64::from(rows)));
        }
    }

    #[test]
    fn structural_edit_dirties_only_affected_formulas() {
        // 10 cumulative formulas, all clean. Inserting rows *below* every
        // reference and every formula is a rigid no-op: zero cells dirty
        // (the old behavior re-dirtied all 10).
        let mut wb = cumulative_sheet(10);
        assert_eq!(wb.dirty_count(), 0);
        let receipt = wb.insert_rows(S, 20, 5);
        assert_eq!(wb.dirty_count(), 0, "rigid shift below all content dirties nothing");
        assert!(receipt.dirty.is_empty());

        // Inserting in the middle: B1..B5 reference only $A$1:A{row} above
        // the band and keep their cached values; B6..B10 (now B11..B15)
        // stretch and must recalculate.
        let receipt = wb.insert_rows(S, 6, 5);
        assert_eq!(wb.dirty_count(), 5, "only the formulas whose references changed recalc");
        assert!(!receipt.dirty.is_empty());
        assert_eq!(wb.value(S, c("B5")), n(5.0), "unchanged formulas keep their cached value");
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("B15")), n(10.0));
    }

    #[test]
    fn dirty_cells_survive_at_mapped_positions() {
        let mut wb = Workbook::one_sheet();
        for row in 1..=3u32 {
            wb.set_value(S, Cell::new(1, row), n(f64::from(row)));
            wb.set_formula(S, Cell::new(3, row + 9), &format!("=A{row}*2")).unwrap();
        }
        wb.recalculate(RecalcMode::Serial);
        wb.set_value(S, c("A2"), n(9.0)); // dirties C11 only
        assert_eq!(wb.dirty_count(), 1);
        // Insert between the referenced block and the formulas: every
        // reference stays above the band (identity rewrite), but the
        // pending recalculation must move with its cell (C11 → C14).
        wb.insert_rows(S, 5, 3);
        assert_eq!(wb.dirty_count(), 1);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("C14")), n(18.0));
    }

    #[test]
    fn identity_rewrite_keeps_original_source_text() {
        let mut wb = Workbook::one_sheet();
        wb.set_value(S, c("A1"), n(2.0));
        // Unidiomatic but user-written spelling that `ast.to_string()`
        // would normalize away.
        wb.set_formula(S, c("B2"), "=(A1 + 1)").unwrap();
        wb.recalculate(RecalcMode::Serial);
        wb.insert_rows(S, 5, 2); // below everything: identity rewrite
        assert_eq!(wb.formula_of(S, c("B2")).unwrap(), "(A1 + 1)");
        wb.delete_rows(S, 1, 1); // the referenced row dies: source is rewritten
        assert_eq!(wb.formula_of(S, c("B1")).unwrap(), "#REF!+1");
    }

    #[test]
    fn self_qualified_references_remap_with_the_sheet() {
        let mut wb = Workbook::new();
        wb.add_sheet("Data").unwrap();
        wb.set_value(S, c("A5"), n(7.0));
        wb.set_formula(S, c("C1"), "=Data!A5*2").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("C1")), n(14.0));
        wb.insert_rows(S, 3, 2);
        assert_eq!(wb.formula_of(S, c("C1")).unwrap(), "Data!A7*2");
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("C1")), n(14.0));
        // Deleting the qualified target yields #REF! like a local ref.
        wb.delete_rows(S, 7, 1);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.formula_of(S, c("C1")).unwrap(), "#REF!*2");
        assert_eq!(wb.value(S, c("C1")), Value::Error(CellError::Ref));
    }

    /// A `SUMIF` sum range is read in the shape of the criteria range, so
    /// an edit that reshapes the criteria range changes which cells the
    /// formula reads without touching the sum reference: the graph must
    /// hold the new read, not the old one moved.
    #[test]
    fn a_reshaped_criteria_range_moves_what_the_sum_range_reads() {
        let mut wb = Workbook::one_sheet();
        for row in 1..=8u32 {
            wb.set_value(S, Cell::new(2, row), n(f64::from(row)));
        }
        wb.set_value(S, c("A5"), n(1.0));
        wb.set_value(S, c("A6"), n(1.0));
        wb.set_formula(S, c("D1"), "=SUMIF(A5:A6,\">0\",B1:B2)").unwrap();
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("D1")), n(3.0));
        // Two rows inside the criteria range, below the sum reference:
        // the criteria are A5 and A8 now, matched against B1 and B4.
        wb.insert_rows(S, 6, 2);
        assert_eq!(wb.formula_of(S, c("D1")).unwrap(), "SUMIF(A5:A8,\">0\",B1:B2)");
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("D1")), n(5.0));
        // B4 is read only since the edit.
        wb.set_value(S, c("B4"), n(100.0));
        assert_eq!(wb.dirty_count(), 1, "the formula reads B4 now");
        wb.recalculate(RecalcMode::Serial);
        // A sheet typed in as this one now reads agrees, graph and value.
        let mut rebuilt = Workbook::one_sheet();
        for (cell, content) in wb.sheet(S).cells() {
            if let Some(formula) = content.formula(cell) {
                rebuilt.set_formula(S, cell, &formula.to_string()).unwrap();
            } else {
                rebuilt.set_value(S, cell, content.value().clone());
            }
        }
        rebuilt.recalculate(RecalcMode::Serial);
        let reads = |wb: &Workbook| {
            let mut deps = wb.sheet(S).graph().decompress_all();
            deps.sort_unstable_by_key(|d| (d.dep, d.prec.head(), d.prec.tail()));
            deps
        };
        assert_eq!(reads(&wb), reads(&rebuilt));
        assert_eq!(wb.value(S, c("D1")), rebuilt.value(S, c("D1")));
        assert_eq!(wb.value(S, c("D1")), n(101.0));
    }

    /// The converse: an edit that deletes the whole criteria range leaves
    /// the sum reference read as it is written, one cell, and the graph
    /// must stop holding the shape it was read in.
    #[test]
    fn a_deleted_criteria_range_unshapes_what_the_sum_range_reads() {
        let mut wb = Workbook::one_sheet();
        wb.set_formula(S, c("D1"), "=SUMIF(E4:F7,\">0\",B4)").unwrap();
        wb.recalculate(RecalcMode::Serial);
        wb.delete_cols(S, 5, 2);
        assert_eq!(wb.formula_of(S, c("D1")).unwrap(), "SUMIF(#REF!,\">0\",B4)");
        wb.recalculate(RecalcMode::Serial);
        // C5 was read in the criteria range's shape, B4:C7; it is not now.
        wb.set_value(S, c("C5"), n(1.0));
        assert_eq!(wb.dirty_count(), 0, "the formula reads B4 alone");
        let mut deps = wb.sheet(S).graph().decompress_all();
        deps.retain(|d| d.dep == c("D1"));
        assert_eq!(deps.iter().map(|d| d.prec).collect::<Vec<_>>(), [r("B4")]);
    }

    #[test]
    fn graph_stays_compressed_after_rigid_shift() {
        let mut wb = cumulative_sheet(50);
        let before = wb.sheet(S).graph().num_edges();
        wb.insert_rows(S, 60, 5); // below everything: rigid no-op
        assert_eq!(wb.sheet(S).graph().num_edges(), before);
        wb.insert_rows(S, 1, 5); // above everything: rigid shift
        assert_eq!(wb.sheet(S).graph().num_edges(), before);
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(S, c("B55")), n(50.0));
    }
}
