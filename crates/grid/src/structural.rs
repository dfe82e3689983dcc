//! Structural-edit geometry: how cells and ranges move when rows or
//! columns are inserted or deleted (Excel semantics).
//!
//! Inserting `n` rows *before* row `at` shifts everything at `at` and
//! below down by `n`; a range whose interior spans the insertion point
//! stretches. Deleting the band `[at, at + n)` drops cells inside it,
//! shifts everything below up, and shrinks ranges that overlap the band —
//! a range entirely inside the band disappears (the `#REF!` case).
//!
//! Column operations are the row operations transposed.

use crate::{Cell, Range, MAX_COL, MAX_ROW};

impl Cell {
    /// Position after inserting `n` rows before row `at`; `None` if the
    /// cell is pushed off the bottom of the grid.
    pub fn insert_rows(self, at: u32, n: u32) -> Option<Cell> {
        if self.row < at {
            Some(self)
        } else {
            let row = u64::from(self.row) + u64::from(n);
            (row <= u64::from(MAX_ROW)).then(|| Cell::new(self.col, row as u32))
        }
    }

    /// Position after deleting the rows `[at, at + n)`; `None` if the cell
    /// itself is deleted.
    pub fn delete_rows(self, at: u32, n: u32) -> Option<Cell> {
        if self.row < at {
            Some(self)
        } else if self.row < at.saturating_add(n) {
            None
        } else {
            Some(Cell::new(self.col, self.row - n))
        }
    }

    /// Position after inserting `n` columns before column `at`.
    pub fn insert_cols(self, at: u32, n: u32) -> Option<Cell> {
        if self.col < at {
            Some(self)
        } else {
            let col = u64::from(self.col) + u64::from(n);
            (col <= u64::from(MAX_COL)).then(|| Cell::new(col as u32, self.row))
        }
    }

    /// Position after deleting the columns `[at, at + n)`.
    pub fn delete_cols(self, at: u32, n: u32) -> Option<Cell> {
        if self.col < at {
            Some(self)
        } else if self.col < at.saturating_add(n) {
            None
        } else {
            Some(Cell::new(self.col - n, self.row))
        }
    }
}

impl Range {
    /// The range after inserting `n` rows before row `at`: shifts if
    /// entirely at/below `at`, stretches if `at` falls strictly inside,
    /// and is unchanged if entirely above. `None` if the whole range is
    /// pushed off the grid.
    pub fn insert_rows(&self, at: u32, n: u32) -> Option<Range> {
        self.insert_rows_within(at, n, MAX_ROW)
    }

    /// [`Self::insert_rows`] on a grid of `last_row` rows (the transposed
    /// column insert has [`MAX_COL`] of them).
    fn insert_rows_within(&self, at: u32, n: u32, last_row: u32) -> Option<Range> {
        let head = self.head();
        let tail = self.tail();
        if tail.row < at {
            return Some(*self);
        }
        let new_tail_row = (u64::from(tail.row) + u64::from(n)).min(u64::from(last_row)) as u32;
        let new_head_row = if head.row < at {
            head.row // stretched range keeps its top
        } else {
            let r = u64::from(head.row) + u64::from(n);
            if r > u64::from(last_row) {
                return None;
            }
            r as u32
        };
        Some(Range::from_coords(head.col, new_head_row, tail.col, new_tail_row))
    }

    /// The range after deleting the rows `[at, at + n)`: `None` if it lay
    /// entirely inside the band (its referents are gone — `#REF!`).
    pub fn delete_rows(&self, at: u32, n: u32) -> Option<Range> {
        let band_end = at.saturating_add(n); // first surviving row below
        let head = self.head();
        let tail = self.tail();
        if tail.row < at {
            return Some(*self);
        }
        if head.row >= at && tail.row < band_end {
            return None;
        }
        let new_head_row = if head.row < at {
            head.row
        } else if head.row < band_end {
            at
        } else {
            head.row - n
        };
        let new_tail_row = if tail.row < band_end { at - 1 } else { tail.row - n };
        if new_head_row > new_tail_row || new_tail_row == 0 {
            return None;
        }
        Some(Range::from_coords(head.col, new_head_row, tail.col, new_tail_row))
    }

    /// The range after inserting `n` columns before column `at`.
    pub fn insert_cols(&self, at: u32, n: u32) -> Option<Range> {
        Some(self.transpose().insert_rows_within(at, n, MAX_COL)?.transpose())
    }

    /// The range after deleting the columns `[at, at + n)`.
    pub fn delete_cols(&self, at: u32, n: u32) -> Option<Range> {
        Some(self.transpose().delete_rows(at, n)?.transpose())
    }

    /// `true` iff inserting rows before `at` would stretch this range
    /// (the insertion point lies strictly inside).
    pub fn row_insert_straddles(&self, at: u32) -> bool {
        self.head().row < at && at <= self.tail().row
    }

    /// `true` iff deleting rows `[at, at + n)` overlaps this range.
    pub fn row_delete_overlaps(&self, at: u32, n: u32) -> bool {
        let band_end = at.saturating_add(n);
        self.head().row < band_end && at <= self.tail().row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: &str) -> Range {
        Range::parse_a1(s).unwrap()
    }

    fn c(s: &str) -> Cell {
        Cell::parse_a1(s).unwrap()
    }

    #[test]
    fn cell_insert_rows() {
        assert_eq!(c("B3").insert_rows(5, 2), Some(c("B3"))); // above: unchanged
        assert_eq!(c("B5").insert_rows(5, 2), Some(c("B7"))); // at: shifts
        assert_eq!(c("B9").insert_rows(5, 2), Some(c("B11")));
        // Pushed off the grid.
        assert_eq!(Cell::new(1, MAX_ROW).insert_rows(1, 1), None);
    }

    #[test]
    fn cell_delete_rows() {
        assert_eq!(c("B3").delete_rows(5, 2), Some(c("B3")));
        assert_eq!(c("B5").delete_rows(5, 2), None); // inside the band
        assert_eq!(c("B6").delete_rows(5, 2), None);
        assert_eq!(c("B7").delete_rows(5, 2), Some(c("B5")));
    }

    #[test]
    fn cell_cols_are_transposed_rows() {
        assert_eq!(c("C2").insert_cols(2, 3), Some(c("F2")));
        assert_eq!(c("A2").insert_cols(2, 3), Some(c("A2")));
        assert_eq!(c("C2").delete_cols(2, 2), None);
        assert_eq!(c("D2").delete_cols(2, 2), Some(c("B2")));
    }

    #[test]
    fn range_insert_rows_stretches_interior() {
        // A2:A10 with rows inserted before 5: interior → stretches.
        assert_eq!(r("A2:A10").insert_rows(5, 3), Some(r("A2:A13")));
        // Entirely above: unchanged.
        assert_eq!(r("A2:A4").insert_rows(5, 3), Some(r("A2:A4")));
        // Entirely below: shifts.
        assert_eq!(r("A6:A8").insert_rows(5, 3), Some(r("A9:A11")));
        // Insert before the head row: shifts (no stretch — Excel moves it).
        assert_eq!(r("A5:A8").insert_rows(5, 3), Some(r("A8:A11")));
    }

    #[test]
    fn range_delete_rows_shrinks_and_refs() {
        // Band inside the range: shrink.
        assert_eq!(r("A2:A10").delete_rows(4, 3), Some(r("A2:A7")));
        // Band covering the whole range: gone (#REF!).
        assert_eq!(r("A4:A6").delete_rows(3, 5), None);
        // Band overlapping the top.
        assert_eq!(r("A4:A10").delete_rows(2, 4), Some(r("A2:A6")));
        // Band overlapping the bottom.
        assert_eq!(r("A2:A6").delete_rows(5, 4), Some(r("A2:A4")));
        // Entirely below the band: shifts up.
        assert_eq!(r("A8:A10").delete_rows(2, 3), Some(r("A5:A7")));
        // Entirely above: unchanged.
        assert_eq!(r("A1:A3").delete_rows(5, 2), Some(r("A1:A3")));
    }

    #[test]
    fn straddle_predicates() {
        assert!(r("A2:A10").row_insert_straddles(5));
        assert!(!r("A2:A10").row_insert_straddles(2)); // at head: pure shift
        assert!(!r("A2:A10").row_insert_straddles(11));
        assert!(r("A2:A10").row_delete_overlaps(10, 5));
        assert!(!r("A2:A10").row_delete_overlaps(11, 5));
        assert!(r("A2:A10").row_delete_overlaps(1, 2));
        assert!(!r("A3:A10").row_delete_overlaps(1, 2));
    }

    #[test]
    fn excel_partial_vs_full_delete_semantics() {
        // Excel's rule, pinned: a delete band that *partially* overlaps a
        // referenced range shrinks it; only a band that covers the range
        // end to end kills the reference (#REF!, i.e. `None`).
        // Band == range exactly.
        assert_eq!(r("A3:A5").delete_rows(3, 3), None);
        // Band strictly larger than the range on both sides.
        assert_eq!(r("A3:A5").delete_rows(2, 5), None);
        // Partial top overlap: surviving rows shift up to the band start.
        assert_eq!(r("A4:A10").delete_rows(2, 4), Some(r("A2:A6")));
        // Partial bottom overlap: range is clipped at the band start.
        assert_eq!(r("A3:A5").delete_rows(4, 10), Some(r("A3:A3")));
        // Band covers the head but the tail survives and shifts up.
        assert_eq!(r("A3:A5").delete_rows(1, 4), Some(r("A1:A1")));
        // A single-cell range inside the band is fully contained.
        assert_eq!(r("B4").delete_rows(3, 3), None);
        // The same rules, transposed onto columns.
        assert_eq!(r("C2:E9").delete_cols(3, 3), None);
        assert_eq!(r("C2:E9").delete_cols(4, 9), Some(r("C2:C9")));
        assert_eq!(r("C2:E9").delete_cols(1, 4), Some(r("A2:A9")));
    }

    #[test]
    fn col_ops_via_transpose() {
        assert_eq!(r("B2:D5").insert_cols(3, 2), Some(r("B2:F5")));
        assert_eq!(r("B2:D5").delete_cols(3, 1), Some(r("B2:C5")));
        assert_eq!(r("C2:C5").delete_cols(2, 3), None);
    }

    #[test]
    fn inserts_clamp_at_the_last_row_and_the_last_column() {
        // A stretched or shifted tail stops at the grid's edge — the last
        // *column* for a column insert, not the (larger) last row.
        assert_eq!(r("A1:A1048576").insert_rows(3, 2), Some(r("A1:A1048576")));
        assert_eq!(r("A1:XFD1").insert_cols(3, 2), Some(r("A1:XFD1")));
        assert_eq!(r("XFA1:XFC2").insert_cols(2, 2), Some(r("XFC1:XFD2")));
        // A head pushed past the edge takes the range with it.
        assert_eq!(r("A1048575:A1048576").insert_rows(2, 2), None);
        assert_eq!(r("XFC1:XFD1").insert_cols(2, 2), None);
    }

    #[test]
    fn insert_then_delete_is_identity_for_shifted_ranges() {
        for s in ["A6:A8", "B2:C4", "A10"] {
            let orig = r(s);
            if orig.head().row >= 5 {
                let ins = orig.insert_rows(5, 3).unwrap();
                assert_eq!(ins.delete_rows(5, 3), Some(orig), "{s}");
            }
        }
    }
}
