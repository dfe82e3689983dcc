use crate::{GridError, Offset, MAX_COL, MAX_ROW};
use std::fmt;

/// A single cell position.
///
/// Both coordinates are 1-based, matching the paper's `(i, j)` convention
/// where `i` is the column index and `j` the row index. `A1` is
/// `Cell { col: 1, row: 1 }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// 1-based column index (`A` = 1).
    pub col: u32,
    /// 1-based row index.
    pub row: u32,
}

impl Cell {
    /// Creates a cell, panicking if either coordinate is zero.
    ///
    /// Use [`Cell::try_new`] for fallible construction from untrusted input.
    #[inline]
    pub fn new(col: u32, row: u32) -> Self {
        assert!(col >= 1 && row >= 1, "cell coordinates are 1-based");
        Cell { col, row }
    }

    /// Fallible constructor that also enforces the grid limits.
    #[inline]
    pub fn try_new(col: i64, row: i64) -> Result<Self, GridError> {
        if col < 1 || row < 1 || col > i64::from(MAX_COL) || row > i64::from(MAX_ROW) {
            return Err(GridError::OutOfBounds { col, row });
        }
        Ok(Cell { col: col as u32, row: row as u32 })
    }

    /// The relative position of `self` with respect to `other`, i.e. the
    /// offset `o` such that `other + o == self`.
    ///
    /// This is the paper's `u − v` used by `rel(e)`: e.g. for the edge
    /// `A5:B7 → C5`, `hRel = A5 − C5 = (−2, 0)`.
    #[inline]
    pub fn offset_from(self, other: Cell) -> Offset {
        Offset {
            dc: i64::from(self.col) - i64::from(other.col),
            dr: i64::from(self.row) - i64::from(other.row),
        }
    }

    /// Translates the cell by an offset, failing if it leaves the grid.
    #[inline]
    pub fn offset(self, o: Offset) -> Result<Cell, GridError> {
        Cell::try_new(i64::from(self.col) + o.dc, i64::from(self.row) + o.dr)
    }

    /// Translates the cell by an offset without bounds checking against the
    /// grid maxima (still requires the result to be ≥ (1,1)).
    ///
    /// `find_dep`-style back-calculations may transiently step outside the
    /// dependent range before intersecting; they must never step below 1.
    #[inline]
    pub fn offset_saturating(self, o: Offset) -> Cell {
        let col = (i64::from(self.col) + o.dc).clamp(1, i64::from(u32::MAX));
        let row = (i64::from(self.row) + o.dr).clamp(1, i64::from(u32::MAX));
        Cell { col: col as u32, row: row as u32 }
    }

    /// Swaps the column and row coordinates.
    ///
    /// Pattern algorithms are written for column-axis compression; the
    /// row-axis case transposes its inputs, runs the same math, and
    /// transposes back (the paper's "derived symmetrically").
    #[inline]
    pub fn transpose(self) -> Cell {
        Cell { col: self.row, row: self.col }
    }

    /// Formats the cell in A1 notation (e.g. `"C5"`).
    pub fn to_a1(self) -> String {
        format!("{}{}", crate::a1::col_to_letters(self.col), self.row)
    }

    /// Parses plain A1 notation (no `$` markers; see [`crate::a1`] for
    /// references with absolute markers).
    pub fn parse_a1(s: &str) -> Result<Self, GridError> {
        let r = crate::a1::CellRef::parse(s)?;
        if r.col_abs || r.row_abs {
            return Err(GridError::BadA1(s.to_string()));
        }
        Ok(r.cell)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_a1())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_round_trip() {
        let a = Cell::new(3, 5);
        let b = Cell::new(1, 9);
        let o = a.offset_from(b);
        assert_eq!(o, Offset { dc: 2, dr: -4 });
        assert_eq!(b.offset(o).unwrap(), a);
    }

    #[test]
    fn rel_example_from_paper() {
        // e' = A5:B7 → C5: hRel = A5 − C5 = (−2, 0), tRel = B7 − C5 = (−1, 2).
        let c5 = Cell::new(3, 5);
        let a5 = Cell::new(1, 5);
        let b7 = Cell::new(2, 7);
        assert_eq!(a5.offset_from(c5), Offset { dc: -2, dr: 0 });
        assert_eq!(b7.offset_from(c5), Offset { dc: -1, dr: 2 });
    }

    #[test]
    fn try_new_bounds() {
        assert!(Cell::try_new(0, 1).is_err());
        assert!(Cell::try_new(1, 0).is_err());
        assert!(Cell::try_new(-3, 10).is_err());
        assert!(Cell::try_new(i64::from(MAX_COL) + 1, 1).is_err());
        assert!(Cell::try_new(1, i64::from(MAX_ROW) + 1).is_err());
        assert_eq!(Cell::try_new(1, 1).unwrap(), Cell::new(1, 1));
    }

    #[test]
    fn offset_out_of_grid_is_error() {
        let a1 = Cell::new(1, 1);
        assert!(a1.offset(Offset { dc: -1, dr: 0 }).is_err());
        assert!(a1.offset(Offset { dc: 0, dr: -1 }).is_err());
    }

    #[test]
    fn saturating_offset_clamps_at_one() {
        let a1 = Cell::new(1, 1);
        assert_eq!(a1.offset_saturating(Offset { dc: -5, dr: -5 }), Cell::new(1, 1));
    }

    #[test]
    fn transpose_is_involution() {
        let c = Cell::new(7, 2);
        assert_eq!(c.transpose().transpose(), c);
        assert_eq!(c.transpose(), Cell::new(2, 7));
    }

    #[test]
    fn display_and_parse() {
        let c = Cell::new(28, 12);
        assert_eq!(c.to_a1(), "AB12");
        assert_eq!(Cell::parse_a1("AB12").unwrap(), c);
        assert!(Cell::parse_a1("$AB12").is_err());
    }

    #[test]
    fn ordering_is_row_major_by_col_then_row() {
        // Ord derives in field order (col, row): fine for BTreeMap keys; just
        // pin the behaviour so accidental field reorders get caught.
        assert!(Cell::new(1, 9) < Cell::new(2, 1));
        assert!(Cell::new(2, 1) < Cell::new(2, 2));
    }
}
