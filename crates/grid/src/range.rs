use crate::{Cell, GridError, Offset};
use std::fmt;

/// A rectangular region of cells, identified by its top-left (`head`) and
/// bottom-right (`tail`) cells — the paper's "range, akin to a 2D window".
///
/// Invariant: `head.col <= tail.col && head.row <= tail.row`. The
/// constructors normalize their inputs so the invariant always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Range {
    head: Cell,
    tail: Cell,
}

impl Range {
    /// Creates a range from two corner cells in any order.
    #[inline]
    pub fn new(a: Cell, b: Cell) -> Self {
        Range {
            head: Cell { col: a.col.min(b.col), row: a.row.min(b.row) },
            tail: Cell { col: a.col.max(b.col), row: a.row.max(b.row) },
        }
    }

    /// The single-cell range covering `c`.
    #[inline]
    pub fn cell(c: Cell) -> Self {
        Range { head: c, tail: c }
    }

    /// Convenience constructor from raw 1-based coordinates
    /// `(head_col, head_row, tail_col, tail_row)`.
    #[inline]
    pub fn from_coords(hc: u32, hr: u32, tc: u32, tr: u32) -> Self {
        Range::new(Cell::new(hc, hr), Cell::new(tc, tr))
    }

    /// Top-left cell.
    #[inline]
    pub fn head(&self) -> Cell {
        self.head
    }

    /// Bottom-right cell.
    #[inline]
    pub fn tail(&self) -> Cell {
        self.tail
    }

    /// Number of columns spanned.
    #[inline]
    pub fn width(&self) -> u32 {
        self.tail.col - self.head.col + 1
    }

    /// Number of rows spanned.
    #[inline]
    pub fn height(&self) -> u32 {
        self.tail.row - self.head.row + 1
    }

    /// Number of cells covered.
    #[inline]
    pub fn area(&self) -> u64 {
        u64::from(self.width()) * u64::from(self.height())
    }

    /// `true` iff the range covers exactly one cell.
    #[inline]
    pub fn is_cell(&self) -> bool {
        self.head == self.tail
    }

    /// `true` iff the range is a single column or single row of cells.
    #[inline]
    pub fn is_line(&self) -> bool {
        self.width() == 1 || self.height() == 1
    }

    /// `true` iff `c` lies inside the range.
    #[inline]
    pub fn contains_cell(&self, c: Cell) -> bool {
        self.head.col <= c.col
            && c.col <= self.tail.col
            && self.head.row <= c.row
            && c.row <= self.tail.row
    }

    /// `true` iff `other` lies entirely inside `self`.
    #[inline]
    pub fn contains(&self, other: &Range) -> bool {
        self.contains_cell(other.head) && self.contains_cell(other.tail)
    }

    /// `true` iff the two ranges share at least one cell.
    #[inline]
    pub fn overlaps(&self, other: &Range) -> bool {
        self.head.col <= other.tail.col
            && other.head.col <= self.tail.col
            && self.head.row <= other.tail.row
            && other.head.row <= self.tail.row
    }

    /// The shared region, if any.
    #[inline]
    pub fn intersect(&self, other: &Range) -> Option<Range> {
        if !self.overlaps(other) {
            return None;
        }
        Some(Range {
            head: Cell {
                col: self.head.col.max(other.head.col),
                row: self.head.row.max(other.head.row),
            },
            tail: Cell {
                col: self.tail.col.min(other.tail.col),
                row: self.tail.row.min(other.tail.row),
            },
        })
    }

    /// Minimal bounding range of `self` and `other` — the paper's `⊕`
    /// operator used to merge precedents/dependents into a compressed edge
    /// (e.g. `A1:A3 ⊕ A2:A5 = A1:A5`).
    #[inline]
    pub fn bounding_union(&self, other: &Range) -> Range {
        Range {
            head: Cell {
                col: self.head.col.min(other.head.col),
                row: self.head.row.min(other.head.row),
            },
            tail: Cell {
                col: self.tail.col.max(other.tail.col),
                row: self.tail.row.max(other.tail.row),
            },
        }
    }

    /// Subtracts `other` from `self`, returning the uncovered region as at
    /// most four disjoint rectangles (top and bottom slabs across the full
    /// width, then left and right slabs within the overlapping rows).
    ///
    /// Returns `[self]` when the ranges are disjoint and `[]` when `other`
    /// covers `self`. This is the workhorse behind `removeDep` (clearing a
    /// segment from a compressed edge's dependent) and the visited-set
    /// subtraction in the modified BFS.
    pub fn subtract(&self, other: &Range) -> Vec<Range> {
        let mut out = Vec::with_capacity(4);
        self.subtract_into(other, &mut out);
        out
    }

    /// [`Self::subtract`] appending to a caller-owned buffer instead of
    /// allocating (the modified-BFS hot path calls this per visited
    /// overlap).
    pub fn subtract_into(&self, other: &Range, out: &mut Vec<Range>) {
        let Some(ov) = self.intersect(other) else {
            out.push(*self);
            return;
        };
        // Top slab: rows above the overlap, full width.
        if self.head.row < ov.head.row {
            out.push(Range::from_coords(
                self.head.col,
                self.head.row,
                self.tail.col,
                ov.head.row - 1,
            ));
        }
        // Bottom slab: rows below the overlap, full width.
        if ov.tail.row < self.tail.row {
            out.push(Range::from_coords(
                self.head.col,
                ov.tail.row + 1,
                self.tail.col,
                self.tail.row,
            ));
        }
        // Left slab: columns left of the overlap, within overlap rows.
        if self.head.col < ov.head.col {
            out.push(Range::from_coords(self.head.col, ov.head.row, ov.head.col - 1, ov.tail.row));
        }
        // Right slab: columns right of the overlap, within overlap rows.
        if ov.tail.col < self.tail.col {
            out.push(Range::from_coords(ov.tail.col + 1, ov.head.row, self.tail.col, ov.tail.row));
        }
    }

    /// Subtracts every range in `covers` from `self` into caller-owned
    /// buffers: `pieces` ends up holding the uncovered remainder as
    /// disjoint rectangles, `tmp` is double-buffer scratch. Both are
    /// cleared first; with warmed capacities the refinement allocates
    /// nothing.
    pub fn subtract_all_into<'a, I>(&self, covers: I, pieces: &mut Vec<Range>, tmp: &mut Vec<Range>)
    where
        I: IntoIterator<Item = &'a Range>,
    {
        pieces.clear();
        tmp.clear();
        pieces.push(*self);
        for c in covers {
            if pieces.is_empty() {
                break;
            }
            tmp.clear();
            for p in pieces.iter() {
                p.subtract_into(c, tmp);
            }
            std::mem::swap(pieces, tmp);
        }
    }

    /// Translates the whole range by an offset.
    #[inline]
    pub fn shift(&self, o: Offset) -> Result<Range, GridError> {
        Ok(Range { head: self.head.offset(o)?, tail: self.tail.offset(o)? })
    }

    /// Swaps columns and rows of both corners (row-axis transposition).
    #[inline]
    pub fn transpose(&self) -> Range {
        // head/tail remain head/tail under transposition because min/max per
        // coordinate are preserved by the swap.
        Range { head: self.head.transpose(), tail: self.tail.transpose() }
    }

    /// Iterates over all cells in row-major order.
    ///
    /// Intended for small ranges (tests, the cell-level reference); the area can
    /// be up to `MAX_COL * MAX_ROW`, so callers must bound it themselves.
    pub fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        let (hc, tc) = (self.head.col, self.tail.col);
        (self.head.row..=self.tail.row)
            .flat_map(move |row| (hc..=tc).map(move |col| Cell { col, row }))
    }

    /// Formats in A1 notation: single cells collapse to `"C5"`, other
    /// ranges print as `"A1:B2"`.
    pub fn to_a1(&self) -> String {
        if self.is_cell() {
            self.head.to_a1()
        } else {
            format!("{}:{}", self.head.to_a1(), self.tail.to_a1())
        }
    }

    /// Parses `"A1"` or `"A1:B2"` (no `$` markers; see [`crate::a1`]).
    pub fn parse_a1(s: &str) -> Result<Self, GridError> {
        match s.split_once(':') {
            None => Ok(Range::cell(Cell::parse_a1(s)?)),
            Some((a, b)) => Ok(Range::new(Cell::parse_a1(a)?, Cell::parse_a1(b)?)),
        }
    }
}

impl From<Cell> for Range {
    fn from(c: Cell) -> Self {
        Range::cell(c)
    }
}

/// A range is a list of one range: a query over a set of ranges
/// (`taco_core`'s dependents and precedents, whose BFS starts from every
/// range it is given) takes a single one as it is.
impl AsRef<[Range]> for Range {
    fn as_ref(&self) -> &[Range] {
        std::slice::from_ref(self)
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_a1())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: &str) -> Range {
        Range::parse_a1(s).unwrap()
    }

    #[test]
    fn normalizes_corners() {
        let a = Range::new(Cell::new(5, 1), Cell::new(2, 7));
        assert_eq!(a.head(), Cell::new(2, 1));
        assert_eq!(a.tail(), Cell::new(5, 7));
    }

    #[test]
    fn dims() {
        let a = r("B2:D5");
        assert_eq!(a.width(), 3);
        assert_eq!(a.height(), 4);
        assert_eq!(a.area(), 12);
        assert!(!a.is_cell());
        assert!(r("C3").is_cell());
        assert!(r("A1:A9").is_line());
        assert!(r("A1:C1").is_line());
        assert!(!a.is_line());
    }

    #[test]
    fn containment_and_overlap() {
        let a = r("B2:E6");
        assert!(a.contains(&r("C3:D4")));
        assert!(a.contains(&a));
        assert!(!a.contains(&r("A1:C3")));
        assert!(a.overlaps(&r("A1:C3")));
        assert!(!a.overlaps(&r("F1:G9")));
        assert!(a.contains_cell(Cell::new(2, 2)));
        assert!(!a.contains_cell(Cell::new(1, 2)));
    }

    #[test]
    fn intersect_cases() {
        assert_eq!(r("B2:E6").intersect(&r("D4:G9")), Some(r("D4:E6")));
        assert_eq!(r("A1:B2").intersect(&r("C3:D4")), None);
        assert_eq!(r("A1:B2").intersect(&r("A1:B2")), Some(r("A1:B2")));
    }

    #[test]
    fn bounding_union_matches_paper_example() {
        // ⊕ merges A1:A3 and A2:A5 into A1:A5.
        assert_eq!(r("A1:A3").bounding_union(&r("A2:A5")), r("A1:A5"));
        // Non-overlapping ranges still produce the bounding box.
        assert_eq!(r("A1").bounding_union(&r("C3")), r("A1:C3"));
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        assert_eq!(r("A1:B2").subtract(&r("D4:E5")), vec![r("A1:B2")]);
    }

    #[test]
    fn subtract_covering_returns_empty() {
        assert!(r("B2:C3").subtract(&r("A1:D4")).is_empty());
    }

    #[test]
    fn subtract_middle_of_column() {
        // Paper example: removing C2 from C1:C4 leaves C1 and C3:C4.
        let out = r("C1:C4").subtract(&r("C2"));
        assert_eq!(out, vec![r("C1"), r("C3:C4")]);
    }

    #[test]
    fn subtract_center_yields_four_pieces() {
        let out = r("A1:E5").subtract(&r("C3"));
        assert_eq!(out.len(), 4);
        let total: u64 = out.iter().map(Range::area).sum();
        assert_eq!(total, 24);
        // Pieces must be disjoint and avoid C3.
        for (i, a) in out.iter().enumerate() {
            assert!(!a.overlaps(&r("C3")));
            for b in out.iter().skip(i + 1) {
                assert!(!a.overlaps(b));
            }
        }
    }

    #[test]
    fn subtract_all_multiple_covers() {
        let (mut out, mut tmp) = (vec![r("Z9")], vec![r("Z9")]);
        r("A1:A10").subtract_all_into([r("A2:A3"), r("A7")].iter(), &mut out, &mut tmp);
        assert_eq!(
            out,
            vec![r("A1"), r("A4:A10")]
                .into_iter()
                .flat_map(|p| p.subtract(&r("A7")))
                .collect::<Vec<_>>()
        );
        let total: u64 = out.iter().map(Range::area).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn shift_and_transpose() {
        assert_eq!(r("B2:C3").shift(Offset::new(1, 2)).unwrap(), r("C4:D5"));
        assert!(r("A1").shift(Offset::new(-1, 0)).is_err());
        assert_eq!(r("B1:C5").transpose(), Range::from_coords(1, 2, 5, 3));
        assert_eq!(r("B1:C5").transpose().transpose(), r("B1:C5"));
    }

    #[test]
    fn cells_iteration_row_major() {
        let cells: Vec<Cell> = r("B2:C3").cells().collect();
        assert_eq!(cells, vec![Cell::new(2, 2), Cell::new(3, 2), Cell::new(2, 3), Cell::new(3, 3)]);
    }

    #[test]
    fn a1_round_trip() {
        for s in ["A1", "A1:B2", "AB12:XFD99"] {
            assert_eq!(r(s).to_a1(), s);
        }
        // Reversed corners normalize.
        assert_eq!(Range::parse_a1("B2:A1").unwrap().to_a1(), "A1:B2");
    }
}
