use crate::{Cell, Offset, Range};

/// The axis along which a run of formula cells is compressed.
///
/// The paper defines the basic patterns for "adjacent cells in a column"
/// and notes the row-wise case "can be derived symmetrically". We exploit
/// that symmetry: all pattern math is written for [`Axis::Col`], and
/// [`Axis::Row`] transposes ranges/offsets on the way in and out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// Column-wise compression: the dependent cells form a vertical run
    /// (one column, consecutive rows).
    Col,
    /// Row-wise compression: the dependent cells form a horizontal run.
    Row,
}

impl Axis {
    /// Maps a range into canonical (column-axis) coordinates.
    #[inline]
    pub fn canon(self, r: Range) -> Range {
        match self {
            Axis::Col => r,
            Axis::Row => r.transpose(),
        }
    }

    /// Maps a range back from canonical coordinates.
    ///
    /// Transposition is an involution, so this is the same operation as
    /// [`Axis::canon`]; the distinct name documents direction at call sites.
    #[inline]
    pub fn uncanon(self, r: Range) -> Range {
        self.canon(r)
    }

    /// Maps a cell into canonical coordinates.
    #[inline]
    pub fn canon_cell(self, c: Cell) -> Cell {
        match self {
            Axis::Col => c,
            Axis::Row => c.transpose(),
        }
    }

    /// Maps an offset into canonical coordinates.
    #[inline]
    pub fn canon_offset(self, o: Offset) -> Offset {
        match self {
            Axis::Col => o,
            Axis::Row => o.transpose(),
        }
    }

    /// The perpendicular axis.
    #[inline]
    pub fn other(self) -> Axis {
        match self {
            Axis::Col => Axis::Row,
            Axis::Row => Axis::Col,
        }
    }

    /// Whether two cells are adjacent along this axis (same perpendicular
    /// coordinate, axis coordinates differing by one). Column-axis adjacency
    /// means vertically adjacent cells in one column.
    #[inline]
    pub fn adjacent(self, a: Cell, b: Cell) -> bool {
        let (a, b) = (self.canon_cell(a), self.canon_cell(b));
        a.col == b.col && a.row.abs_diff(b.row) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_round_trips() {
        let r = Range::from_coords(2, 1, 3, 5);
        for axis in [Axis::Col, Axis::Row] {
            assert_eq!(axis.uncanon(axis.canon(r)), r);
        }
        assert_eq!(Axis::Row.canon(r), Range::from_coords(1, 2, 5, 3));
    }

    #[test]
    fn adjacency() {
        let a = Cell::new(3, 4);
        assert!(Axis::Col.adjacent(a, Cell::new(3, 5)));
        assert!(Axis::Col.adjacent(a, Cell::new(3, 3)));
        assert!(!Axis::Col.adjacent(a, Cell::new(4, 4)));
        assert!(!Axis::Col.adjacent(a, Cell::new(3, 6)));
        assert!(Axis::Row.adjacent(a, Cell::new(4, 4)));
        assert!(!Axis::Row.adjacent(a, Cell::new(3, 5)));
        assert!(!Axis::Col.adjacent(a, a));
    }

    #[test]
    fn other_flips() {
        assert_eq!(Axis::Col.other(), Axis::Row);
        assert_eq!(Axis::Row.other(), Axis::Col);
    }
}
