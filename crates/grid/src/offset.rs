use std::fmt;
use std::ops::{Add, Neg, Sub};

/// A relative position between two cells: the paper's `(p, q)` pair where
/// `p` is the column distance and `q` the row distance.
///
/// Given cells `u` and `v`, `u` is relative to `v` by `(p, q)` iff
/// `v.col = u.col + p` and `v.row = u.row + q` — equivalently
/// `u.offset_from(v) == Offset { dc: -p, dr: -q }`. We store the signed
/// deltas directly (`dc`, `dr`), which is the form `rel(e)` computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Offset {
    /// Signed column delta.
    pub dc: i64,
    /// Signed row delta.
    pub dr: i64,
}

impl Offset {
    /// The zero offset.
    pub const ZERO: Offset = Offset { dc: 0, dr: 0 };

    /// Creates an offset from column/row deltas.
    #[inline]
    pub fn new(dc: i64, dr: i64) -> Self {
        Offset { dc, dr }
    }

    /// Swaps the column and row deltas (row-axis transposition).
    #[inline]
    pub fn transpose(self) -> Offset {
        Offset { dc: self.dr, dr: self.dc }
    }
}

impl Add for Offset {
    type Output = Offset;
    #[inline]
    fn add(self, rhs: Offset) -> Offset {
        Offset { dc: self.dc + rhs.dc, dr: self.dr + rhs.dr }
    }
}

impl Sub for Offset {
    type Output = Offset;
    #[inline]
    fn sub(self, rhs: Offset) -> Offset {
        Offset { dc: self.dc - rhs.dc, dr: self.dr - rhs.dr }
    }
}

impl Neg for Offset {
    type Output = Offset;
    #[inline]
    fn neg(self) -> Offset {
        Offset { dc: -self.dc, dr: -self.dr }
    }
}

impl fmt::Display for Offset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.dc, self.dr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Offset::new(2, -3);
        let b = Offset::new(-1, 5);
        assert_eq!(a + b, Offset::new(1, 2));
        assert_eq!(a - b, Offset::new(3, -8));
        assert_eq!(-a, Offset::new(-2, 3));
        assert_eq!(a + Offset::ZERO, a);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Offset::new(4, -7);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose(), Offset::new(-7, 4));
    }

    #[test]
    fn display() {
        assert_eq!(Offset::new(-2, 0).to_string(), "(-2, 0)");
    }
}
