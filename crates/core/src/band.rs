//! Bands: grids held side by side in one graph.
//!
//! A graph's columns are `u32`, far more than one grid's [`MAX_COL`]. A
//! [`Band`] is a stripe of [`BAND_COLS`] of them: band `k`'s column `c`
//! is graph column `k · BAND_COLS + c`, so one graph can hold many grids
//! — a workbook's sheets — each in local coordinates shifted right. A
//! band is twice a grid's width, and the second half of it stays empty.
//! A compressed edge only ever joins dependencies whose ranges lie next
//! to each other, so no edge has an end that spans two bands, and an
//! edge's two ends each lie in one band, the same or another.
//!
//! A graph of one grid is band 0: its columns are the grid's own.

use crate::edge::{Edge, EdgeId};
use taco_grid::{Cell, Range, MAX_COL};
use taco_rtree::RTree;

/// Columns per band: a grid's, and as many empty ones after them.
pub const BAND_COLS: u32 = 2 * MAX_COL;

/// Bands that fit in `u32` columns: the last one's grid ends at or
/// before `u32::MAX`.
pub const MAX_BANDS: u32 = (u32::MAX - MAX_COL) / BAND_COLS + 1;

/// One grid's stripe of a graph's columns (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Band(pub u32);

impl Band {
    /// The band graph column `col` lies in.
    #[inline]
    pub fn of(col: u32) -> Band {
        Band((col - 1) / BAND_COLS)
    }

    /// The graph column before the band's first: its column `c` is
    /// `base + c`.
    #[inline]
    fn base(self) -> u32 {
        debug_assert!(self.0 < MAX_BANDS, "band {} is past the last column", self.0);
        self.0 * BAND_COLS
    }

    /// The graph cell of the band's local `cell`.
    #[inline]
    pub fn cell(self, cell: Cell) -> Cell {
        Cell { col: self.base() + cell.col, row: cell.row }
    }

    /// The graph range of the band's local `range`.
    #[inline]
    pub fn range(self, range: Range) -> Range {
        Range::new(self.cell(range.head()), self.cell(range.tail()))
    }

    /// The band's local cell at graph cell `cell`, if it lies in the band.
    #[inline]
    pub fn local_cell(self, cell: Cell) -> Option<Cell> {
        (Band::of(cell.col) == self).then(|| Cell { col: cell.col - self.base(), row: cell.row })
    }

    /// The band's local range at graph range `range`, if it lies in the
    /// band.
    #[inline]
    pub fn local(self, range: Range) -> Option<Range> {
        let head = self.local_cell(range.head())?;
        Some(Range::new(head, self.local_cell(range.tail())?))
    }

    /// Every graph cell of the band, as one window for the vertex
    /// indexes.
    pub(crate) fn window(self) -> Range {
        Range::from_coords(self.base() + 1, 1, self.base().saturating_add(BAND_COLS), u32::MAX)
    }

    /// Whether both ends of `e` lie in the band.
    pub(crate) fn holds(self, e: &Edge) -> bool {
        Band::of(e.prec.head().col) == self && Band::of(e.dep.head().col) == self
    }

    /// `e`, both of whose ends lie in band `from`, moved to the same
    /// place in this band.
    pub(crate) fn moved(self, from: Band, e: &Edge) -> Edge {
        let (to, from) = (self, from);
        let cell = |c: Cell| Cell { col: c.col - from.base() + to.base(), row: c.row };
        let range = |r: Range| Range::new(cell(r.head()), cell(r.tail()));
        // Fixed cells are canonical: a transposition, its own inverse.
        let fix = |c: Cell| e.axis.canon_cell(cell(e.axis.canon_cell(c)));
        Edge { prec: range(e.prec), dep: range(e.dep), meta: e.meta.with_fixed(fix), ..e.clone() }
    }
}

impl Edge {
    /// Whether the edge's two ends lie in different bands: a read from
    /// one grid of the graph into another.
    #[inline]
    pub fn crosses_bands(&self) -> bool {
        Band::of(self.prec.head().col) != Band::of(self.dep.head().col)
    }
}

/// A vertex index of a graph: an R-tree per band. A range never spans two
/// bands, so each band's ranges are indexed as a graph of that grid alone
/// would index them, and a search descends only the trees of the bands
/// its window meets — a workbook of many sheets searches a sheet's tree,
/// not one whose nodes mix every sheet's. A graph of one grid has one.
#[derive(Debug, Clone, Default)]
pub(crate) struct BandIndex {
    trees: Vec<RTree<EdgeId>>,
    /// Each indexed edge's entry handle in its band's tree, by edge id
    /// (stale for an id no edge holds now).
    handles: Vec<u32>,
}

impl BandIndex {
    /// The tree of the band `range` lies in, made if it is the first.
    #[inline]
    fn tree_mut(&mut self, range: Range) -> &mut RTree<EdgeId> {
        let band = Band::of(range.head().col).0 as usize;
        if band >= self.trees.len() {
            self.trees.resize_with(band + 1, RTree::new);
        }
        &mut self.trees[band]
    }

    /// The trees of the bands `window` meets.
    #[inline]
    fn trees(&self, window: Range) -> &[RTree<EdgeId>] {
        let first = (Band::of(window.head().col).0 as usize).min(self.trees.len());
        let last = (Band::of(window.tail().col).0 as usize + 1).min(self.trees.len());
        &self.trees[first..last]
    }

    /// The index of `(range, id)` entries, with one STR bulk load per
    /// band.
    pub(crate) fn bulk_load(entries: impl Iterator<Item = (Range, EdgeId)>) -> BandIndex {
        let (mut by_band, mut handles) = (Vec::<Vec<_>>::new(), Vec::new());
        for (range, id) in entries {
            let band = Band::of(range.head().col).0 as usize;
            if band >= by_band.len() {
                by_band.resize_with(band + 1, Vec::new);
            }
            // A bulk load's `i`th entry has handle `i`.
            *handle_slot(&mut handles, id) = by_band[band].len() as u32;
            by_band[band].push((range, id));
        }
        BandIndex { trees: by_band.into_iter().map(RTree::bulk_load).collect(), handles }
    }

    #[inline]
    pub(crate) fn insert(&mut self, range: Range, id: EdgeId) {
        let handle = self.tree_mut(range).insert(range, id);
        *handle_slot(&mut self.handles, id) = handle;
    }

    #[inline]
    pub(crate) fn remove(&mut self, range: Range, id: &EdgeId) -> bool {
        self.tree_mut(range).remove(range, id)
    }

    /// Re-keys the indexed edge `id` to `new`, in the band its range lies
    /// in now.
    #[inline]
    pub(crate) fn update(&mut self, id: EdgeId, new: Range) {
        let handle = self.handles[id];
        self.tree_mut(new).update(handle, new);
    }

    /// [`RTree::for_each_overlapping`] over the bands `window` meets: the
    /// nodes visited.
    #[inline]
    pub(crate) fn for_each_overlapping(
        &self,
        window: Range,
        mut f: impl FnMut(Range, &EdgeId),
    ) -> u64 {
        self.trees(window).iter().map(|tree| tree.for_each_overlapping(window, &mut f)).sum()
    }

    pub(crate) fn clear(&mut self) {
        self.trees.clear();
        self.handles.clear();
    }
}

/// `id`'s place in a handle table, grown to hold it.
#[inline]
fn handle_slot(handles: &mut Vec<u32>, id: EdgeId) -> &mut u32 {
    if id >= handles.len() {
        handles.resize(id + 1, u32::MAX);
    }
    &mut handles[id]
}

/// The bands an edge's two ends lie in, as one key: `(prec, dep)`.
#[inline]
pub(crate) fn bands_of(e: &Edge) -> u64 {
    let (prec, dep) = (Band::of(e.prec.head().col), Band::of(e.dep.head().col));
    u64::from(prec.0) << 32 | u64::from(dep.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dependency, FormulaGraph};
    use taco_grid::MAX_ROW;

    #[test]
    fn the_last_band_ends_inside_u32_columns() {
        let last = Band(MAX_BANDS - 1);
        assert_eq!(MAX_BANDS, 1 << 17);
        assert!(u64::from(last.base()) + u64::from(MAX_COL) <= u64::from(u32::MAX));
        let corner = last.cell(Cell::new(MAX_COL, MAX_ROW));
        assert_eq!(Band::of(corner.col), last);
        assert_eq!(last.local_cell(corner), Some(Cell::new(MAX_COL, MAX_ROW)));
        assert_eq!(Band::of(last.window().tail().col), last);
    }

    #[test]
    fn a_band_and_its_locals_round_trip() {
        let r = Range::parse_a1("B3:XFD9").unwrap();
        for k in [0, 1, 7, MAX_BANDS - 1] {
            let band = Band(k);
            assert_eq!(band.local(band.range(r)), Some(r));
            assert_eq!(Band(k ^ 1).local(band.range(r)), None);
        }
        assert_eq!(Band(0).range(r), r, "band 0 is the grid");
    }

    /// Two singles above and below a new dependency it could pair with
    /// alike: the compressor's tie goes to the lower slot. A slot another
    /// band frees in between must not reorder this band's edges.
    #[test]
    fn a_band_compresses_as_its_grid_alone_whatever_another_band_frees() {
        let d = |prec: &str, dep: &str| {
            Dependency::new(Range::parse_a1(prec).unwrap(), Cell::parse_a1(dep).unwrap())
        };
        let (above, below, between) = (d("A1", "C1"), d("A3", "C3"), d("A2", "C2"));
        let mut alone = FormulaGraph::taco();
        for dep in [above, below, between] {
            alone.add_dependency(&dep);
        }
        let far = |d: Dependency| Dependency {
            prec: Band(1).range(d.prec),
            dep: Band(1).cell(d.dep),
            ..d
        };
        let mut g = FormulaGraph::taco();
        g.add_dependency(&d("F9", "G9"));
        g.add_dependency(&far(above));
        g.clear_cells(Range::parse_a1("G9").unwrap());
        g.add_dependency(&far(below));
        g.add_dependency(&far(between));
        let pair = alone.edges().find(|e| !e.is_single()).expect("a pair");
        assert_eq!(pair.dep, Range::parse_a1("C1:C2").unwrap(), "the lower slot wins the tie");
        let sorted = |g: &FormulaGraph, band| {
            let mut edges: Vec<String> = g.band_edges(band).map(|e| format!("{e:?}")).collect();
            edges.sort();
            edges
        };
        assert_eq!(sorted(&g, Band(1)), sorted(&alone, Band(0)));
    }

    #[test]
    fn an_edge_moves_between_bands_with_its_fixed_cells() {
        // An FF column run and an FR row run: fixed cells on both axes.
        let mut g = FormulaGraph::taco();
        for row in 1..=4 {
            g.add_dependency(&Dependency::new(
                Range::parse_a1("A1:B2").unwrap(),
                Cell::new(4, row),
            ));
        }
        for col in 6..=9 {
            let prec = Range::from_coords(6, 1, col, 1);
            g.add_dependency(&Dependency::new(prec, Cell::new(col, 3)));
        }
        for e in g.edges() {
            assert!(!e.is_single(), "{e:?}");
            let far = Band(5).moved(Band(0), e);
            assert!(Band(5).holds(&far) && !far.crosses_bands());
            assert_eq!(Band(0).moved(Band(5), &far), *e);
            let deps = |e: &Edge| {
                let mut deps: Vec<(Range, Cell)> =
                    e.decompress().into_iter().map(|d| (d.prec, d.dep)).collect();
                deps.sort_unstable_by_key(|&(p, d)| (d, p.head(), p.tail()));
                deps
            };
            let moved: Vec<(Range, Cell)> =
                deps(e).into_iter().map(|(p, d)| (Band(5).range(p), Band(5).cell(d))).collect();
            assert_eq!(deps(&far), moved);
        }
    }
}
