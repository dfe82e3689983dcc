//! Read-only views of one sheet of a [`crate::Workbook`]: its engine, and
//! its band of the workbook's one formula graph.

use crate::engine::Engine;
use crate::sheet::CellContent;
use std::ops::Deref;
use taco_core::{Band, Dependency, Edge, FormulaGraph, GraphStats};
use taco_grid::Cell;

/// One sheet of a workbook, read-only ([`crate::Workbook::sheet`]): its
/// [`Engine`] — values, formulas, counts — through `Deref`, and its band
/// of the workbook's graph through [`SheetView::graph`].
#[derive(Clone, Copy)]
pub struct SheetView<'a> {
    engine: &'a Engine,
    graph: SheetGraph<'a>,
}

impl<'a> SheetView<'a> {
    pub(crate) fn new(
        engine: &'a Engine,
        graph: &'a FormulaGraph,
        band: Band,
        inserted: u64,
    ) -> Self {
        SheetView { engine, graph: SheetGraph { graph, band, inserted } }
    }

    /// The sheet's dependencies: its band of the workbook's graph.
    pub fn graph(&self) -> SheetGraph<'a> {
        self.graph
    }

    /// [`Engine::cells`], borrowed for as long as the workbook is.
    pub fn cells(&self) -> impl Iterator<Item = (Cell, &'a CellContent)> + 'a {
        self.engine.cells()
    }
}

impl Deref for SheetView<'_> {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        self.engine
    }
}

/// One sheet's band of its workbook's graph, in the sheet's coordinates:
/// the edges with both ends on the sheet, which are exactly the edges a
/// graph of that sheet alone would hold. The edges between sheets are the
/// workbook's ([`crate::Workbook::cross_edge_count`]). Every figure but
/// [`SheetGraph::num_edges`] and [`SheetGraph::dependencies_inserted`]
/// walks the band's edges, which the graph's vertex indexes find.
#[derive(Clone, Copy)]
pub struct SheetGraph<'a> {
    graph: &'a FormulaGraph,
    band: Band,
    inserted: u64,
}

impl<'a> SheetGraph<'a> {
    /// The band's edges, in the sheet's coordinates.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + 'a {
        self.graph.band_edges(self.band)
    }

    /// Number of the band's edges: a running count, O(1).
    pub fn num_edges(&self) -> usize {
        self.graph.band_len(self.band)
    }

    /// Size and per-pattern compression of the band.
    pub fn stats(&self) -> GraphStats {
        let edges: Vec<Edge> = self.edges().collect();
        GraphStats::of_edges(edges.iter())
    }

    /// The band's edges expanded back into raw dependencies.
    pub fn decompress_all(&self) -> Vec<Dependency> {
        self.edges().flat_map(|e| e.decompress()).collect()
    }

    /// Reads of the sheet itself ever bound into the band: its lifetime
    /// insert counter. An open starts it at the reads the formulas make.
    pub fn dependencies_inserted(&self) -> u64 {
        self.inserted
    }
}
