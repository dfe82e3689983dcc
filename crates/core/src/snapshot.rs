//! Graph persistence: serialize a compressed formula graph and restore it
//! without recompressing.
//!
//! Compression happens once at load time (§VI-C measures it in seconds for
//! the largest sheets); a workbook that persists its compressed graph
//! alongside the file skips that work on reopen. A snapshot is exactly the
//! edge list — the R-tree indexes are rebuilt on restore, since they are
//! derived state.

use crate::band::Band;
use crate::config::Config;
use crate::edge::Edge;
use crate::graph::FormulaGraph;
use crate::pattern::{ChainDir, PatternMeta};
use taco_grid::{Axis, Cell, Offset};

/// The in-memory image of a [`FormulaGraph`] that `taco_store`'s container
/// encodes and decodes.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSnapshot {
    /// The compressor configuration the graph was built with.
    pub config: Config,
    /// Every (possibly compressed) edge.
    pub edges: Vec<Edge>,
    /// Lifetime insert counter (restored for stats continuity).
    pub dependencies_inserted: u64,
}

/// Flattened pattern metadata: tag plus payload, orderable.
type MetaKey = (u8, i64, i64, i64, i64);

/// The full content key of an edge: dependent corners, precedent
/// corners, axis, metadata, count.
type EdgeKey = (Cell, Cell, Cell, Cell, u8, MetaKey, u32);

/// A total order over edges that depends only on edge *content*, never on
/// arena slot assignment: `(dep, prec, axis, meta, count)`. Equal graphs
/// (same edge multiset) therefore snapshot to identical edge sequences.
fn edge_sort_key(e: &Edge) -> EdgeKey {
    let axis = match e.axis {
        Axis::Col => 0u8,
        Axis::Row => 1,
    };
    (e.dep.head(), e.dep.tail(), e.prec.head(), e.prec.tail(), axis, meta_key(&e.meta), e.count)
}

/// Flattens pattern metadata into an orderable tuple (tag + payload).
fn meta_key(meta: &PatternMeta) -> MetaKey {
    let o = |a: Offset, b: Offset| (a.dc, a.dr, b.dc, b.dr);
    let c =
        |a: Cell, b: Cell| (i64::from(a.col), i64::from(a.row), i64::from(b.col), i64::from(b.row));
    match meta {
        PatternMeta::Single => (0, 0, 0, 0, 0),
        PatternMeta::RR { h_rel, t_rel } => {
            let (a, b, x, y) = o(*h_rel, *t_rel);
            (1, a, b, x, y)
        }
        PatternMeta::RF { h_rel, t_fix } => {
            (2, h_rel.dc, h_rel.dr, i64::from(t_fix.col), i64::from(t_fix.row))
        }
        PatternMeta::FR { h_fix, t_rel } => {
            (3, i64::from(h_fix.col), i64::from(h_fix.row), t_rel.dc, t_rel.dr)
        }
        PatternMeta::FF { h_fix, t_fix } => {
            let (a, b, x, y) = c(*h_fix, *t_fix);
            (4, a, b, x, y)
        }
        PatternMeta::RRChain { dir } => (5, i64::from(matches!(dir, ChainDir::Below)), 0, 0, 0),
    }
}

impl FormulaGraph {
    /// Captures the graph as a snapshot. Edge order is **sorted and
    /// stable**: it is a pure function of the edge set (dependent range,
    /// then precedent range, axis, metadata, count), independent of
    /// insertion history or arena slot reuse — so two equal graphs
    /// produce byte-identical snapshots, which the on-disk container
    /// format relies on for checksums and delta encoding.
    pub fn snapshot(&self) -> GraphSnapshot {
        let mut edges: Vec<Edge> = self.edges().cloned().collect();
        edges.sort_by_key(edge_sort_key);
        GraphSnapshot {
            config: self.config().clone(),
            edges,
            dependencies_inserted: self.dependencies_inserted(),
        }
    }

    /// The snapshot of band `band` alone, in its local coordinates: the
    /// edges with both ends in it — what a graph of that grid alone
    /// holds — sorted as [`Self::snapshot`] sorts, and `inserted` as its
    /// lifetime insert counter.
    pub fn band_snapshot(&self, band: Band, inserted: u64) -> GraphSnapshot {
        let mut edges: Vec<Edge> = self.band_edges(band).collect();
        edges.sort_by_key(edge_sort_key);
        GraphSnapshot { config: self.config().clone(), edges, dependencies_inserted: inserted }
    }

    /// Restores a graph from a snapshot, rebuilding the spatial indexes
    /// with one STR bulk load per tree. No recompression is attempted:
    /// edges come back exactly as saved.
    pub fn restore(snapshot: GraphSnapshot) -> FormulaGraph {
        let mut g = FormulaGraph::restore_bands(snapshot.config, [(Band(0), snapshot.edges)]);
        g.set_dependencies_inserted(snapshot.dependencies_inserted);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dependency;
    use std::collections::BTreeSet;
    use taco_grid::{Cell, Range};

    fn build_sample() -> FormulaGraph {
        let deps = [
            ("A1:B3", "C1"),
            ("A2:B4", "C2"),
            ("A3:B5", "C3"),
            ("G1:G9", "H1"),
            ("G1:G9", "H2"),
            ("J1", "K1"),
        ];
        FormulaGraph::build(
            Config::taco_full(),
            deps.iter().map(|(p, d)| {
                Dependency::new(Range::parse_a1(p).unwrap(), Cell::parse_a1(d).unwrap())
            }),
        )
    }

    fn cells(v: &[Range]) -> BTreeSet<Cell> {
        v.iter().flat_map(|r| r.cells()).collect()
    }

    #[test]
    fn snapshot_round_trips() {
        let g = build_sample();
        let restored = FormulaGraph::restore(g.snapshot());

        assert_eq!(restored.num_edges(), g.num_edges());
        assert_eq!(restored.stats(), g.stats());
        for probe in ["A2", "G5", "J1", "C2"] {
            let probe = Range::parse_a1(probe).unwrap();
            assert_eq!(cells(&restored.find_dependents(probe)), cells(&g.find_dependents(probe)));
        }
    }

    #[test]
    fn restored_graph_remains_maintainable() {
        let g = build_sample();
        let mut restored = FormulaGraph::restore(g.snapshot());
        // Extend a compressed run after restore.
        restored.add_dependency(&Dependency::new(
            Range::parse_a1("A4:B6").unwrap(),
            Cell::parse_a1("C4").unwrap(),
        ));
        let rr = restored
            .edges()
            .find(|e| e.dep.contains(&Range::parse_a1("C1").unwrap()))
            .expect("the RR edge");
        assert_eq!(rr.count, 4, "restored edge must keep compressing");
        // And clearing still splits correctly.
        restored.clear_cells(Range::parse_a1("C2").unwrap());
        let deps = restored.find_dependents(Range::parse_a1("A3").unwrap());
        assert!(!deps.iter().any(|r| r.contains(&Range::parse_a1("C2").unwrap())));
    }

    #[test]
    fn snapshots_of_equal_graphs_are_byte_identical() {
        // Same edge set reached through different histories: slot ids and
        // internal iteration order differ, the snapshot must not.
        let a = build_sample();
        let mut b = build_sample();
        // Churn b's arena: remove and re-add a dependency so slot ids shift.
        b.clear_cells(Range::parse_a1("K1").unwrap());
        b.add_dependency(&Dependency::new(
            Range::parse_a1("J1").unwrap(),
            Cell::parse_a1("K1").unwrap(),
        ));
        let (sa, sb) = (a.snapshot(), b.snapshot());
        // The container's encoder is a pure function of the snapshot, so
        // equal snapshots are equal bytes on disk.
        assert_eq!(sa, GraphSnapshot { dependencies_inserted: sa.dependencies_inserted, ..sb });
        // And the order is genuinely sorted by dependent head.
        let heads: Vec<Cell> = sa.edges.iter().map(|e| e.dep.head()).collect();
        let mut sorted = heads.clone();
        sorted.sort_unstable();
        assert_eq!(heads, sorted);
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = FormulaGraph::taco();
        let restored = FormulaGraph::restore(g.snapshot());
        assert_eq!(restored.num_edges(), 0);
    }
}
