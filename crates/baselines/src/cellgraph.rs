//! CellGraph: the RedisGraph stand-in (§VI-D).
//!
//! Graph databases have no notion of spatial vertices, so the paper stores
//! formula graphs in RedisGraph by decomposing every range edge into plain
//! cell→cell edges (`A1:A2 → B1` becomes `A1 → B1` and `A2 → B1`), writing
//! them to CSV, and bulk-loading. This module reproduces that pipeline
//! in-process: a generic adjacency-list store over cell vertices with a
//! bulk loader, no spatial index, and BFS over cell-level edges.
//!
//! The decomposition is exactly what blows up on real sheets — a single
//! `SUM(A1:A100000)` becomes 100 000 edges — which is why RedisGraph DNFs
//! in Figs. 13–15. [`CellGraph::EDGE_LIMIT_DEFAULT`] caps the blow-up so a
//! caller can report DNF instead of exhausting memory.

use std::collections::{HashMap, HashSet, VecDeque};
use taco_core::{Dependency, DependencyBackend};
use taco_grid::{Cell, Range};

/// The RedisGraph-style cell-level adjacency store.
#[derive(Debug, Clone)]
pub struct CellGraph {
    /// Out-edges: cell → dependent formula cells.
    out: HashMap<Cell, Vec<Cell>>,
    /// In-edges: formula cell → referenced cells.
    inc: HashMap<Cell, Vec<Cell>>,
    edges: usize,
    /// Decomposed-edge cap; exceeding it marks the store DNF.
    pub edge_limit: usize,
    /// Set when a bulk load or insert hit `edge_limit`.
    pub did_not_finish: bool,
}

impl Default for CellGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl CellGraph {
    /// Default cap on decomposed cell-level edges (≈ what fits comfortably
    /// in laptop memory; the paper's DNF threshold was time-based).
    pub const EDGE_LIMIT_DEFAULT: usize = 20_000_000;

    /// Creates an empty store.
    pub fn new() -> Self {
        CellGraph {
            out: HashMap::new(),
            inc: HashMap::new(),
            edges: 0,
            edge_limit: Self::EDGE_LIMIT_DEFAULT,
            did_not_finish: false,
        }
    }

    /// Bulk-loads a dependency list (the `redisgraph-bulk-loader` path):
    /// decompose everything first, then build the adjacency lists in one
    /// pass with pre-sized buckets.
    pub fn bulk_load<I: IntoIterator<Item = Dependency>>(deps: I) -> Self {
        let mut g = Self::new();
        // Phase 1: decompose to a flat edge list (the CSV file).
        let mut csv: Vec<(Cell, Cell)> = Vec::new();
        for d in deps {
            if csv.len() + d.prec.area() as usize > g.edge_limit {
                g.did_not_finish = true;
                return g;
            }
            for src in d.prec.cells() {
                csv.push((src, d.dep));
            }
        }
        // Phase 2: load.
        for (src, dst) in csv {
            g.push_edge(src, dst);
        }
        g
    }

    fn push_edge(&mut self, src: Cell, dst: Cell) {
        self.out.entry(src).or_default().push(dst);
        self.inc.entry(dst).or_default().push(src);
        self.edges += 1;
    }

    /// Number of decomposed cell-level edges.
    pub fn cell_edges(&self) -> usize {
        self.edges
    }

    fn bfs(&self, start: impl Iterator<Item = Cell>, forward: bool) -> Vec<Range> {
        let adj = if forward { &self.out } else { &self.inc };
        let mut visited: HashSet<Cell> = HashSet::new();
        let mut queue: VecDeque<Cell> = start.collect();
        let mut result: Vec<Cell> = Vec::new();
        while let Some(c) = queue.pop_front() {
            if let Some(nexts) = adj.get(&c) {
                for &n in nexts {
                    // A probe cell reached through an edge IS a dependent
                    // (self-referential formulae make this possible), so no
                    // root exclusion — only visited-dedup.
                    if visited.insert(n) {
                        result.push(n);
                        queue.push_back(n);
                    }
                }
            }
        }
        result.into_iter().map(Range::cell).collect()
    }
}

impl DependencyBackend for CellGraph {
    fn name(&self) -> &'static str {
        "CellGraph(RedisGraph)"
    }

    fn add_dependency(&mut self, d: &Dependency) {
        if self.edges + d.prec.area() as usize > self.edge_limit {
            self.did_not_finish = true;
            return;
        }
        for src in d.prec.cells() {
            self.push_edge(src, d.dep);
        }
    }

    fn find_dependents(&mut self, r: Range) -> Vec<Range> {
        self.bfs(r.cells(), true)
    }

    fn find_precedents(&mut self, r: Range) -> Vec<Range> {
        self.bfs(r.cells(), false)
    }

    fn clear_cells(&mut self, s: Range) {
        // Remove all in-edges of formula cells inside `s` (and the matching
        // out-edge entries). Without a spatial index this scans the in-map
        // keys covered by `s`.
        for dst in s.cells() {
            if let Some(srcs) = self.inc.remove(&dst) {
                self.edges -= srcs.len();
                for src in srcs {
                    if let Some(v) = self.out.get_mut(&src) {
                        v.retain(|&x| x != dst);
                        if v.is_empty() {
                            self.out.remove(&src);
                        }
                    }
                }
            }
        }
    }

    fn num_edges(&self) -> usize {
        self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: &str) -> Range {
        Range::parse_a1(s).unwrap()
    }

    fn d(prec: &str, dep: &str) -> Dependency {
        Dependency::new(r(prec), Cell::parse_a1(dep).unwrap())
    }

    fn cells(v: &[Range]) -> std::collections::BTreeSet<Cell> {
        v.iter().flat_map(|x| x.cells()).collect()
    }

    #[test]
    fn range_edges_are_decomposed() {
        let g = CellGraph::bulk_load([d("A1:A3", "B1")]);
        assert_eq!(g.cell_edges(), 3);
    }

    #[test]
    fn agrees_with_nocomp_on_cells() {
        let deps =
            [d("A1:A3", "B1"), d("A1:A3", "B2"), d("B1", "C1"), d("B3", "C1"), d("B2:B3", "C2")];
        let mut g = CellGraph::bulk_load(deps.iter().copied());
        let mut nocomp = taco_core::FormulaGraph::nocomp();
        for dep in &deps {
            DependencyBackend::add_dependency(&mut nocomp, dep);
        }
        for probe in ["A1", "B2", "C1", "A2:A3"] {
            assert_eq!(
                cells(&g.find_dependents(r(probe))),
                cells(&DependencyBackend::find_dependents(&mut nocomp, r(probe))),
                "probe {probe}"
            );
        }
        assert_eq!(
            cells(&g.find_precedents(r("C2"))),
            cells(&DependencyBackend::find_precedents(&mut nocomp, r("C2")))
        );
    }

    #[test]
    fn edge_limit_marks_dnf() {
        let mut g = CellGraph::new();
        g.edge_limit = 10;
        DependencyBackend::add_dependency(&mut g, &d("A1:A100", "B1"));
        assert!(g.did_not_finish);
        assert_eq!(g.cell_edges(), 0);
    }

    #[test]
    fn clear_cells_removes_both_directions() {
        let mut g = CellGraph::bulk_load([d("A1:A2", "B1"), d("B1", "C1")]);
        g.clear_cells(r("B1"));
        assert!(g.find_dependents(r("A1")).is_empty());
        // B1 no longer has precedents; C1 still depends on B1's cell.
        assert!(g.find_precedents(r("B1")).is_empty());
        assert_eq!(cells(&g.find_dependents(r("B1"))).len(), 1);
    }

    #[test]
    fn bulk_load_dnf_on_oversized_input() {
        let deps = vec![Dependency::new(Range::from_coords(1, 1, 100, 100), Cell::new(200, 1))];
        let mut g = CellGraph::new();
        g.edge_limit = 100;
        // Rebuild with the limit via manual load.
        for dep in &deps {
            DependencyBackend::add_dependency(&mut g, dep);
        }
        assert!(g.did_not_finish);
    }
}
