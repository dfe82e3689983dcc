//! A common interface over formula-graph implementations, so the
//! spreadsheet engine and the benchmark harness can swap TACO for any of
//! the §VI comparison systems.

use crate::Dependency;
use taco_grid::Range;

/// Operations every formula-graph backend must support: the paper's
/// interfaces of "finding dependents or precedents of a range, and adding
/// or deleting a dependency" (§VI-A).
pub trait DependencyBackend {
    /// Short identifier used in benchmark output (e.g. `"TACO"`).
    fn name(&self) -> &'static str;

    /// Adds one dependency (edge from referenced range to formula cell).
    fn add_dependency(&mut self, d: &Dependency);

    /// All direct and transitive dependents of `r`, as disjoint ranges.
    fn find_dependents(&mut self, r: Range) -> Vec<Range>;

    /// All direct and transitive precedents of `r`, as disjoint ranges.
    fn find_precedents(&mut self, r: Range) -> Vec<Range>;

    /// Removes the dependencies of every formula cell inside `s`.
    fn clear_cells(&mut self, s: Range);

    /// Number of stored edges (whatever the backend's edge unit is).
    fn num_edges(&self) -> usize;

    /// Compression statistics, for backends that track them; the vertex
    /// count makes this a walk of every edge (the observability gauges
    /// call it only after a graph changed, see [`Self::graph_counts`]).
    /// The default is `None`: baseline backends without per-pattern
    /// accounting simply expose no compression gauges.
    fn graph_stats(&self, scratch: &mut crate::StatsScratch) -> Option<crate::GraphStats> {
        let _ = scratch;
        None
    }

    /// The part of [`Self::graph_stats`] a backend keeps as running
    /// counts, in O(1): `(dependencies represented, edges reduced per
    /// pattern, mutation stamp)`. The stamp moves with every change to
    /// the edge set, so a poller that remembers it knows when the one
    /// figure that needs a walk — `graph_stats`' vertex count — can have
    /// gone stale. The default is `None`, like `graph_stats`.
    fn graph_counts(&self) -> Option<(u64, crate::PatternCounts, u64)> {
        None
    }
}

impl DependencyBackend for crate::FormulaGraph {
    fn name(&self) -> &'static str {
        if self.config().patterns.is_empty() {
            "NoComp"
        } else if self.config().in_row_only {
            "TACO-InRow"
        } else {
            "TACO"
        }
    }

    fn add_dependency(&mut self, d: &Dependency) {
        crate::FormulaGraph::add_dependency(self, d);
    }

    fn find_dependents(&mut self, r: Range) -> Vec<Range> {
        crate::FormulaGraph::find_dependents_reusing(self, r)
    }

    fn find_precedents(&mut self, r: Range) -> Vec<Range> {
        crate::FormulaGraph::find_precedents_reusing(self, r)
    }

    fn clear_cells(&mut self, s: Range) {
        crate::FormulaGraph::clear_cells(self, s);
    }

    fn num_edges(&self) -> usize {
        self.num_edges()
    }

    fn graph_stats(&self, scratch: &mut crate::StatsScratch) -> Option<crate::GraphStats> {
        Some(self.stats_with(scratch))
    }

    fn graph_counts(&self) -> Option<(u64, crate::PatternCounts, u64)> {
        Some(self.counts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, FormulaGraph};
    use taco_grid::Cell;

    #[test]
    fn names_reflect_config() {
        assert_eq!(FormulaGraph::taco().name(), "TACO");
        assert_eq!(FormulaGraph::nocomp().name(), "NoComp");
        assert_eq!(FormulaGraph::new(Config::taco_in_row()).name(), "TACO-InRow");
    }

    #[test]
    fn trait_object_usable() {
        let mut g: Box<dyn DependencyBackend> = Box::new(FormulaGraph::taco());
        g.add_dependency(&Dependency::new(
            Range::parse_a1("A1").unwrap(),
            Cell::parse_a1("B1").unwrap(),
        ));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.find_dependents(Range::parse_a1("A1").unwrap()).len(), 1);
        g.clear_cells(Range::parse_a1("B1").unwrap());
        assert_eq!(g.num_edges(), 0);
    }
}
