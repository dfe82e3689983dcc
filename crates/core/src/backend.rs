//! A common interface over formula-graph implementations, so the
//! differential suites can line TACO up beside the §VI comparison
//! systems. The spreadsheet engine is not behind it:
//! `taco_engine` holds a [`crate::FormulaGraph`] by name.

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
        crate::FormulaGraph::find_dependents(self, r)
    }

    fn find_precedents(&mut self, r: Range) -> Vec<Range> {
        crate::FormulaGraph::find_precedents(self, r)
    }

    fn clear_cells(&mut self, s: Range) {
        crate::FormulaGraph::clear_cells(self, s);
    }

    fn num_edges(&self) -> usize {
        self.num_edges()
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
