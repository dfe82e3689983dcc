//! Graph-size and per-pattern accounting (Tables II–V).

use crate::pattern::PatternType;
use std::cell::RefCell;
use std::collections::HashSet;
use taco_grid::Range;

/// Edges-reduced counters per pattern. A compressed edge representing `M`
/// dependencies reduces the edge count by `M − 1`, attributed to its
/// pattern (§VI-B).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternCounts {
    /// Edges reduced by RR.
    pub rr: u64,
    /// Edges reduced by RF.
    pub rf: u64,
    /// Edges reduced by FR.
    pub fr: u64,
    /// Edges reduced by FF.
    pub ff: u64,
    /// Edges reduced by RR-Chain.
    pub rr_chain: u64,
}

impl PatternCounts {
    /// The counter for `p` (`Single` has none: it reduces nothing).
    fn counter(&mut self, p: PatternType) -> Option<&mut u64> {
        match p {
            PatternType::Single => None,
            PatternType::RR => Some(&mut self.rr),
            PatternType::RF => Some(&mut self.rf),
            PatternType::FR => Some(&mut self.fr),
            PatternType::FF => Some(&mut self.ff),
            PatternType::RRChain => Some(&mut self.rr_chain),
        }
    }

    /// Adds `reduced` to the counter for `p`.
    pub fn add(&mut self, p: PatternType, reduced: u64) {
        if let Some(counter) = self.counter(p) {
            *counter += reduced;
        }
    }

    /// Takes `reduced` off the counter for `p` (an edge of that pattern
    /// went away or shrank).
    pub(crate) fn sub(&mut self, p: PatternType, reduced: u64) {
        if let Some(counter) = self.counter(p) {
            *counter -= reduced;
        }
    }

    /// The counter for `p` (zero for `Single`).
    pub fn get(&self, p: PatternType) -> u64 {
        match p {
            PatternType::Single => 0,
            PatternType::RR => self.rr,
            PatternType::RF => self.rf,
            PatternType::FR => self.fr,
            PatternType::FF => self.ff,
            PatternType::RRChain => self.rr_chain,
        }
    }

    /// Total edges reduced across patterns.
    pub fn total(&self) -> u64 {
        self.rr + self.rf + self.fr + self.ff + self.rr_chain
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &PatternCounts) {
        self.rr += other.rr;
        self.rf += other.rf;
        self.fr += other.fr;
        self.ff += other.ff;
        self.rr_chain += other.rr_chain;
    }

    /// Element-wise maximum (Table V's per-spreadsheet max column).
    pub fn max_with(&mut self, other: &PatternCounts) {
        self.rr = self.rr.max(other.rr);
        self.rf = self.rf.max(other.rf);
        self.fr = self.fr.max(other.fr);
        self.ff = self.ff.max(other.ff);
        self.rr_chain = self.rr_chain.max(other.rr_chain);
    }
}

/// A snapshot of graph size and compression effectiveness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of edges in the (compressed) graph, `|E|`.
    pub edges: usize,
    /// Number of distinct vertex ranges induced by the edges, `|V|`.
    pub vertices: usize,
    /// Number of underlying dependencies the edges represent (`|E'|` as
    /// long as nothing was cleared).
    pub dependencies: u64,
    /// Edges reduced per pattern: `Σ (count − 1)` over compressed edges.
    pub reduced: PatternCounts,
}

impl GraphStats {
    /// The stats of the edges `edges` walks, however they were picked
    /// (one band of a graph): counted, not read off running counts.
    pub fn of_edges<'a>(edges: impl Iterator<Item = &'a crate::Edge>) -> GraphStats {
        let mut stats = GraphStats {
            edges: 0,
            vertices: 0,
            dependencies: 0,
            reduced: PatternCounts::default(),
        };
        stats.vertices = count_vertices(edges.inspect(|e| {
            stats.edges += 1;
            stats.dependencies += u64::from(e.count);
            stats.reduced.add(e.pattern(), u64::from(e.count) - 1);
        }));
        stats
    }

    /// `|E| / |E'|`, the remaining-edge fraction of Table IV.
    pub fn remaining_fraction(&self) -> f64 {
        if self.dependencies == 0 {
            1.0
        } else {
            self.edges as f64 / self.dependencies as f64
        }
    }

    /// `|E'| − |E|`, the edges-reduced metric of Table III.
    pub fn edges_reduced(&self) -> u64 {
        self.dependencies.saturating_sub(self.edges as u64)
    }
}

thread_local! {
    /// This thread's vertex de-duplication set. A count clears it and
    /// keeps its capacity, so stats polled repeatedly on one thread (the
    /// vertex gauge, recounted after each recalculation that follows a
    /// graph change) stop allocating once it is warm — the discipline the
    /// queries keep on their per-thread buffers.
    static VERTICES: RefCell<HashSet<Range>> = RefCell::default();
}

/// Computes `|V|` (distinct vertex ranges) from an edge iterator, on the
/// thread's own set. `edges` must not count vertices itself.
pub(crate) fn count_vertices<'a, I>(edges: I) -> usize
where
    I: Iterator<Item = &'a crate::Edge>,
{
    VERTICES.with_borrow_mut(|set| {
        set.clear();
        for e in edges {
            set.insert(e.prec);
            set.insert(e.dep);
        }
        set.len()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_roundtrip() {
        let mut c = PatternCounts::default();
        c.add(PatternType::RR, 10);
        c.add(PatternType::FF, 3);
        c.add(PatternType::Single, 99); // ignored
        assert_eq!(c.get(PatternType::RR), 10);
        assert_eq!(c.get(PatternType::Single), 0);
        assert_eq!(c.total(), 13);

        let mut d = PatternCounts::default();
        d.add(PatternType::RR, 5);
        d.add(PatternType::RF, 7);
        c.merge(&d);
        assert_eq!(c.rr, 15);
        assert_eq!(c.rf, 7);

        let mut m = PatternCounts::default();
        m.max_with(&c);
        assert_eq!(m, c);
    }

    #[test]
    fn vertex_counting_reuses_the_threads_set() {
        use crate::{Dependency, Edge};
        use taco_grid::Cell;
        let edges = [
            Edge::single(&Dependency::new(Range::cell(Cell::new(1, 1)), Cell::new(1, 2))),
            Edge::single(&Dependency::new(Range::cell(Cell::new(1, 1)), Cell::new(1, 3))),
        ];
        assert_eq!(count_vertices(edges.iter()), 3);
        // Reuse: a second pass over fewer edges sees a cleared set.
        assert_eq!(count_vertices(edges[..1].iter()), 2);
        assert_eq!(count_vertices(edges.iter()), 3);
        assert_eq!(count_vertices([].iter()), 0);
    }

    #[test]
    fn stats_derived_metrics() {
        let s = GraphStats {
            edges: 5,
            vertices: 8,
            dependencies: 100,
            reduced: PatternCounts::default(),
        };
        assert_eq!(s.edges_reduced(), 95);
        assert!((s.remaining_fraction() - 0.05).abs() < 1e-12);
    }
}
