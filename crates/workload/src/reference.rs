//! The oracle the formula-graph tests compare against: the transitive
//! dependents or precedents of a range, closed cell by cell over the
//! dependency list itself. It shares no R-tree, pattern or edge code with
//! [`taco_core::FormulaGraph`], so agreement with it is evidence, not an
//! echo. Each step scans every dependency: meant for test-sized inputs.

use std::collections::BTreeSet;
use taco_core::Dependency;
use taco_grid::{Cell, Range};

/// Every cell that reads `probe`, directly or through other formula cells.
pub fn dependents(deps: &[Dependency], probe: Range) -> BTreeSet<Cell> {
    closure(probe, |r, next| {
        next.extend(deps.iter().filter(|d| d.prec.overlaps(&r)).map(|d| d.dep))
    })
}

/// Every cell that `probe` reads, directly or through other formula cells.
pub fn precedents(deps: &[Dependency], probe: Range) -> BTreeSet<Cell> {
    closure(probe, |r, next| {
        deps.iter().filter(|d| r.contains_cell(d.dep)).for_each(|d| next.extend(d.prec.cells()))
    })
}

/// Worklist closure: `step` names the cells one range reaches in one hop.
fn closure(probe: Range, step: impl Fn(Range, &mut Vec<Cell>)) -> BTreeSet<Cell> {
    let (mut found, mut work, mut next) = (BTreeSet::new(), vec![probe], Vec::new());
    while let Some(r) = work.pop() {
        step(r, &mut next);
        work.extend(next.drain(..).filter(|&c| found.insert(c)).map(Range::cell));
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(names: &[&str]) -> BTreeSet<Cell> {
        names.iter().map(|s| Cell::parse_a1(s).unwrap()).collect()
    }

    #[test]
    fn closes_over_ranges_chains_and_cycles() {
        let d = |p: &str, c: &str| {
            Dependency::new(Range::parse_a1(p).unwrap(), Cell::parse_a1(c).unwrap())
        };
        // C1 = SUM(A1:B2); D1 = C1 + E1; E1 = D1 (a cycle).
        let deps = [d("A1:B2", "C1"), d("C1", "D1"), d("E1", "D1"), d("D1", "E1")];
        let r = |s: &str| Range::parse_a1(s).unwrap();
        assert_eq!(dependents(&deps, r("B2")), cells(&["C1", "D1", "E1"]));
        assert_eq!(dependents(&deps, r("A3:B9")), cells(&[]));
        assert_eq!(precedents(&deps, r("C1")), cells(&["A1", "B1", "A2", "B2"]));
        assert_eq!(precedents(&deps, r("D1")), cells(&["C1", "E1", "D1", "A1", "B1", "A2", "B2"]));
        assert!(precedents(&[], r("A1:Z9")).is_empty());
    }
}
