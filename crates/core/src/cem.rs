//! Exact Compressed-Edge-Minimization (CEM) for tiny instances.
//!
//! §IV-A formalizes CEM — partition the dependency set so that each part
//! is either a single edge or compressible by one pattern, minimizing the
//! number of parts — and proves it NP-hard (reduction from rectilinear
//! picture compression). The paper notes an exhaustive partition search
//! "cannot finish within 30 mins for a spreadsheet with 96 edges".
//!
//! This module implements a branch-and-bound exact solver that is
//! practical for the tiny instances where exhaustive search is feasible
//! (tens of dependencies). It exists to *evaluate the greedy algorithm*:
//! `tests/prop_cem.rs` compares `FormulaGraph`'s edge count against the
//! optimum on structured and adversarial inputs.

use crate::edge::Edge;
use crate::{Config, Dependency};
use taco_grid::Axis;

/// Returns whether `deps` (in any order) can form ONE compressed edge
/// under some enabled pattern — i.e. whether the part is valid for CEM.
pub fn compressible_group(deps: &[Dependency], config: &Config) -> bool {
    if deps.len() <= 1 {
        return true; // a Single edge
    }
    // The dependent cells must form a consecutive run in one column or
    // row; try both axes and every enabled pattern by incremental
    // construction (sorting by the run coordinate first).
    'axes: for axis in [Axis::Col, Axis::Row] {
        let mut sorted: Vec<&Dependency> = deps.iter().collect();
        sorted.sort_by_key(|d| {
            let c = axis.canon_cell(d.dep);
            (c.col, c.row)
        });
        // All dependents in one canonical column, strictly consecutive.
        let first = axis.canon_cell(sorted[0].dep);
        for (i, d) in sorted.iter().enumerate() {
            let c = axis.canon_cell(d.dep);
            if c.col != first.col {
                continue 'axes;
            }
            if i > 0 {
                let prev = axis.canon_cell(sorted[i - 1].dep);
                if c.row != prev.row + 1 {
                    continue 'axes;
                }
            }
        }
        for &p in &config.patterns {
            let seed = Edge::single(sorted[0]);
            let Some(mut e) = seed.try_pair(sorted[1], p, axis) else {
                continue;
            };
            if !config.allows(&e.meta, axis) {
                continue;
            }
            let mut ok = true;
            for d in &sorted[2..] {
                match e.try_extend(d) {
                    Some(ne) => e = ne,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return true;
            }
        }
    }
    false
}

/// Exact minimum number of compressed edges for `deps` under `config`'s
/// patterns, by branch-and-bound over set partitions. Exponential — only
/// call with small inputs (≲ 24 dependencies); returns `None` if the
/// search exceeds `budget` recursion steps.
pub fn exact_min_edges(deps: &[Dependency], config: &Config, budget: u64) -> Option<usize> {
    let n = deps.len();
    if n == 0 {
        return Some(0);
    }
    let mut best = n; // all-singles upper bound
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut steps = 0u64;
    let ok = backtrack(deps, config, 0, &mut groups, &mut best, &mut steps, budget);
    ok.then_some(best)
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    deps: &[Dependency],
    config: &Config,
    next: usize,
    groups: &mut Vec<Vec<usize>>,
    best: &mut usize,
    steps: &mut u64,
    budget: u64,
) -> bool {
    *steps += 1;
    if *steps > budget {
        return false;
    }
    if groups.len() >= *best {
        return true; // prune: cannot improve
    }
    if next == deps.len() {
        *best = groups.len();
        return true;
    }
    // Try adding dep `next` to each existing group.
    for gi in 0..groups.len() {
        groups[gi].push(next);
        let members: Vec<Dependency> = groups[gi].iter().map(|&i| deps[i]).collect();
        let feasible = compressible_group(&members, config);
        if feasible && !backtrack(deps, config, next + 1, groups, best, steps, budget) {
            groups[gi].pop();
            return false;
        }
        groups[gi].pop();
    }
    // Or start a new group with it.
    groups.push(vec![next]);
    let ok = backtrack(deps, config, next + 1, groups, best, steps, budget);
    groups.pop();
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FormulaGraph;
    use taco_grid::{Cell, Range};

    fn d(prec: &str, dep: &str) -> Dependency {
        Dependency::new(Range::parse_a1(prec).unwrap(), Cell::parse_a1(dep).unwrap())
    }

    fn greedy_edges(deps: &[Dependency]) -> usize {
        FormulaGraph::build(Config::taco_full(), deps.iter().copied()).num_edges()
    }

    #[test]
    fn groups_fig4a_is_compressible() {
        let deps = vec![d("A1:B3", "C1"), d("A2:B4", "C2"), d("A3:B5", "C3"), d("A4:B6", "C4")];
        assert!(compressible_group(&deps, &Config::taco_full()));
        // Out of order is fine.
        let rev: Vec<Dependency> = deps.iter().rev().copied().collect();
        assert!(compressible_group(&rev, &Config::taco_full()));
    }

    #[test]
    fn non_consecutive_or_mismatched_groups_rejected() {
        let cfg = Config::taco_full();
        // Gap in the run.
        assert!(!compressible_group(&[d("A1:B3", "C1"), d("A3:B5", "C3")], &cfg));
        // Mismatched windows.
        assert!(!compressible_group(&[d("A1:B3", "C1"), d("A2:B9", "C2")], &cfg));
        // Different columns.
        assert!(!compressible_group(&[d("A1:B3", "C1"), d("A2:B4", "D2")], &cfg));
    }

    #[test]
    fn exact_matches_greedy_on_clean_runs() {
        // A pure RR run + an FF pair: optimum is clearly 2.
        let mut deps = vec![d("A1:B3", "C1"), d("A2:B4", "C2"), d("A3:B5", "C3"), d("A4:B6", "C4")];
        deps.push(d("G1:G9", "H1"));
        deps.push(d("G1:G9", "H2"));
        let exact = exact_min_edges(&deps, &Config::taco_full(), 1_000_000).unwrap();
        assert_eq!(exact, 2);
        assert_eq!(greedy_edges(&deps), 2);
    }

    #[test]
    fn greedy_can_be_suboptimal_but_exact_is_not() {
        // An ambiguous middle dependency: C2 references B2, which both the
        // vertical derived-column run (C1,C2,C3 ref B1,B2,B3) and a
        // horizontal same-row run could claim. Construct a case where
        // greedy's local choice may split a run.
        let deps = vec![
            // Vertical run col C references col B same row (in-row RR).
            d("B1", "C1"),
            d("B2", "C2"),
            d("B3", "C3"),
            // Horizontal run on row 2 also matching around C2.
            d("B2", "D2"),
            d("B2", "E2"),
        ];
        let cfg = Config::taco_full();
        let exact = exact_min_edges(&deps, &cfg, 1_000_000).unwrap();
        let greedy = greedy_edges(&deps);
        assert!(exact <= greedy);
        assert_eq!(exact, 2, "one RR column run + one FF row run");
    }

    #[test]
    fn exact_single_and_empty() {
        let cfg = Config::taco_full();
        assert_eq!(exact_min_edges(&[], &cfg, 1000), Some(0));
        assert_eq!(exact_min_edges(&[d("A1", "B1")], &cfg, 1000), Some(1));
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let deps: Vec<Dependency> =
            (1..=12).map(|i| d("A1", &format!("{}1", crate::test_col(i + 1)))).collect();
        assert_eq!(exact_min_edges(&deps, &Config::taco_full(), 5), None);
    }

    #[test]
    fn nocomp_exact_is_all_singles() {
        let deps = vec![d("A1:B3", "C1"), d("A2:B4", "C2")];
        assert_eq!(exact_min_edges(&deps, &Config::nocomp(), 1000), Some(2));
    }
}
