//! Validates the complexity claims of §III-B and §IV-D empirically:
//! pattern key functions are O(1) in the run length, chains resolve
//! without repeated edge accesses, and BFS edge-access counts stay small
//! on pattern-structured sheets. The count-based query contracts on the
//! corpus presets live here too: a packed index visits no more nodes than
//! a grown one, warm buffers change neither hits nor counters, and every
//! R-tree fan-out finds the same entries.

use taco_core::{Config, Dependency, FormulaGraph, PatternType, QueryStats};
use taco_grid::{Cell, Range};
use taco_rtree::FanoutRTree;
use taco_workload::{enron_like, github_like, SyntheticSheet};

/// One dependents query into a fresh result vector: the ranges and what
/// it cost.
fn dependents(g: &FormulaGraph, r: Range) -> (Vec<Range>, QueryStats) {
    let mut out = Vec::new();
    let stats = g.find_dependents_into(r, &mut out);
    (out, stats)
}

/// Cells covered by a list of disjoint ranges.
fn cells(v: &[Range]) -> u64 {
    v.iter().map(Range::area).sum()
}

/// The smallest and the largest sheet of each corpus preset at a small
/// fixed scale (10 k and 20 k / 40 k dependencies).
fn corpus_ends() -> [(&'static str, [SyntheticSheet; 2]); 2] {
    [enron_like(0.05), github_like(0.05)].map(|p| {
        let mut sheets = p.generate();
        let largest = sheets.pop().expect("corpora are non-empty");
        (p.name, [sheets.swap_remove(0), largest])
    })
}

fn rr_deps(n: u32) -> impl Iterator<Item = Dependency> {
    (1..=n).map(|row| Dependency::new(Range::from_coords(1, row, 2, row + 2), Cell::new(5, row)))
}

#[test]
fn compressed_edge_count_is_independent_of_run_length() {
    for n in [10u32, 1_000, 100_000] {
        let g = FormulaGraph::build(Config::taco_full(), rr_deps(n));
        assert_eq!(g.num_edges(), 1, "n={n}");
        let s = g.stats();
        assert_eq!(s.dependencies, u64::from(n));
        assert_eq!(s.reduced.rr, u64::from(n) - 1);
    }
}

#[test]
fn find_dep_work_is_constant_per_edge() {
    // Edge accesses for a point probe must not grow with run length.
    let mut accesses = Vec::new();
    for n in [100u32, 10_000, 1_000_000] {
        let g = FormulaGraph::build(Config::taco_full(), rr_deps(n));
        let (_, stats) = dependents(&g, Range::cell(Cell::new(1, n / 2)));
        accesses.push(stats.edges_accessed);
    }
    assert!(
        accesses.windows(2).all(|w| w[1] <= w[0] + 2),
        "edge accesses must not scale with run length: {accesses:?}"
    );
}

#[test]
fn chain_pattern_avoids_quadratic_reaccess() {
    // Walked one hop at a time, a chain of length n costs ~n accesses of
    // the same edge (the §V motivation). RR-Chain's transitive findDep
    // resolves it in a constant number, and so does a plain RR edge: its
    // window covers its own column, so the query closes it in one step.
    let n = 5_000u32;
    let chain =
        (2..=n).map(|row| Dependency::new(Range::cell(Cell::new(1, row - 1)), Cell::new(1, row)));
    let with_chain = FormulaGraph::build(Config::taco_full(), chain.clone());
    let without_chain = FormulaGraph::build(Config::taco_without(PatternType::RRChain), chain);

    let (a, sa) = dependents(&with_chain, Range::cell(Cell::new(1, 1)));
    let (b, sb) = dependents(&without_chain, Range::cell(Cell::new(1, 1)));
    assert_eq!(cells(&a), cells(&b), "answers must agree");
    assert_eq!(cells(&a), u64::from(n) - 1);
    assert!(sa.edges_accessed <= 4, "RR-Chain: {} accesses", sa.edges_accessed);
    assert!(sb.edges_accessed <= 4, "plain RR: {} accesses", sb.edges_accessed);
}

/// One point query in either direction: the cells it found and what it
/// cost.
fn point_query(g: &FormulaGraph, cell: Cell, dependents: bool) -> (u64, QueryStats) {
    let mut out = Vec::new();
    let probe = Range::cell(cell);
    let stats = if dependents {
        g.find_dependents_into(probe, &mut out)
    } else {
        g.find_precedents_into(probe, &mut out)
    };
    (cells(&out), stats)
}

#[test]
fn a_window_over_its_own_column_is_closed_in_constant_searches() {
    // Two RR runs whose windows read their own formula column: Fibonacci
    // (`A{r} = SUM(A{r-2}:A{r-1})`) and the corpus shape (`D{r}` reads
    // `C{r}:E{r+2}`, its own cell included). Walked a step at a time, a
    // query moves w rows per R-tree search and its searches grow as n/w;
    // closed in O(1) per edge access, they do not grow at all.
    let fibonacci = |n: u32| {
        (3..=n).map(|r| Dependency::new(Range::from_coords(1, r - 2, 1, r - 1), Cell::new(1, r)))
    };
    let corpus = |n: u32| {
        (1..=n).map(|r| Dependency::new(Range::from_coords(3, r, 5, r + 2), Cell::new(4, r)))
    };
    let mut counts = Vec::new();
    for n in [1_000u32, 100_000] {
        let fib = FormulaGraph::build(Config::taco_full(), fibonacci(n));
        let window = FormulaGraph::build(Config::taco_full(), corpus(n));
        assert_eq!((fib.num_edges(), window.num_edges()), (1, 1), "n={n}");
        let n64 = u64::from(n);
        // Probes at the far end of each run from where its closure runs.
        let probes = [
            (&fib, Cell::new(1, 1), true, n64 - 2),
            (&fib, Cell::new(1, n), false, n64 - 1),
            (&window, Cell::new(5, n), true, n64),
            (&window, Cell::new(4, 1), false, 3 * (n64 + 2)),
        ];
        let mut at_n = Vec::new();
        for (g, cell, dependents, want) in probes {
            let (found, stats) = point_query(g, cell, dependents);
            assert_eq!(found, want, "n={n}: {cell}, dependents: {dependents}");
            at_n.push((stats.rtree_searches, stats.enqueued));
        }
        counts.push(at_n);
    }
    assert_eq!(counts[0], counts[1], "searches and enqueued ranges must not grow with n");
}

#[test]
fn edge_accesses_stay_low_on_structured_sheets() {
    // §IV-D: "the average number of edge accesses during BFS is no larger
    // than 7 for 98% of the tests".
    use taco_workload::generator::{gen_sheet, SheetParams};
    let params = SheetParams { target_deps: 20_000, ..Default::default() };
    let sheet = gen_sheet("acc", 21, &params);
    let g = FormulaGraph::build(Config::taco_full(), sheet.deps.iter().copied());
    let mut ratios = Vec::new();
    for &hot in &sheet.hot_cells {
        let (_, st) = dependents(&g, Range::cell(hot));
        if st.enqueued > 0 {
            ratios.push(st.edges_accessed as f64 / (g.num_edges() as f64).max(1.0));
        }
    }
    let ok = ratios.iter().filter(|&&r| r <= 7.0).count();
    assert!(
        ok as f64 >= ratios.len() as f64 * 0.9,
        "avg per-edge access ratio exceeded 7 too often: {ratios:?}"
    );
}

#[test]
fn nocomp_edges_equal_dependencies_exactly() {
    let g = FormulaGraph::build(Config::nocomp(), rr_deps(5_000));
    assert_eq!(g.num_edges() as u64, g.dependencies_inserted());
    let s = g.stats();
    assert_eq!(s.reduced.total(), 0);
}

#[test]
fn build_then_query_on_grid_boundaries() {
    // Dependencies hugging the grid edges must compress and query safely.
    use taco_grid::{MAX_COL, MAX_ROW};
    let mut g = FormulaGraph::taco();
    // Column at the last valid column, rows near MAX_ROW.
    for row in (MAX_ROW - 50)..MAX_ROW {
        g.add_dependency(&Dependency::new(
            Range::cell(Cell::new(MAX_COL - 1, row)),
            Cell::new(MAX_COL, row),
        ));
    }
    assert_eq!(g.num_edges(), 1);
    let deps = g.find_dependents(Range::cell(Cell::new(MAX_COL - 1, MAX_ROW - 10)));
    assert_eq!(deps, vec![Range::cell(Cell::new(MAX_COL, MAX_ROW - 10))]);

    // Chain ending exactly at MAX_ROW.
    let mut g = FormulaGraph::taco();
    for row in (MAX_ROW - 20 + 1)..=MAX_ROW {
        g.add_dependency(&Dependency::new(Range::cell(Cell::new(1, row - 1)), Cell::new(1, row)));
    }
    let deps = g.find_dependents(Range::cell(Cell::new(1, MAX_ROW - 20)));
    assert_eq!(deps.iter().map(Range::area).sum::<u64>(), 20);
}

#[test]
fn huge_probe_ranges_are_handled() {
    let g = FormulaGraph::build(Config::taco_full(), rr_deps(1_000));
    // Probe the whole sheet: everything that depends on anything.
    let all = g.find_dependents(Range::from_coords(1, 1, taco_grid::MAX_COL, taco_grid::MAX_ROW));
    assert_eq!(all.iter().map(Range::area).sum::<u64>(), 1_000);
}

#[test]
fn duplicate_dependencies_do_not_corrupt_state() {
    // The same dependency inserted twice (two identical references in one
    // formula, or a re-parse) must keep the graph queryable and clearable.
    let mut g = FormulaGraph::taco();
    let d = Dependency::new(Range::parse_a1("A1:A3").unwrap(), Cell::parse_a1("B1").unwrap());
    g.add_dependency(&d);
    g.add_dependency(&d);
    let deps = g.find_dependents(Range::parse_a1("A2").unwrap());
    assert_eq!(deps.iter().map(Range::area).sum::<u64>(), 1);
    g.clear_cells(Range::parse_a1("B1").unwrap());
    assert!(g.find_dependents(Range::parse_a1("A2").unwrap()).is_empty());
    assert_eq!(g.num_edges(), 0);
}

#[test]
fn interleaved_inserts_still_compress() {
    // Alternating between two runs must not prevent either from
    // compressing (insertion order independence at the run level).
    let mut g = FormulaGraph::taco();
    for row in 1..=100u32 {
        g.add_dependency(&Dependency::new(Range::cell(Cell::new(1, row)), Cell::new(2, row)));
        g.add_dependency(&Dependency::new(Range::cell(Cell::new(4, row)), Cell::new(5, row)));
    }
    assert_eq!(g.num_edges(), 2);
}

#[test]
fn packed_index_visits_fewer_nodes_and_warm_buffers_change_nothing() {
    // `build` ends in an STR repack of both vertex indexes; a graph grown
    // one `add_dependency` at a time keeps the insertion-built trees. Same
    // edges, so only `nodes_visited` may differ between the two.
    for (name, sheets) in corpus_ends() {
        let (mut packed_visits, mut grown_visits) = (0u64, 0u64);
        let mut hits = Vec::new();
        for sheet in &sheets {
            let packed = FormulaGraph::build(Config::taco_full(), sheet.deps.iter().copied());
            let mut grown = FormulaGraph::new(Config::taco_full());
            sheet.deps.iter().for_each(|d| grown.add_dependency(d));
            assert_eq!(packed.num_edges(), grown.num_edges(), "{}", sheet.name);

            let probes = sheet.hot_cells.iter().chain([&sheet.longest_path_cell]);
            for probe in probes.copied().map(Range::cell) {
                // One result buffer across every probe of every sheet, and
                // the thread's query buffers warm across all of them,
                // against a fresh result vector per query.
                let (fresh_hits, fresh) = dependents(&packed, probe);
                let warm = packed.find_dependents_into(probe, &mut hits);
                assert_eq!(hits, fresh_hits, "{}: hits({probe})", sheet.name);
                assert_eq!(warm, fresh, "{}: stats({probe})", sheet.name);
                packed_visits += warm.nodes_visited;

                // Hit order follows the tree's, so the grown graph may cut
                // the same cells into other ranges.
                let on_grown = grown.find_dependents_into(probe, &mut hits);
                assert_eq!(cells(&hits), cells(&fresh_hits), "{}: grown({probe})", sheet.name);
                grown_visits += on_grown.nodes_visited;
            }
        }
        assert!(
            packed_visits < grown_visits,
            "[{name}] the STR-packed index must visit fewer nodes: {packed_visits} vs {grown_visits}"
        );
    }
}

#[test]
fn fanouts_agree_on_hits_over_a_sheets_edge_set() {
    // Two index shapes from one sheet: the compressed graph's precedent
    // ranges (a few thousand entries) and one entry per dependency (tens
    // of thousands, where the tree is deep at every fan-out).
    fn hits<const F: usize>(items: &[(Range, usize)], probes: &[Range]) -> Vec<Vec<usize>> {
        let tree: FanoutRTree<usize, F> = FanoutRTree::bulk_load(items.to_vec());
        probes
            .iter()
            .map(|p| {
                let mut found = Vec::new();
                tree.for_each_overlapping(*p, |_, i| found.push(*i));
                found.sort_unstable();
                found
            })
            .collect()
    }
    use taco_grid::MAX_ROW;
    let sheet = enron_like(0.05).generate().pop().expect("corpora are non-empty");
    let graph = FormulaGraph::build(Config::taco_full(), sheet.deps.iter().copied());
    let taco: Vec<(Range, usize)> = graph.edges().enumerate().map(|(i, e)| (e.prec, i)).collect();
    let nocomp: Vec<(Range, usize)> =
        sheet.deps.iter().enumerate().map(|(i, d)| (d.prec, i)).collect();
    // Every hot cell, alone and as the corner of a 5 x 64 window.
    let probes: Vec<Range> = sheet
        .hot_cells
        .iter()
        .flat_map(|&c| {
            [Range::cell(c), Range::new(c, Cell::new(c.col + 4, (c.row + 63).min(MAX_ROW)))]
        })
        .collect();
    for (shape, items) in [("taco", &taco), ("nocomp", &nocomp)] {
        // The linear scan; `items` are in index order, so each answer is sorted.
        let want: Vec<Vec<usize>> = probes
            .iter()
            .map(|p| items.iter().filter(|(r, _)| r.overlaps(p)).map(|&(_, i)| i).collect())
            .collect();
        assert!(want.iter().all(|w| !w.is_empty()), "{shape}: every probe must hit something");
        assert_eq!(hits::<8>(items, &probes), want, "{shape}, fan-out 8");
        assert_eq!(hits::<16>(items, &probes), want, "{shape}, fan-out 16");
        assert_eq!(hits::<32>(items, &probes), want, "{shape}, fan-out 32");
    }
}
