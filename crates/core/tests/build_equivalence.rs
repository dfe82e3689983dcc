//! `FormulaGraph::build` is a graph grown one dependency at a time and
//! then repacked: `new`, `add_dependency` per dependency, `optimize`.
//!
//! A build keeps no precedent index while it compresses (Alg. 2 reads
//! only the dependent index) and makes it with the final repack. That
//! must change nothing anyone can see: the same edges in the same arena
//! slots, the same index trees node for node, and so the same query
//! answers, in the same order, with the same `QueryStats`.

use taco_core::{Config, FormulaGraph};
use taco_grid::Range;
use taco_workload::{enron_like, github_like, CorpusParams, SyntheticSheet};

const SCALE: f64 = 0.05;
/// Seeded probes per sheet, beside its hot cells and longest-path root.
const PROBES: usize = 16;

/// A configuration's name and constructor.
type NamedConfig = (&'static str, fn() -> Config);

const CONFIGS: [NamedConfig; 2] = [("taco_full", Config::taco_full), ("nocomp", Config::nocomp)];

/// The sheet's hot cells and longest-path root, then seeded picks: the
/// precedent range and the formula cell of one dependency each.
fn probes(sheet: &SyntheticSheet) -> Vec<Range> {
    let mut probes: Vec<Range> = sheet.hot_cells.iter().copied().map(Range::cell).collect();
    probes.push(Range::cell(sheet.longest_path_cell));
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..PROBES {
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let d = sheet.deps[(seed >> 33) as usize % sheet.deps.len()];
        probes.extend([d.prec, Range::cell(d.dep)]);
    }
    probes
}

/// Every sheet of `params`, under TACO and under NoComp: a build, and
/// the graph grown from the same dependencies and then optimized.
fn check(corpus: &str, params: CorpusParams) {
    for sheet in &params.generate() {
        for (config, make) in CONFIGS {
            let at = format!("{corpus} {} {config}", sheet.name);
            let built = FormulaGraph::build(make(), sheet.deps.iter().copied());
            let mut grown = FormulaGraph::new(make());
            sheet.deps.iter().for_each(|d| grown.add_dependency(d));
            grown.optimize();

            // A build frees no slot, so the edges in slot order are
            // the edges slot by slot.
            assert_eq!(built.num_edges(), grown.num_edges(), "{at}");
            for (i, (b, g)) in built.edges().zip(grown.edges()).enumerate() {
                assert_eq!(b, g, "{at}: edge {i}");
            }
            // Arena, both indexes (every node, entry and handle),
            // counts and stamps.
            assert!(format!("{built:?}") == format!("{grown:?}"), "{at}: the graphs differ");

            let (mut b_out, mut g_out) = (Vec::new(), Vec::new());
            for p in probes(sheet) {
                let b = built.find_dependents_into(p, &mut b_out);
                let g = grown.find_dependents_into(p, &mut g_out);
                assert_eq!((&b_out, b), (&g_out, g), "{at}: dependents of {p}");
                let b = built.find_precedents_into(p, &mut b_out);
                let g = grown.find_precedents_into(p, &mut g_out);
                assert_eq!((&b_out, b), (&g_out, g), "{at}: precedents of {p}");
            }
        }
    }
}

#[test]
fn an_enron_like_build_is_the_grown_graph_optimized() {
    check("enron_like", enron_like(SCALE));
}

#[test]
fn a_github_like_build_is_the_grown_graph_optimized() {
    check("github_like", github_like(SCALE));
}
