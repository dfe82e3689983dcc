//! Queries run on their thread's own buffers. Nothing a query leaves in
//! them reaches the next query on that thread, and threads sharing one
//! graph never share a buffer: a point query after a long one answers as
//! it does on a fresh thread, and two threads querying one graph at once
//! answer as one thread does alone.

use taco_core::{Config, FormulaGraph, QueryStats};
use taco_grid::Range;
use taco_workload::{enron_like, SyntheticSheet};

/// One probe's answers in both directions, instrumentation included.
type Answer = (Vec<Range>, QueryStats, Vec<Range>, QueryStats);

/// The largest sheet of a small Enron-like corpus, its graph, and ten
/// probes: the hottest cells and the root of the longest path, then the
/// referenced ranges of dependencies at seeded indices.
fn fixture() -> (SyntheticSheet, FormulaGraph, Vec<Range>) {
    let sheet = enron_like(0.05)
        .generate()
        .into_iter()
        .max_by_key(|s| s.deps.len())
        .expect("corpora are non-empty");
    let graph = FormulaGraph::build(Config::taco_full(), sheet.deps.iter().copied());
    let mut probes: Vec<Range> = sheet.hot_cells.iter().take(4).copied().map(Range::cell).collect();
    probes.push(Range::cell(sheet.longest_path_cell));
    let mut seed = 0x5EED_7AC0u64;
    while probes.len() < 10 {
        // Knuth's MMIX step; the high bits pick the index.
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        probes.push(sheet.deps[(seed >> 33) as usize % sheet.deps.len()].prec);
    }
    (sheet, graph, probes)
}

fn answer(graph: &FormulaGraph, probe: Range) -> Answer {
    let (mut dependents, mut precedents) = (Vec::new(), Vec::new());
    let dstats = graph.find_dependents_into(probe, &mut dependents);
    let pstats = graph.find_precedents_into(probe, &mut precedents);
    assert_eq!(graph.find_dependents(probe), dependents, "dependents({probe}) wrapper");
    assert_eq!(graph.find_precedents(probe), precedents, "precedents({probe}) wrapper");
    (dependents, dstats, precedents, pstats)
}

#[test]
fn a_point_query_after_a_long_one_answers_as_on_a_fresh_thread() {
    let (sheet, graph, probes) = fixture();
    // The sheet's bounding range: the widest query either way.
    let everything = sheet
        .deps
        .iter()
        .map(|d| d.prec.bounding_union(&Range::cell(d.dep)))
        .reduce(|a, b| a.bounding_union(&b))
        .expect("the sheet has dependencies");
    let mut out = Vec::new();
    let long_queries = |out: &mut Vec<Range>| {
        let path = graph.find_dependents_into(Range::cell(sheet.longest_path_cell), out);
        let down = graph.find_dependents_into(everything, out);
        let up = graph.find_precedents_into(everything, out);
        (path, down.enqueued.min(up.enqueued))
    };
    let (path, enqueued) = long_queries(&mut out);
    assert!(path.rtree_searches > 0 && enqueued > 1_000, "the long queries fill the buffers");

    for &probe in &probes {
        let fresh = std::thread::scope(|s| {
            s.spawn(|| answer(&graph, probe)).join().expect("the fresh thread panicked")
        });
        // The long queries first, each leaving its buffers full.
        long_queries(&mut out);
        assert_eq!(answer(&graph, probe), fresh, "{probe} after the long queries");
    }
}

#[test]
fn two_threads_sharing_a_graph_answer_as_one_thread_does() {
    let (_, graph, probes) = fixture();
    let alone: Vec<Answer> = probes.iter().map(|&p| answer(&graph, p)).collect();
    let shared = &graph;
    std::thread::scope(|s| {
        let threads = [0, 1].map(|_| {
            // Several rounds, so the two threads' queries overlap.
            s.spawn(|| {
                (0..5)
                    .map(|_| probes.iter().map(|&p| answer(shared, p)).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            })
        });
        for (t, thread) in threads.into_iter().enumerate() {
            for (round, answers) in
                thread.join().expect("a query thread panicked").iter().enumerate()
            {
                assert_eq!(*answers, alone, "thread {t}, round {round}");
            }
        }
    });
}
