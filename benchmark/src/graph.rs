//! The graph phases — the paper's own object: build every sheet's
//! compressed formula graph, probe dependents and precedents, then clear
//! and re-add column ranges. Only `taco_core`, `taco_rtree` and
//! `taco_grid` run here.

use crate::inputs::{corpus_name, GraphInputs, SheetInput};
use crate::run::Round;
use crate::spec::Sizes;
use crate::stats;
use crate::trace::durations;
use std::hint::black_box;
use std::time::Instant;
use taco_core::{Config, Dependency, FormulaGraph};
use taco_grid::Range;
use taco_rtree::RTree;

/// With tracing on, every `TRACE_SAMPLE`-th probe gets its own span: a
/// probe takes about a microsecond, so a span around each would cost more
/// than the 5 % the traced pass may add.
const TRACE_SAMPLE: usize = 8;

fn secs(from: Instant) -> f64 {
    from.elapsed().as_secs_f64()
}

fn build(sheet: &SheetInput, config: Config) -> FormulaGraph {
    FormulaGraph::build(config, sheet.deps.iter().copied())
}

/// One probe phase: `probe` over every sheet's probe list. Returns probes
/// made, ranges returned, seconds taken and the speed factor.
fn probe_phase(
    round: &mut Round,
    graphs: &[FormulaGraph],
    sheets: &[SheetInput],
    (phase, call): (&'static str, &'static str),
    probes_of: fn(&SheetInput) -> &[Range],
    probe: fn(&FormulaGraph, Range) -> Vec<Range>,
) -> (u64, u64, f64, f64) {
    let span = round.rec.open(phase);
    let start = Instant::now();
    let (mut probes, mut ranges) = (0u64, 0u64);
    for (g, sheet) in graphs.iter().zip(sheets) {
        for (i, &p) in probes_of(sheet).iter().enumerate() {
            let found = if round.rec.is_on() && i % TRACE_SAMPLE == 0 {
                let t0 = Instant::now();
                let found = probe(g, p);
                round.rec.leaf(call, t0, Instant::now(), i as u64);
                found
            } else {
                probe(g, p)
            };
            ranges += black_box(found).len() as u64;
            probes += 1;
        }
    }
    let took = secs(start);
    round.rec.close(span);
    (probes, ranges, took, round.speed.factor())
}

/// Runs the four phases once and returns the graphs as the modify phase
/// left them, for [`check`], and the speed factors of the dependents,
/// precedents and modify phases, for [`fold_spans`].
pub fn run(inp: &GraphInputs, round: &mut Round) -> (Vec<FormulaGraph>, [f64; 3]) {
    // ---- build ----
    let span = round.rec.open("graph.build");
    let start = Instant::now();
    let mut corpus_ms = [0.0f64; 2];
    let mut graphs = Vec::with_capacity(inp.sheets.len());
    for (i, sheet) in inp.sheets.iter().enumerate() {
        let t0 = Instant::now();
        graphs.push(build(sheet, Config::taco_full()));
        let t1 = Instant::now();
        round.rec.leaf("core.build", t0, t1, i as u64);
        corpus_ms[sheet.corpus] += (t1 - t0).as_secs_f64() * 1e3;
    }
    let took = secs(start);
    round.rec.close(span);
    let speed = round.speed.factor();
    let deps: u64 = graphs.iter().map(FormulaGraph::dependencies_inserted).sum();
    let edges: u64 = graphs.iter().map(|g| g.num_edges() as u64).sum();
    round.out.rate("build_deps_per_s", deps as f64 / took, speed);
    round.out.push("edges_per_kdep", edges as f64 * 1e3 / deps as f64);
    round.out.ops(deps, 0);
    for (corpus, ms) in corpus_ms.into_iter().enumerate() {
        round.out.time(["core.build_ms.enron", "core.build_ms.github"][corpus], ms, speed);
    }
    round.out.push("core.deps", deps as f64);
    round.out.push("core.edges", edges as f64);
    if round.layers {
        let mut reduced = taco_core::PatternCounts::default();
        graphs.iter().for_each(|g| reduced.merge(&g.stats().reduced));
        round.out.push("core.edges_reduced.rr", reduced.rr as f64);
        round.out.push("core.edges_reduced.rf", reduced.rf as f64);
        round.out.push("core.edges_reduced.fr", reduced.fr as f64);
        round.out.push("core.edges_reduced.ff", reduced.ff as f64);
        round.out.push("core.edges_reduced.rr_chain", reduced.rr_chain as f64);
    }

    // ---- dependents, precedents ----
    let (probes, ranges, took, speed) = probe_phase(
        round,
        &graphs,
        &inp.sheets,
        ("graph.dependents", "core.find_dependents"),
        |s| &s.dependents_probes,
        |g, r| g.find_dependents(r),
    );
    round.out.rate("dependents_probes_per_s", probes as f64 / took, speed);
    let dependents_speed = speed;
    round.out.push("core.dependents_ranges_mean", ranges as f64 / probes as f64);
    round.out.ops(probes, 0);
    let (probes, _, took, speed) = probe_phase(
        round,
        &graphs,
        &inp.sheets,
        ("graph.precedents", "core.find_precedents"),
        |s| &s.precedents_probes,
        |g, r| g.find_precedents(r),
    );
    round.out.rate("precedents_probes_per_s", probes as f64 / took, speed);
    let precedents_speed = speed;
    round.out.ops(probes, 0);
    if round.layers {
        headline_probes(inp, &graphs, round);
    }

    // ---- modify ----
    let span = round.rec.open("graph.modify");
    let start = Instant::now();
    let mut ops = 0u64;
    for (g, sheet) in graphs.iter_mut().zip(&inp.sheets) {
        for op in &sheet.modify {
            let t0 = Instant::now();
            g.clear_cells(op.range);
            let t1 = Instant::now();
            op.cleared.iter().for_each(|d| g.add_dependency(d));
            let t2 = Instant::now();
            round.rec.leaf("core.clear_cells", t0, t1, ops);
            round.rec.leaf("core.readd", t1, t2, ops);
            ops += 1;
        }
    }
    let took = secs(start);
    round.rec.close(span);
    let modify_speed = round.speed.factor();
    round.out.rate("modify_ops_per_s", ops as f64 / took, modify_speed);
    round.out.ops(ops, 0);
    let edges_after: u64 = graphs.iter().map(|g| g.num_edges() as u64).sum();
    round.out.push("core.edges_after_modify_per_kdep", edges_after as f64 * 1e3 / inp.deps as f64);
    (graphs, [dependents_speed, precedents_speed, modify_speed])
}

/// Span-derived per-layer numbers of the phases above.
pub fn fold_spans(spans: &[crate::trace::Span], speed: [f64; 3], round: &mut Round) {
    let [dependents_speed, precedents_speed, modify_speed] = speed;
    let dependents = durations(spans, "core.find_dependents");
    round.out.time("core.dependents_ns_p50", stats::median(&dependents), dependents_speed);
    round.out.time("core.dependents_ns_p99", stats::tail(&dependents, 0.99), dependents_speed);
    let precedents = durations(spans, "core.find_precedents");
    round.out.time("core.precedents_ns_p50", stats::median(&precedents), precedents_speed);
    let clear = durations(spans, "core.clear_cells");
    round.out.time("core.clear_us_p50", stats::median(&clear) / 1e3, modify_speed);
    let readd = durations(spans, "core.readd");
    round.out.time("core.readd_us_p50", stats::median(&readd) / 1e3, modify_speed);
}

fn largest_per_corpus(inp: &GraphInputs, n: usize) -> Vec<usize> {
    let mut picked = Vec::new();
    for corpus in 0..2 {
        let mut of: Vec<usize> =
            (0..inp.sheets.len()).filter(|&i| inp.sheets[i].corpus == corpus).collect();
        of.sort_by_key(|&i| std::cmp::Reverse(inp.sheets[i].deps.len()));
        picked.extend(of.into_iter().take(n));
    }
    picked
}

fn timed_us(g: &FormulaGraph, r: Range) -> (f64, Vec<Range>) {
    let t0 = Instant::now();
    let found = g.find_dependents(r);
    (t0.elapsed().as_secs_f64() * 1e6, found)
}

/// Fig. 10's two probes, and the same longest-path probe without
/// compression on the largest sheets: the paper's headline ratio.
fn headline_probes(inp: &GraphInputs, graphs: &[FormulaGraph], round: &mut Round) {
    let (mut longest, mut max_dependents) = (Vec::new(), Vec::new());
    for (g, sheet) in graphs.iter().zip(&inp.sheets) {
        longest.push(timed_us(g, sheet.longest_path).0);
        // The hot cell with the most dependent cells.
        let hottest = sheet.dependents_probes[..sheet.hot_cells]
            .iter()
            .map(|&r| {
                let (us, found) = timed_us(g, r);
                (found.iter().map(Range::area).sum::<u64>(), us)
            })
            .max_by_key(|&(cells, _)| cells);
        max_dependents.extend(hottest.map(|(_, us)| us));
    }
    let speed = round.speed.factor();
    round.out.time("core.longest_path_us_p50", stats::median(&longest), speed);
    round.out.time("core.max_dependents_us_p50", stats::median(&max_dependents), speed);

    let (mut nocomp_ms, mut nocomp_us, mut taco_us) = (0.0, Vec::new(), Vec::new());
    for i in largest_per_corpus(inp, round.sizes.nocomp_sheets) {
        let sheet = &inp.sheets[i];
        let t0 = Instant::now();
        let nocomp = build(sheet, Config::nocomp());
        nocomp_ms += t0.elapsed().as_secs_f64() * 1e3;
        nocomp_us.push(timed_us(&nocomp, sheet.longest_path).0);
        taco_us.push(timed_us(&graphs[i], sheet.longest_path).0);
    }
    let speed = round.speed.factor();
    round.out.time("core.nocomp_build_ms", nocomp_ms, speed);
    round.out.time("core.nocomp_longest_path_us_p50", stats::median(&nocomp_us), speed);
    round
        .out
        .push("core.speedup_longest_path", stats::median(&nocomp_us) / stats::median(&taco_us));
}

/// The R-tree alone, on the precedent rectangles of the largest sheet's
/// compressed edges and that sheet's probe cells.
pub fn rtree_kernels(inp: &GraphInputs, graphs: &[FormulaGraph], round: &mut Round) {
    let i = (0..inp.sheets.len()).max_by_key(|&i| inp.sheets[i].deps.len()).expect("sheets");
    let rects: Vec<(Range, usize)> =
        graphs[i].edges().enumerate().map(|(id, e)| (e.prec, id)).collect();
    let n = rects.len() as f64;
    let per = |t0: Instant, n: f64| t0.elapsed().as_secs_f64() * 1e9 / n;

    round.speed.factor();
    let t0 = Instant::now();
    let bulk: RTree<usize> = RTree::bulk_load(rects.clone());
    let bulk_load = per(t0, n);

    let mut tree: RTree<usize> = RTree::new();
    let t0 = Instant::now();
    for &(r, id) in &rects {
        tree.insert(r, id);
    }
    let insert = per(t0, n);

    let probes = &inp.sheets[i].dependents_probes;
    let t0 = Instant::now();
    let mut hits = 0usize;
    for &p in probes {
        hits += black_box(bulk.overlapping(p)).len() + black_box(tree.overlapping(p)).len();
    }
    black_box(hits);
    let search = per(t0, 2.0 * probes.len() as f64);

    let t0 = Instant::now();
    let removed = rects.iter().filter(|(r, id)| tree.remove(*r, id)).count();
    let remove = per(t0, n);
    let speed = round.speed.factor();
    round.out.time("rtree.bulk_load_ns_per_entry", bulk_load, speed);
    round.out.time("rtree.insert_ns_per_entry", insert, speed);
    round.out.time("rtree.search_ns_per_query", search, speed);
    round.out.time("rtree.remove_ns_per_entry", remove, speed);
    round.out.ops(rects.len() as u64, (rects.len() - removed) as u64);
}

// ---- correctness ---------------------------------------------------------

/// A set of ranges as disjoint per-column row intervals, so two answers
/// that cover the same cells with different rectangles compare equal.
fn cell_set(ranges: &[Range]) -> Vec<(u32, u32, u32)> {
    let mut runs: Vec<(u32, u32, u32)> = ranges
        .iter()
        .flat_map(|r| (r.head().col..=r.tail().col).map(|c| (c, r.head().row, r.tail().row)))
        .collect();
    runs.sort_unstable();
    let mut out: Vec<(u32, u32, u32)> = Vec::new();
    for (col, lo, hi) in runs {
        match out.last_mut() {
            Some((c, _, end)) if *c == col && lo <= *end + 1 => *end = (*end).max(hi),
            _ => out.push((col, lo, hi)),
        }
    }
    out
}

fn dep_key(d: &Dependency) -> (taco_grid::Cell, Range) {
    (d.dep, d.prec)
}

/// Untimed. Returns `(operations checked, operations that failed)`:
/// after the modify phase every graph still decompresses to its sheet's
/// dependency multiset, and on seeded probes the compressed graph finds
/// the same dependent cells as a graph built without compression.
/// `check_probes` per corpus, spread over its `nocomp_sheets` largest sheets.
pub fn check(inp: &GraphInputs, graphs: &[FormulaGraph], sizes: &Sizes) -> (u64, u64) {
    let (mut checked, mut failed) = (0u64, 0u64);
    for (g, sheet) in graphs.iter().zip(&inp.sheets) {
        let mut want: Vec<_> = sheet.deps.iter().map(dep_key).collect();
        let mut got: Vec<_> = g.decompress_all().iter().map(dep_key).collect();
        want.sort_unstable();
        got.sort_unstable();
        let ops = sheet.modify.len() as u64;
        checked += ops;
        if want != got {
            eprintln!("check failed: a {} sheet lost dependencies", corpus_name(sheet.corpus));
            failed += ops;
        }
    }
    let per_sheet = sizes.check_probes / sizes.nocomp_sheets.max(1);
    for i in largest_per_corpus(inp, sizes.nocomp_sheets) {
        let sheet = &inp.sheets[i];
        let nocomp = build(sheet, Config::nocomp());
        // Skip the hot cells: their answers are the largest, and a no-
        // compression graph needs seconds for each.
        let seeded = &sheet.dependents_probes[sheet.hot_cells + 1..];
        for &p in seeded.iter().take(per_sheet) {
            checked += 1;
            let mut want = nocomp.find_dependents(p);
            if crate::run::break_check("graph") {
                want.push(Range::from_coords(9_999, 1, 9_999, 1));
            }
            if cell_set(&graphs[i].find_dependents(p)) != cell_set(&want) {
                eprintln!("check failed: dependents of {} differ from no compression", p.to_a1());
                failed += 1;
            }
        }
    }
    (checked, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_sets_ignore_how_cells_are_grouped() {
        let a = [Range::from_coords(2, 1, 2, 10), Range::from_coords(3, 4, 3, 4)];
        let b = [
            Range::from_coords(2, 6, 2, 10),
            Range::from_coords(2, 1, 3, 5).intersect(&Range::from_coords(2, 1, 2, 5)).unwrap(),
            Range::from_coords(3, 4, 3, 4),
            Range::from_coords(2, 3, 2, 7),
        ];
        assert_eq!(cell_set(&a), cell_set(&b));
        assert_eq!(cell_set(&a), vec![(2, 1, 10), (3, 4, 4)]);
        assert_ne!(cell_set(&a), cell_set(&a[..1]));
    }
}
