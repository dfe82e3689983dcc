//! Machine-readable perf baseline for the hot query/maintenance paths.
//!
//! Measures, for both corpus presets: graph build (incremental grow vs
//! STR-packed `build`, plus snapshot `restore`), fig10/fig14-style
//! find-dependents probes (latency + `QueryStats` counters, scratch vs
//! plain), fig15-style maintenance (clear a 1K column), and an R-tree
//! fanout sweep (8 vs 16 vs 32) over the largest sheet's edge set.
//!
//! Contract asserts (these fail the bench, and CI runs it in quick mode):
//!
//! - scratch and plain queries return identical results and stats;
//! - the STR-packed index never visits more R-tree nodes than the
//!   insertion-grown index, summed over the probe set (and strictly
//!   fewer when the corpus is big enough to matter);
//! - steady-state `find_dependents_with_scratch` performs **zero** heap
//!   allocations (counted by a `#[global_allocator]` wrapper);
//! - every fanout answers the sweep probes with identical hit counts.
//!
//! With `TACO_BENCH_JSON=path` the run also writes the collected numbers
//! as JSON — commit the artifact to track the perf trajectory over PRs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use taco_bench::{build_graph, corpora, fmt_ms, header, ms, time};
use taco_core::{Config, FormulaGraph, QueryScratch, QueryStats};
use taco_grid::{Cell, Range, MAX_ROW};
use taco_rtree::FanoutRTree;
use taco_workload::stats::measure_on;

/// Counts every allocation and reallocation (frees are not interesting
/// for the steady-state contract).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Builds the graph the pre-bulk-load way: one insert at a time, no
/// final STR repack (the comparison baseline for node-visit counts).
fn grow_graph(config: Config, deps: &[taco_core::Dependency]) -> FormulaGraph {
    let mut g = FormulaGraph::new(config);
    for d in deps {
        g.add_dependency(d);
    }
    g
}

#[derive(Default)]
struct Agg {
    stats: QueryStats,
    queries: u64,
    total_ms: f64,
}

impl Agg {
    fn add(&mut self, s: QueryStats, t: f64) {
        self.stats.edges_accessed += s.edges_accessed;
        self.stats.enqueued += s.enqueued;
        self.stats.rtree_searches += s.rtree_searches;
        self.stats.nodes_visited += s.nodes_visited;
        self.queries += 1;
        self.total_ms += t;
    }
}

fn main() {
    header("queries baseline — build/query/maintenance + QueryStats (JSON-able)");
    let mut out = JsonObj::new();
    out.num("scale", taco_bench::scale());
    out.num("default_fanout", taco_rtree::DEFAULT_FANOUT as f64);
    let mut corpora_json = Vec::new();

    for corpus in corpora() {
        let name = &corpus.params.name;
        let mut cj = JsonObj::new();
        cj.str("name", name);
        cj.num("sheets", corpus.sheets.len() as f64);

        // ---- build: grown vs packed vs restored --------------------------
        let total_deps: usize = corpus.sheets.iter().map(|s| s.deps.len()).sum();
        cj.num("dependencies", total_deps as f64);
        let (grown_graphs, grow_t) = time(|| {
            corpus
                .sheets
                .iter()
                .map(|s| grow_graph(Config::taco_full(), &s.deps))
                .collect::<Vec<_>>()
        });
        let (packed_graphs, build_t) = time(|| {
            corpus.sheets.iter().map(|s| build_graph(Config::taco_full(), s).0).collect::<Vec<_>>()
        });
        let snapshots: Vec<_> = packed_graphs.iter().map(|g| g.snapshot()).collect();
        let (restored, restore_t) =
            time(|| snapshots.into_iter().map(FormulaGraph::restore).collect::<Vec<_>>());
        drop(restored);
        cj.num("build_grow_ms", ms(grow_t));
        cj.num("build_packed_ms", ms(build_t));
        cj.num("restore_ms", ms(restore_t));
        println!(
            "\n[{name}] build: grow {} · build+pack {} · restore {}  ({total_deps} deps)",
            fmt_ms(ms(grow_t)),
            fmt_ms(ms(build_t)),
            fmt_ms(ms(restore_t))
        );

        // ---- queries: fig10/fig14 probes on every sheet ------------------
        let mut scratch = QueryScratch::new();
        let (mut hits, mut plain): (Vec<Range>, Vec<Range>) = (Vec::new(), Vec::new());
        let mut packed_agg = Agg::default();
        let mut grown_agg = Agg::default();
        for (sheet, (packed, grown)) in
            corpus.sheets.iter().zip(packed_graphs.iter().zip(grown_graphs.iter()))
        {
            let sstats = measure_on(sheet, packed);
            let probes = [sheet.hot_cells[sstats.max_dependents_cell], sheet.longest_path_cell];
            for probe in probes.map(Range::cell) {
                let plain_stats = packed.find_dependents_with_scratch(
                    probe,
                    &mut QueryScratch::new(),
                    &mut plain,
                );
                let t0 = Instant::now();
                let stats = packed.find_dependents_with_scratch(probe, &mut scratch, &mut hits);
                let dt = ms(t0.elapsed());
                assert_eq!(hits, plain, "scratch/plain results diverge on {}", sheet.name);
                assert_eq!(stats, plain_stats, "scratch/plain stats diverge on {}", sheet.name);
                packed_agg.add(stats, dt);

                let t0 = Instant::now();
                let gstats = grown.find_dependents_with_scratch(probe, &mut scratch, &mut hits);
                grown_agg.add(gstats, ms(t0.elapsed()));
            }
        }
        assert!(
            packed_agg.stats.nodes_visited <= grown_agg.stats.nodes_visited,
            "[{name}] STR-packed index must not visit more nodes \
             (packed {} vs grown {})",
            packed_agg.stats.nodes_visited,
            grown_agg.stats.nodes_visited
        );
        let big_enough = corpus.sheets.iter().any(|s| s.deps.len() >= 512);
        if big_enough {
            assert!(
                packed_agg.stats.nodes_visited < grown_agg.stats.nodes_visited,
                "[{name}] expected strictly fewer node visits after packing"
            );
        }
        println!(
            "[{name}] queries: {} probes · packed visits {} (grown {}) · \
             edges {} · searches {} · {} total",
            packed_agg.queries,
            packed_agg.stats.nodes_visited,
            grown_agg.stats.nodes_visited,
            packed_agg.stats.edges_accessed,
            packed_agg.stats.rtree_searches,
            fmt_ms(packed_agg.total_ms),
        );
        cj.num("query_probes", packed_agg.queries as f64);
        cj.num("query_total_ms", packed_agg.total_ms);
        cj.num("nodes_visited_packed", packed_agg.stats.nodes_visited as f64);
        cj.num("nodes_visited_grown", grown_agg.stats.nodes_visited as f64);
        cj.num("edges_accessed", packed_agg.stats.edges_accessed as f64);
        cj.num("rtree_searches", packed_agg.stats.rtree_searches as f64);
        cj.num("enqueued", packed_agg.stats.enqueued as f64);

        // ---- allocation discipline: zero steady-state allocs per query ---
        let (big_idx, _) = corpus
            .sheets
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.deps.len())
            .expect("corpora are non-empty");
        let big = &packed_graphs[big_idx];
        let sheet = &corpus.sheets[big_idx];
        let sstats = measure_on(sheet, big);
        let probe = Range::cell(sheet.hot_cells[sstats.max_dependents_cell]);
        // Warm the scratch and result buffers to their high-water mark.
        for _ in 0..3 {
            big.find_dependents_with_scratch(probe, &mut scratch, &mut hits);
            big.find_precedents_with_scratch(probe, &mut scratch, &mut hits);
        }
        let before = allocations();
        for _ in 0..10 {
            big.find_dependents_with_scratch(probe, &mut scratch, &mut hits);
            big.find_precedents_with_scratch(probe, &mut scratch, &mut hits);
        }
        let steady = allocations() - before;
        assert_eq!(
            steady, 0,
            "[{name}] steady-state scratch queries must not allocate (got {steady})"
        );
        println!("[{name}] steady-state allocations over 20 warm queries: {steady}");
        cj.num("steady_state_allocs_per_query", steady as f64);

        // ---- maintenance: fig15-style 1K-column clear --------------------
        let mut maint_ms = 0.0;
        let mut maint_allocs = 0u64;
        let mut cleared_graphs = 0u64;
        for (sheet, packed) in corpus.sheets.iter().zip(packed_graphs.iter()) {
            let mut g = packed.clone();
            let sstats = measure_on(sheet, packed);
            let start = sheet.hot_cells[sstats.max_dependents_cell];
            let clear = Range::new(start, Cell::new(start.col, (start.row + 999).min(MAX_ROW)));
            // Warm the graph's own maintenance scratch with a clear of a
            // *different* hot column first (the scratch lives on `g`, so
            // the warm-up must run on the same instance the measurement
            // does); the measured clear then reflects steady state.
            let warm = sheet.hot_cells[(sstats.max_dependents_cell + 1) % sheet.hot_cells.len()];
            g.clear_cells(Range::new(warm, Cell::new(warm.col, (warm.row + 999).min(MAX_ROW))));
            let a0 = allocations();
            let t0 = Instant::now();
            g.clear_cells(clear);
            maint_ms += ms(t0.elapsed());
            maint_allocs += allocations() - a0;
            cleared_graphs += 1;
        }
        println!(
            "[{name}] maintenance: cleared 1K column on {cleared_graphs} graphs in {} \
             ({maint_allocs} allocations total)",
            fmt_ms(maint_ms)
        );
        cj.num("maintenance_clear_ms", maint_ms);
        cj.num("maintenance_clear_allocs", maint_allocs as f64);

        corpora_json.push(cj);
    }

    // ---- fanout sweep over the biggest graph's edge set ------------------
    let sweep = fanout_sweep();
    out.raw("fanout_sweep_ms", &sweep);
    out.arr("corpora", corpora_json);

    if let Ok(path) = std::env::var("TACO_BENCH_JSON") {
        std::fs::write(&path, out.finish()).expect("write TACO_BENCH_JSON");
        println!("\nwrote baseline JSON to {path}");
    }
}

/// Times window queries over the edge ranges of the largest sheet at
/// fanout 8/16/32, on two index shapes: the compressed TACO graph (a few
/// thousand entries) and the uncompressed NoComp graph (one entry per
/// dependency — the size regime where tree shape dominates). Asserts
/// identical hit counts per shape; returns a JSON fragment
/// `{"taco": {"8": ms, ...}, "nocomp": {...}}`.
fn fanout_sweep() -> String {
    let corpus = &corpora()[0];
    let sheet = corpus.sheets.iter().max_by_key(|s| s.deps.len()).expect("corpora are non-empty");
    let probes: Vec<Range> = sheet
        .hot_cells
        .iter()
        .map(|&c| Range::cell(c))
        .chain(
            sheet
                .hot_cells
                .iter()
                .map(|&c| Range::new(c, Cell::new(c.col + 4, (c.row + 63).min(MAX_ROW)))),
        )
        .collect();

    fn run<const F: usize>(items: &[(Range, usize)], probes: &[Range]) -> (f64, u64, u64) {
        let tree: FanoutRTree<usize, F> = FanoutRTree::bulk_load(items.to_vec());
        let mut scratch = taco_rtree::SearchScratch::new();
        let mut found = 0u64;
        let mut visited = 0u64;
        // Warm-up pass, then timed passes.
        for p in probes {
            tree.search_with(*p, &mut scratch, |_, _| {});
        }
        let t0 = Instant::now();
        for _ in 0..20 {
            for p in probes {
                visited += tree.search_with(*p, &mut scratch, |_, _| found += 1);
            }
        }
        (ms(t0.elapsed()), found, visited)
    }

    fn sweep(label: &str, items: &[(Range, usize)], probes: &[Range]) -> String {
        let (t8, h8, v8) = run::<8>(items, probes);
        let (t16, h16, v16) = run::<16>(items, probes);
        let (t32, h32, v32) = run::<32>(items, probes);
        assert!(h8 == h16 && h16 == h32, "fanouts must agree on hits");
        println!(
            "\nfanout sweep [{label}] over {} entries × {} probes × 20 reps:",
            items.len(),
            probes.len()
        );
        println!("  F=8 : {:>10}  visits {v8}", fmt_ms(t8));
        println!("  F=16: {:>10}  visits {v16}", fmt_ms(t16));
        println!("  F=32: {:>10}  visits {v32}", fmt_ms(t32));
        format!("{{\"8\":{t8:.3},\"16\":{t16:.3},\"32\":{t32:.3}}}")
    }

    let taco = build_graph(Config::taco_full(), sheet).0;
    let taco_items: Vec<(Range, usize)> =
        taco.edges().enumerate().map(|(i, e)| (e.prec, i)).collect();
    let nocomp_items: Vec<(Range, usize)> =
        sheet.deps.iter().enumerate().map(|(i, d)| (d.prec, i)).collect();
    let a = sweep("taco", &taco_items, &probes);
    let b = sweep("nocomp", &nocomp_items, &probes);
    format!("{{\"taco\":{a},\"nocomp\":{b}}}")
}

// ---- a tiny JSON writer (keys are plain ASCII identifiers) --------------

struct JsonObj {
    fields: Vec<String>,
}

impl JsonObj {
    fn new() -> Self {
        JsonObj { fields: Vec::new() }
    }

    fn num(&mut self, key: &str, v: f64) {
        self.fields.push(format!("\"{key}\":{v:.3}"));
    }

    fn str(&mut self, key: &str, v: &str) {
        self.fields.push(format!("\"{key}\":\"{v}\""));
    }

    fn raw(&mut self, key: &str, json: &str) {
        self.fields.push(format!("\"{key}\":{json}"));
    }

    fn arr(&mut self, key: &str, items: Vec<JsonObj>) {
        let body: Vec<String> = items.into_iter().map(JsonObj::finish).collect();
        self.fields.push(format!("\"{key}\":[{}]", body.join(",")));
    }

    fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}
