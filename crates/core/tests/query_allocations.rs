//! The query contract, as `cargo test` holds it: once the thread's query
//! buffers are warm, a `find_*_into` query allocates nothing, and the
//! allocating wrapper allocates exactly the vector it returns — once for
//! a non-empty result, never for an empty one — and returns what the
//! `_into` query finds.
//!
//! One `#[test]`, so nothing else runs in this process while it counts;
//! the counter is per thread all the same, because the harness's own
//! main thread is alive beside the test's. (An integration test is its
//! own crate: the allocator's `unsafe impl` lives here and `taco_core`
//! keeps `#![forbid(unsafe_code)]`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;
use taco_core::{Config, FormulaGraph, QueryStats};
use taco_grid::{Cell, Range, MAX_COL, MAX_ROW};
use taco_workload::enron_like;

/// Counts every allocation and reallocation the calling thread makes.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator can neither allocate nor find it torn down.
    static ALLOCATIONS: Counter<u64> = const { Counter::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Counter::get)
}

#[test]
fn warm_queries_allocate_nothing_and_equal_the_wrapper() {
    let sheet = enron_like(0.05)
        .generate()
        .into_iter()
        .max_by_key(|s| s.deps.len())
        .expect("corpora are non-empty");
    let graph = FormulaGraph::build(Config::taco_full(), sheet.deps.iter().copied());

    // Ten probes: the sheet's hottest cells and the root of its longest
    // path, then the referenced ranges of dependencies at seeded indices
    // (ranges, not only cells; mostly far from the hot columns).
    let mut probes: Vec<Range> = sheet.hot_cells.iter().take(4).copied().map(Range::cell).collect();
    probes.push(Range::cell(sheet.longest_path_cell));
    let mut seed = 0x7AC0_5EEDu64;
    while probes.len() < 10 {
        // Knuth's MMIX step; the high bits pick the index.
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        probes.push(sheet.deps[(seed >> 33) as usize % sheet.deps.len()].prec);
    }

    let mut out = Vec::new();
    // Three rounds take every buffer to its high-water mark: the thread's
    // query buffers, the output the wrappers run into, and `out`.
    for _ in 0..3 {
        for &probe in &probes {
            graph.find_dependents_into(probe, &mut out);
            graph.find_precedents_into(probe, &mut out);
            graph.find_dependents(probe);
            graph.find_precedents(probe);
        }
    }

    let mut found = 0usize;
    let before = allocations();
    for &probe in &probes {
        graph.find_dependents_into(probe, &mut out);
        found += out.len();
        graph.find_precedents_into(probe, &mut out);
        found += out.len();
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "twenty warm queries allocated {allocated} times");
    assert!(found > 0, "the probes must reach something");

    // Each wrapper against its `_into` query, at every probe and at a
    // cell no formula reads or is, whose results are empty.
    type Into = fn(&FormulaGraph, Range, &mut Vec<Range>) -> QueryStats;
    type Wrapper = fn(&FormulaGraph, Range) -> Vec<Range>;
    let directions: [(&str, Into, Wrapper); 2] = [
        ("dependents", FormulaGraph::find_dependents_into, FormulaGraph::find_dependents),
        ("precedents", FormulaGraph::find_precedents_into, FormulaGraph::find_precedents),
    ];
    let nowhere = Range::cell(Cell::new(MAX_COL, MAX_ROW));
    let mut empty = 0;
    for probe in probes.iter().copied().chain([nowhere]) {
        for (name, into, wrapper) in directions {
            into(&graph, probe, &mut out);
            let before = allocations();
            let wrapped = wrapper(&graph, probe);
            let allocated = allocations() - before;
            assert_eq!(wrapped, out, "{name}({probe})");
            let want = u64::from(!out.is_empty());
            assert_eq!(allocated, want, "{name}({probe}) allocated {allocated} times");
            empty += usize::from(out.is_empty());
        }
    }
    assert!(empty >= 2, "the empty-result count must be exercised");
}
