//! The maintenance contract, as `cargo test` holds it: once the graph's
//! maintenance buffers are warm, clearing a formula cell in the middle of
//! a compressed run and adding its dependencies back allocates nothing.
//! `removeDep` leaves at most two parts, which go straight into the
//! graph's reused buffer.
//!
//! One `#[test]`, so nothing else runs in this process while it counts;
//! the counter is per thread all the same, because the harness's own
//! main thread is alive beside the test's. (An integration test is its
//! own crate: the allocator's `unsafe impl` lives here and `taco_core`
//! keeps `#![forbid(unsafe_code)]`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;
use taco_core::{Config, Dependency, FormulaGraph};
use taco_grid::{Axis, Cell, Range};
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

/// Clears `cell` and adds its dependencies back.
fn clear_and_readd(graph: &mut FormulaGraph, cell: Cell, deps: &[Dependency]) {
    graph.clear_cells(Range::cell(cell));
    deps.iter().for_each(|d| graph.add_dependency(d));
}

#[test]
fn warm_clears_and_readds_allocate_nothing() {
    let sheet = enron_like(0.05)
        .generate()
        .into_iter()
        .max_by_key(|s| s.deps.len())
        .expect("corpora are non-empty");
    let mut graph = FormulaGraph::build(Config::taco_full(), sheet.deps.iter().copied());

    // The middle cell of 21 column runs of at least three formulae, each
    // with the dependencies it must get back: the first run warms the
    // buffers, the other 20 are counted.
    let picks: Vec<(Cell, Vec<Dependency>)> = graph
        .edges()
        .filter(|e| e.axis == Axis::Col && e.dep.height() >= 3)
        .take(21)
        .map(|e| {
            let cell = Cell::new(e.dep.head().col, (e.dep.head().row + e.dep.tail().row) / 2);
            (cell, sheet.deps.iter().filter(|d| d.dep == cell).copied().collect())
        })
        .collect();
    assert_eq!(picks.len(), 21, "the sheet has enough column runs");
    let (warm, counted) = picks.split_first().unwrap();
    let edges = graph.num_edges();

    // Each first clear cuts a run in two: the part below the cell becomes
    // a new edge.
    clear_and_readd(&mut graph, warm.0, &warm.1);
    let before = allocations();
    for (cell, _) in counted {
        graph.clear_cells(Range::cell(*cell));
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "20 warm mid-run splits allocated {allocated} times");
    assert!(graph.num_edges() >= edges + counted.len(), "every clear split its run");
    for (_, deps) in counted {
        deps.iter().for_each(|d| graph.add_dependency(d));
    }

    // Then the same cells, cleared and re-added over and over.
    for _ in 0..3 {
        for (cell, deps) in &picks {
            clear_and_readd(&mut graph, *cell, deps);
        }
    }
    let before = allocations();
    for (cell, deps) in counted {
        clear_and_readd(&mut graph, *cell, deps);
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "20 warm clears and re-adds allocated {allocated} times");
    assert_eq!(graph.decompress_all().len(), sheet.deps.len(), "nothing was lost");
}
