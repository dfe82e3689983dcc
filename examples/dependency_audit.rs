//! Formula auditing (the Excel "Trace Dependents / Trace Precedents" use
//! case from §I): generate a mid-sized sheet and trace a cell's dependency
//! neighbourhood on the compressed graph.
//!
//! ```sh
//! cargo run --release --example dependency_audit [CELL]
//! ```

use taco_repro::core::{Config, FormulaGraph};
use taco_repro::grid::{Cell, Range};
use taco_repro::workload::enron_like;

fn main() {
    let corpus = enron_like(0.1);
    let sheet = corpus.generate().pop().expect("non-empty corpus");
    println!("auditing synthetic sheet {} ({} deps)", sheet.name, sheet.deps.len());

    let probe = match std::env::args().nth(1) {
        Some(s) => Cell::parse_a1(&s).expect("valid A1 cell"),
        None => sheet.hot_cells.first().copied().unwrap_or(Cell::new(1, 1)),
    };

    let graph = FormulaGraph::build(Config::taco_full(), sheet.deps.iter().copied());
    let stats = graph.stats();
    println!(
        "[{}] graph: {} edges for {} dependencies ({:.2}% remaining)",
        sheet.name,
        stats.edges,
        stats.dependencies,
        100.0 * stats.remaining_fraction()
    );

    let mut dependents = Vec::new();
    let dstats = graph.find_dependents_into(Range::cell(probe), &mut dependents);
    let dep_cells: u64 = dependents.iter().map(Range::area).sum();
    println!("\ntrace dependents of {probe}: {dep_cells} cells in {} ranges", dependents.len());
    for r in dependents.iter().take(12) {
        println!("  ↳ {r}");
    }
    if dependents.len() > 12 {
        println!("  … and {} more ranges", dependents.len() - 12);
    }
    println!(
        "  (BFS touched {} edges, {} R-tree searches)",
        dstats.edges_accessed, dstats.rtree_searches
    );

    let precedents = graph.find_precedents(Range::cell(probe));
    let prec_cells: u64 = precedents.iter().map(Range::area).sum();
    println!("\ntrace precedents of {probe}: {prec_cells} cells in {} ranges", precedents.len());
    for r in precedents.iter().take(12) {
        println!("  ↲ {r}");
    }
}
