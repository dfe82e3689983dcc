//! Quickstart: build a compressed formula graph from formulae, query it,
//! and inspect the compression.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use taco_repro::core::{Config, Dependency, FormulaGraph};
use taco_repro::formula::Template;
use taco_repro::grid::{Cell, Range};

fn main() {
    // A small sheet: column C holds autofilled sliding-window sums
    // (=SUM(A1:B3) dragged down), column D a cumulative total, and E1 one
    // grand total.
    let formulas: Vec<(&str, &str)> = vec![
        ("C1", "=SUM(A1:B3)"),
        ("C2", "=SUM(A2:B4)"),
        ("C3", "=SUM(A3:B5)"),
        ("C4", "=SUM(A4:B6)"),
        ("D1", "=SUM($C$1:C1)"),
        ("D2", "=SUM($C$1:C2)"),
        ("D3", "=SUM($C$1:C3)"),
        ("D4", "=SUM($C$1:C4)"),
        ("E1", "=SUM(D1:D4)"),
    ];

    // Parse each formula and feed its references into a TACO graph.
    let mut taco = FormulaGraph::new(Config::taco_full());
    let mut nocomp = FormulaGraph::new(Config::nocomp());
    for (cell, src) in &formulas {
        let cell = Cell::parse_a1(cell).expect("valid A1");
        let f = Template::parse(src).expect("valid formula");
        for (_, rref) in f.at(0, 0).reads() {
            taco.add_dependency(&Dependency::from_ref(&rref, cell));
            nocomp.add_dependency(&Dependency::from_ref(&rref, cell));
        }
    }

    println!("uncompressed edges: {}", nocomp.num_edges());
    println!("compressed edges:   {}", taco.num_edges());
    for e in taco.edges() {
        println!("  {:?}: {} -> {}  ({} dependencies)", e.pattern(), e.prec, e.dep, e.count);
    }

    // Querying works directly on the compressed graph — no decompression.
    let probe = Range::parse_a1("A3").unwrap();
    let dependents = taco.find_dependents(probe);
    println!("\ndependents of {probe}: {}", join(&dependents));

    let probe = Range::parse_a1("E1").unwrap();
    let precedents = taco.find_precedents(probe);
    println!("precedents of {probe}: {}", join(&precedents));

    // Maintenance is incremental: clearing C2 splits its run.
    taco.clear_cells(Range::parse_a1("C2").unwrap());
    println!("\nafter clearing C2: {} edges", taco.num_edges());
    let dependents = taco.find_dependents(Range::parse_a1("A3").unwrap());
    println!("dependents of A3:  {}", join(&dependents));
}

fn join(ranges: &[Range]) -> String {
    let mut parts: Vec<String> = ranges.iter().map(|r| r.to_a1()).collect();
    parts.sort();
    parts.join(", ")
}
