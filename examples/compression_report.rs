//! Per-pattern compression report over a synthetic corpus: which
//! tabular-locality patterns carry the compression, sheet by sheet.
//!
//! ```sh
//! cargo run --release --example compression_report
//! ```

use taco_repro::core::{Config, FormulaGraph, PatternType};
use taco_repro::workload::enron_like;

fn main() {
    let sheets = enron_like(0.15).generate();

    println!(
        "{:<12} {:>9} {:>8} {:>7} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "sheet", "deps", "edges", "remain", "RR", "RF", "FR", "FF", "Chain", "Single"
    );
    for sheet in &sheets {
        let g = FormulaGraph::build(Config::taco_full(), sheet.deps.iter().copied());
        let s = g.stats();
        let singles = g.edges().filter(|e| e.is_single()).count();
        println!(
            "{:<12} {:>9} {:>8} {:>6.2}% {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}",
            sheet.name,
            s.dependencies,
            s.edges,
            100.0 * s.remaining_fraction(),
            s.reduced.get(PatternType::RR),
            s.reduced.get(PatternType::RF),
            s.reduced.get(PatternType::FR),
            s.reduced.get(PatternType::FF),
            s.reduced.get(PatternType::RRChain),
            singles
        );
    }
}
