//! A realistic engine workload: a sales dashboard with derived columns,
//! per-group running totals (the Fig. 2 shape), VLOOKUP rate conversion,
//! and grand totals — then an interactive edit, showing how the formula
//! graph drives "return control to the user". The NoComp side of the
//! paper's comparison is a graph of the sheet's own dependencies, built
//! uncompressed beside the workbook's TACO graph.
//!
//! ```sh
//! cargo run --release --example sales_dashboard
//! ```

use std::collections::BTreeSet;
use std::time::Instant;
use taco_repro::core::{Config, FormulaGraph};
use taco_repro::engine::{RecalcMode, SheetId, Workbook};
use taco_repro::formula::Value;
use taco_repro::grid::{Cell, Range};

/// The dashboard's one sheet.
const S: SheetId = SheetId(0);

/// Row count: 5 000 by default, overridable for quick smoke runs.
fn rows() -> u32 {
    std::env::var("TACO_EXAMPLE_ROWS").ok().and_then(|s| s.parse().ok()).unwrap_or(5_000).max(3)
}

fn build() -> Workbook {
    let rows = rows();
    let mut wb = Workbook::new();
    wb.add_sheet("Sales").expect("a valid sheet name");
    // Column A: region id (1..=5), column B: units, column C: unit price.
    for row in 1..=rows {
        wb.set_value(S, Cell::new(1, row), Value::Number(f64::from(row % 5 + 1)));
        wb.set_value(S, Cell::new(2, row), Value::Number(f64::from(row % 7 + 1)));
        wb.set_value(S, Cell::new(3, row), Value::Number(10.0 + f64::from(row % 3)));
    }
    // Currency table: F1:G3 (region → fx rate).
    for (i, rate) in [1.0, 1.1, 0.9].iter().enumerate() {
        wb.set_value(S, Cell::new(6, i as u32 + 1), Value::Number(i as f64 + 1.0));
        wb.set_value(S, Cell::new(7, i as u32 + 1), Value::Number(*rate));
    }

    // D: revenue (derived column) = B*C — autofilled.
    wb.set_formula(S, Cell::new(4, 1), "=B1*C1").unwrap();
    wb.autofill(S, Cell::new(4, 1), Range::from_coords(4, 2, 4, rows)).unwrap();

    // E: running total = SUM($D$1:D row) — FR cumulative.
    wb.set_formula(S, Cell::new(5, 1), "=SUM($D$1:D1)").unwrap();
    wb.autofill(S, Cell::new(5, 1), Range::from_coords(5, 2, 5, rows)).unwrap();

    // H: fx-adjusted revenue via a fixed-table lookup (FF).
    wb.set_formula(S, Cell::new(8, 1), "=D1*VLOOKUP(1,$F$1:$G$3,2,FALSE)").unwrap();
    wb.autofill(S, Cell::new(8, 1), Range::from_coords(8, 2, 8, rows)).unwrap();

    // Grand total.
    wb.set_formula(S, Cell::parse_a1("J1").unwrap(), &format!("=SUM(H1:H{rows})")).unwrap();
    wb.recalculate(RecalcMode::Serial);
    wb
}

fn cells(ranges: &[Range]) -> BTreeSet<Cell> {
    ranges.iter().flat_map(|r| r.cells()).collect()
}

fn main() {
    println!("building {}-row dashboard, then a NoComp graph of its dependencies…", rows());
    let t0 = Instant::now();
    let mut wb = build();
    let taco_build = t0.elapsed();
    let taco = wb.sheet(S).graph();
    let t0 = Instant::now();
    let nocomp = FormulaGraph::build(Config::nocomp(), taco.decompress_all());
    let nocomp_build = t0.elapsed();

    let j1 = Cell::parse_a1("J1").unwrap();
    println!("grand total J1 = {}", wb.value(S, j1));
    println!("graph edges: TACO {} vs NoComp {}", taco.num_edges(), nocomp.num_edges());
    println!(
        "build: workbook over TACO {:.0} ms, NoComp graph {:.0} ms",
        taco_build.as_secs_f64() * 1e3,
        nocomp_build.as_secs_f64() * 1e3
    );

    // The interactive edit: bump one unit count near the top. Before
    // control returns, the graph must name every affected formula.
    let edit = Cell::new(2, 3);
    let t0 = Instant::now();
    let taco_dependents: Vec<Range> =
        wb.find_dependents(S, Range::cell(edit)).into_iter().map(|(_, r)| r).collect();
    let taco_latency = t0.elapsed();
    let t0 = Instant::now();
    let nocomp_dependents = nocomp.find_dependents(Range::cell(edit));
    let nocomp_latency = t0.elapsed();
    let dependents = cells(&taco_dependents);
    assert_eq!(dependents, cells(&nocomp_dependents), "graphs must agree");
    println!("\nedit B3 → {} dependent cells must be marked dirty", dependents.len());
    println!(
        "time to identify dependents (return-control latency): TACO {taco_latency:?} vs NoComp {nocomp_latency:?}"
    );

    let receipt = wb.set_value(S, edit, Value::Number(99.0));
    let dirty: BTreeSet<Cell> = receipt.dirty.iter().flat_map(|(_, r)| r.cells()).collect();
    assert_eq!(dirty, dependents, "the edit marks what the graph named");
    wb.recalculate(RecalcMode::Serial);
    println!("after recalc, J1 = {}", wb.value(S, j1));
}
