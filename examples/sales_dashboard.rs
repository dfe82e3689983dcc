//! A realistic engine workload: a sales dashboard with derived columns,
//! per-group running totals (the Fig. 2 shape), VLOOKUP rate conversion,
//! and grand totals — then an interactive edit, showing how the formula
//! graph drives "return control to the user".
//!
//! ```sh
//! cargo run --release --example sales_dashboard
//! ```

use std::time::Instant;
use taco_repro::engine::Engine;
use taco_repro::formula::Value;
use taco_repro::grid::{Cell, Range};

/// Row count: 5 000 by default, overridable for quick smoke runs.
fn rows() -> u32 {
    std::env::var("TACO_EXAMPLE_ROWS").ok().and_then(|s| s.parse().ok()).unwrap_or(5_000).max(3)
}

fn build(mut e: Engine) -> Engine {
    let rows = rows();
    // Column A: region id (1..=5), column B: units, column C: unit price.
    for row in 1..=rows {
        e.set_value(Cell::new(1, row), Value::Number(f64::from(row % 5 + 1)));
        e.set_value(Cell::new(2, row), Value::Number(f64::from(row % 7 + 1)));
        e.set_value(Cell::new(3, row), Value::Number(10.0 + f64::from(row % 3)));
    }
    // Currency table: F1:G3 (region → fx rate).
    for (i, rate) in [1.0, 1.1, 0.9].iter().enumerate() {
        e.set_value(Cell::new(6, i as u32 + 1), Value::Number(i as f64 + 1.0));
        e.set_value(Cell::new(7, i as u32 + 1), Value::Number(*rate));
    }

    // D: revenue (derived column) = B*C — autofilled.
    e.set_formula(Cell::new(4, 1), "=B1*C1").unwrap();
    e.autofill(Cell::new(4, 1), Range::from_coords(4, 2, 4, rows)).unwrap();

    // E: running total = SUM($D$1:D row) — FR cumulative.
    e.set_formula(Cell::new(5, 1), "=SUM($D$1:D1)").unwrap();
    e.autofill(Cell::new(5, 1), Range::from_coords(5, 2, 5, rows)).unwrap();

    // H: fx-adjusted revenue via a fixed-table lookup (FF).
    e.set_formula(Cell::new(8, 1), "=D1*VLOOKUP(1,$F$1:$G$3,2,FALSE)").unwrap();
    e.autofill(Cell::new(8, 1), Range::from_coords(8, 2, 8, rows)).unwrap();

    // Grand total.
    e.set_formula(Cell::parse_a1("J1").unwrap(), &format!("=SUM(H1:H{rows})")).unwrap();
    e.recalculate();
    e
}

fn main() {
    println!("building {}-row dashboard with TACO and NoComp backends…", rows());
    let t0 = Instant::now();
    let mut taco = build(Engine::with_taco());
    let taco_build = t0.elapsed();
    let t0 = Instant::now();
    let mut nocomp = build(Engine::with_nocomp());
    let nocomp_build = t0.elapsed();

    let j1 = Cell::parse_a1("J1").unwrap();
    assert_eq!(taco.value(j1), nocomp.value(j1), "engines must agree");
    println!("grand total J1 = {}", taco.value(j1));
    println!(
        "graph edges: TACO {} vs NoComp {}",
        taco.graph().num_edges(),
        nocomp.graph().num_edges()
    );
    println!(
        "end-to-end build: TACO {:.0} ms, NoComp {:.0} ms",
        taco_build.as_secs_f64() * 1e3,
        nocomp_build.as_secs_f64() * 1e3
    );

    // The interactive edit: bump one unit count near the top. The engine
    // must find every affected formula before returning control.
    let edit = Cell::new(2, 3);
    let t0 = Instant::now();
    let r_taco = taco.set_value(edit, Value::Number(99.0));
    let taco_latency = t0.elapsed();
    let t0 = Instant::now();
    nocomp.set_value(edit, Value::Number(99.0));
    let nocomp_latency = t0.elapsed();
    let dirty: u64 = r_taco.dirty.iter().map(Range::area).sum();
    println!("\nedit B3 → {dirty} dependent cells must be marked dirty");
    println!(
        "time to identify dependents (return-control latency): TACO {taco_latency:?} vs NoComp {nocomp_latency:?}"
    );

    taco.recalculate();
    nocomp.recalculate();
    assert_eq!(taco.value(j1), nocomp.value(j1));
    println!("after recalc, J1 = {}", taco.value(j1));
}
