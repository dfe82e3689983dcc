//! Workbook report: a cross-sheet rollup across eight region sheets plus
//! a summary sheet, recalculated in one order across the sheets.
//!
//! ```sh
//! cargo run --release --example workbook_report
//! ```
//!
//! Each `Region k` sheet holds a unit column, an autofilled cumulative
//! column, and a running grand total chained from the previous region
//! (`='Region k-1'!C1+…`). The `Summary` sheet pulls every region's total
//! through quoted cross-sheet references and must agree with the chain.
//! `TACO_EXAMPLE_ROWS` scales the per-region row count (default 400).

use std::time::Instant;
use taco_repro::engine::{RecalcMode, SheetId, Value, Workbook};
use taco_repro::grid::{Cell, Range};

const REGIONS: usize = 8;

fn rows_from_env() -> u32 {
    std::env::var("TACO_EXAMPLE_ROWS").ok().and_then(|s| s.parse().ok()).unwrap_or(400).max(2)
}

/// Builds the workbook: eight data sheets plus the rollup sheet.
fn build(rows: u32) -> Workbook {
    let mut wb = Workbook::with_taco();
    let regions: Vec<SheetId> = (1..=REGIONS)
        .map(|k| wb.add_sheet(&format!("Region {k}")).expect("fresh sheet name"))
        .collect();
    let summary = wb.add_sheet("Summary").expect("fresh sheet name");

    for (i, &id) in regions.iter().enumerate() {
        // Column A: deterministic per-region unit counts.
        for row in 1..=rows {
            let units = f64::from((row * (i as u32 + 3)) % 97);
            wb.set_value(id, Cell::new(1, row), Value::Number(units));
        }
        // Column B: cumulative units, the FR autofill shape.
        wb.set_formula(id, Cell::new(2, 1), "=SUM($A$1:A1)").expect("valid formula");
        wb.autofill(id, Cell::new(2, 1), Range::from_coords(2, 2, 2, rows)).expect("fill");
        // C1: running grand total chained across the region sheets.
        if i == 0 {
            wb.set_formula(id, Cell::new(3, 1), &format!("=B{rows}")).expect("valid formula");
        } else {
            wb.set_formula(id, Cell::new(3, 1), &format!("='Region {i}'!C1+B{rows}"))
                .expect("valid formula");
        }
    }
    // Summary: one row per region plus the grand total.
    for k in 1..=REGIONS {
        wb.set_formula(summary, Cell::new(1, k as u32), &format!("='Region {k}'!B{rows}"))
            .expect("valid formula");
    }
    wb.set_formula(summary, Cell::new(2, 1), &format!("=SUM(A1:A{REGIONS})"))
        .expect("valid formula");
    wb
}

fn main() {
    let rows = rows_from_env();
    let mut wb = build(rows);
    println!(
        "workbook: {} sheets ({} regions × {rows} rows + summary), {} cross-sheet edges",
        REGIONS + 1,
        REGIONS,
        wb.cross_edge_count()
    );

    let evaluated = wb.recalculate(RecalcMode::Serial);

    let summary = wb.sheet_id("Summary").expect("summary exists");
    let last_region = wb.sheet_id(&format!("Region {REGIONS}")).expect("region exists");
    println!("pass: {:?}", wb.last_pass());
    println!("evaluated {evaluated} formula cells");
    let sheets = || (0..wb.sheet_count()).map(|i| wb.sheet(SheetId(i)));
    let (cells, templates): (usize, usize) =
        (sheets().map(|s| s.formula_cells()).sum(), sheets().map(|s| s.formula_templates()).sum());
    println!("formula cells: {cells}");
    println!("formula templates: {templates} (one per run of cells holding one formula)");
    println!("folds carried: {}", sheets().map(|s| s.folds_carried()).sum::<u64>());
    for k in 1..=REGIONS {
        println!("  Region {k} total: {:?}", wb.value(summary, Cell::new(1, k as u32)));
    }
    let grand = wb.value(summary, Cell::new(2, 1));
    let chained = wb.value(last_region, Cell::new(3, 1));
    assert_eq!(grand, chained, "summary rollup must equal the cross-sheet chain");
    println!("grand total: {grand:?} (rollup == chain)");

    // One upstream edit: dirtiness routes through the workbook.
    let r1 = wb.sheet_id("Region 1").expect("region exists");
    let t0 = Instant::now();
    let receipt = wb.set_value(r1, Cell::new(1, 1), Value::Number(1000.0));
    println!(
        "edit Region 1!A1 → {} dirty ranges across {} sheets (control latency {:?})",
        receipt.dirty.len(),
        receipt.sheets_touched(),
        t0.elapsed()
    );
    wb.recalculate(RecalcMode::Serial);
    let new_grand = wb.value(summary, Cell::new(2, 1));
    assert_ne!(new_grand, grand, "the edit must move the grand total");
    println!("grand total after edit: {new_grand:?}");
}
