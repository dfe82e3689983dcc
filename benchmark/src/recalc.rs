//! The engine phases, without service or disk: load a build script in
//! one batch, recalculate the whole dirty set, then apply a burst of
//! edits one at a time — control returned to the user after `apply_edit`,
//! values current after `recalculate`.

use crate::inputs::{is_data_entry, EngineInputs};
use crate::run::Round;
use crate::stats;
use std::time::Instant;
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::{Formula, Value};
use taco_grid::Cell;
use taco_store::EditRecord;

/// The recalculation policy the product ships: a later change of the
/// shipped policy is measured without editing the benchmark.
pub fn shipped_mode() -> RecalcMode {
    taco_service::ServiceOptions::default().recalc_mode
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

/// Runs the three phases once; returns the edited workbook for [`check`].
pub fn run(inp: &EngineInputs, round: &mut Round) -> Workbook {
    let mode = shipped_mode();
    let mut wb = Workbook::with_taco();

    let span = round.rec.open("recalc.load");
    let t0 = Instant::now();
    let loaded = wb.apply_batch(&inp.build);
    let t1 = Instant::now();
    round.rec.leaf("engine.apply_batch", t0, t1, 0);
    round.rec.close(span);
    let speed = round.speed.factor();
    let records = inp.build.len() as u64;
    round.out.ops(records, if loaded.is_ok() { 0 } else { records });
    round.out.rate("load_records_per_s", records as f64 / (t1 - t0).as_secs_f64(), speed);
    round.out.time("engine.apply_batch_ms", ms(t0, t1), speed);
    let batch_ms = ms(t0, t1);

    let span = round.rec.open("recalc.full");
    let t0 = Instant::now();
    let cells = wb.recalculate(mode);
    let t1 = Instant::now();
    round.rec.leaf("engine.recalculate", t0, t1, 0);
    round.rec.close(span);
    let speed = round.speed.factor();
    round.out.ops(cells as u64, 0);
    round.out.rate("recalc_cells_per_s", cells as f64 / (t1 - t0).as_secs_f64(), speed);
    round.out.time("engine.full_recalc_ms", ms(t0, t1), speed);
    round.out.time("engine.recalc_ns_per_cell", ms(t0, t1) * 1e6 / cells as f64, speed);
    if round.layers {
        parse_kernel(&inp.build, batch_ms, (ms(t0, t1), speed), round);
    }

    let span = round.rec.open("recalc.edits");
    // All edits, then the data-entry edits among them.
    let (mut control_us, mut recalc_ms, mut edit_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut entry_control_us, mut entry_edit_ms) = (Vec::new(), Vec::new());
    let (mut cells, mut failed) = (0usize, 0u64);
    for (i, rec) in inp.burst.iter().enumerate() {
        let t0 = Instant::now();
        failed += u64::from(wb.apply_edit(rec).is_err());
        let t1 = Instant::now();
        cells += wb.recalculate(mode);
        let t2 = Instant::now();
        round.rec.leaf("engine.apply_edit", t0, t1, i as u64);
        round.rec.leaf("engine.recalculate", t1, t2, i as u64);
        control_us.push(ms(t0, t1) * 1e3);
        recalc_ms.push(ms(t1, t2));
        edit_ms.push(ms(t0, t2));
        if is_data_entry(rec, round.sizes.engine_sheets) {
            entry_control_us.push(ms(t0, t1) * 1e3);
            entry_edit_ms.push(ms(t0, t2));
        }
    }
    round.rec.close(span);
    let speed = round.speed.factor();
    round.out.ops(inp.burst.len() as u64, failed);
    round.out.time("control_us_p50", stats::median(&entry_control_us), speed);
    round.out.time("edit_ms_p50", stats::median(&entry_edit_ms), speed);
    round.out.time("engine.control_us_p99", stats::tail(&control_us, 0.99), speed);
    round.out.time("engine.edit_recalc_ms_p50", stats::median(&recalc_ms), speed);
    round.out.time("engine.edit_ms_p99", stats::tail(&edit_ms, 0.99), speed);
    round.out.push("engine.edit_cells_mean", cells as f64 / inp.burst.len() as f64);
    wb
}

/// The parser alone over every formula of the build script, and the
/// cells those formulas reference: what a range read has to look up.
fn parse_kernel(build: &[EditRecord], batch_ms: f64, full_recalc: (f64, f64), round: &mut Round) {
    let sources: Vec<&str> = build
        .iter()
        .filter_map(|r| match r {
            EditRecord::SetFormula { src, .. } => Some(src.as_str()),
            _ => None,
        })
        .collect();
    let t0 = Instant::now();
    let parsed: Vec<Formula> = sources.iter().filter_map(|s| Formula::parse(s).ok()).collect();
    let parse_ms = ms(t0, Instant::now());
    round.out.ops(sources.len() as u64, (sources.len() - parsed.len()) as u64);
    let ref_cells: u64 =
        parsed.iter().flat_map(|f| &f.refs).map(|q| q.rref.range().area()).sum::<u64>().max(1);
    let speed = round.speed.factor();
    round.out.time("formula.parse_ns_per_formula", parse_ms * 1e6 / sources.len() as f64, speed);
    round.out.push("engine.parse_share", parse_ms / batch_ms);
    let (full_recalc_ms, full_recalc_speed) = full_recalc;
    let per_ref_cell = full_recalc_ms * 1e6 / ref_cells as f64;
    round.out.time("engine.recalc_ns_per_ref_cell", per_ref_cell, full_recalc_speed);
}

/// `(sheet, cell, value)` in sheet, row, column order.
pub type Cells = Vec<(usize, Cell, Value)>;

/// Every cell of every sheet.
pub fn cells_of(wb: &Workbook) -> Cells {
    let mut out = Vec::new();
    for s in 0..wb.sheet_count() {
        out.extend(wb.sheet(SheetId(s)).cells().map(|(c, k)| (s, c, k.value().clone())));
    }
    out.sort_unstable_by_key(|(s, c, _)| (*s, c.row, c.col));
    out
}

/// `==` on values, except numbers compare by bit pattern.
pub fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Same cells, values bit for bit.
pub fn same_cells(a: &[(usize, Cell, Value)], b: &[(usize, Cell, Value)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1 == y.1 && same_value(&x.2, &y.2))
}

/// Untimed. The incrementally edited workbook equals, cell for cell and
/// bit for bit, one that applied the same records and recalculated once,
/// serially. Returns `(operations checked, operations that failed)`.
pub fn check(inp: &EngineInputs, edited: &Workbook) -> (u64, u64) {
    let mut reference = Workbook::with_taco();
    let records = (inp.build.len() + inp.burst.len()) as u64;
    for rec in inp.build.iter().chain(&inp.burst) {
        if reference.apply_edit(rec).is_err() {
            eprintln!("check failed: the reference workbook refused {rec:?}");
            return (records, records);
        }
    }
    reference.recalculate(RecalcMode::Serial);
    let mut want = cells_of(&reference);
    if crate::run::break_check("recalc") {
        want.pop();
    }
    if edited.dirty_count() == 0 && same_cells(&cells_of(edited), &want) {
        (records, 0)
    } else {
        eprintln!("check failed: edited workbook differs from the serial reference");
        (records, records)
    }
}
