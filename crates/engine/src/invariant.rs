//! The standing invariant of the workbook's graph, held after every op of
//! a seeded script of every kind of edit: the graph is what the formulas
//! derive, between sheets and within each sheet's band, live and
//! reopened, and the values are the reference evaluator's.

use crate::workbook::{RecalcMode, SheetId, Workbook};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taco_core::StructuralOp;
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_store::EditRecord;

/// Columns and rows the scripts write in.
const COLS: u32 = 6;
const ROWS: u32 = 12;

/// A reference into the scripts' grid, `$`-fixed at random.
fn cell_ref(rng: &mut StdRng) -> String {
    let col = char::from(b'A' + rng.gen_range(0..COLS) as u8);
    let dollar = |rng: &mut StdRng| if rng.gen_range(0..4) == 0 { "$" } else { "" };
    format!("{}{col}{}{}", dollar(rng), dollar(rng), rng.gen_range(1..=ROWS))
}

/// A formula reading sheets named `S0` … `S{names - 1}`, some of
/// which may not exist yet (or be the formula's own).
fn formula(rng: &mut StdRng, names: usize) -> String {
    let sheet = |rng: &mut StdRng| format!("S{}", rng.gen_range(0..names));
    let (s, t) = (sheet(rng), sheet(rng));
    let (a, b, c) = (cell_ref(rng), cell_ref(rng), cell_ref(rng));
    match rng.gen_range(0..7) {
        0 => format!("={s}!{a}+{b}"),
        1 => format!("=SUM({s}!{a}:{b})*2"),
        // The same range twice is one edge.
        2 => format!("={s}!{a}+{s}!{a}*{s}!{b}"),
        3 => format!("={s}!{a}*{t}!{b}+{c}"),
        // A sum range read in the criteria range's shape.
        4 => format!("=SUMIF({a}:{b},\">0\",{s}!{c})"),
        5 => format!("=SUMIF({s}!{a}:{b},\">0\",{t}!{c})"),
        _ => format!("={a}*3+{b}"),
    }
}

fn some_cell(rng: &mut StdRng) -> Cell {
    Cell::new(rng.gen_range(1..=COLS), rng.gen_range(1..=ROWS))
}

fn some_range(rng: &mut StdRng) -> Range {
    let (a, b) = (some_cell(rng), some_cell(rng));
    Range::from_coords(a.col.min(b.col), a.row.min(b.row), a.col.max(b.col), a.row.max(b.row))
}

fn structural(rng: &mut StdRng) -> StructuralOp {
    let (at, n) = (rng.gen_range(1..=ROWS), rng.gen_range(1..=3));
    match rng.gen_range(0..4) {
        0 => StructuralOp::InsertRows { at, n },
        1 => StructuralOp::DeleteRows { at, n },
        2 => StructuralOp::InsertCols { at: at.min(COLS), n },
        _ => StructuralOp::DeleteCols { at: at.min(COLS), n },
    }
}

/// One edit record of a batch; `sheets` exist, `names` are named.
fn record(rng: &mut StdRng, sheets: usize, names: usize) -> EditRecord {
    let sheet = rng.gen_range(0..sheets) as u32;
    match rng.gen_range(0..8) {
        0 | 1 => EditRecord::SetValue {
            sheet,
            cell: some_cell(rng),
            value: Value::Number(f64::from(rng.gen_range(-9..9))),
        },
        2..=4 => EditRecord::SetFormula { sheet, cell: some_cell(rng), src: formula(rng, names) },
        5 => EditRecord::ClearRange { sheet, range: some_range(rng) },
        6 => EditRecord::Structural { sheet, op: structural(rng) },
        _ => EditRecord::AddSheet { name: format!("S{sheets}") },
    }
}

/// One op of a seeded script: an edit, a fill, a batch, a structural
/// edit on a read or a reading sheet, or a sheet added that formulas
/// may name already. Ops that fail (a fill from a value, a record
/// naming a missing sheet) leave what they did before failing.
fn op(wb: &mut Workbook, rng: &mut StdRng, names: usize) {
    let sheets = wb.sheet_count();
    let id = SheetId(rng.gen_range(0..sheets));
    match rng.gen_range(0..16) {
        0..=2 => drop(wb.set_value(id, some_cell(rng), Value::Number(1.0))),
        3..=7 => drop(wb.set_formula(id, some_cell(rng), &formula(rng, names))),
        8 | 9 => {
            // A fill down or right, of a formula typed for it.
            let src = some_cell(rng);
            drop(wb.set_formula(id, src, &formula(rng, names)));
            let k = rng.gen_range(1..=6);
            let targets = if rng.gen_range(0..2) == 0 {
                Range::from_coords(src.col, src.row, src.col, src.row + k)
            } else {
                Range::from_coords(src.col, src.row, src.col + k, src.row)
            };
            drop(wb.autofill(id, src, targets));
        }
        10 => drop(wb.clear_range(id, some_range(rng))),
        11 | 12 => {
            let batch: Vec<EditRecord> =
                (0..rng.gen_range(1..=6)).map(|_| record(rng, sheets, names)).collect();
            drop(wb.apply_batch(&batch));
        }
        13 | 14 => drop(wb.apply_structural(id, structural(rng))),
        _ => drop(wb.add_sheet(&format!("S{sheets}"))),
    }
    if rng.gen_range(0..8) == 0 {
        wb.recalculate(RecalcMode::Serial);
    }
}

/// Holds `wb`, reopened and recalculated — in full, and from a
/// viewport on a sheet picked by `step`, then in full — to the
/// reference evaluator.
fn assert_reopened_is_the_reference(wb: &Workbook, step: usize) {
    let reopen = || Workbook::from_image(wb.to_image()).expect("a valid image");
    let mut full = reopen();
    full.recalculate(RecalcMode::Serial);
    let left_out = full.assert_reference(None);
    let viewport = (step % wb.sheet_count(), Range::from_coords(1, 1, 3, ROWS / 2));
    let mut demand = reopen();
    demand.recalc_demand(SheetId(viewport.0), viewport.1).expect("a sheet");
    demand.assert_reference(Some(viewport));
    demand.recalculate(RecalcMode::Serial);
    assert_eq!(demand.assert_reference(None), left_out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The standing invariant: after every op the graph's reads between
    /// sheets are, dependency for dependency, the ones binding every live
    /// formula afresh derives — and the ones an open binds — and each
    /// sheet's band holds the reads of the sheet itself its formulas make.
    /// And the values: the live workbook after a full pass, and a reopened
    /// copy recalculated in full or from a viewport then in full, hold the
    /// reference evaluator's.
    #[test]
    fn the_live_graph_is_the_one_the_formulas_derive(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wb = Workbook::new();
        for s in 0..rng.gen_range(1..=3) {
            wb.add_sheet(&format!("S{s}")).expect("a fresh name");
        }
        // Formulas may name up to two sheets past the last one.
        for step in 0..40 {
            let names = wb.sheet_count() + 2;
            op(&mut wb, &mut rng, names);
            prop_assert_eq!(
                wb.cross_table(),
                wb.derived_cross_table(),
                "seed {} step {}",
                seed,
                step
            );
            wb.assert_graph_derives();
            if wb.dirty_count() == 0 {
                wb.assert_reference(None);
            }
            assert_reopened_is_the_reference(&wb, step);
        }
        let reopened = Workbook::from_image(wb.to_image()).expect("a valid image");
        prop_assert_eq!(reopened.cross_table(), wb.cross_table(), "seed {} reopened", seed);
        reopened.assert_graph_derives();
    }
}
