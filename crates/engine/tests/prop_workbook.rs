//! Property tests for the workbook scheduler on randomized multi-sheet
//! workbooks with cross-sheet chains, rollups, sheet-level cycles,
//! volatile formulas and mid-life edits:
//!
//! 1. The incrementally edited and recalculated workbook is bit-identical
//!    to a fresh workbook rebuilt from its final formula texts and values
//!    and recalculated once. A sheet evaluated before one it reads from
//!    would see stale values in one history and not the other.
//! 2. The same script applied to two fresh workbooks yields identical
//!    receipts, dirty counts, evaluated-cell counts and values at every
//!    step, volatile functions under an injected clock included.

mod common;

use common::{full_state, rebuild_from_texts};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::{EvalClock, Value};
use taco_grid::{Cell, Range};

const CLOCK: EvalClock = EvalClock { now: 45_000.25, today: 45_000.0, rand_seed: 0xC10C };

/// Builds one workbook from the seeded script. Sheet names deliberately
/// include spaces so every generated formula exercises quoted qualifiers.
fn build(nsheets: usize, rows: u32, seed: u64) -> Workbook {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wb = Workbook::with_taco();
    let ids: Vec<SheetId> =
        (0..nsheets).map(|i| wb.add_sheet(&format!("Sheet {i}")).expect("fresh name")).collect();
    for (k, &id) in ids.iter().enumerate() {
        for row in 1..=rows {
            wb.set_value(id, Cell::new(1, row), Value::Number(rng.gen_range(-50..50) as f64));
        }
        // Local structure: a cumulative column B.
        wb.set_formula(id, Cell::new(2, 1), "=SUM($A$1:A1)").expect("valid");
        if rows > 1 {
            wb.autofill(id, Cell::new(2, 1), Range::from_coords(2, 2, 2, rows)).expect("fill");
        }
        // Cross-sheet structure into earlier sheets (acyclic), and
        // occasionally a *forward* reference, which closes a sheet-level
        // cycle with the next sheet's chain cell. It reads a data cell,
        // final at any time, so the SCC schedule (cycle members in id
        // order, everything downstream after them) still computes exact
        // values in one pass.
        if k > 0 {
            let j = rng.gen_range(0..k);
            let row = rng.gen_range(1..=rows);
            wb.set_formula(
                id,
                Cell::new(3, 1),
                &format!("='Sheet {j}'!B{row}+SUM('Sheet {j}'!A1:A{rows})"),
            )
            .expect("valid");
            wb.set_formula(id, Cell::new(3, 2), &format!("='Sheet {}'!C1+B{rows}", k - 1))
                .expect("valid");
        }
        if k + 1 < nsheets && rng.gen_range(0..3) == 0 {
            wb.set_formula(id, Cell::new(4, 1), &format!("='Sheet {}'!A1*2", k + 1))
                .expect("valid");
        }
        // Volatile cells, one read across sheets.
        if rng.gen_range(0..2) == 0 {
            wb.set_formula(id, Cell::new(5, 1), "=RAND()+A1").expect("valid");
            wb.set_formula(id, Cell::new(5, 2), "=NOW()-TODAY()+RAND()").expect("valid");
            if k > 0 {
                wb.set_formula(id, Cell::new(5, 3), &format!("='Sheet {}'!E1*2", k - 1))
                    .expect("valid");
            }
        }
    }
    wb.set_clock(CLOCK);
    wb
}

/// The same seeded edit script against any instance: data entry, a
/// formula rewrite, a clear.
fn edit(wb: &mut Workbook, nsheets: usize, rows: u32, seed: u64) -> Vec<(SheetId, Range)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xED17);
    let mut receipts = Vec::new();
    for _ in 0..3 {
        let id = SheetId(rng.gen_range(0..nsheets));
        let cell = Cell::new(1, rng.gen_range(1..=rows));
        let receipt = wb.set_value(id, cell, Value::Number(rng.gen_range(-9..9) as f64));
        receipts.extend(receipt.dirty);
    }
    let id = SheetId(rng.gen_range(0..nsheets));
    let row = rng.gen_range(1..=rows);
    let receipt = wb.set_formula(id, Cell::new(2, row), &format!("=A{row}*3")).expect("valid");
    receipts.extend(receipt.dirty);
    let id = SheetId(rng.gen_range(0..nsheets));
    receipts.extend(wb.clear_range(id, Range::from_coords(3, 1, 5, 1)).dirty);
    receipts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn edited_workbook_equals_rebuild_and_repeats(
        nsheets in 2usize..=5,
        rows in 3u32..=8,
        seed in 0u64..10_000,
    ) {
        let mut wb = build(nsheets, rows, seed);
        let mut twin = build(nsheets, rows, seed);
        prop_assert_eq!(wb.dirty_count(), twin.dirty_count());
        prop_assert_eq!(wb.sheet_levels(), twin.sheet_levels());

        // First full recalculation.
        let evaluated = wb.recalculate(RecalcMode::Serial);
        prop_assert_eq!(twin.recalculate(RecalcMode::Serial), evaluated);
        prop_assert_eq!(full_state(&wb), full_state(&twin), "values diverged after build");

        // Mid-life edits under a new clock.
        let later = EvalClock { now: CLOCK.now + 1.5, rand_seed: seed, ..CLOCK };
        let receipts = edit(&mut wb, nsheets, rows, seed);
        prop_assert_eq!(&edit(&mut twin, nsheets, rows, seed), &receipts, "receipts diverged");
        prop_assert_eq!(wb.set_clock(later), twin.set_clock(later));
        prop_assert_eq!(wb.dirty_count(), twin.dirty_count());
        let evaluated = wb.recalculate(RecalcMode::Serial);
        prop_assert_eq!(twin.recalculate(RecalcMode::Serial), evaluated);
        prop_assert_eq!(wb.dirty_count(), 0);
        let state = full_state(&wb);
        prop_assert_eq!(&full_state(&twin), &state, "values diverged after edits");

        let mut rebuilt = rebuild_from_texts(&wb);
        rebuilt.set_clock(later);
        rebuilt.recalculate(RecalcMode::Serial);
        prop_assert_eq!(&full_state(&rebuilt), &state, "edited workbook is not its own rebuild");
        prop_assert_eq!(rebuilt.sheet_levels(), wb.sheet_levels());
    }
}

/// A sheet-level cycle whose members read each other's *formula* cells:
/// `A!B1 → B!A1 → A!A1` is acyclic cell by cell, but sheet A runs before
/// sheet B, so `A!B1` is one pass behind until an edit re-dirties the
/// chain. Which values are stale when is part of the schedule's contract:
/// it repeats exactly, and it settles to the rebuilt workbook's values
/// once both have been given the passes the chain needs.
#[test]
fn cross_sheet_cycle_is_one_pass_behind_and_settles_to_the_rebuild() {
    let (a, b) = (SheetId(0), SheetId(1));
    let (a1, b1) = (Cell::new(1, 1), Cell::new(2, 1));
    let build = || {
        let mut wb = Workbook::with_taco();
        wb.add_sheet("A").unwrap();
        wb.add_sheet("B").unwrap();
        wb.set_value(a, a1, Value::Number(1.0));
        wb.set_formula(a, b1, "=B!A1+1").unwrap();
        wb.set_formula(b, a1, "=A!A1+1").unwrap();
        wb
    };
    let (mut wb, mut twin) = (build(), build());
    assert_eq!(wb.sheet_levels(), vec![vec![a], vec![b]]);
    for pass in 0..3 {
        wb.recalculate(RecalcMode::Serial);
        twin.recalculate(RecalcMode::Serial);
        assert_eq!(full_state(&wb), full_state(&twin), "pass {pass}");
        // Pass 0 reads B!A1 before B has run; the re-dirtied pass 1 sees it.
        let want = if pass == 0 { 1.0 } else { 3.0 };
        assert_eq!(wb.value(a, b1), Value::Number(want), "pass {pass}");
        wb.set_value(a, a1, Value::Number(1.0));
        twin.set_value(a, a1, Value::Number(1.0));
    }
    let mut rebuilt = rebuild_from_texts(&wb);
    rebuilt.recalculate(RecalcMode::Serial);
    rebuilt.set_value(a, a1, Value::Number(1.0));
    rebuilt.recalculate(RecalcMode::Serial);
    wb.recalculate(RecalcMode::Serial);
    assert_eq!(full_state(&rebuilt), full_state(&wb));
}
