//! Property tests for the workbook scheduler on randomized multi-sheet
//! workbooks with cross-sheet chains, rollups, sheets that read each
//! other, cross-sheet cell cycles, self-qualified reads, volatile formulas
//! and mid-life edits:
//!
//! 1. After every op the workbook, reopened and recalculated — in full,
//!    and from a viewport then in full — holds the values the reference
//!    evaluator (`taco_workload::reference::evaluate`) gives its texts,
//!    bit for bit, but for the cells on a cell cycle or reading one; and
//!    there are such cells exactly when the script made a cycle.
//! 2. The incrementally edited and recalculated workbook is bit-identical
//!    to a fresh workbook rebuilt from its final formula texts and values
//!    and recalculated once, and to the reference.
//! 3. The same script applied to two fresh workbooks yields identical
//!    receipts, dirty counts, evaluated-cell counts and values at every
//!    step, volatile functions under an injected clock included.

mod common;

use common::{assert_graph_derives, assert_reference, full_state, rebuild_from_texts};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taco_engine::{CellError, RecalcMode, SheetId, Workbook};
use taco_formula::{EvalClock, Value};
use taco_grid::{Cell, Range};

const CLOCK: EvalClock = EvalClock { now: 45_000.25, today: 45_000.0, rand_seed: 0xC10C };

/// A workbook a script is applied to, and, if `checked`, the reference
/// check made after each of its ops under the clock the workbook is on.
struct Script {
    wb: Workbook,
    checked: bool,
    clock: EvalClock,
    ops: usize,
    /// The formula cells the last check's cycle rule left out.
    left_out: usize,
}

impl Script {
    fn new(checked: bool) -> Script {
        Script {
            wb: Workbook::with_taco(),
            checked,
            clock: EvalClock::default(),
            ops: 0,
            left_out: 0,
        }
    }

    /// Applies one op, then checks the workbook if the script is checked.
    fn op<R>(&mut self, f: impl FnOnce(&mut Workbook) -> R) -> R {
        let r = f(&mut self.wb);
        self.ops += 1;
        if self.checked {
            self.left_out = check(&self.wb, self.clock, self.ops);
        }
        r
    }
}

/// Holds `wb`'s graph, live and reopened, to what its formulas derive,
/// and `wb` to the reference the ways a workbook is recalculated: a
/// reopened copy recalculated in full, and another recalculated from a
/// viewport — the one checked there — then in full, which must end where
/// the first did. Returns the formula cells the cycle rule left out.
fn check(wb: &Workbook, clock: EvalClock, op: usize) -> usize {
    assert_graph_derives(wb);
    let reopen = || Workbook::from_image(wb.to_image()).expect("a valid image");
    let mut full = reopen();
    assert_graph_derives(&full);
    full.recalculate(RecalcMode::Serial);
    assert_eq!(full.dirty_count(), 0, "op {op}");
    let left_out = assert_reference(&full, clock, None);

    let viewport = (SheetId(op % wb.sheet_count()), Range::from_coords(1, 1, 7, 2));
    let mut demand = reopen();
    demand.recalc_demand(viewport.0, viewport.1).expect("a sheet");
    assert_reference(&demand, clock, Some(viewport));
    demand.recalculate(RecalcMode::Serial);
    assert_eq!(full_state(&demand), full_state(&full), "op {op}: demand, then full");
    left_out
}

/// Builds one workbook from the seeded script; returns it and whether
/// the script made a cell cycle. Sheet names deliberately include spaces
/// so every generated formula exercises quoted qualifiers.
fn build(nsheets: usize, rows: u32, seed: u64, checked: bool) -> (Script, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Script::new(checked);
    let ids: Vec<SheetId> = (0..nsheets)
        .map(|i| s.op(|wb| wb.add_sheet(&format!("Sheet {i}")).expect("fresh name")))
        .collect();
    let mut cyclic = false;
    for (k, &id) in ids.iter().enumerate() {
        for row in 1..=rows {
            let v = Value::Number(rng.gen_range(-50..50) as f64);
            s.op(|wb| wb.set_value(id, Cell::new(1, row), v));
        }
        // Local structure: a cumulative column B.
        s.op(|wb| wb.set_formula(id, Cell::new(2, 1), "=SUM($A$1:A1)").expect("valid"));
        if rows > 1 {
            let fill = Range::from_coords(2, 2, 2, rows);
            s.op(|wb| wb.autofill(id, Cell::new(2, 1), fill).expect("fill"));
        }
        // Cross-sheet structure into earlier sheets, and occasionally a
        // *forward* reference: to a data cell of the next sheet, or to the
        // formula cell of the next sheet's chain that reads this sheet —
        // two sheets reading each other, with no cell reading itself.
        if k > 0 {
            let j = rng.gen_range(0..k);
            let row = rng.gen_range(1..=rows);
            let src = format!("='Sheet {j}'!B{row}+SUM('Sheet {j}'!A1:A{rows})");
            s.op(|wb| wb.set_formula(id, Cell::new(3, 1), &src).expect("valid"));
            let src = format!("='Sheet {}'!C1+B{rows}", k - 1);
            s.op(|wb| wb.set_formula(id, Cell::new(3, 2), &src).expect("valid"));
        }
        if k + 1 < nsheets && rng.gen_range(0..3) == 0 {
            let src = format!("='Sheet {}'!A1*2", k + 1);
            s.op(|wb| wb.set_formula(id, Cell::new(4, 1), &src).expect("valid"));
        }
        if k + 1 < nsheets && rng.gen_range(0..3) == 0 {
            let src = format!("='Sheet {}'!C2+1", k + 1);
            s.op(|wb| wb.set_formula(id, Cell::new(4, 2), &src).expect("valid"));
        }
        // Reads of the sheet's own cells through its own name.
        if rng.gen_range(0..2) == 0 {
            let src = format!("='Sheet {k}'!B{rows}-SUM('sheet {k}'!A1:A{rows})");
            s.op(|wb| wb.set_formula(id, Cell::new(7, 1), &src).expect("valid"));
        }
        // A cell cycle through this sheet and the one before, and a cell
        // reading it.
        if k > 0 && rng.gen_range(0..4) == 0 {
            cyclic = true;
            let back = format!("='Sheet {}'!F1+1", k - 1);
            s.op(|wb| wb.set_formula(id, Cell::new(6, 1), &back).expect("valid"));
            let forth = format!("='Sheet {k}'!F1*2");
            s.op(|wb| wb.set_formula(ids[k - 1], Cell::new(6, 1), &forth).expect("valid"));
            s.op(|wb| wb.set_formula(id, Cell::new(6, 2), "=F1+A1").expect("valid"));
        }
        // Volatile cells, one read across sheets.
        if rng.gen_range(0..2) == 0 {
            s.op(|wb| wb.set_formula(id, Cell::new(5, 1), "=RAND()+A1").expect("valid"));
            s.op(|wb| wb.set_formula(id, Cell::new(5, 2), "=NOW()-TODAY()+RAND()").expect("valid"));
            if k > 0 {
                let src = format!("='Sheet {}'!E1*2", k - 1);
                s.op(|wb| wb.set_formula(id, Cell::new(5, 3), &src).expect("valid"));
            }
        }
    }
    s.clock = CLOCK;
    s.op(|wb| wb.set_clock(CLOCK));
    (s, cyclic)
}

/// The same seeded edit script against any instance: data entry, a
/// formula rewrite, a clear.
fn edit(s: &mut Script, nsheets: usize, rows: u32, seed: u64) -> Vec<(SheetId, Range)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xED17);
    let mut receipts = Vec::new();
    for _ in 0..3 {
        let id = SheetId(rng.gen_range(0..nsheets));
        let cell = Cell::new(1, rng.gen_range(1..=rows));
        let v = Value::Number(rng.gen_range(-9..9) as f64);
        receipts.extend(s.op(|wb| wb.set_value(id, cell, v)).dirty);
    }
    let id = SheetId(rng.gen_range(0..nsheets));
    let row = rng.gen_range(1..=rows);
    let src = format!("=A{row}*3");
    receipts.extend(s.op(|wb| wb.set_formula(id, Cell::new(2, row), &src)).expect("valid").dirty);
    let id = SheetId(rng.gen_range(0..nsheets));
    receipts.extend(s.op(|wb| wb.clear_range(id, Range::from_coords(3, 1, 5, 1))).dirty);
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
        let (mut s, cyclic) = build(nsheets, rows, seed, true);
        let (mut t, _) = build(nsheets, rows, seed, false);
        prop_assert_eq!(s.left_out > 0, cyclic, "cells left out after the build");
        prop_assert_eq!(s.wb.dirty_count(), t.wb.dirty_count());

        // First full recalculation.
        let evaluated = s.wb.recalculate(RecalcMode::Serial);
        prop_assert_eq!(t.wb.recalculate(RecalcMode::Serial), evaluated);
        prop_assert_eq!(full_state(&s.wb), full_state(&t.wb), "values diverged after build");
        prop_assert_eq!(assert_reference(&s.wb, CLOCK, None) > 0, cyclic);

        // Mid-life edits under a new clock.
        let later = EvalClock { now: CLOCK.now + 1.5, rand_seed: seed, ..CLOCK };
        let receipts = edit(&mut s, nsheets, rows, seed);
        prop_assert_eq!(&edit(&mut t, nsheets, rows, seed), &receipts, "receipts diverged");
        let (wb, twin) = (&mut s.wb, &mut t.wb);
        prop_assert_eq!(wb.set_clock(later), twin.set_clock(later));
        prop_assert_eq!(wb.dirty_count(), twin.dirty_count());
        let evaluated = wb.recalculate(RecalcMode::Serial);
        prop_assert_eq!(twin.recalculate(RecalcMode::Serial), evaluated);
        prop_assert_eq!(wb.dirty_count(), 0);
        let state = full_state(wb);
        prop_assert_eq!(&full_state(twin), &state, "values diverged after edits");
        prop_assert_eq!(assert_reference(wb, later, None) > 0, cyclic);

        let mut rebuilt = rebuild_from_texts(wb);
        rebuilt.set_clock(later);
        rebuilt.recalculate(RecalcMode::Serial);
        prop_assert_eq!(&full_state(&rebuilt), &state, "edited workbook is not its own rebuild");
    }
}

/// Two sheets that read each other's *formula* cells: `A!B1 → B!A1 →
/// A!A1` has no cell reading itself, so one pass orders `B!A1` before
/// `A!B1` and every pass is exact, the first included — the value the
/// reference gives, with nothing left dirty, and a rebuild's.
#[test]
fn sheets_that_read_each_other_are_exact_from_the_first_pass() {
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
    for pass in 0..3 {
        wb.recalculate(RecalcMode::Serial);
        twin.recalculate(RecalcMode::Serial);
        assert_eq!(full_state(&wb), full_state(&twin), "pass {pass}");
        assert_eq!(wb.value(a, b1), Value::Number(3.0), "pass {pass}");
        assert_eq!(wb.dirty_count(), 0, "pass {pass}");
        assert_eq!(assert_reference(&wb, EvalClock::default(), None), 0, "pass {pass}");
        wb.set_value(a, a1, Value::Number(1.0));
        twin.set_value(a, a1, Value::Number(1.0));
    }
    let mut rebuilt = rebuild_from_texts(&wb);
    rebuilt.recalculate(RecalcMode::Serial);
    wb.recalculate(RecalcMode::Serial);
    assert_eq!(full_state(&rebuilt), full_state(&wb));
}

/// A summary sheet passing a value back to the sheet it reads: `S1!A1 =
/// S2!A1+1`, `S2!A1 = S1!B1*2`. Each pass, full or from `S1!A1`, gives
/// `S1!A1` the value of the `S1!B1` just typed, and leaves nothing dirty.
#[test]
fn a_value_passed_back_to_the_sheet_it_came_from_is_current() {
    for demand in [false, true] {
        let mut wb = Workbook::with_taco();
        let s1 = wb.add_sheet("S1").unwrap();
        let s2 = wb.add_sheet("S2").unwrap();
        let at = |a1: &str| Cell::parse_a1(a1).unwrap();
        wb.set_formula(s1, at("A1"), "=S2!A1+1").unwrap();
        wb.set_formula(s2, at("A1"), "=S1!B1*2").unwrap();
        for (b1, want) in [(5.0, 11.0), (7.0, 15.0), (9.0, 19.0)] {
            wb.set_value(s1, at("B1"), Value::Number(b1));
            if demand {
                wb.recalc_demand(s1, Range::parse_a1("A1").unwrap()).unwrap();
            } else {
                wb.recalculate(RecalcMode::Serial);
            }
            assert_eq!(wb.value(s1, at("A1")), Value::Number(want), "demand {demand}, B1 {b1}");
            assert_eq!(wb.dirty_count(), 0, "demand {demand}, B1 {b1}");
        }
    }
}

/// A cell cycle through two sheets, `P!A1 → Q!A1 → P!A1`, and a cell
/// reading it: flagged `#CYCLE!` as a cycle inside one sheet is, with the
/// same cells whether the pass is full or starts from a viewport on
/// either sheet, and as a rebuild flags them. The reference leaves the
/// three out and agrees on the rest.
#[test]
fn a_cell_cycle_through_two_sheets_is_flagged_however_the_pass_starts() {
    let (p, q) = (SheetId(0), SheetId(1));
    let at = |a1: &str| Cell::parse_a1(a1).unwrap();
    let build = || {
        let mut wb = Workbook::with_taco();
        wb.add_sheet("P").unwrap();
        wb.add_sheet("Q").unwrap();
        wb.set_formula(p, at("A1"), "=Q!A1+1").unwrap();
        wb.set_formula(q, at("A1"), "=P!A1+1").unwrap();
        wb.set_formula(p, at("B1"), "=A1*2").unwrap();
        wb.set_value(q, at("B1"), Value::Number(5.0));
        wb.set_formula(p, at("C1"), "=Q!B1+1").unwrap();
        wb
    };
    let flagged = |wb: &Workbook| {
        let cycle = Value::Error(CellError::Cycle);
        let mut cells = Vec::new();
        for s in [p, q] {
            cells.extend(
                wb.sheet(s).cells().filter(|(_, k)| *k.value() == cycle).map(|(c, _)| (s, c)),
            );
        }
        cells.sort_unstable();
        cells
    };
    let mut full = build();
    full.recalculate(RecalcMode::Serial);
    assert_eq!(flagged(&full), vec![(p, at("A1")), (p, at("B1")), (q, at("A1"))]);
    assert_eq!(full.value(p, at("C1")), Value::Number(6.0));
    assert_eq!(assert_reference(&full, EvalClock::default(), None), 3);
    for (sid, viewport) in [(p, "A1:B1"), (q, "A1")] {
        let mut demand = build();
        let viewport = Range::parse_a1(viewport).unwrap();
        demand.recalc_demand(sid, viewport).unwrap();
        for cell in viewport.cells() {
            assert_eq!(demand.value(sid, cell), full.value(sid, cell), "{sid} {cell}");
        }
        demand.recalculate(RecalcMode::Serial);
        assert_eq!(full_state(&demand), full_state(&full), "{sid} {viewport:?}");
    }
    let mut rebuilt = rebuild_from_texts(&full);
    rebuilt.recalculate(RecalcMode::Serial);
    assert_eq!(full_state(&rebuilt), full_state(&full));
}
