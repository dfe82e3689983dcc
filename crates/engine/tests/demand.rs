//! Differential tests for demand-driven recalculation:
//! [`Workbook::recalc_demand`] must give the viewport exactly the values
//! a full recalculation would, while evaluating **only** the viewport's
//! transitive dirty precedents (checked through the engines' evaluation
//! counters), and a follow-up full recalculation must converge to the
//! full-recalc state — the deferred cells are lazily dirty, never lost.
//! The graph the presets build is what their formulas derive.

mod common;

use common::{assert_graph_derives, assert_reference};
use proptest::prelude::*;
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::{EvalClock, Value};
use taco_grid::{Cell, Range};
use taco_workload::{
    gen_persist_workload, persist_enron_like, persist_giant_sheet, persist_github_like,
    PersistParams, PersistWorkload,
};

fn presets(seed: u64) -> Vec<PersistParams> {
    vec![
        PersistParams { rows: 24, seed, ..persist_enron_like() },
        PersistParams { rows: 32, seed: seed ^ 0x9E37, ..persist_github_like() },
        PersistParams { rows: 64, seed: seed ^ 0x61A7, ..persist_giant_sheet() },
    ]
}

fn build(w: &PersistWorkload) -> Workbook {
    let mut wb = Workbook::with_taco();
    wb.apply_batch(&w.build).expect("build script applies");
    wb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn demand_recalc_matches_full_recalc_on_the_viewport(
        seed in 0u64..10_000,
        sheet_pick in 0usize..8,
        row0 in 1u32..20,
        height in 1u32..12,
    ) {
        for p in presets(seed) {
            let w = gen_persist_workload(&p);
            let mut full = build(&w);
            let mut demand = build(&w);
            assert_graph_derives(&demand);
            let total_dirty = full.dirty_count();

            let e_full = full.recalculate(RecalcMode::Serial);
            prop_assert_eq!(e_full, total_dirty);

            let sid = SheetId(sheet_pick % demand.sheet_count());
            let viewport = Range::from_coords(1, row0, 6, row0 + height);

            // Demand pass: counters say how much was actually evaluated.
            let before = demand.evaluated_total();
            let e_demand = demand.recalc_demand(sid, viewport).unwrap();
            prop_assert_eq!(demand.evaluated_total() - before, e_demand as u64);
            prop_assert!(e_demand <= e_full, "{}: demand may never evaluate more", p.name);

            // The viewport is now exactly what the full pass computed, and
            // what the reference evaluator gives it.
            for cell in viewport.cells() {
                prop_assert_eq!(
                    demand.value(sid, cell),
                    full.value(sid, cell),
                    "{}: viewport cell {:?} diverged", p.name, cell
                );
            }
            assert_reference(&demand, EvalClock::default(), Some((sid, viewport)));

            // Everything else stayed lazily dirty: the deferred count plus
            // the demand count is the full workload, and the follow-up
            // full pass evaluates precisely the deferred cells...
            let deferred = demand.dirty_count();
            prop_assert_eq!(e_demand + deferred, total_dirty, "{}", p.name);
            let e_follow = demand.recalculate(RecalcMode::Serial);
            prop_assert_eq!(e_follow, deferred, "{}", p.name);
            prop_assert_eq!(demand.dirty_count(), 0);

            // ...after which the whole workbook converges bit-identically.
            for s in 0..demand.sheet_count() {
                let id = SheetId(s);
                let mut a: Vec<(Cell, Value)> =
                    demand.sheet(id).cells().map(|(c, k)| (c, k.value().clone())).collect();
                let mut b: Vec<(Cell, Value)> =
                    full.sheet(id).cells().map(|(c, k)| (c, k.value().clone())).collect();
                a.sort_by_key(|(c, _)| *c);
                b.sort_by_key(|(c, _)| *c);
                prop_assert_eq!(a, b, "{}: sheet {} diverged after follow-up", p.name, s);
            }
            assert_reference(&full, EvalClock::default(), None);
        }
    }
}

/// Pin the "only transitive precedents" guarantee on a case where the
/// closure is a strict subset: a giant sheet with a viewport near the
/// top evaluates far fewer cells than the full workload.
#[test]
fn demand_recalc_is_a_strict_subset_on_the_giant_sheet() {
    let w = gen_persist_workload(&persist_giant_sheet());
    let mut wb = build(&w);
    let total = wb.dirty_count();
    let viewport = Range::parse_a1("A1:F8").unwrap();
    let evaluated = wb.recalc_demand(SheetId(0), viewport).unwrap();
    assert!(evaluated > 0, "a dirty viewport must evaluate something");
    assert!(
        evaluated < total / 2,
        "viewport closure should be a small fraction: {evaluated} of {total}"
    );
    assert_eq!(wb.dirty_count(), total - evaluated);
    assert_reference(&wb, EvalClock::default(), Some((SheetId(0), viewport)));
}

/// A viewport over the middle of a dirty run cuts the run's dirty rows in
/// two: what the viewport needed goes, the rows above and below it stay
/// dirty, and the follow-up pass evaluates exactly those.
#[test]
fn a_viewport_inside_a_dirty_run_cuts_its_interval_in_two() {
    let build = || {
        let mut wb = Workbook::with_taco();
        let s = wb.add_sheet("S").unwrap();
        for row in 1..=8 {
            wb.set_value(s, Cell::new(1, row), Value::Number(f64::from(row) / 3.0));
        }
        for row in 1..=1024u32 {
            wb.set_formula(s, Cell::new(2, row), &format!("=SUM($A$1:$A$8)*{row}")).unwrap();
        }
        assert_eq!(wb.sheet(s).formula_templates(), 1, "one stepped run");
        wb
    };
    let (mut full, mut demand) = (build(), build());
    assert_eq!((full.dirty_count(), full.recalculate(RecalcMode::Serial)), (1024, 1024));
    let viewport = Range::parse_a1("B400:B600").unwrap();
    let needed = demand.recalc_demand(SheetId(0), viewport).unwrap();
    assert_eq!(needed, 201, "the viewport's rows, nothing above or below");
    assert_eq!(demand.dirty_count(), 1024 - needed);
    assert_eq!(demand.recalculate(RecalcMode::Serial), 1024 - needed);
    assert_eq!(demand.dirty_count(), 0);
    for row in 1..=1024 {
        let cell = Cell::new(2, row);
        let (got, want) = (demand.value(SheetId(0), cell), full.value(SheetId(0), cell));
        assert!(bit_identical(&got, &want), "{cell}: {got:?} vs {want:?}");
    }
}

fn bit_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(a), Value::Number(b)) => a.to_bits() == b.to_bits(),
        _ => a == b,
    }
}

/// Recalculates one copy of `build`'s workbook in full and another from
/// `viewport` on `sid`, then in full: after the demand pass the viewport
/// must read what the full pass gave it, bit for bit, and the demand
/// pass and its follow-up must between them evaluate every dirty cell
/// once. Returns the viewport's values and the demand pass's count.
fn viewport_after_demand(
    build: impl Fn() -> Workbook,
    sid: SheetId,
    viewport: &str,
) -> (Vec<Value>, usize) {
    let viewport = Range::parse_a1(viewport).unwrap();
    let (mut full, mut demand) = (build(), build());
    let total_dirty = full.dirty_count();
    assert_eq!(full.recalculate(RecalcMode::Serial), total_dirty);

    let e_demand = demand.recalc_demand(sid, viewport).unwrap();
    let seen: Vec<Value> = viewport.cells().map(|cell| demand.value(sid, cell)).collect();
    for (cell, value) in viewport.cells().zip(&seen) {
        let want = full.value(sid, cell);
        assert!(bit_identical(value, &want), "{cell}: {value:?} on demand, {want:?} in full");
    }
    assert_reference(&demand, EvalClock::default(), Some((sid, viewport)));
    assert_eq!(demand.dirty_count(), total_dirty - e_demand);
    let e_follow = demand.recalculate(RecalcMode::Serial);
    assert_eq!(e_demand + e_follow, total_dirty);
    assert_eq!(demand.dirty_count(), 0);
    assert_reference(&demand, EvalClock::default(), None);
    (seen, e_demand)
}

#[test]
fn a_viewport_holding_cycle_members_reads_as_after_a_full_pass() {
    let build = || {
        let mut wb = Workbook::with_taco();
        let s = wb.add_sheet("S").unwrap();
        let mut set = |at: &str, src: &str| {
            wb.set_formula(s, Cell::parse_a1(at).unwrap(), src).unwrap();
        };
        // B1 → C1 → D1 → B1, read from inside the viewport (E1), from
        // outside it (G9) and from a cell that sorts before all of them
        // (A5): the full pass walks into the cycle from A5, at D1; a
        // viewport pass from B1.
        set("B1", "=C1+A1");
        set("C1", "=D1*2");
        set("D1", "=B1-1");
        set("E1", "=B1+1");
        set("B2", "=A1*2");
        set("A5", "=D1+1");
        set("G9", "=C1+5");
        set("H9", "=A1*3");
        wb.set_value(s, Cell::parse_a1("A1").unwrap(), Value::Number(1.0));
        wb
    };
    let (seen, evaluated) = viewport_after_demand(build, SheetId(0), "B1:E2");
    let cycle = Value::Error(taco_formula::CellError::Cycle);
    let blank = Value::Empty;
    // B1 C1 D1 E1, then B2 and the blanks beside it.
    let want = [&cycle, &cycle, &cycle, &cycle, &Value::Number(2.0), &blank, &blank, &blank];
    assert_eq!(seen.iter().collect::<Vec<_>>(), want);
    assert_eq!(evaluated, 5, "B1, C1, D1, E1 and B2: not A5, G9 or H9");
}

#[test]
fn sheets_that_read_each_other_are_followed_both_ways() {
    // `P` reads `Q` and `Q` reads `P`, without any cell reading itself:
    // P!B1 → Q!A1 → P!A2 → P!A1.
    let build = || {
        let mut wb = Workbook::with_taco();
        let p = wb.add_sheet("P").unwrap();
        let q = wb.add_sheet("Q").unwrap();
        let at = |a1: &str| Cell::parse_a1(a1).unwrap();
        wb.set_value(p, at("A1"), Value::Number(1.0));
        wb.set_formula(p, at("A2"), "=A1*3").unwrap();
        wb.set_formula(p, at("B1"), "=Q!A1+A1").unwrap();
        wb.set_formula(p, at("C1"), "=B1*2").unwrap();
        wb.set_formula(p, at("D5"), "=A1+7").unwrap();
        wb.set_formula(q, at("A1"), "=P!A2+1").unwrap();
        wb.set_formula(q, at("B7"), "=A1*10").unwrap();
        wb
    };
    // From `P`: B1 and C1, Q!A1 behind B1, and P!A2 behind that — one
    // order across both sheets, so B1 reads Q!A1 current, as the full
    // pass does.
    let (seen, evaluated) = viewport_after_demand(build, SheetId(0), "B1:C1");
    assert_eq!((seen, evaluated), (vec![Value::Number(5.0), Value::Number(10.0)], 4));
    // From `Q`: A1 and P!A2 behind it, which is final when A1 reads it.
    let (seen, evaluated) = viewport_after_demand(build, SheetId(1), "A1:A1");
    assert_eq!((seen, evaluated), (vec![Value::Number(4.0)], 2));
}
