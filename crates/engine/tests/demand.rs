//! Differential tests for demand-driven recalculation:
//! [`Workbook::recalc_demand`] must give the viewport exactly the values
//! a full recalculation would, while evaluating **only** the viewport's
//! transitive dirty precedents (checked through the engines' evaluation
//! counters), and a follow-up full recalculation must converge to the
//! full-recalc state — the deferred cells are lazily dirty, never lost.

use proptest::prelude::*;
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::Value;
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
            let total_dirty = full.dirty_count();

            let e_full = full.recalculate(RecalcMode::Serial);
            prop_assert_eq!(e_full, total_dirty);

            let sid = SheetId(sheet_pick % demand.sheet_count());
            let viewport = Range::from_coords(1, row0, 6, row0 + height);

            // Demand pass: counters say how much was actually evaluated.
            let before = demand.evaluated_total();
            let e_demand = demand.recalc_demand(sid, viewport, RecalcMode::Serial).unwrap();
            prop_assert_eq!(demand.evaluated_total() - before, e_demand as u64);
            prop_assert!(e_demand <= e_full, "{}: demand may never evaluate more", p.name);

            // The viewport is now exactly what the full pass computed.
            for cell in viewport.cells() {
                prop_assert_eq!(
                    demand.value(sid, cell),
                    full.value(sid, cell),
                    "{}: viewport cell {:?} diverged", p.name, cell
                );
            }

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
    let evaluated = wb.recalc_demand(SheetId(0), viewport, RecalcMode::Serial).unwrap();
    assert!(evaluated > 0, "a dirty viewport must evaluate something");
    assert!(
        evaluated < total / 2,
        "viewport closure should be a small fraction: {evaluated} of {total}"
    );
    assert_eq!(wb.dirty_count(), total - evaluated);
}
