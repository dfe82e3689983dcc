//! Every exact graph configuration, built one dependency at a time, must
//! agree with `taco_workload::reference` on arbitrary workloads, before and
//! after a clear. The reference closes dependents and precedents cell by
//! cell over the dependency list and shares no code with `FormulaGraph`.

use proptest::prelude::*;
use std::collections::BTreeSet;
use taco_core::{Config, Dependency, FormulaGraph};
use taco_grid::{Cell, Range};
use taco_workload::reference;

const W: u32 = 10;
const H: u32 = 16;

fn arb_dep() -> impl Strategy<Value = Dependency> {
    (1u32..=W, 1u32..=H, 1u32..=W, 1u32..=H, 0u32..2, 0u32..4).prop_map(|(pc, pr, dc, dr, w, h)| {
        let prec = Range::from_coords(pc, pr, (pc + w).min(W), (pr + h).min(H));
        Dependency::new(prec, Cell::new(dc, dr))
    })
}

fn arb_deps() -> impl Strategy<Value = Vec<Dependency>> {
    prop::collection::vec(arb_dep(), 1..40).prop_map(|mut v| {
        v.sort_by_key(|d| (d.prec, d.dep));
        v.dedup_by_key(|d| (d.prec, d.dep));
        v
    })
}

fn arb_probe() -> impl Strategy<Value = Range> {
    (1u32..=W, 1u32..=H).prop_map(|(c, r)| Range::cell(Cell::new(c, r)))
}

fn cells(v: &[Range]) -> BTreeSet<Cell> {
    v.iter().flat_map(|x| x.cells()).collect()
}

/// Each exact configuration, fed `deps` through the incremental path.
fn graphs(deps: &[Dependency]) -> Vec<(&'static str, FormulaGraph)> {
    let configs = [
        ("taco", Config::taco_full()),
        ("in-row", Config::taco_in_row()),
        ("nocomp", Config::nocomp()),
    ];
    configs
        .into_iter()
        .map(|(name, config)| {
            let mut g = FormulaGraph::new(config);
            deps.iter().for_each(|d| g.add_dependency(d));
            (name, g)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_baselines_agree_with_nocomp(deps in arb_deps(), probe in arb_probe()) {
        let dependents = reference::dependents(&deps, probe);
        let precedents = reference::precedents(&deps, probe);
        for (name, g) in graphs(&deps) {
            prop_assert_eq!(&cells(&g.find_dependents(probe)), &dependents, "{} dependents", name);
            prop_assert_eq!(&cells(&g.find_precedents(probe)), &precedents, "{} precedents", name);
        }
    }

    #[test]
    fn clearing_keeps_baselines_in_sync(
        deps in arb_deps(),
        clear in arb_probe(),
        probe in arb_probe(),
    ) {
        let survivors: Vec<Dependency> =
            deps.iter().copied().filter(|d| !clear.contains_cell(d.dep)).collect();
        let dependents = reference::dependents(&survivors, probe);
        let precedents = reference::precedents(&survivors, probe);
        for (name, mut g) in graphs(&deps) {
            g.clear_cells(clear);
            prop_assert_eq!(&cells(&g.find_dependents(probe)), &dependents, "{} dependents", name);
            prop_assert_eq!(&cells(&g.find_precedents(probe)), &precedents, "{} precedents", name);
        }
    }
}
