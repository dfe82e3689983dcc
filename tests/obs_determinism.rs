//! Observability must be a pure observer: attaching a hub to a workbook
//! changes no recalculation bit. Each preset workload is run with obs off
//! and obs on, and every non-empty cell value must be identical, through
//! a build, a full recalc, an edit burst, and a demand-driven viewport
//! recalc. The instrumented runs must also actually have recorded (the
//! "obs on" leg is not accidentally a no-op), and must not cost more than
//! the work they observe.

use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;
use taco_repro::engine::{PersistOptions, PersistentWorkbook, RecalcMode, SheetId, Workbook};
use taco_repro::formula::Value;
use taco_repro::grid::{Cell, Range};
use taco_repro::obs::{MetricsSnapshot, Obs, ObsClock, ObsOptions, TraceDump, TracerOptions};
use taco_repro::store::FaultVfs;
use taco_repro::workload::{
    gen_persist_workload, persist_enron_like, persist_giant_sheet, persist_github_like,
    PersistParams, PersistWorkload,
};

fn presets() -> Vec<PersistParams> {
    vec![
        PersistParams { rows: 32, burst_edits: 40, seed: 7, ..persist_enron_like() },
        PersistParams { rows: 40, burst_edits: 40, seed: 11, ..persist_github_like() },
        PersistParams { rows: 96, burst_edits: 50, seed: 13, ..persist_giant_sheet() },
    ]
}

fn build(w: &PersistWorkload, obs: Option<&Obs>) -> Workbook {
    let mut wb = Workbook::with_taco();
    if let Some(o) = obs {
        wb.attach_obs(o, "det");
    }
    wb.apply_batch(&w.build).expect("build script applies");
    wb
}

/// Every non-empty cell's value, across all sheets, in a fixed order.
fn snapshot(wb: &Workbook) -> Vec<(usize, Cell, Value)> {
    let mut out = Vec::new();
    for s in 0..wb.sheet_count() {
        let mut cells: Vec<(Cell, Value)> =
            wb.sheet(SheetId(s)).cells().map(|(c, k)| (c, k.value().clone())).collect();
        cells.sort_by_key(|(c, _)| *c);
        out.extend(cells.into_iter().map(|(c, v)| (s, c, v)));
    }
    out
}

#[test]
fn observed_recalc_is_bit_identical_in_every_mode() {
    for p in presets() {
        let w = gen_persist_workload(&p);

        // The unobserved run is the reference.
        let mut reference = build(&w, None);
        let eval0 = reference.recalculate(RecalcMode::Serial);
        let after_build = snapshot(&reference);
        reference.apply_batch(&w.burst).expect("burst applies");
        let eval1 = reference.recalculate(RecalcMode::Serial);
        let after_burst = snapshot(&reference);

        let hub = Obs::new(ObsOptions::default());
        let mut wb = build(&w, Some(&hub));
        assert!(wb.obs_attached(), "{}", p.name);

        let evaluated = wb.recalculate(RecalcMode::Serial);
        assert_eq!(evaluated, eval0, "{}", p.name);
        assert_eq!(snapshot(&wb), after_build, "{}", p.name);

        wb.apply_batch(&w.burst).expect("burst applies");
        assert_eq!(wb.recalculate(RecalcMode::Serial), eval1, "{}", p.name);
        assert_eq!(snapshot(&wb), after_burst, "{}", p.name);

        let snap = hub.snapshot();
        let recalcs = snap
            .counters
            .iter()
            .filter(|c| c.name == "taco_recalcs_total")
            .map(|c| c.value)
            .sum::<u64>();
        assert!(recalcs >= 2, "instrumented run must have recorded: {snap:?}");
    }
}

/// Build, full recalc, edit burst, recalc again: the best of three such
/// cycles, in milliseconds.
fn cycle_ms(w: &PersistWorkload, obs: Option<&Obs>) -> f64 {
    let cycle = || {
        let t0 = Instant::now();
        let mut wb = build(w, obs);
        wb.recalculate(RecalcMode::Serial);
        wb.apply_batch(&w.burst).expect("burst applies");
        wb.recalculate(RecalcMode::Serial);
        t0.elapsed().as_secs_f64() * 1e3
    };
    cycle().min(cycle()).min(cycle())
}

#[test]
fn observed_cycle_stays_within_twice_the_bare_one() {
    // Guards only against observability dominating the work it observes:
    // at these sizes a cycle is a few milliseconds and the 50 ms allowance
    // (timer and scheduler noise) is most of the bound, so a regression of
    // 90 % passes. The tight figure is `bench.trace_overhead_pct` of the
    // benchmark (DESIGN.md "Observability"). That both cycles do the same
    // work is `observed_recalc_is_bit_identical_in_every_mode`'s to show.
    for p in presets() {
        let w = gen_persist_workload(&p);
        let bare_ms = cycle_ms(&w, None);
        let obs_ms = cycle_ms(&w, Some(&Obs::new(ObsOptions::default())));
        let bound = bare_ms * 2.0 + 50.0;
        assert!(
            obs_ms <= bound,
            "[{}] observed cycle {obs_ms:.3} ms exceeds {bound:.3} ms (bare {bare_ms:.3} ms)",
            p.name
        );
    }
}

#[test]
fn observed_demand_recalc_is_bit_identical() {
    let p = PersistParams { rows: 48, burst_edits: 0, seed: 3, ..persist_github_like() };
    let w = gen_persist_workload(&p);
    let viewport = Range::from_coords(1, 1, 8, 16);

    let mut reference = build(&w, None);
    reference.recalc_demand(SheetId(0), viewport).unwrap();
    let want = snapshot(&reference);
    let dirty_left = reference.dirty_count();

    let hub = Obs::new(ObsOptions::default());
    let mut wb = build(&w, Some(&hub));
    wb.recalc_demand(SheetId(0), viewport).unwrap();
    assert_eq!(snapshot(&wb), want);
    assert_eq!(wb.dirty_count(), dirty_left, "laziness must match");
    let snap = hub.snapshot();
    assert!(
        snap.histograms.iter().any(|h| h.name == "taco_demand_closure_cells" && h.count > 0),
        "demand closure histogram must have recorded"
    );
}

#[test]
fn profiled_recalc_is_bit_identical() {
    // The hub's recalc profile — a `sheet.order` and a `sheet.eval` span
    // per sheet, and the histograms they feed — is an observer too: an
    // attached workbook recalculates to the bits of an unattached twin,
    // and the pass counts it reports need no hub at all.
    let p = PersistParams { rows: 40, burst_edits: 30, seed: 17, ..persist_enron_like() };
    let w = gen_persist_workload(&p);

    let mut reference = build(&w, None);
    let evaluated = reference.recalculate(RecalcMode::Serial);
    let want = snapshot(&reference);

    let hub = Obs::new(ObsOptions::default());
    let mut wb = build(&w, Some(&hub));
    assert_eq!(wb.recalculate(RecalcMode::Serial), evaluated);
    assert_eq!(snapshot(&wb), want);

    // One record per sheet evaluated on, in sheet order; together they
    // are the whole pass, its cells ordered in nodes of one cell or more.
    let passes = wb.last_pass();
    assert_eq!(passes, reference.last_pass(), "the counts are the hub's twin's");
    assert!(!passes.is_empty(), "the pass must count sheet passes");
    assert!(passes.windows(2).all(|w| w[0].sheet < w[1].sheet), "{passes:?}");
    let cells: u32 = passes.iter().map(|p| p.cells).sum();
    assert_eq!(cells as usize, evaluated);
    for pass in &passes {
        assert!(0 < pass.nodes && pass.nodes <= pass.cells, "{pass:?}");
    }
    // Each sheet's evaluation is a span whose payload is those counts.
    let dump = hub.tracer.dump();
    let evals: Vec<(u64, u64)> =
        dump.recent.iter().filter(|s| s.name == "sheet.eval").map(|s| (s.a, s.b)).collect();
    let counts: Vec<(u64, u64)> =
        passes.iter().map(|p| (u64::from(p.cells), u64::from(p.nodes))).collect();
    assert_eq!(evals, counts);
    let snap = hub.snapshot();
    for name in ["taco_profile_order_ns", "taco_profile_eval_ns", "taco_apply_ns"] {
        assert!(
            snap.histograms.iter().any(|h| h.name == name && h.count > 0),
            "{name} must have recorded"
        );
    }
}

#[test]
fn an_edit_across_sheets_is_one_apply_span_reporting_every_sheet_reached() {
    // A chain across three sheets: a value edit at A!A1 reaches B!A1 and,
    // from there, C!A1 — one query of the workbook's graph, one
    // `workbook.apply` span whose payload is the one record and the two
    // dirty ranges. No histogram counts hops between sheets: there are
    // none to count.
    let mut wb = Workbook::with_taco();
    let [a, b, c] = ["A", "B", "C"].map(|name| wb.add_sheet(name).unwrap());
    let a1 = Cell::new(1, 1);
    wb.set_value(a, a1, Value::Number(1.0));
    wb.set_formula(b, a1, "=A!A1").unwrap();
    wb.set_formula(c, a1, "=B!A1").unwrap();
    wb.recalculate(RecalcMode::Serial);
    let hub = Obs::new(ObsOptions::default());
    wb.attach_obs(&hub, "det");
    let receipt = wb.set_value(a, a1, Value::Number(2.0));
    assert_eq!(receipt.dirty, [(b, Range::cell(a1)), (c, Range::cell(a1))]);
    let snap = hub.snapshot();
    assert!(snap.histograms.iter().all(|h| !h.name.contains("hops")));
    let applies: Vec<(u64, u64)> = hub
        .tracer
        .dump()
        .recent
        .iter()
        .filter(|s| s.name == "workbook.apply")
        .map(|s| (s.a, s.b))
        .collect();
    assert_eq!(applies, [(1, 2)], "one span: one record, two dirty ranges");
    wb.recalculate(RecalcMode::Serial);
    assert_eq!(wb.value(c, a1), Value::Number(2.0));
    assert_eq!(hub.snapshot().gauge("taco_cross_edges"), Some(2));
}

#[test]
fn formula_gauges_and_the_carried_fold_counter_are_exposed() {
    // A 40-row sheet: A data, B a cumulative column autofilled from B1 —
    // one formula in 40 cells —, C typed row by row with a literal that
    // differs and is spelled as the printer would not (`1.0`), so 40
    // formulas of its own, and D typed with the row number as a literal,
    // a line the literal steps along: one formula.
    let hub = Obs::new(ObsOptions::default());
    let mut wb = Workbook::with_taco();
    wb.attach_obs(&hub, "det");
    let s = wb.add_sheet("Only").unwrap();
    for row in 1..=40u32 {
        wb.set_value(s, Cell::new(1, row), Value::Number(f64::from(row)));
        wb.set_formula(s, Cell::new(3, row), &format!("=A{row}*{row}.0")).unwrap();
        wb.set_formula(s, Cell::new(4, row), &format!("=A{row}*{row}")).unwrap();
    }
    wb.set_formula(s, Cell::new(2, 1), "=SUM($A$1:A1)").unwrap();
    wb.autofill(s, Cell::new(2, 1), Range::from_coords(2, 2, 2, 40)).unwrap();
    assert_eq!(wb.recalculate(RecalcMode::Serial), 120);
    let text = hub.snapshot().to_prometheus();
    for line in [
        "taco_formula_cells{book=\"det\"} 120",
        "taco_formula_templates{book=\"det\"} 42",
        // Every cell of the cumulative column but the first went on from
        // the fold of the cell above it.
        "taco_recalc_folds_carried_total 39",
    ] {
        assert!(text.lines().any(|l| l == line), "no line {line:?} in:\n{text}");
    }
    // Counters add up over recalculations; the gauges follow the sheet.
    wb.set_value(s, Cell::new(1, 21), Value::Number(0.5));
    wb.clear_range(s, Range::from_coords(3, 1, 3, 10));
    assert_eq!(wb.recalculate(RecalcMode::Serial), 20 + 2);
    let text = hub.snapshot().to_prometheus();
    for line in [
        "taco_formula_cells{book=\"det\"} 110",
        "taco_formula_templates{book=\"det\"} 32",
        "taco_recalc_folds_carried_total 59",
    ] {
        assert!(text.lines().any(|l| l == line), "no line {line:?} in:\n{text}");
    }
}

/// Everything a dump records per span: identity, linkage, payload, and —
/// since every stamp and every duration comes off the hub clock — time.
type SpanShape = (String, (u64, u64, u64, u64), u64, u64, u64, u64);

fn tree_shape(dump: &TraceDump) -> Vec<SpanShape> {
    dump.recent
        .iter()
        .chain(dump.slow.iter())
        .map(|s| {
            let (name, ids) = (s.name.clone(), (s.trace_hi, s.trace_lo, s.span_id, s.parent_id));
            (name, ids, s.a, s.b, s.start_ns, s.dur_ns)
        })
        .collect()
}

/// The traced script — build, recalc, burst, recalc, demand recalc — on
/// a hub whose clock stands still at 1 000 ns. `durable` runs it over a
/// WAL-backed workbook on an in-memory disk, compacting every 16 records.
fn traced_run(w: &PersistWorkload, id_seed: u64, durable: bool) -> (TraceDump, MetricsSnapshot) {
    let hub = Obs::new(ObsOptions {
        tracer: TracerOptions {
            clock: ObsClock::Manual(Arc::new(AtomicU64::new(1_000))),
            id_seed,
            span_capacity: 4096,
            ..TracerOptions::default()
        },
    });
    let viewport = Range::from_coords(1, 1, 8, 8);
    if durable {
        let mut pw = PersistentWorkbook::create_with(
            Arc::new(FaultVfs::pristine(1)),
            Path::new("/det.taco"),
            Workbook::with_taco(),
            PersistOptions { compact_after_records: 16, sync_every_records: 1 },
        )
        .expect("an in-memory disk takes the snapshot");
        pw.attach_obs(&hub, "det");
        pw.log_batch(&w.build).expect("build script applies and logs");
        pw.recalculate();
        pw.log_batch(&w.burst).expect("burst applies and logs");
        pw.recalculate();
        pw.workbook_mut().recalc_demand(SheetId(0), viewport).unwrap();
    } else {
        let mut wb = build(w, Some(&hub));
        wb.recalculate(RecalcMode::Serial);
        wb.apply_batch(&w.burst).expect("burst applies");
        wb.recalculate(RecalcMode::Serial);
        wb.recalc_demand(SheetId(0), viewport).unwrap();
    }
    (hub.tracer.dump(), hub.snapshot())
}

fn span_names(dump: &TraceDump) -> Vec<&str> {
    dump.recent.iter().chain(dump.slow.iter()).map(|s| s.name.as_str()).collect()
}

#[test]
fn manual_clock_and_fixed_seed_reproduce_span_trees() {
    // With the clock pinned and the span-id generator seeded, the same
    // script must emit the same span tree — same names, same parent/child
    // edges, same ids, same payloads, same times — run after run.
    let p = PersistParams { rows: 40, burst_edits: 30, seed: 5, ..persist_enron_like() };
    let w = gen_persist_workload(&p);

    let (first, _) = traced_run(&w, 99, false);
    let (second, _) = traced_run(&w, 99, false);
    assert!(first.span_count() > 0, "the script must trace");
    assert_eq!(tree_shape(&first), tree_shape(&second), "span trees must be reproducible");

    // A different seed keeps the shape (names, counts, edges-by-position)
    // but relabels every id — no accidental dependence on the seed value.
    let (other, _) = traced_run(&w, 1234, false);
    assert_eq!(other.span_count(), first.span_count());
    assert_eq!(span_names(&first), span_names(&other), "seed must not change which spans exist");
    assert_ne!(tree_shape(&first), tree_shape(&other), "a different seed must relabel span ids");
}

#[test]
fn a_clock_that_stands_still_measures_nothing() {
    // One clock: a region's start stamp, its span's duration and the
    // sample its `*_ns` histogram gets are all read off the hub clock, so
    // on a manual clock nobody advances every one of them is 0 — engine
    // spans and WAL spans alike. (A second, wall clock anywhere on an
    // instrumented path shows up here as a non-zero duration.)
    let p = PersistParams { rows: 40, burst_edits: 30, seed: 5, ..persist_enron_like() };
    let w = gen_persist_workload(&p);
    for durable in [false, true] {
        let (dump, snap) = traced_run(&w, 99, durable);
        let names = span_names(&dump);
        let mut expected = vec![
            "workbook.apply",
            "workbook.recalc",
            "sheet.order",
            "sheet.eval",
            "workbook.demand",
        ];
        if durable {
            expected.extend(["wal.append", "wal.fsync", "wal.compact"]);
        }
        for name in expected {
            assert!(names.contains(&name), "durable={durable}: no {name} span in {names:?}");
        }
        for s in dump.recent.iter().chain(dump.slow.iter()) {
            assert_eq!((s.start_ns, s.dur_ns), (1_000, 0), "durable={durable}: {s:?}");
        }
        let timed: Vec<_> = snap.histograms.iter().filter(|h| h.name.ends_with("_ns")).collect();
        assert!(timed.iter().any(|h| h.name == "taco_recalc_ns" && h.count >= 3), "{timed:?}");
        for h in timed {
            assert_eq!(h.sum, 0, "durable={durable}: {} sampled another clock: {h:?}", h.name);
        }
    }
}
