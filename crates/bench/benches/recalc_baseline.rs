//! Machine-readable perf baseline for the recalculation paths: full
//! recalc vs demand-driven viewport recalc, over the persistence presets
//! (including the single-giant-sheet preset).
//!
//! Contract asserts (these fail the bench, and CI runs it in quick mode):
//!
//! - demand-driven recalculation evaluates **no more** cells than the
//!   full pass (strictly fewer on the giant sheet), and the viewport's
//!   values match the full pass bit for bit;
//! - a follow-up full pass after demand mode converges to zero dirty.
//!
//! With `TACO_BENCH_JSON=path` the run also writes the collected numbers
//! as JSON — commit the artifact to track the perf trajectory over PRs.

use std::time::Instant;
use taco_bench::{fmt_ms, header, ms};
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_grid::Range;
use taco_workload::{
    gen_persist_workload, persist_enron_like, persist_giant_sheet, persist_github_like,
    PersistParams, PersistWorkload,
};

fn presets() -> Vec<PersistParams> {
    let scale = taco_bench::scale();
    let scaled = |p: PersistParams| {
        let rows = ((f64::from(p.rows) * scale) as u32).max(16);
        PersistParams { rows, ..p }
    };
    vec![scaled(persist_enron_like()), scaled(persist_github_like()), scaled(persist_giant_sheet())]
}

fn build(w: &PersistWorkload) -> Workbook {
    let mut wb = Workbook::with_taco();
    wb.apply_batch(&w.build).expect("build script applies");
    wb
}

fn main() {
    header("recalc baseline — full vs demand-driven (JSON-able)");
    let mut out = JsonObj::new();
    out.num("scale", taco_bench::scale());
    let mut presets_json = Vec::new();

    for p in presets() {
        let w = gen_persist_workload(&p);
        let mut pj = JsonObj::new();
        pj.str("name", p.name);
        pj.num("rows", f64::from(p.rows));
        pj.num("sheets", p.sheets as f64);

        // ---- full recalc (the reference) ---------------------------------
        let mut serial = build(&w);
        let total_dirty = serial.dirty_count();
        pj.num("dirty_cells", total_dirty as f64);
        let t0 = Instant::now();
        let full_evaluated = serial.recalculate(RecalcMode::Serial);
        let full_ms = ms(t0.elapsed());
        pj.num("full_ms", full_ms);
        pj.num("full_evaluated", full_evaluated as f64);

        // ---- demand-driven viewport recalc -------------------------------
        let viewport = Range::from_coords(1, 1, 6, 16.min(p.rows));
        let mut demand = build(&w);
        let t0 = Instant::now();
        let demand_evaluated =
            demand.recalc_demand(SheetId(0), viewport, RecalcMode::Serial).expect("sheet 0 exists");
        let demand_ms = ms(t0.elapsed());
        assert!(
            demand_evaluated <= full_evaluated,
            "[{}] demand evaluated {} > full {}",
            p.name,
            demand_evaluated,
            full_evaluated
        );
        if p.sheets == 1 {
            assert!(
                demand_evaluated < full_evaluated,
                "[{}] single-sheet viewport closure must be a strict subset",
                p.name
            );
        }
        for cell in viewport.cells() {
            assert_eq!(
                demand.value(SheetId(0), cell),
                serial.value(SheetId(0), cell),
                "[{}] demand viewport cell {:?} diverged",
                p.name,
                cell
            );
        }
        let follow = demand.recalculate(RecalcMode::Serial);
        assert_eq!(demand_evaluated + follow, total_dirty, "[{}] demand+follow-up", p.name);
        assert_eq!(demand.dirty_count(), 0, "[{}] demand mode must converge", p.name);
        pj.num("demand_ms", demand_ms);
        pj.num("demand_evaluated", demand_evaluated as f64);

        println!(
            "\n[{}] {} dirty cells: full {} ({} cells) · demand {} ({} cells)",
            p.name,
            total_dirty,
            fmt_ms(full_ms),
            full_evaluated,
            fmt_ms(demand_ms),
            demand_evaluated,
        );
        presets_json.push(pj);
    }

    out.arr("presets", presets_json);
    if let Ok(path) = std::env::var("TACO_BENCH_JSON") {
        std::fs::write(&path, out.finish()).expect("write TACO_BENCH_JSON");
        println!("\nwrote recalc baseline JSON to {path}");
    }
}

// ---- a tiny JSON writer (keys are plain ASCII identifiers) --------------

struct JsonObj {
    fields: Vec<String>,
}

impl JsonObj {
    fn new() -> Self {
        JsonObj { fields: Vec::new() }
    }

    fn num(&mut self, key: &str, v: f64) {
        self.fields.push(format!("\"{key}\":{v:.3}"));
    }

    fn str(&mut self, key: &str, v: &str) {
        self.fields.push(format!("\"{key}\":\"{v}\""));
    }

    fn arr(&mut self, key: &str, items: Vec<JsonObj>) {
        let body: Vec<String> = items.into_iter().map(JsonObj::finish).collect();
        self.fields.push(format!("\"{key}\":[{}]", body.join(",")));
    }

    fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}
