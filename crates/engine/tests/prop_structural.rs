//! Property tests for workbook-wide structural edits (insert/delete
//! rows/columns):
//!
//! 1. After a random structural script, the workbook is **bit-identical**
//!    to a fresh workbook rebuilt from the edited cell texts — i.e. the
//!    rewritten formula sources (including `#REF!`) print, re-parse, and
//!    re-evaluate to exactly the state the in-place rewrite produced.
//! 2. save → structural burst through the WAL → reopen converges to the
//!    live workbook (values *and* formula source text).
//!
//! After every edit the workbook's graph is what its formulas derive
//! (`common::assert_graph_derives`: the reads between sheets, and each
//! sheet's band, as a rebuild from the texts binds them), and after every script the live, rebuilt and reopened
//! workbooks hold the reference evaluator's values
//! (`taco_workload::reference::evaluate`, which shares no graph and no
//! scheduler with the engine) — the band transform held to an
//! independent oracle on cross-sheet rewrites.
//!
//! Corpora come from the persistence workload presets (Enron-like and
//! Github-like pattern mixes, scaled down), so the scripts cross sheets
//! through quoted qualifiers, rollups, and carry chains.

mod common;

use common::{assert_graph_derives, assert_reference, full_state, rebuild_from_texts};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taco_core::StructuralOp;
use taco_engine::{PersistOptions, PersistentWorkbook, RecalcMode, SheetId, Workbook};
use taco_formula::{EvalClock, Value};
use taco_grid::Cell;
use taco_store::EditRecord;
use taco_workload::persistence::{
    gen_persist_workload, persist_enron_like, persist_github_like, PersistParams,
};

fn preset(which: usize, rows: u32) -> PersistParams {
    let base = if which == 0 { persist_enron_like() } else { persist_github_like() };
    PersistParams { rows, burst_edits: 0, ..base }
}

/// Builds and fully recalculates a workbook from a preset's build script.
fn build_from(p: &PersistParams) -> Workbook {
    let w = gen_persist_workload(p);
    let mut wb = Workbook::with_taco();
    for rec in &w.build {
        wb.apply_edit(rec).expect("build script applies");
    }
    wb.recalculate(RecalcMode::Serial);
    wb
}

/// A seeded structural script over the preset's sheets: all four kinds,
/// including deletes that land on formula columns and leave `#REF!`s.
fn structural_script(p: &PersistParams, seed: u64, count: usize) -> Vec<EditRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let sheet = rng.gen_range(0..p.sheets as u32);
            let n = rng.gen_range(1..=2u32);
            let op = match rng.gen_range(0..4u32) {
                0 => StructuralOp::InsertRows { at: rng.gen_range(1..=p.rows), n },
                1 => StructuralOp::DeleteRows { at: rng.gen_range(1..=p.rows), n },
                2 => StructuralOp::InsertCols { at: rng.gen_range(1..=6), n },
                _ => StructuralOp::DeleteCols { at: rng.gen_range(2..=6), n: 1 },
            };
            EditRecord::Structural { sheet, op }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property 1: a fresh workbook rebuilt from the edited cell texts
    /// recalculates to the identical state — rewritten sources (including
    /// `#REF!`) survive a print → parse → evaluate round trip.
    #[test]
    fn structural_edits_are_rebuildable_and_mode_independent(
        which in 0usize..=1,
        rows in 8u32..=20,
        seed in 0u64..10_000,
    ) {
        let p = preset(which, rows);
        let mut wb = build_from(&p);
        for rec in structural_script(&p, seed, 6) {
            let EditRecord::Structural { sheet, op } = rec else { unreachable!() };
            wb.apply_structural(SheetId(sheet as usize), op);
            assert_graph_derives(&wb);
        }
        wb.recalculate(RecalcMode::Serial);
        prop_assert_eq!(wb.dirty_count(), 0);
        assert_reference(&wb, EvalClock::default(), None);

        let mut rebuilt = rebuild_from_texts(&wb);
        rebuilt.recalculate(RecalcMode::Serial);
        prop_assert_eq!(
            full_state(&rebuilt), full_state(&wb),
            "rebuild from edited cell texts must be bit-identical"
        );
        // A rebuild compresses the reads between sheets afresh: held
        // dependency for dependency.
        prop_assert_eq!(rebuilt.cross_table(), wb.cross_table());
        assert_reference(&rebuilt, EvalClock::default(), None);
    }

    /// Property 2: save → structural burst via the WAL → reopen converges
    /// to the live workbook.
    #[test]
    fn structural_bursts_survive_wal_reopen(
        which in 0usize..=1,
        rows in 8u32..=16,
        seed in 0u64..10_000,
    ) {
        let p = preset(which, rows);
        let script = structural_script(&p, seed ^ 0x5EED, 5);

        let path = std::env::temp_dir().join(format!(
            "taco_prop_structural_{}_{which}_{rows}_{seed}.taco",
            std::process::id()
        ));
        let wal = taco_engine::wal_path(&path);

        let wb = build_from(&p);
        wb.save(&path).expect("save");
        let mut live = PersistentWorkbook::create(
            &path,
            wb,
            PersistOptions { compact_after_records: 0, sync_every_records: 1 },
        )
        .expect("persistent workbook");
        for rec in &script {
            live.log_edit(rec).expect("structural edit logs");
            assert_graph_derives(live.workbook());
        }
        live.sync().expect("sync");
        live.recalculate();
        assert_reference(live.workbook(), EvalClock::default(), None);

        let mut reopened = Workbook::open(&path).expect("reopen");
        assert_graph_derives(&reopened);
        reopened.recalculate(RecalcMode::Serial);
        prop_assert_eq!(
            full_state(&reopened), full_state(live.workbook()),
            "WAL reopen must converge to the live workbook"
        );
        prop_assert_eq!(reopened.cross_table(), live.workbook().cross_table());
        assert_reference(&reopened, EvalClock::default(), None);

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&wal).ok();
    }
}

/// A range that straddles an insert point but already ends at the grid's
/// last row (or column) is stretched, clamped back, and prints the text it
/// had; the cells it reads moved all the same. Whole-column-style ranges
/// are ordinary input: formulas that read one, on the edited sheet or on
/// another, must recalculate after the insert without being asked to.
/// (`line` is the data line's whole-grid range, `part` a range over it
/// that ends short of the edge and is rewritten the usual way.)
fn insert_through_a_clamped_range(by_rows: bool, line: &str, part: &str, index_args: &str) {
    let at = |col: u32, row: u32| if by_rows { Cell::new(col, row) } else { Cell::new(row, col) };
    let mut wb = Workbook::with_taco();
    let data = wb.add_sheet("Data").unwrap();
    let other = wb.add_sheet("Other").unwrap();
    for k in 1..=10u32 {
        wb.set_value(data, at(1, k), Value::Number(f64::from(k)));
    }
    let (match_whole, index_whole) = (at(3, 1), at(3, 2));
    wb.set_formula(data, match_whole, &format!("=MATCH(7,{line},0)")).unwrap();
    wb.set_formula(data, index_whole, &format!("=INDEX({line},{index_args})")).unwrap();
    wb.set_formula(data, at(4, 1), &format!("=MATCH(7,{part},0)")).unwrap();
    wb.set_formula(other, at(1, 1), &format!("=MATCH(7,Data!{line},0)")).unwrap();
    wb.set_formula(other, at(1, 2), &format!("=INDEX(Data!{line},{index_args})")).unwrap();
    wb.set_formula(other, at(2, 1), "=Data!A1+1").unwrap();
    wb.recalculate(RecalcMode::Serial);
    assert_eq!(wb.value(data, match_whole), Value::Number(7.0));
    assert_eq!(wb.value(other, at(1, 2)), Value::Number(5.0));

    // Two blank rows (columns) before the third: 3..10 now sit at 5..12.
    let op = if by_rows {
        StructuralOp::InsertRows { at: 3, n: 2 }
    } else {
        StructuralOp::InsertCols { at: 3, n: 2 }
    };
    wb.apply_structural(data, op);
    assert_eq!(
        wb.formula_of(data, match_whole).as_deref(),
        Some(format!("MATCH(7,{line},0)").as_str()),
        "the clamped range prints the text it had"
    );
    // The one formula the band leaves alone keeps its cached value.
    let evaluated = wb.recalculate(RecalcMode::Serial);
    assert_eq!(evaluated, 5, "every formula that reads the data line, and no other");
    assert_eq!(wb.value(data, match_whole), Value::Number(9.0));
    assert_eq!(wb.value(data, index_whole), Value::Number(3.0));
    assert_eq!(wb.value(other, at(1, 1)), Value::Number(9.0));
    assert_eq!(wb.value(other, at(1, 2)), Value::Number(3.0));
    assert_eq!(wb.value(other, at(2, 1)), Value::Number(2.0));

    let mut rebuilt = rebuild_from_texts(&wb);
    rebuilt.recalculate(RecalcMode::Serial);
    assert_eq!(full_state(&rebuilt), full_state(&wb));
}

#[test]
fn row_insert_through_a_range_clamped_at_the_last_row_recalculates() {
    insert_through_a_clamped_range(true, "A1:A1048576", "A1:A100", "5");
}

#[test]
fn column_insert_through_a_range_clamped_at_the_last_column_recalculates() {
    insert_through_a_clamped_range(false, "A1:XFD1", "A1:CV1", "1,5");
}
