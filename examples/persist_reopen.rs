//! Build → save → reopen → verify: the instant-reopen story end to end.
//!
//! ```sh
//! cargo run --release --example persist_reopen
//! ```
//!
//! Builds a multi-sheet workbook from the persistence workload's edit
//! script, saves it with `taco_store`, reopens it, and verifies the
//! reopened workbook recalculates **bit-identically** to the original —
//! then pushes an edit burst through the write-ahead log, simulates a
//! crash by tearing the final WAL record, and reopens again. Prints the
//! binary snapshot size.
//!
//! `TACO_EXAMPLE_ROWS` scales the per-sheet row count (default 64).

use taco_repro::engine::{
    EditRecord, PersistOptions, PersistentWorkbook, RecalcMode, SheetId, Workbook,
};
use taco_repro::workload::persistence::{gen_persist_workload, persist_enron_like, PersistParams};

fn rows() -> u32 {
    std::env::var("TACO_EXAMPLE_ROWS").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

fn main() {
    let params = PersistParams { rows: rows(), ..persist_enron_like() };
    let w = gen_persist_workload(&params);
    let mut wb = Workbook::with_taco();
    for rec in &w.build {
        wb.apply_edit(rec).expect("build script applies");
    }
    let evaluated = wb.recalculate(RecalcMode::Serial);
    println!(
        "built {} sheets / {} edits, evaluated {evaluated} formula cells",
        wb.sheet_count(),
        w.build.len()
    );

    let binary = taco_repro::store::encode_workbook(&wb.to_image()).expect("encode");
    println!("snapshot: {} bytes binary", binary.len());

    // Save, reopen, verify bit-identical values and a bit-identical
    // follow-up recalculation.
    let path =
        std::env::temp_dir().join(format!("taco_persist_reopen_{}.taco", std::process::id()));
    let wal = taco_repro::engine::wal_path(&path);
    wb.save(&path).expect("save");
    let mut reopened = Workbook::open(&path).expect("reopen");
    verify_identical(&wb, &mut reopened, "after save/open");
    println!(
        "reopen: bit-identical ✔ (graph derived from the formulas, a column stretch at a time)"
    );

    // The WAL path: burst of edits, fsync, tear the last record, reopen.
    let mut pers = PersistentWorkbook::create(
        &path,
        wb,
        PersistOptions { compact_after_records: 0, sync_every_records: 8 },
    )
    .expect("create persistent workbook");
    for rec in &w.burst {
        pers.log_edit(rec).expect("burst edit");
    }
    pers.sync().expect("fsync point");
    println!(
        "logged {} burst edits into the WAL ({} bytes)",
        w.burst.len(),
        std::fs::metadata(&wal).expect("wal").len()
    );

    let mut live = pers;
    live.recalculate();

    // Crash simulation: chop the tail off the last WAL record.
    let bytes = std::fs::read(&wal).expect("wal bytes");
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).expect("tear");
    let mut crashed = Workbook::open(&path).expect("reopen after crash");
    crashed.recalculate(RecalcMode::Serial);
    // All but the torn final edit survived.
    let (survived, total) = (count_applied(&crashed, &w.burst), w.burst.len());
    println!("crash-simulated reopen: {survived}/{total} burst edits survived the torn tail");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
    println!("done");
}

/// Panics unless `b` holds exactly `a`'s values (bit-identical recalc).
fn verify_identical(a: &Workbook, b: &mut Workbook, ctx: &str) {
    assert_eq!(a.sheet_count(), b.sheet_count(), "{ctx}: sheet count");
    b.recalculate(RecalcMode::Serial);
    for i in 0..a.sheet_count() {
        let id = SheetId(i);
        for (cell, content) in a.sheet(id).cells() {
            assert_eq!(b.value(id, cell), *content.value(), "{ctx}: sheet {i} {cell}");
        }
    }
}

/// How many burst edits are visible in the reopened workbook (the torn
/// tail drops trailing records).
fn count_applied(wb: &Workbook, burst: &[EditRecord]) -> usize {
    // Count from the back: the first record from the end whose effect is
    // visible bounds the surviving prefix.
    for (i, rec) in burst.iter().enumerate().rev() {
        let visible = match rec {
            EditRecord::SetValue { sheet, cell, value } => {
                (*sheet as usize) < wb.sheet_count()
                    && wb.value(SheetId(*sheet as usize), *cell) == *value
            }
            EditRecord::SetFormula { sheet, cell, src } => {
                (*sheet as usize) < wb.sheet_count()
                    && wb.formula_of(SheetId(*sheet as usize), *cell).as_deref()
                        == Some(src.trim_start_matches('='))
            }
            EditRecord::ClearRange { sheet, range } => {
                (*sheet as usize) < wb.sheet_count()
                    && range.cells().all(|c| wb.value(SheetId(*sheet as usize), c).is_empty())
            }
            EditRecord::AddSheet { name } => wb.sheet_id(name).is_some(),
            // A structural edit's effect can't be probed cell-by-cell from
            // the outside; skip it and let a neighbouring record decide.
            EditRecord::Structural { .. } => continue,
        };
        if visible {
            return i + 1;
        }
    }
    0
}
