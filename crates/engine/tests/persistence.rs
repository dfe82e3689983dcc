//! Round-trip and crash-replay properties for workbook persistence.
//!
//! - workbook → bytes → workbook preserves every observable: cell
//!   values, the dependencies each sheet's graph holds (in no more edges
//!   than live), dependents/precedents query answers, and the receipts of
//!   a follow-up recalculation — across both persistence-workload
//!   presets;
//! - a workbook reopened from snapshot + WAL equals the workbook that
//!   applied the same edits live, including when the WAL is cut at an
//!   arbitrary byte offset (crash simulation): the reopened state equals
//!   the live application of exactly the clean-prefix edits;
//! - a formula nested past the parser's bound is the same typed error
//!   whether it arrives in a batch, a WAL record or a stored image.

use proptest::prelude::*;
use taco_engine::{PersistOptions, PersistentWorkbook, RecalcMode, SheetId, Workbook};
use taco_grid::Range;
use taco_store::{encode_workbook, ReplayMode, StoreReader, WalReader};
use taco_workload::persistence::{
    gen_persist_workload, persist_enron_like, persist_github_like, PersistParams,
};

/// Scaled-down presets so debug-mode property runs stay fast.
fn presets() -> Vec<PersistParams> {
    vec![
        PersistParams { sheets: 3, rows: 28, burst_edits: 70, ..persist_enron_like() },
        PersistParams { sheets: 2, rows: 40, burst_edits: 70, ..persist_github_like() },
    ]
}

fn build(params: &PersistParams) -> Workbook {
    let w = gen_persist_workload(params);
    let mut wb = Workbook::with_taco();
    for rec in &w.build {
        wb.apply_edit(rec).expect("build script applies");
    }
    wb
}

/// The dependencies sheet `id`'s band holds, sorted.
fn band_deps(wb: &Workbook, id: SheetId) -> Vec<(Range, taco_grid::Cell)> {
    let deps = wb.sheet(id).graph().decompress_all();
    let mut deps: Vec<_> = deps.into_iter().map(|d| (d.prec, d.dep)).collect();
    deps.sort_unstable_by_key(|&(prec, dep)| (dep, prec.head(), prec.tail()));
    deps
}

/// Asserts every observable of `b`, reopened, matches `a`, live: a
/// reopen derives the graph afresh from the formulas, so it holds the
/// same dependencies, in no more edges.
fn assert_equivalent(a: &mut Workbook, b: &mut Workbook, ctx: &str) {
    assert_eq!(a.sheet_count(), b.sheet_count(), "{ctx}: sheet count");
    assert_eq!(a.cross_table(), b.cross_table(), "{ctx}: reads between sheets");
    assert!(b.cross_edge_count() <= a.cross_edge_count(), "{ctx}: edges between sheets");
    assert_eq!(a.dirty_count(), b.dirty_count(), "{ctx}: dirty count");
    for i in 0..a.sheet_count() {
        let id = SheetId(i);
        assert_eq!(a.sheet_name(id), b.sheet_name(id), "{ctx}: sheet {i} name");
        assert_eq!(band_deps(a, id), band_deps(b, id), "{ctx}: sheet {i} dependencies");
        let edges = |wb: &Workbook| wb.sheet(id).graph().num_edges();
        assert!(edges(b) <= edges(a), "{ctx}: sheet {i} edges {} > {}", edges(b), edges(a));
        assert_eq!(a.sheet(id).len(), b.sheet(id).len(), "{ctx}: sheet {i} cell count");
        for (cell, content) in a.sheet(id).cells() {
            assert_eq!(b.value(id, cell), *content.value(), "{ctx}: sheet {i} {cell}");
        }
    }
    // Query answers agree on a probe grid. Distinct (but equal) graphs
    // may decompose an answer into different disjoint-range lists, so
    // normalize to cell sets, as the differential-backend harness does.
    for i in 0..a.sheet_count() {
        let id = SheetId(i);
        for probe in ["A1", "A3:A9", "B2", "D5", "A1:F40"] {
            let probe = Range::parse_a1(probe).unwrap();
            assert_eq!(
                cells(&a.find_dependents(id, probe)),
                cells(&b.find_dependents(id, probe)),
                "{ctx}: dependents({i}, {probe})"
            );
            assert_eq!(
                cells(&a.find_precedents(id, probe)),
                cells(&b.find_precedents(id, probe)),
                "{ctx}: precedents({i}, {probe})"
            );
        }
    }
}

/// Normalizes a per-sheet range list to its covered cell set.
fn cells(v: &[(SheetId, Range)]) -> std::collections::BTreeSet<(SheetId, taco_grid::Cell)> {
    v.iter().flat_map(|(s, r)| r.cells().map(move |c| (*s, c))).collect()
}

#[test]
fn round_trip_preserves_observables_across_presets_and_threads() {
    for params in presets() {
        let mut live = build(&params);
        live.recalculate(RecalcMode::Serial);

        let bytes = encode_workbook(&live.to_image()).expect("encode");
        let reader = StoreReader::from_bytes(bytes).expect("validate");
        let mut back = Workbook::from_image(reader.read_all().expect("decode")).expect("restore");
        let ctx = params.name;
        assert_equivalent(&mut live, &mut back, ctx);

        // Receipts of a follow-up edit + recalc are identical: the
        // derived graph routes dirtiness exactly like the original.
        let cell = taco_grid::Cell::new(1, 3);
        let ra = live.set_value(SheetId(0), cell, taco_formula::Value::Number(123.0));
        let rb = back.set_value(SheetId(0), cell, taco_formula::Value::Number(123.0));
        assert_eq!(cells(&ra.dirty), cells(&rb.dirty), "{ctx}: edit receipts");
        let ca = live.recalculate(RecalcMode::Serial);
        let cb = back.recalculate(RecalcMode::Serial);
        assert_eq!(ca, cb, "{ctx}: recalc receipts (cells evaluated)");
        assert_equivalent(&mut live, &mut back, &format!("{ctx} after recalc"));
    }
}

#[test]
fn double_round_trip_is_byte_identical() {
    // save → open → save must reproduce the same bytes: the image is a
    // fixed point of the canonical encoding (sorted cells, interned
    // formulas, sorted dirty set) — with a dirty formula in it, and a value typed
    // over another before it was recalculated, which is not dirty.
    for params in presets() {
        let mut wb = build(&params);
        wb.recalculate(RecalcMode::Serial);
        let far = |row| taco_grid::Cell::new(40, row);
        wb.set_formula(SheetId(0), far(1), "=A1+1").unwrap();
        wb.set_formula(SheetId(0), far(2), "=A2+1").unwrap();
        wb.set_value(SheetId(0), far(1), taco_formula::Value::Number(5.0));
        assert_eq!(wb.dirty_count(), 1, "{}", params.name);
        let bytes1 = encode_workbook(&wb.to_image()).expect("encode");
        let back = Workbook::from_image(
            StoreReader::from_bytes(bytes1.clone()).expect("validate").read_all().expect("decode"),
        )
        .expect("restore");
        let bytes2 = encode_workbook(&back.to_image()).expect("re-encode");
        assert_eq!(bytes1, bytes2, "{}: reopen must be a fixed point", params.name);
    }
}

/// Builds and snapshots `params`' workbook, logs its burst without
/// compaction, cuts the log at a byte offset drawn from `cut_seed` (`None`:
/// not at all) as a crash would, and reopens: the state and the dirty work
/// left must be those of the live workbook that applied exactly the
/// surviving records.
fn reopen_after_cut(params: &PersistParams, tag: &str, cut_seed: Option<u64>) {
    let w = gen_persist_workload(params);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("taco_crash_{tag}_{}.taco", std::process::id()));
    let wal = taco_engine::wal_path(&path);

    let mut wb = Workbook::with_taco();
    for rec in &w.build {
        wb.apply_edit(rec).expect("build");
    }
    wb.recalculate(RecalcMode::Serial);
    let mut pers = PersistentWorkbook::create(
        &path,
        wb,
        PersistOptions { compact_after_records: 0, sync_every_records: 0 },
    )
    .expect("create");
    for rec in &w.burst {
        pers.log_edit(rec).expect("burst");
    }
    pers.sync().expect("fsync");
    drop(pers);
    let mut wal_bytes = std::fs::read(&wal).expect("wal bytes");

    let cut = cut_seed.map(|seed| (seed % (wal_bytes.len() as u64 + 1)) as usize);
    if let Some(cut) = cut {
        wal_bytes.truncate(cut);
        std::fs::write(&wal, &wal_bytes).expect("simulate crash");
    }
    let survived = WalReader::parse(&wal_bytes, ReplayMode::TolerateTear).expect("parse").records;
    let mut reopened = Workbook::open(&path).expect("reopen after crash");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();

    // The live truth: build + recalc (pre-snapshot state) + exactly
    // the surviving burst prefix.
    let mut live = Workbook::with_taco();
    for rec in &w.build {
        live.apply_edit(rec).expect("build");
    }
    live.recalculate(RecalcMode::Serial);
    assert_eq!(&survived[..], &w.burst[..survived.len()]);
    if cut.is_none() {
        assert_eq!(survived.len(), w.burst.len(), "an uncut log replays whole");
    }
    for rec in &survived {
        live.apply_edit(rec).expect("prefix");
    }

    let ctx = format!("{} cut={cut:?}", params.name);
    assert_equivalent(&mut live, &mut reopened, &ctx);
    let (el, er) = (live.recalculate(RecalcMode::Serial), reopened.recalculate(RecalcMode::Serial));
    assert_eq!(el, er, "{ctx}: same dirty work on reopen");
    assert_equivalent(&mut live, &mut reopened, &format!("{ctx} after recalc"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn crash_at_arbitrary_wal_offset_replays_the_clean_prefix(seed in 0u64..u64::MAX) {
        let params = PersistParams { sheets: 2, rows: 16, burst_edits: 40, ..persist_enron_like() };
        reopen_after_cut(&params, &format!("{seed:x}"), Some(seed));
    }
}

#[test]
fn clean_reopen_replays_the_whole_burst_and_leaves_the_same_dirty_work() {
    for params in presets() {
        reopen_after_cut(&params, params.name, None);
    }
}

/// Formula text is outside input on every path that reaches the parser:
/// each must answer a 100 000-level formula with `InvalidRecord`, on the
/// 2 MiB stack the test harness runs this on, and stay usable.
#[test]
fn hostile_nesting_is_a_typed_error_in_a_batch_a_wal_record_and_an_image() {
    use taco_store::{CellRecord, EditRecord, StoreError, WalWriter};
    let cell = taco_grid::Cell::new(2, 1);
    let too_deep = |r: Result<(), StoreError>, ctx: &str| match r {
        Err(StoreError::InvalidRecord(msg)) => assert!(msg.contains("deeper"), "{ctx}: {msg}"),
        other => panic!("{ctx}: {other:?}"),
    };
    let dir = std::env::temp_dir();
    for (i, src) in [
        format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000)),
        format!("{}1{}", "ABS(".repeat(100_000), ")".repeat(100_000)),
        format!("1{}", "+1".repeat(100_000)),
        format!("{}1", "-".repeat(100_000)),
    ]
    .into_iter()
    .enumerate()
    {
        let hostile = EditRecord::SetFormula { sheet: 0, cell, src: src.clone() };
        let good = EditRecord::SetFormula { sheet: 0, cell, src: "1+1".into() };
        let mut wb = Workbook::with_taco();
        wb.add_sheet("S").unwrap();

        // A batch: the prefix applies, the error names the record.
        let err = wb.apply_batch(&[good.clone(), hostile.clone()]).expect_err("batch");
        assert_eq!(err.index, 1);
        too_deep(Err(err.error), "apply_batch");
        too_deep(wb.apply_edit(&hostile), "apply_edit");
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.value(SheetId(0), cell), taco_formula::Value::Number(2.0));

        // A WAL record behind a good snapshot.
        let path = dir.join(format!("taco_hostile_depth_{}_{i}.taco", std::process::id()));
        let wal_file = taco_engine::wal_path(&path);
        wb.save(&path).expect("save");
        let mut wal = WalWriter::create(&wal_file).expect("wal");
        wal.set_epoch(StoreReader::open(&path).expect("reader").epoch());
        wal.append(&hostile).expect("append");
        wal.sync().expect("sync");
        drop(wal);
        too_deep(Workbook::open(&path).map(drop), "WAL replay");
        std::fs::remove_file(&wal_file).expect("remove wal");
        assert!(Workbook::open(&path).is_ok(), "the snapshot alone still opens");

        // A stored image.
        let mut image = wb.to_image();
        let stored = image.sheets[0].cells.iter_mut().find(|(c, _)| *c == cell).expect("cell");
        stored.1 = CellRecord::Formula { src, value: taco_formula::Value::Empty };
        taco_store::write_workbook_file(&path, &image).expect("write image");
        too_deep(Workbook::open(&path).map(drop), "open");
        std::fs::remove_file(&path).ok();
    }
}
