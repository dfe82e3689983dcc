//! Persistence: bytes-per-edge and save/open latency of the `taco_store`
//! binary container.
//!
//! Part one measures the graph section alone — both corpus presets ×
//! every `FormulaGraph` backend configuration (TACO-Full, TACO-InRow,
//! NoComp) — because the backend decides how many edges there are to
//! store: compression helps twice, once in memory and once on disk.
//!
//! Part two measures the whole-workbook path the engine actually runs:
//! build from the persistence workload's edit script, save, append the
//! edit burst to the WAL, then reopen (snapshot decode + WAL replay) —
//! with a verification pass so the timings can never drift away from a
//! correct implementation.

use std::time::Instant;
use taco_bench::{corpora, fmt_ms, header, ms, time};
use taco_core::Config;
use taco_engine::{PersistOptions, PersistentWorkbook, RecalcMode, SheetId, Workbook};
use taco_store::{decode_graph, encode_graph};
use taco_workload::{gen_persist_workload, persist_enron_like, persist_github_like};

fn main() {
    header("Persistence — graph sections");
    println!(
        "{:<8} {:<12} {:>10} {:>12} {:>9} {:>9} {:>10} {:>10}",
        "corpus", "backend", "edges", "binary B", "B/edge", "B/dep", "enc", "dec"
    );
    for corpus in corpora() {
        for (label, config) in [
            ("TACO-Full", Config::taco_full()),
            ("TACO-InRow", Config::taco_in_row()),
            ("NoComp", Config::nocomp()),
        ] {
            let mut edges = 0u64;
            let mut deps = 0u64;
            let mut binary = 0u64;
            let mut enc_ms = 0.0;
            let mut dec_ms = 0.0;
            for sheet in &corpus.sheets {
                let (g, _) = taco_bench::build_graph(config.clone(), sheet);
                let snap = g.snapshot();
                edges += snap.edges.len() as u64;
                deps += snap.dependencies_inserted;
                let (bytes, te) = time(|| encode_graph(&snap));
                let (back, td) = time(|| decode_graph(&bytes).expect("own encoding decodes"));
                assert_eq!(back, snap, "graph round trip must be lossless");
                binary += bytes.len() as u64;
                enc_ms += ms(te);
                dec_ms += ms(td);
            }
            println!(
                "{:<8} {:<12} {:>10} {:>12} {:>9.1} {:>9.2} {:>10} {:>10}",
                corpus.params.name,
                label,
                edges,
                binary,
                binary as f64 / edges.max(1) as f64,
                binary as f64 / deps.max(1) as f64,
                fmt_ms(enc_ms),
                fmt_ms(dec_ms),
            );
        }
    }

    header("Persistence — workbook save / WAL burst / reopen");
    println!(
        "{:<8} {:>7} {:>8} {:>11} {:>10} {:>10} {:>10} {:>11} {:>10}",
        "preset", "sheets", "edits", "snapshot B", "wal B", "save", "open", "open+wal", "replayed"
    );
    for params in [persist_enron_like(), persist_github_like()] {
        let w = gen_persist_workload(&params);
        let mut wb = Workbook::with_taco();
        for rec in &w.build {
            wb.apply_edit(rec).expect("build script applies");
        }
        wb.recalculate(RecalcMode::Serial);

        let dir = std::env::temp_dir();
        let path = dir.join(format!("taco_bench_persist_{}_{}.taco", w.name, std::process::id()));
        let wal = taco_engine::wal_path(&path);

        let start = Instant::now();
        let mut pers = PersistentWorkbook::create(
            &path,
            wb,
            PersistOptions { compact_after_records: 0, sync_every_records: 0 },
        )
        .expect("create store");
        let save = start.elapsed();
        let snapshot_bytes = std::fs::metadata(&path).expect("snapshot written").len();

        // Snapshot-only reopen (the WAL is still empty).
        let (reopened, open) = time(|| Workbook::open(&path).expect("reopen"));
        assert_eq!(reopened.sheet_count(), pers.workbook().sheet_count());

        // The edit burst goes to the WAL; reopen then replays it.
        for rec in &w.burst {
            pers.log_edit(rec).expect("burst applies");
        }
        pers.sync().expect("fsync point");
        let wal_bytes = std::fs::metadata(&wal).expect("wal written").len();
        let (mut replayed, open_wal) = time(|| Workbook::open(&path).expect("reopen with WAL"));

        // Verification: the reopened workbook recalculates bit-identically
        // to the live one.
        let mut live = pers;
        let evaluated_live = live.recalculate(RecalcMode::Serial);
        let evaluated_replay = replayed.recalculate(RecalcMode::Serial);
        assert_eq!(evaluated_live, evaluated_replay, "same dirty work on reopen");
        for i in 0..replayed.sheet_count() {
            let id = SheetId(i);
            for (cell, content) in live.workbook().sheet(id).cells() {
                assert_eq!(replayed.value(id, cell), *content.value(), "sheet {i} {cell}");
            }
        }

        println!(
            "{:<8} {:>7} {:>8} {:>11} {:>10} {:>10} {:>10} {:>11} {:>10}",
            w.name,
            replayed.sheet_count(),
            w.build.len() + w.burst.len(),
            snapshot_bytes,
            wal_bytes,
            fmt_ms(ms(save)),
            fmt_ms(ms(open)),
            fmt_ms(ms(open_wal)),
            w.burst.len(),
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&wal).ok();
    }
}
