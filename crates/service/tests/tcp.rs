//! End-to-end TCP integration: sessions, auth, and scoping over the
//! wire; cross-connection visibility of writes; `Save` against a
//! persistent backing store; and the full command set exercised through
//! the framed transport.

use std::sync::Arc;
use taco_core::StructuralOp;
use taco_engine::{EditRecord, PersistOptions, PersistentWorkbook, RecalcMode, SheetId, Workbook};
use taco_formula::{CellError, Value};
use taco_grid::{Cell, Range};
use taco_service::{Registry, Server, ServerOptions, ServiceError, ServiceOptions, TcpClient};
use taco_store::{FaultPlan, FaultVfs, ReplayMode, StoreError, Vfs, WalReader};

fn n(v: f64) -> Value {
    Value::Number(v)
}

fn c(s: &str) -> Cell {
    Cell::parse_a1(s).unwrap()
}

fn demo_workbook() -> Workbook {
    let mut wb = Workbook::with_taco();
    let data = wb.add_sheet("Data").unwrap();
    let summary = wb.add_sheet("Summary").unwrap();
    for row in 1..=6u32 {
        wb.set_value(data, Cell::new(1, row), n(f64::from(row)));
    }
    wb.set_formula(data, c("B1"), "=SUM(A1:A6)").unwrap();
    wb.set_formula(summary, c("A1"), "=Data!B1*2").unwrap();
    wb.recalculate(RecalcMode::Serial);
    wb
}

fn serve(registry: Arc<Registry>) -> Server {
    Server::start(registry, "127.0.0.1:0", ServerOptions::default()).unwrap()
}

#[test]
fn full_command_set_over_the_wire() {
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("sales", demo_workbook(), Some("hunter2")).unwrap();
    let server = serve(Arc::clone(&registry));

    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    // Wrong auth fails; right auth opens.
    assert!(matches!(client.open("sales", Some("wrong"), None), Err(ServiceError::AuthFailed)));
    let sheets = client.open("sales", Some("hunter2"), None).unwrap();
    assert_eq!(sheets, vec!["Data".to_string(), "Summary".to_string()]);

    // Reads.
    assert_eq!(client.get("Data", c("B1")).unwrap(), n(21.0));
    assert_eq!(client.get("Summary", c("A1")).unwrap(), n(42.0));
    let cells = client.get_range("Data", Range::parse_a1("A1:A3").unwrap()).unwrap();
    assert_eq!(cells, vec![(c("A1"), n(1.0)), (c("A2"), n(2.0)), (c("A3"), n(3.0))]);

    // Writes recalc before publishing: immediately visible.
    client.set_value("Data", c("A1"), n(100.0)).unwrap();
    assert_eq!(client.get("Data", c("B1")).unwrap(), n(120.0));
    assert_eq!(client.get("Summary", c("A1")).unwrap(), n(240.0));

    // Formula + autofill + clear.
    client.set_formula("Data", c("C1"), "=A1*10").unwrap();
    client.autofill("Data", c("C1"), Range::parse_a1("C2:C6").unwrap()).unwrap();
    assert_eq!(client.get("Data", c("C4")).unwrap(), n(40.0));
    client.clear_range("Data", Range::parse_a1("C1:C6").unwrap()).unwrap();
    assert_eq!(client.get("Data", c("C4")).unwrap(), Value::Empty);

    // Queries hop sheets.
    let deps = client.dependents("Data", Range::parse_a1("A2").unwrap()).unwrap();
    assert!(deps.iter().any(|(s, r)| s == "Summary" && r.contains_cell(c("A1"))), "{deps:?}");
    let precs = client.precedents("Summary", Range::parse_a1("A1").unwrap()).unwrap();
    assert!(precs.iter().any(|(s, _)| s == "Data"), "{precs:?}");

    // Counters.
    assert_eq!(client.dirty_count().unwrap(), 0);
    let evaluated = client.recalc().unwrap();
    assert_eq!(evaluated, 0, "nothing left dirty after published writes");
    let stats = client.stats().unwrap();
    assert_eq!(stats.sheets, 2);
    // set_value + set_formula + autofill + clear_range.
    assert_eq!(stats.edits, 4, "{stats:?}");
    assert_eq!(stats.sessions, 1);

    // Bad requests are typed, not fatal: the connection keeps working.
    assert!(matches!(client.get("Nope", c("A1")), Err(ServiceError::NoSuchSheet(_))));
    assert!(matches!(client.set_formula("Data", c("D1"), "=)("), Err(ServiceError::BadRequest(_))));
    assert_eq!(client.get("Data", c("B1")).unwrap(), n(120.0));

    client.close().unwrap();
    server.shutdown();
    registry.shutdown();
}

#[test]
fn demand_driven_reads_over_the_wire() {
    // Register the workbook *dirty*: three formulae await recalculation,
    // only two of which feed the viewport.
    let mut wb = Workbook::with_taco();
    let data = wb.add_sheet("Data").unwrap();
    for row in 1..=6u32 {
        wb.set_value(data, Cell::new(1, row), n(f64::from(row)));
    }
    wb.set_formula(data, c("B1"), "=SUM(A1:A6)").unwrap();
    wb.set_formula(data, c("B2"), "=B1+1").unwrap();
    wb.set_formula(data, c("D9"), "=A1*100").unwrap();

    // The full-recalc reference for the same build.
    let mut reference = Workbook::with_taco();
    let rd = reference.add_sheet("Data").unwrap();
    for row in 1..=6u32 {
        reference.set_value(rd, Cell::new(1, row), n(f64::from(row)));
    }
    reference.set_formula(rd, c("B1"), "=SUM(A1:A6)").unwrap();
    reference.set_formula(rd, c("B2"), "=B1+1").unwrap();
    reference.set_formula(rd, c("D9"), "=A1*100").unwrap();
    reference.recalculate(RecalcMode::Serial);

    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("lazy", wb, None).unwrap();
    let server = serve(Arc::clone(&registry));
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.open("lazy", None, None).unwrap();
    assert_eq!(client.dirty_count().unwrap(), 3);

    // A fresh viewport read demand-recalcs B1 and B2 but defers D9,
    // and the values match the full-recalc reference bit for bit.
    let viewport = Range::parse_a1("A1:B4").unwrap();
    let cells = client.get_range_fresh("Data", viewport).unwrap();
    for (cell, value) in &cells {
        assert_eq!(*value, reference.value(rd, *cell), "viewport cell {cell:?}");
    }
    assert!(cells.iter().any(|(cl, v)| *cl == c("B1") && *v == n(21.0)), "{cells:?}");
    assert!(cells.iter().any(|(cl, v)| *cl == c("B2") && *v == n(22.0)), "{cells:?}");
    assert_eq!(client.dirty_count().unwrap(), 1, "D9 stays lazily dirty");
    assert_eq!(client.get("Data", c("D9")).unwrap(), Value::Empty, "snapshot still stale");

    // RecalcRange against D9's corner evaluates exactly the deferred cell.
    let evaluated = client.recalc_range("Data", Range::parse_a1("D1:D9").unwrap()).unwrap();
    assert_eq!(evaluated, 1);
    assert_eq!(client.get("Data", c("D9")).unwrap(), n(100.0));
    assert_eq!(client.dirty_count().unwrap(), 0);

    // Convergence: a follow-up full recalc has nothing left to do.
    assert_eq!(client.recalc().unwrap(), 0);
    server.shutdown();
    registry.shutdown();
}

#[test]
fn writes_on_one_connection_are_visible_on_another() {
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("shared", demo_workbook(), None).unwrap();
    let server = serve(Arc::clone(&registry));

    let mut writer = TcpClient::connect(server.local_addr()).unwrap();
    writer.open("shared", None, None).unwrap();
    let mut reader = TcpClient::connect(server.local_addr()).unwrap();
    reader.open("shared", None, None).unwrap();

    writer.set_value("Data", c("A6"), n(60.0)).unwrap();
    // The write's reply means its batch was published: the other
    // connection's next snapshot read sees it.
    assert_eq!(reader.get("Data", c("A6")).unwrap(), n(60.0));
    assert_eq!(reader.get("Data", c("B1")).unwrap(), n(75.0));
    server.shutdown();
    registry.shutdown();
}

#[test]
fn scoped_sessions_cannot_reach_or_observe_foreign_sheets() {
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("sales", demo_workbook(), None).unwrap();
    let server = serve(Arc::clone(&registry));

    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    let sheets = client.open("sales", None, Some(&["Data"])).unwrap();
    assert_eq!(sheets, vec!["Data".to_string()]);
    assert!(matches!(client.get("Summary", c("A1")), Err(ServiceError::OutOfScope(_))));
    assert!(matches!(
        client.set_value("Summary", c("A9"), n(1.0)),
        Err(ServiceError::OutOfScope(_))
    ));
    // Dependents of Data!A1 include Summary!A1 — filtered out of a scoped
    // session's view.
    let deps = client.dependents("Data", Range::parse_a1("A1").unwrap()).unwrap();
    assert!(deps.iter().all(|(s, _)| s == "Data"), "scope must filter results: {deps:?}");
    server.shutdown();
    registry.shutdown();
}

#[test]
fn structural_rewrites_and_ref_errors_over_the_wire() {
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("sales", demo_workbook(), None).unwrap();
    let server = serve(Arc::clone(&registry));

    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.open("sales", None, None).unwrap();

    // Inserting rows on Data shifts its rollup from B1 to B4; the
    // cross-sheet reference in Summary follows, so the value is stable.
    client.insert_rows("Data", 1, 3).unwrap();
    assert_eq!(client.get("Data", c("B4")).unwrap(), n(21.0));
    assert_eq!(client.get("Summary", c("A1")).unwrap(), n(42.0));
    let precs = client.precedents("Summary", Range::parse_a1("A1").unwrap()).unwrap();
    assert!(
        precs.iter().any(|(s, r)| s == "Data" && r.contains_cell(c("B4"))),
        "rewritten reference must point at the shifted cell: {precs:?}"
    );

    // Deleting the row that holds the referenced cell leaves `#REF!`
    // behind: the referrer evaluates to the reference error.
    client.delete_rows("Data", 4, 1).unwrap();
    assert_eq!(client.get("Summary", c("A1")).unwrap(), Value::Error(CellError::Ref));

    // Column edits work symmetrically and the connection stays healthy.
    // (Row 4 now holds the first surviving data value, 2.0.)
    client.insert_cols("Data", 1, 2).unwrap();
    assert_eq!(client.get("Data", c("C4")).unwrap(), n(2.0));
    client.delete_cols("Data", 1, 2).unwrap();
    assert_eq!(client.get("Data", c("A4")).unwrap(), n(2.0));

    server.shutdown();
    registry.shutdown();
}

/// The acceptance script: values, formulas, and all four structural
/// kinds, hitting both sheets (indices: 0 = Data, 1 = Summary).
fn structural_acceptance_script() -> Vec<EditRecord> {
    vec![
        EditRecord::SetValue { sheet: 0, cell: c("A1"), value: n(10.0) },
        EditRecord::Structural { sheet: 0, op: StructuralOp::InsertRows { at: 2, n: 3 } },
        EditRecord::SetFormula { sheet: 1, cell: c("B2"), src: "=Data!A5*4".into() },
        EditRecord::Structural { sheet: 0, op: StructuralOp::InsertCols { at: 1, n: 1 } },
        EditRecord::SetValue { sheet: 0, cell: c("B2"), value: n(-3.0) },
        EditRecord::Structural { sheet: 1, op: StructuralOp::InsertRows { at: 1, n: 2 } },
        EditRecord::Structural { sheet: 0, op: StructuralOp::DeleteRows { at: 5, n: 1 } },
        EditRecord::Structural { sheet: 0, op: StructuralOp::DeleteCols { at: 1, n: 1 } },
        EditRecord::SetValue { sheet: 0, cell: c("A2"), value: n(8.0) },
    ]
}

/// Runs one record through a TCP client (sheet index → name).
fn run_record(client: &mut TcpClient, names: &[&str], rec: &EditRecord) {
    match rec {
        EditRecord::SetValue { sheet, cell, value } => {
            client.set_value(names[*sheet as usize], *cell, value.clone()).unwrap();
        }
        EditRecord::SetFormula { sheet, cell, src } => {
            client.set_formula(names[*sheet as usize], *cell, src).unwrap();
        }
        EditRecord::ClearRange { sheet, range } => {
            client.clear_range(names[*sheet as usize], *range).unwrap();
        }
        EditRecord::Structural { sheet, op } => {
            let s = names[*sheet as usize];
            match *op {
                StructuralOp::InsertRows { at, n } => client.insert_rows(s, at, n).unwrap(),
                StructuralOp::DeleteRows { at, n } => client.delete_rows(s, at, n).unwrap(),
                StructuralOp::InsertCols { at, n } => client.insert_cols(s, at, n).unwrap(),
                StructuralOp::DeleteCols { at, n } => client.delete_cols(s, at, n).unwrap(),
            };
        }
        EditRecord::AddSheet { .. } => unreachable!("script has no AddSheet"),
    }
}

/// Sorted `(cell, value)` pairs of one sheet read over the wire.
fn wire_cells(client: &mut TcpClient, sheet: &str) -> Vec<(Cell, Value)> {
    client.get_range(sheet, Range::from_coords(1, 1, 24, 96)).unwrap()
}

/// Sorted `(cell, value)` pairs of one bare sheet.
fn bare_cells(wb: &Workbook, sheet: usize) -> Vec<(Cell, Value)> {
    let mut cells: Vec<(Cell, Value)> =
        wb.sheet(SheetId(sheet)).cells().map(|(cl, k)| (cl, k.value().clone())).collect();
    cells.sort_unstable_by_key(|(cl, _)| (cl.row, cl.col));
    cells
}

#[test]
fn structural_script_over_tcp_and_through_crash_reopen_matches_serial() {
    let names = ["Data", "Summary"];
    let script = structural_acceptance_script();

    // The in-process serial reference.
    let mut reference = demo_workbook();
    for rec in &script {
        reference.apply_edit(rec).expect("reference edit applies");
    }
    reference.recalculate(RecalcMode::Serial);

    // Run 1: the whole script over TCP against a plain workbook.
    {
        let registry = Arc::new(Registry::new(ServiceOptions::default()));
        registry.add_workbook("live", demo_workbook(), None).unwrap();
        let server = serve(Arc::clone(&registry));
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        client.open("live", None, None).unwrap();
        for rec in &script {
            run_record(&mut client, &names, rec);
        }
        client.recalc().unwrap();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                wire_cells(&mut client, name),
                bare_cells(&reference, i),
                "TCP run must be bit-identical to the serial run ({name})"
            );
        }
        server.shutdown();
        registry.shutdown();
    }

    // Run 2: the same script with a crash in the middle — the first half
    // goes over TCP into a persistent backing, the server dies without
    // folding the WAL, and a reopened server takes the second half.
    let path =
        std::env::temp_dir().join(format!("taco_tcp_structural_crash_{}.taco", std::process::id()));
    let wal = taco_engine::wal_path(&path);
    let split = script.len() / 2;
    {
        let pw = PersistentWorkbook::create(
            &path,
            demo_workbook(),
            PersistOptions { compact_after_records: 0, sync_every_records: 1 },
        )
        .unwrap();
        let registry = Arc::new(Registry::new(ServiceOptions::default()));
        registry.add_persistent("durable", pw, None).unwrap();
        let server = serve(Arc::clone(&registry));
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        client.open("durable", None, None).unwrap();
        for rec in &script[..split] {
            run_record(&mut client, &names, rec);
        }
        // Crash: no Save request, so nothing is folded into the snapshot
        // — recovery must come from WAL replay alone.
        server.shutdown();
        registry.shutdown();
    }
    {
        let pw = PersistentWorkbook::open(
            &path,
            PersistOptions { compact_after_records: 0, sync_every_records: 1 },
        )
        .expect("reopen after crash");
        let registry = Arc::new(Registry::new(ServiceOptions::default()));
        registry.add_persistent("durable", pw, None).unwrap();
        let server = serve(Arc::clone(&registry));
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        client.open("durable", None, None).unwrap();
        for rec in &script[split..] {
            run_record(&mut client, &names, rec);
        }
        client.recalc().unwrap();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                wire_cells(&mut client, name),
                bare_cells(&reference, i),
                "crash + WAL reopen must converge to the serial run ({name})"
            );
        }
        server.shutdown();
        registry.shutdown();
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
}

#[test]
fn structural_requests_respect_session_scope() {
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("sales", demo_workbook(), None).unwrap();
    let server = serve(Arc::clone(&registry));

    let mut scoped = TcpClient::connect(server.local_addr()).unwrap();
    scoped.open("sales", None, Some(&["Data"])).unwrap();
    // Out-of-scope sheets cannot be structurally edited…
    assert!(matches!(scoped.insert_rows("Summary", 1, 1), Err(ServiceError::OutOfScope(_))));
    assert!(matches!(scoped.delete_cols("Summary", 1, 1), Err(ServiceError::OutOfScope(_))));
    // …but an in-scope edit goes through, and its workbook-wide rewrite
    // keeps the (out-of-scope) referrer consistent.
    scoped.insert_rows("Data", 1, 3).unwrap();
    assert_eq!(scoped.get("Data", c("B4")).unwrap(), n(21.0));
    assert!(matches!(scoped.get("Summary", c("A1")), Err(ServiceError::OutOfScope(_))));

    let mut unscoped = TcpClient::connect(server.local_addr()).unwrap();
    unscoped.open("sales", None, None).unwrap();
    assert_eq!(unscoped.get("Summary", c("A1")).unwrap(), n(42.0));

    server.shutdown();
    registry.shutdown();
}

#[test]
fn save_folds_the_wal_over_the_wire() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("taco_service_tcp_save_{}.taco", std::process::id()));
    let wal = taco_engine::wal_path(&path);
    {
        let pw = PersistentWorkbook::create(
            &path,
            demo_workbook(),
            PersistOptions { compact_after_records: 0, sync_every_records: 1 },
        )
        .unwrap();
        let registry = Arc::new(Registry::new(ServiceOptions::default()));
        registry.add_persistent("durable", pw, None).unwrap();
        let server = serve(Arc::clone(&registry));

        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        client.open("durable", None, None).unwrap();
        for i in 0..5u32 {
            client.set_value("Data", Cell::new(4, i + 1), n(f64::from(i))).unwrap();
        }
        let remaining = client.save().unwrap();
        assert_eq!(remaining, 0, "save must fold the WAL into the snapshot");
        server.shutdown();
        registry.shutdown();
    }
    // The snapshot alone (WAL folded) carries the edits.
    let reopened = Workbook::open(&path).unwrap();
    assert_eq!(reopened.value(SheetId(0), Cell::new(4, 5)), n(4.0));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
}

#[test]
fn far_corner_cells_over_the_wire_stay_cheap() {
    use std::time::{Duration, Instant};
    use taco_grid::{MAX_COL, MAX_ROW};

    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("sales", demo_workbook(), None).unwrap();
    let server = serve(Arc::clone(&registry));
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.open("sales", None, None).unwrap();

    // Each write is applied, recalculated and published before the reply:
    // none of it may cost the grid's size.
    let quick = |what: &str, start: Instant| {
        assert!(start.elapsed() < Duration::from_secs(1), "{what} took {:?}", start.elapsed());
    };
    let corners = [Cell::new(MAX_COL, MAX_ROW), Cell::new(1, MAX_ROW), Cell::new(MAX_COL, 1)];
    for (i, &cell) in corners.iter().enumerate() {
        let start = Instant::now();
        client.set_value("Data", cell, n(i as f64 + 1.0)).unwrap();
        quick("set_value", start);
        assert_eq!(client.get("Data", cell).unwrap(), n(i as f64 + 1.0));
    }
    let start = Instant::now();
    let src = format!("=SUM(XFD{}:XFD{MAX_ROW})+XFD1+A{MAX_ROW}", MAX_ROW - 1000);
    client.set_formula("Data", c("D1"), &src).unwrap();
    quick("set_formula", start);
    assert_eq!(client.get("Data", c("D1")).unwrap(), n(6.0));
    let far = Range::from_coords(MAX_COL - 1, MAX_ROW - 1, MAX_COL, MAX_ROW);
    assert_eq!(client.get_range("Data", far).unwrap(), vec![(corners[0], n(1.0))]);

    let start = Instant::now();
    client.clear_range("Data", Range::from_coords(1, 2, MAX_COL, MAX_ROW)).unwrap();
    quick("clear_range", start);
    assert_eq!(client.get("Data", corners[0]).unwrap(), Value::Empty);
    assert_eq!(client.get("Data", c("D1")).unwrap(), n(3.0));
    assert_eq!(client.get("Data", c("B1")).unwrap(), n(1.0), "=SUM(A1:A6) after A2:A6 went");

    server.shutdown();
    registry.shutdown();
}

/// The request that used to abort the process: neither parser nor
/// evaluator bounded nesting, and a connection thread has a 2 MiB stack.
/// Each shape must answer a typed error, and both the same connection
/// and a fresh one must be served afterwards.
#[test]
fn hostile_nesting_is_a_typed_error_and_the_server_keeps_serving() {
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("sales", demo_workbook(), None).unwrap();
    let server = serve(Arc::clone(&registry));
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.open("sales", None, None).unwrap();

    for levels in [1_000, 100_000] {
        for src in [
            format!("={}1{}", "(".repeat(levels), ")".repeat(levels)),
            format!("={}1{}", "ABS(".repeat(levels), ")".repeat(levels)),
            format!("=1{}", "+1".repeat(levels)),
            format!("={}1", "-".repeat(levels)),
        ] {
            let shape = &src[..6];
            match client.set_formula("Data", c("D1"), &src) {
                Err(ServiceError::BadRequest(why)) => {
                    assert!(why.contains("deeper"), "{shape}… × {levels}: {why}");
                }
                other => panic!("{shape}… × {levels}: {other:?}"),
            }
            assert_eq!(client.get("Data", c("B1")).unwrap(), n(21.0), "same connection");
            let mut second = TcpClient::connect(server.local_addr()).unwrap();
            second.open("sales", None, None).unwrap();
            second.set_formula("Data", c("D1"), "=B1+1").unwrap();
            assert_eq!(second.get("Data", c("D1")).unwrap(), n(22.0), "second connection");
            second.close().unwrap();
        }
    }
    assert_eq!(client.stats().unwrap().edits, 8, "only the good formulas were applied");

    client.close().unwrap();
    server.shutdown();
    registry.shutdown();
}

// ---- persistent autofill ------------------------------------------------

/// Rows of the fill fixture: the source cell plus 69 filled ones.
const FILL_ROWS: u32 = 70;
/// Relative, `$`-mixed and sheet-qualified references, one of them a
/// cross-sheet expanding range.
const FILL_SRC: &str = "=Data!A1*$B1+B$1+D1+SUM(Data!$A$1:A1)";

fn fill_targets() -> Range {
    // The source cell sits inside its own targets.
    Range::from_coords(3, 1, 3, FILL_ROWS)
}

/// Inputs for [`FILL_SRC`] on `Summary!C1`: `Data!A`, `Summary!B`, `Summary!D`.
fn fill_workbook() -> Workbook {
    let mut wb = Workbook::with_taco();
    let data = wb.add_sheet("Data").unwrap();
    let summary = wb.add_sheet("Summary").unwrap();
    for row in 1..=FILL_ROWS {
        let x = f64::from(row);
        wb.set_value(data, Cell::new(1, row), n(x * 1.5 + 0.1));
        wb.set_value(summary, Cell::new(2, row), n(x / 7.0));
        wb.set_value(summary, Cell::new(4, row), n(100.0 - x));
    }
    wb.recalculate(RecalcMode::Serial);
    wb
}

/// The oracle: formula, fill through [`Workbook::autofill`] (the AST
/// route, which never prints a formula to parse it back), then a value
/// edit upstream of every filled cell.
fn filled_mirror() -> Workbook {
    let mut mirror = fill_workbook();
    mirror.set_formula(SheetId(1), c("C1"), FILL_SRC).unwrap();
    mirror.autofill(SheetId(1), c("C1"), fill_targets()).unwrap();
    mirror.set_value(SheetId(0), c("A3"), n(1000.5));
    mirror.recalculate(RecalcMode::Serial);
    mirror
}

/// Numbers as their bit patterns, so that equal means bit-identical.
fn bitwise(cells: Vec<(Cell, Value)>) -> Vec<(Cell, Result<u64, Value>)> {
    let bits = |v| match v {
        Value::Number(x) => Ok(x.to_bits()),
        other => Err(other),
    };
    cells.into_iter().map(|(cl, v)| (cl, bits(v))).collect()
}

/// `got` holds exactly `want`'s cells: values bit for bit, formula texts
/// included.
fn assert_same_book(got: &Workbook, want: &Workbook, what: &str) {
    assert_eq!(got.sheet_count(), want.sheet_count(), "{what}");
    for i in 0..want.sheet_count() {
        assert_eq!(bitwise(bare_cells(got, i)), bitwise(bare_cells(want, i)), "{what}: sheet {i}");
        for (cell, _) in want.sheet(SheetId(i)).cells() {
            assert_eq!(
                got.formula_of(SheetId(i), cell),
                want.formula_of(SheetId(i), cell),
                "{what}: formula text of sheet {i} {cell}"
            );
        }
    }
}

fn wal_fsyncs(client: &mut TcpClient) -> u64 {
    client.metrics().unwrap().counter("taco_wal_fsyncs_total").expect("WAL instrumented")
}

/// A served autofill is logged as the batch of formulas it produced: the
/// published cells equal the AST-route mirror, the request costs **one**
/// fsync under `sync_every_records: 1` (not one per filled cell), and a
/// crash without `Save` reopens to the live cells from the WAL alone.
#[test]
fn persistent_autofill_is_one_logged_batch_and_reopens_bit_for_bit() {
    let path = std::env::temp_dir().join(format!("taco_tcp_autofill_{}.taco", std::process::id()));
    let wal = taco_engine::wal_path(&path);
    let mirror = filled_mirror();
    let live: Vec<Vec<(Cell, Value)>>;
    {
        let pw =
            PersistentWorkbook::create(&path, fill_workbook(), PersistOptions::default()).unwrap();
        let registry = Arc::new(Registry::new(ServiceOptions::default()));
        registry.add_persistent("durable", pw, None).unwrap();
        let server = serve(Arc::clone(&registry));
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        client.open("durable", None, None).unwrap();

        client.set_formula("Summary", c("C1"), FILL_SRC).unwrap();
        let before = wal_fsyncs(&mut client);
        client.autofill("Summary", c("C1"), fill_targets()).unwrap();
        assert_eq!(
            wal_fsyncs(&mut client) - before,
            1,
            "one acknowledged request is one durability decision"
        );
        client.set_value("Data", c("A3"), n(1000.5)).unwrap();
        assert_eq!(client.stats().unwrap().edits, 3, "a fill counts as one edit");

        live = ["Data", "Summary"].iter().map(|name| wire_cells(&mut client, name)).collect();
        for (i, cells) in live.iter().enumerate() {
            assert_eq!(
                bitwise(cells.clone()),
                bitwise(bare_cells(&mirror, i)),
                "records route must publish what the AST route computes (sheet {i})"
            );
        }
        assert!(live[1].len() as u32 >= 3 * FILL_ROWS, "the filled column is published");

        // Crash: no Save, so the snapshot on disk predates every edit.
        server.shutdown();
        registry.shutdown();
    }
    let mut reopened = Workbook::open(&path).expect("reopen from snapshot + WAL");
    reopened.recalculate(RecalcMode::Serial);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
    for (i, cells) in live.into_iter().enumerate() {
        assert_eq!(bitwise(bare_cells(&reopened, i)), bitwise(cells), "reopened sheet {i}");
    }
    assert_same_book(&reopened, &mirror, "reopened vs mirror");
}

/// The disk fills in the middle of a fill's records: the request is
/// answered with the typed `Degraded` error a failed batch gives, the
/// live workbook (ahead of its log) keeps serving the whole fill, and a
/// `Save` after storage recovers heals log and snapshot.
#[test]
fn autofill_failing_mid_log_degrades_like_a_batch_and_save_heals() {
    let fv = FaultVfs::pristine(19);
    let disk: Arc<dyn Vfs> = Arc::new(fv.clone());
    let path = std::path::Path::new("book.taco");
    let wal = taco_engine::wal_path(path);
    let pw = PersistentWorkbook::create_with(
        Arc::clone(&disk),
        path,
        fill_workbook(),
        PersistOptions::default(),
    )
    .unwrap();
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_persistent("durable", pw, None).unwrap();
    let server = serve(Arc::clone(&registry));
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.open("durable", None, None).unwrap();
    client.set_formula("Summary", c("C1"), FILL_SRC).unwrap();

    // Nothing was truncated or rewritten yet, so every byte written so
    // far sits in one of the two files; 1 kB more holds some of the
    // fill's 69 records (a few dozen bytes each) and not all of them.
    let logged = |disk: &dyn Vfs| {
        WalReader::load_with(disk, &wal, ReplayMode::Strict).unwrap().records.len()
    };
    let written = (disk.read(path).unwrap().len() + disk.read(&wal).unwrap().len()) as u64;
    let logged_before = logged(disk.as_ref());
    fv.set_plan(FaultPlan { disk_capacity: Some(written + 1024), ..FaultPlan::none(19) });

    let err = client.autofill("Summary", c("C1"), fill_targets()).unwrap_err();
    let full = StoreError::Io { kind: std::io::ErrorKind::StorageFull };
    assert_eq!(err, ServiceError::Degraded(format!("wal append failed: {full}")));
    let in_log = logged(disk.as_ref()) - logged_before;
    assert!(0 < in_log && in_log < 69, "the append must fail mid-fill, {in_log} records in");
    // Sticky, like any degraded workbook…
    assert_eq!(client.set_value("Data", c("A3"), n(1000.5)).unwrap_err(), err);
    assert_eq!(client.stats().unwrap().degraded, 1);
    // …while the live workbook, ahead of its log, serves the whole fill.
    let mut mirror = fill_workbook();
    mirror.set_formula(SheetId(1), c("C1"), FILL_SRC).unwrap();
    mirror.autofill(SheetId(1), c("C1"), fill_targets()).unwrap();
    mirror.recalculate(RecalcMode::Serial);
    assert_eq!(bitwise(wire_cells(&mut client, "Summary")), bitwise(bare_cells(&mirror, 1)));

    // Storage recovers: Save rewrites the snapshot from the live state.
    fv.set_plan(FaultPlan::none(19));
    assert_eq!(client.save().unwrap(), 0);
    assert_eq!(client.stats().unwrap().degraded, 0);
    client.set_value("Data", c("A3"), n(1000.5)).unwrap();
    server.shutdown();
    registry.shutdown();

    let mut reopened = Workbook::open_with(disk, path).expect("reopen healed store");
    reopened.recalculate(RecalcMode::Serial);
    assert_same_book(&reopened, &filled_mirror(), "healed store vs mirror");
}
