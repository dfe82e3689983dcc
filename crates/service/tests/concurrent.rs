//! The service layer's concurrent property tests (the PR's acceptance
//! criteria):
//!
//! 1. K client threads issuing interleaved reads and writes against one
//!    workbook through the service yield, after quiesce, cell values
//!    **bit-identical** to the same edit script applied serially to a
//!    bare [`Workbook`];
//! 2. the coalescing writer agrees with a bare workbook recalculated
//!    after every single write — and never runs more recalculations;
//! 3. a server backed by a [`PersistentWorkbook`] killed mid-script
//!    reopens to a clean **prefix** of the applied edits (per-client
//!    order preserved).
//!
//! The scripts come from `taco_workload::service`: per-client writes are
//! confined to client-owned columns (so every interleaving commutes),
//! while formulas deliberately read other clients' columns, the shared
//! data column, and the TACO-compressed rollup columns.

use std::sync::Arc;
use taco_engine::{PersistOptions, PersistentWorkbook, RecalcMode, SheetId, Workbook};
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_service::{InProcClient, Registry, ServiceOptions, TcpClient};
use taco_service::{Server, ServerOptions, Transport};
use taco_store::{EditRecord, ReplayMode, WalReader};
use taco_workload::service::{
    client_value_col, gen_service_script, mixed, writer_heavy, ClientOp, ServiceScript,
    ServiceScriptParams,
};

/// Builds the script's shared workbook (setup applied, recalculated).
fn setup_workbook(script: &ServiceScript) -> Workbook {
    let mut wb = Workbook::with_taco();
    for rec in &script.setup {
        wb.apply_edit(rec).expect("setup applies");
    }
    wb.recalculate(RecalcMode::Serial);
    wb
}

/// The serial reference: setup + the flattened client writes on a bare
/// workbook, fully recalculated.
fn serial_reference(script: &ServiceScript) -> Workbook {
    let mut wb = setup_workbook(script);
    for rec in &script.serial_writes() {
        wb.apply_edit(rec).expect("serial write applies");
    }
    wb.recalculate(RecalcMode::Serial);
    wb
}

/// Sorted `(cell, value)` pairs of one bare sheet.
fn bare_cells(wb: &Workbook) -> Vec<(Cell, Value)> {
    let mut cells: Vec<(Cell, Value)> =
        wb.sheet(SheetId(0)).cells().map(|(c, k)| (c, k.value().clone())).collect();
    cells.sort_unstable_by_key(|(c, _)| (c.row, c.col));
    cells
}

/// Runs one op through a client, tolerating no errors (the scripts are
/// valid by construction).
fn run_op<T: Transport>(client: &mut taco_service::Client<T>, sheet: &str, op: &ClientOp) {
    let r: Result<(), taco_service::ServiceError> = match op {
        ClientOp::Get { cell } => client.get(sheet, *cell).map(drop),
        ClientOp::GetRange { range } => client.get_range(sheet, *range).map(drop),
        ClientOp::Dependents { range } => client.dependents(sheet, *range).map(drop),
        ClientOp::Precedents { range } => client.precedents(sheet, *range).map(drop),
        ClientOp::DirtyCount => client.dirty_count().map(drop),
        ClientOp::SetValue { cell, value } => {
            client.set_value(sheet, *cell, Value::Number(*value)).map(drop)
        }
        ClientOp::SetFormula { cell, src } => client.set_formula(sheet, *cell, src).map(drop),
        ClientOp::ClearRange { range } => client.clear_range(sheet, *range).map(drop),
        ClientOp::Recalc => client.recalc().map(drop),
    };
    r.unwrap_or_else(|e| panic!("script op {op:?} failed: {e}"));
}

/// Drives the script's clients on real threads against `registry`, then
/// quiesces. Returns the service's final sorted cell state.
fn run_in_process(registry: &Arc<Registry>, script: &ServiceScript) -> Vec<(Cell, Value)> {
    std::thread::scope(|s| {
        for ops in &script.clients {
            let reg = Arc::clone(registry);
            s.spawn(move || {
                let mut client = InProcClient::in_process(reg);
                client.open("book", None, None).expect("open");
                for op in ops {
                    run_op(&mut client, &script.sheet, op);
                }
                client.close().expect("close");
            });
        }
    });
    let mut client = InProcClient::in_process(Arc::clone(registry));
    client.open("book", None, None).expect("open");
    client.recalc().expect("quiesce");
    let snap = registry.snapshot("book").expect("snapshot");
    assert_eq!(snap.dirty, 0, "quiesced service must have nothing dirty");
    snap.cells_in(0, Range::from_coords(1, 1, 64, 1024))
}

#[test]
fn concurrent_clients_match_serial_application() {
    for p in [mixed(), writer_heavy()] {
        let script = gen_service_script(&p);
        let registry = Arc::new(Registry::new(ServiceOptions::default()));
        registry.add_workbook("book", setup_workbook(&script), None).unwrap();
        let got = run_in_process(&registry, &script);
        let want = bare_cells(&serial_reference(&script));
        assert_eq!(
            got, want,
            "{}: concurrent service state must be bit-identical to the serial script",
            p.name
        );
    }
}

#[test]
fn batched_and_unbatched_agree_and_batching_never_recalcs_more() {
    let script = gen_service_script(&writer_heavy());
    // Unbatched: a bare workbook recalculated after every single write.
    let mut unbatched = setup_workbook(&script);
    let writes = script.serial_writes();
    for rec in &writes {
        unbatched.apply_edit(rec).expect("serial write applies");
        unbatched.recalculate(RecalcMode::Serial);
    }

    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("book", setup_workbook(&script), None).unwrap();
    let batched = run_in_process(&registry, &script);
    let mut client = InProcClient::in_process(Arc::clone(&registry));
    client.open("book", None, None).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.edits, writes.len() as u64, "every write must be counted once");
    assert_eq!(batched, bare_cells(&unbatched), "batched and unbatched final states must agree");
    // One recalculation per write, per explicit `Recalc`, and the quiesce.
    let recalc_ops =
        script.clients.iter().flatten().filter(|op| matches!(op, ClientOp::Recalc)).count();
    let unbatched_recalcs = (writes.len() + recalc_ops + 1) as u64;
    assert!(
        stats.recalcs <= unbatched_recalcs,
        "batched recalc count ({}) must not exceed unbatched ({unbatched_recalcs})",
        stats.recalcs
    );
}

#[test]
fn tcp_clients_match_serial_application() {
    // The same property over the wire, with a smaller script (each op is
    // a full request/response round trip).
    let p = ServiceScriptParams { clients: 3, ops_per_client: 60, ..mixed() };
    let script = gen_service_script(&p);
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("book", setup_workbook(&script), None).unwrap();
    let server =
        Server::start(Arc::clone(&registry), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let addr = server.local_addr();

    std::thread::scope(|s| {
        let script = &script;
        for ops in &script.clients {
            s.spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
                client.open("book", None, None).expect("open");
                for op in ops {
                    run_op(&mut client, &script.sheet, op);
                }
                client.close().expect("close");
            });
        }
    });

    let mut client = TcpClient::connect(addr).expect("connect");
    client.open("book", None, None).expect("open");
    client.recalc().expect("quiesce");
    let got = client.get_range(&script.sheet, Range::from_coords(1, 1, 64, 1024)).expect("read");
    let want = bare_cells(&serial_reference(&script));
    assert_eq!(got, want, "TCP concurrent state must match the serial script");
    server.shutdown();
    registry.shutdown();
}

#[test]
fn persistent_server_killed_mid_script_reopens_to_a_clean_prefix() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("taco_service_crash_{}.taco", std::process::id()));
    let wal = taco_engine::wal_path(&path);
    let p = ServiceScriptParams { clients: 4, ops_per_client: 80, ..writer_heavy() };
    let script = gen_service_script(&p);

    {
        let pw = PersistentWorkbook::create(
            &path,
            setup_workbook(&script),
            // No compaction: the WAL keeps the whole applied edit order,
            // which is what the prefix check below inspects.
            PersistOptions { compact_after_records: 0, sync_every_records: 1 },
        )
        .unwrap();
        let registry = Arc::new(Registry::new(ServiceOptions::default()));
        registry.add_persistent("book", pw, None).unwrap();

        // Kill the server partway through the script: a killer thread
        // pulls the plug while the clients are still writing. Clients
        // tolerate ShuttingDown from that point on.
        std::thread::scope(|s| {
            let script = &script;
            for ops in &script.clients {
                let reg = Arc::clone(&registry);
                s.spawn(move || {
                    let mut client = InProcClient::in_process(reg);
                    if client.open("book", None, None).is_err() {
                        return;
                    }
                    for op in ops {
                        let r = match op {
                            ClientOp::SetValue { cell, value } => {
                                client.set_value(&script.sheet, *cell, Value::Number(*value))
                            }
                            ClientOp::SetFormula { cell, src } => {
                                client.set_formula(&script.sheet, *cell, src)
                            }
                            ClientOp::ClearRange { range } => {
                                client.clear_range(&script.sheet, *range)
                            }
                            _ => continue,
                        };
                        if r.is_err() {
                            return; // the plug was pulled
                        }
                    }
                });
            }
            let reg = Arc::clone(&registry);
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(15));
                reg.shutdown();
            });
        });
    }

    // Simulate the kill also tearing the final WAL record.
    let bytes = std::fs::read(&wal).unwrap();
    if bytes.len() > 8 {
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
    }

    // What survived must be a per-client prefix of the script, in each
    // client's issue order.
    let replay = WalReader::load(&wal, ReplayMode::TolerateTear).unwrap();
    for (k, ops) in script.clients.iter().enumerate() {
        let vcol = client_value_col(k);
        let mine = |rec: &&EditRecord| match rec {
            EditRecord::SetValue { cell, .. } | EditRecord::SetFormula { cell, .. } => {
                cell.col == vcol || cell.col == vcol + 1
            }
            EditRecord::ClearRange { range, .. } => range.head().col == vcol,
            EditRecord::AddSheet { .. } | EditRecord::Structural { .. } => false,
        };
        let recorded: Vec<&EditRecord> = replay.records.iter().filter(mine).collect();
        let issued: Vec<EditRecord> = ops
            .iter()
            .filter_map(|op| match op {
                ClientOp::SetValue { cell, value } => Some(EditRecord::SetValue {
                    sheet: 0,
                    cell: *cell,
                    value: Value::Number(*value),
                }),
                ClientOp::SetFormula { cell, src } => {
                    Some(EditRecord::SetFormula { sheet: 0, cell: *cell, src: src.clone() })
                }
                ClientOp::ClearRange { range } => {
                    Some(EditRecord::ClearRange { sheet: 0, range: *range })
                }
                _ => None,
            })
            .collect();
        assert!(recorded.len() <= issued.len(), "client {k}: more edits recorded than issued");
        for (i, rec) in recorded.iter().enumerate() {
            assert_eq!(**rec, issued[i], "client {k}: record {i} out of order — not a prefix");
        }
    }

    // And the reopened workbook must equal the bare workbook with
    // exactly those surviving records applied.
    let mut reopened = Workbook::open(&path).expect("reopen after kill");
    let mut reference = setup_workbook(&script);
    for rec in &replay.records {
        reference.apply_edit(rec).expect("recorded edit applies");
    }
    reopened.recalculate(RecalcMode::Serial);
    reference.recalculate(RecalcMode::Serial);
    assert_eq!(
        bare_cells(&reopened),
        bare_cells(&reference),
        "reopened state must be the clean prefix of the applied edits"
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
}

#[test]
fn snapshot_reads_never_see_torn_batches() {
    // A reader hammering Get while writers run must only ever observe
    // published epochs: the rollup SUM($A$1:A64) and its copy must stay
    // mutually consistent (both from the same epoch) on every read.
    let script = gen_service_script(&ServiceScriptParams {
        clients: 2,
        ops_per_client: 60,
        ..writer_heavy()
    });
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    let mut wb = setup_workbook(&script);
    // Two cells forced equal by construction: Z1 and Z2 both copy A1.
    let z = Cell::new(26, 1);
    let z2 = Cell::new(26, 2);
    wb.set_formula(SheetId(0), z, "=A1*3").unwrap();
    wb.set_formula(SheetId(0), z2, "=A1*3").unwrap();
    wb.recalculate(RecalcMode::Serial);
    registry.add_workbook("book", wb, None).unwrap();

    std::thread::scope(|s| {
        let script = &script;
        // Writers keep changing A1 (a shared setup cell — fine here, the
        // test compares reads against reads, not against a serial
        // reference).
        let reg = Arc::clone(&registry);
        s.spawn(move || {
            let mut client = InProcClient::in_process(reg);
            client.open("book", None, None).unwrap();
            for i in 0..200 {
                client
                    .set_value(&script.sheet, Cell::new(1, 1), Value::Number(f64::from(i)))
                    .unwrap();
            }
        });
        for _ in 0..2 {
            let reg = Arc::clone(&registry);
            let sheet = script.sheet.clone();
            s.spawn(move || {
                let mut client = InProcClient::in_process(reg);
                client.open("book", None, None).unwrap();
                for _ in 0..300 {
                    let cells = client
                        .get_range(&sheet, Range::from_coords(26, 1, 26, 2))
                        .expect("snapshot read");
                    let va = cells.iter().find(|(c, _)| *c == z).map(|(_, v)| v.clone());
                    let vb = cells.iter().find(|(c, _)| *c == z2).map(|(_, v)| v.clone());
                    assert_eq!(va, vb, "one snapshot read must be epoch-consistent");
                }
            });
        }
    });
    registry.shutdown();
}
