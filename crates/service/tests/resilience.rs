//! End-to-end resilience: a TCP client that survives mid-script
//! connection loss through retry + re-open and converges bit-identically
//! to a serial reference; per-request deadlines that bound worker
//! round-trips without touching snapshot reads; and the typed `Degraded`
//! state — entered on a storage fault, visible in `Stats` and the
//! metrics hub, healed by a successful `Save`.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use taco_engine::{PersistOptions, PersistentWorkbook, RecalcMode, Workbook};
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_service::{
    InProcClient, Registry, RetryPolicy, Server, ServerOptions, ServiceError, ServiceOptions,
    TcpClient,
};
use taco_store::{FaultPlan, FaultVfs, Vfs};

/// The acceptance scenario: a scripted edit sequence over TCP, severed
/// twice mid-script by the server dropping every live connection. The
/// retrying client reconnects, re-opens its session, resumes — and the
/// final grid matches a serial reference workbook bit-for-bit.
#[test]
fn tcp_crash_mid_script_retries_and_converges() {
    let reg = Arc::new(Registry::new(ServiceOptions::default()));
    let mut wb = Workbook::with_taco();
    wb.add_sheet("Data").unwrap();
    reg.add_workbook("book", wb, None).unwrap();
    let server = Server::start(Arc::clone(&reg), "127.0.0.1:0", ServerOptions::default()).unwrap();

    let mut reference = Workbook::with_taco();
    let rsheet = reference.add_sheet("Data").unwrap();

    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.set_retry(RetryPolicy {
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(20),
        ..RetryPolicy::default()
    });
    client.open("book", None, None).unwrap();

    for round in 0..3u32 {
        for row in 1..=10u32 {
            let v = f64::from(round * 100 + row);
            client.set_value("Data", Cell::new(1, row), Value::Number(v)).unwrap();
            reference.set_value(rsheet, Cell::new(1, row), Value::Number(v));
        }
        let src = format!("=SUM(A1:A10)+{round}");
        client.set_formula("Data", Cell::new(2, 1), &src).unwrap();
        reference.set_formula(rsheet, Cell::new(2, 1), &src).unwrap();
        // Sever every live connection mid-script. The next call is
        // idempotent, so the client may safely reconnect, re-open, and
        // re-send it; the writes before the cut were all acknowledged.
        server.drop_connections();
        client.recalc().unwrap();
    }
    reference.recalculate(RecalcMode::Serial);

    assert!(client.retries_attempted() > 0, "the severed script must actually have retried");
    let viewport = Range::from_coords(1, 1, 2, 10);
    let cells = client.get_range_fresh("Data", viewport).unwrap();
    assert_eq!(cells.len(), 11, "10 values + 1 formula");
    for (cell, value) in cells {
        assert_eq!(value, reference.value(rsheet, cell), "cell {cell:?} diverged");
    }
    client.close().unwrap();
    server.shutdown();
    reg.shutdown();
}

/// A zero deadline times out every worker round-trip deterministically —
/// while snapshot reads (which never queue) keep answering, and the
/// timed-out write still lands: "deadline exceeded" means *unknown*,
/// not *not applied*.
#[test]
fn zero_deadline_bounds_worker_ops_not_snapshot_reads() {
    let opts = ServiceOptions { deadline: Some(Duration::ZERO), ..ServiceOptions::default() };
    let reg = Arc::new(Registry::new(opts));
    let mut wb = Workbook::with_taco();
    wb.add_sheet("Data").unwrap();
    reg.add_workbook("book", wb, None).unwrap();
    let mut client = InProcClient::in_process(Arc::clone(&reg));
    client.open("book", None, None).unwrap();

    // Tiny one-message round-trips can beat even a zero deadline (the
    // worker replies before the caller polls), so settle them first…
    let _ = client.set_value("Data", Cell::new(1, 1), Value::Number(7.0));
    let _ = client.set_formula("Data", Cell::new(2, 1), "=A1+1");
    assert!(reg.quiesce("book"));

    // …then ask for work that provably outlives a zero deadline: a
    // 20k-cell autofill keeps the worker busy for milliseconds, so the
    // immediate reply poll finds nothing — deterministically.
    let targets = Range::from_coords(2, 2, 2, 20_000);
    let err = client.autofill("Data", Cell::new(2, 1), targets).unwrap_err();
    assert_eq!(err, ServiceError::DeadlineExceeded);
    // A request queued behind the busy worker times out too.
    assert_eq!(client.recalc().unwrap_err(), ServiceError::DeadlineExceeded);

    // Snapshot reads bypass the worker queue entirely.
    client.get("Data", Cell::new(1, 1)).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.deadline_expired >= 2, "got {}", stats.deadline_expired);
    assert_eq!(stats.degraded, 0);

    // Drain the write queue: the timed-out operations were applied
    // anyway — "deadline exceeded" reports unknown fate, not rollback.
    assert!(reg.quiesce("book"));
    assert_eq!(client.get("Data", Cell::new(1, 1)).unwrap(), Value::Number(7.0));
    assert_eq!(client.get("Data", Cell::new(2, 1)).unwrap(), Value::Number(8.0));
    // The fill rebased its relative reference: B20000 = A20000 + 1 over
    // an empty A20000 — a value only the applied autofill could leave.
    assert_eq!(client.get("Data", Cell::new(2, 20_000)).unwrap(), Value::Number(1.0));
    reg.shutdown();
}

/// A WAL append that hits a full disk degrades the workbook: writes are
/// refused with the typed reason, reads keep working, `Stats` and the
/// fleet gauge say so — and once storage recovers, one successful `Save`
/// (which rewrites the snapshot from live state) heals it.
#[test]
fn storage_fault_degrades_workbook_and_save_heals_it() {
    let fv = FaultVfs::pristine(7);
    let disk: Arc<dyn Vfs> = Arc::new(fv.clone());
    let mut wb = Workbook::with_taco();
    wb.add_sheet("Data").unwrap();
    let popts = PersistOptions { compact_after_records: 0, sync_every_records: 1 };
    let pers = PersistentWorkbook::create_with(disk, Path::new("book.taco"), wb, popts).unwrap();

    let reg = Arc::new(Registry::new(ServiceOptions::default()));
    reg.add_persistent("book", pers, None).unwrap();
    let mut client = InProcClient::in_process(Arc::clone(&reg));
    client.open("book", None, None).unwrap();

    client.set_value("Data", Cell::new(1, 1), Value::Number(1.0)).unwrap();
    assert!(reg.quiesce("book"));
    assert_eq!(client.stats().unwrap().degraded, 0);

    // The disk fills: the next append fails, the workbook degrades.
    fv.set_plan(FaultPlan { disk_capacity: Some(0), ..FaultPlan::none(7) });
    let err = client.set_value("Data", Cell::new(1, 2), Value::Number(2.0)).unwrap_err();
    assert!(matches!(err, ServiceError::Degraded(_)), "got {err:?}");
    // Degraded is sticky across requests...
    let again = client.set_value("Data", Cell::new(1, 3), Value::Number(3.0)).unwrap_err();
    assert!(matches!(again, ServiceError::Degraded(_)), "got {again:?}");
    // ...reads keep working...
    assert_eq!(client.get("Data", Cell::new(1, 1)).unwrap(), Value::Number(1.0));
    // ...and both Stats and the fleet gauge report it.
    assert_eq!(client.stats().unwrap().degraded, 1);
    assert_eq!(degraded_gauge(&mut client), 1);

    // Storage recovers; Save rewrites the snapshot from live memory and
    // heals the workbook.
    fv.set_plan(FaultPlan::none(7));
    client.save().unwrap();
    assert_eq!(client.stats().unwrap().degraded, 0);
    assert_eq!(degraded_gauge(&mut client), 0);
    client.set_value("Data", Cell::new(1, 4), Value::Number(4.0)).unwrap();
    assert!(reg.quiesce("book"));
    assert_eq!(client.get("Data", Cell::new(1, 4)).unwrap(), Value::Number(4.0));
    reg.shutdown();
}

fn degraded_gauge(client: &mut InProcClient) -> i64 {
    let snap = client.metrics().unwrap();
    snap.gauges
        .iter()
        .find(|g| g.name == "taco_degraded_workbooks")
        .map(|g| g.value)
        .expect("gauge registered")
}
