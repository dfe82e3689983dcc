//! The asynchronous execution model (§I): control returns to the user as
//! soon as dependents are identified; recalculation happens in the
//! background, and the interface keeps answering meanwhile. Both halves
//! on a long dependency chain — the workload where finding dependents
//! dominates: the control-return time read off a bare `Workbook`, and the
//! reads a served workbook answers while its writer recalculates.
//!
//! ```sh
//! cargo run --release --example async_recalc
//! ```

use std::sync::{Arc, Barrier};
use std::time::Instant;
use taco_repro::engine::{RecalcMode, Workbook};
use taco_repro::formula::Value;
use taco_repro::grid::{Cell, Range};
use taco_repro::service::{InProcClient, Registry, ServiceOptions};

/// Chain length: 20 000 by default, overridable for quick smoke runs.
fn rows() -> u32 {
    std::env::var("TACO_EXAMPLE_ROWS").ok().and_then(|s| s.parse().ok()).unwrap_or(20_000).max(3)
}

fn main() {
    let rows = rows();
    let (head, last) = (Cell::new(1, 1), Cell::new(1, rows));

    println!("building a {rows}-cell running-total chain…");
    let mut wb = Workbook::with_taco();
    let sheet = wb.add_sheet("Chain").expect("fresh name");
    wb.set_value(sheet, head, Value::Number(1.0));
    wb.set_formula(sheet, Cell::new(1, 2), "=A1+1").expect("valid formula");
    wb.autofill(sheet, Cell::new(1, 2), Range::from_coords(1, 3, 1, rows)).expect("fill");
    wb.recalculate(RecalcMode::Serial);
    assert_eq!(wb.value(sheet, last), Value::Number(f64::from(rows)));
    println!("chain built; A{rows} = {}", wb.value(sheet, last));

    // The §I number: the edit hands control back once its dependents are
    // found and marked — nothing has been evaluated yet.
    let t0 = Instant::now();
    let receipt = wb.set_value(sheet, head, Value::Number(2.0));
    println!(
        "edit staged in {:?} (control returned to the user; {} dirty range(s) to recalculate)",
        t0.elapsed(),
        receipt.dirty.len()
    );
    wb.recalculate(RecalcMode::Serial);
    let before = Value::Number(1.0 + f64::from(rows));
    assert_eq!(wb.value(sheet, last), before);

    // The same edit against the served workbook: a writer thread sends it
    // while this thread keeps "using the UI". Snapshot reads never wait
    // for the writer — each returns the last published value at once.
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("chain", wb, None).expect("register");
    let mut reader = InProcClient::in_process(Arc::clone(&registry));
    reader.open("chain", None, None).expect("open");
    let start = Arc::new(Barrier::new(2));
    let writer = {
        let (registry, start) = (Arc::clone(&registry), Arc::clone(&start));
        std::thread::spawn(move || {
            let mut client = InProcClient::in_process(registry);
            client.open("chain", None, None).expect("open");
            start.wait();
            let t0 = Instant::now();
            client.set_value("Chain", head, Value::Number(100.0)).expect("write");
            t0.elapsed()
        })
    };
    start.wait();
    let mut stale_reads = 0u64;
    while !writer.is_finished() {
        if reader.get("Chain", last).expect("read") == before {
            stale_reads += 1;
        }
    }
    let settle = writer.join().expect("writer thread");
    println!(
        "background recalculation settled after {settle:?} ({stale_reads} stale reads served meanwhile)"
    );
    let after = reader.get("Chain", last).expect("read");
    assert_eq!(after, Value::Number(99.0 + f64::from(rows)));
    println!("final A{rows} = {after}");
    println!("recalc rounds: {}", reader.stats().expect("stats").recalcs);
    registry.shutdown();
}
