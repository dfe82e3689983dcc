//! Observability end to end over TCP: a live client drives a persistent
//! workbook through a mixed workload, fetches a [`MetricsSnapshot`] with
//! the `Metrics` request, and finds all three instrumented layers in it —
//! engine recalc histograms, WAL counters, and per-operation request
//! percentiles — as decoded values and as Prometheus text. Plus the
//! refusal paths: `Busy`, `AuthFailed`, and `OutOfScope` each provoked
//! over the wire and visible in `Stats` and the hub counters, which are
//! one tally read twice.
//!
//! [`MetricsSnapshot`]: taco_obs::MetricsSnapshot

use std::sync::Arc;
use taco_engine::{PersistOptions, PersistentWorkbook, RecalcMode, Workbook};
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_obs::MetricsSnapshot;
use taco_service::{Registry, Server, ServerOptions, ServiceError, ServiceOptions, TcpClient};

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
    for row in 1..=8u32 {
        wb.set_value(data, Cell::new(1, row), n(f64::from(row)));
    }
    wb.set_formula(data, c("B1"), "=SUM(A1:A8)").unwrap();
    wb.set_formula(summary, c("A1"), "=Data!B1*2").unwrap();
    wb.recalculate(RecalcMode::Serial);
    wb
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.iter().filter(|m| m.name == name).map(|m| m.value).sum()
}

fn hist_count(snap: &MetricsSnapshot, name: &str, labels: &str) -> u64 {
    snap.histograms.iter().filter(|h| h.name == name && h.labels == labels).map(|h| h.count).sum()
}

#[test]
fn metrics_over_the_wire_capture_all_three_layers() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("taco_obs_wire_{}.taco", std::process::id()));
    let wal = taco_engine::wal_path(&path);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();

    let pw = PersistentWorkbook::create(
        &path,
        demo_workbook(),
        PersistOptions { compact_after_records: 0, sync_every_records: 1 },
    )
    .unwrap();
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_persistent("books", pw, None).unwrap();
    let server =
        Server::start(Arc::clone(&registry), "127.0.0.1:0", ServerOptions::default()).unwrap();

    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.open("books", None, None).unwrap();

    // A mixed workload: logged edits (WAL appends + fsyncs), full and
    // demand recalcs (engine histograms), snapshot reads and one
    // compaction.
    for i in 0..6u32 {
        client.set_value("Data", Cell::new(2, i + 1), n(f64::from(i) * 1.5)).unwrap();
    }
    client.set_formula("Data", c("C1"), "=SUM(B1:B6)").unwrap();
    client.recalc().unwrap();
    client.get_range_fresh("Data", Range::parse_a1("A1:C4").unwrap()).unwrap();
    client.get("Summary", c("A1")).unwrap();
    client.save().unwrap();

    let snap = client.metrics().unwrap();

    // Engine layer: recalcs ran and were timed.
    assert!(counter(&snap, "taco_recalcs_total") > 0, "{snap:?}");
    let recalc = snap
        .histograms
        .iter()
        .find(|h| h.name == "taco_recalc_ns" && h.labels.is_empty())
        .expect("recalc histogram");
    assert!(recalc.count > 0);
    assert!(recalc.p99 >= recalc.p50);
    assert!(hist_count(&snap, "taco_demand_closure_cells", "") > 0, "demand recalc recorded");
    // Graph-shape gauges carry the workbook label and a live edge count.
    let edges = snap
        .gauges
        .iter()
        .find(|g| g.name == "taco_graph_edges" && g.labels == "book=\"books\"")
        .expect("graph edge gauge");
    assert!(edges.value > 0, "{edges:?}");

    // Store layer: every logged edit appended and fsynced; the explicit
    // Save compacted.
    assert!(counter(&snap, "taco_wal_records_total") >= 7, "{snap:?}");
    assert!(counter(&snap, "taco_wal_fsyncs_total") > 0);
    assert!(counter(&snap, "taco_wal_bytes_total") > 0);
    assert_eq!(counter(&snap, "taco_wal_compactions_total"), 1);

    // Service layer: per-operation latency percentiles for the tags the
    // workload hit, and the session gauge.
    for op in ["op=\"set_value\"", "op=\"recalc\"", "op=\"get\"", "op=\"save\""] {
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "taco_request_ns" && h.labels == op)
            .unwrap_or_else(|| panic!("request histogram {op}"));
        assert!(h.count > 0, "{op}: {h:?}");
        assert!(h.p50 > 0 && h.p90 >= h.p50 && h.p99 >= h.p90, "{op}: {h:?}");
    }
    let sessions = snap.gauges.iter().find(|g| g.name == "taco_sessions").expect("session gauge");
    assert_eq!(sessions.value, 1);

    // The text rendering carries the same series.
    let text = snap.to_prometheus();
    assert!(text.contains("taco_recalc_ns_bucket{le="), "{text}");
    assert!(text.contains("taco_wal_records_total"), "{text}");
    assert!(text.contains("taco_request_ns"), "{text}");

    server.shutdown();
    registry.shutdown();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
}

/// The graph gauges are running counts now, refreshed without a walk of
/// the edges: after every kind of write they must still equal what a
/// mirror workbook, given the same edits, counts from scratch.
#[test]
fn graph_gauges_stay_exact_through_every_kind_of_write() {
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("books", demo_workbook(), None).unwrap();
    let server =
        Server::start(Arc::clone(&registry), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.open("books", None, None).unwrap();
    let mut mirror = demo_workbook();
    let (data, summary) = (mirror.sheet_id("Data").unwrap(), mirror.sheet_id("Summary").unwrap());

    let check = |client: &mut TcpClient, mirror: &Workbook, after: &str| {
        client.recalc().unwrap();
        let snap = client.metrics().unwrap();
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|g| g.name == name && g.labels == "book=\"books\"")
                .unwrap_or_else(|| panic!("gauge {name}"))
                .value
        };
        let stats = [data, summary].map(|id| mirror.sheet(id).graph().stats());
        let sum = |f: fn(&taco_core::GraphStats) -> u64| stats.iter().map(f).sum::<u64>() as i64;
        assert_eq!(gauge("taco_graph_edges"), sum(|s| s.edges as u64), "edges after {after}");
        assert_eq!(
            gauge("taco_graph_dependencies"),
            sum(|s| s.dependencies),
            "dependencies after {after}"
        );
        assert_eq!(
            gauge("taco_graph_edges_reduced"),
            sum(|s| s.reduced.total()),
            "edges reduced after {after}"
        );
        assert_eq!(
            gauge("taco_graph_vertices"),
            sum(|s| s.vertices as u64),
            "vertices after {after}"
        );
    };
    check(&mut client, &mirror, "open");

    for i in 0..4u32 {
        let (cell, v) = (Cell::new(1, i + 1), n(f64::from(i) * 2.5));
        client.set_value("Data", cell, v.clone()).unwrap();
        mirror.set_value(data, cell, v);
    }
    check(&mut client, &mirror, "value-only writes");

    for (cell, src) in [("C1", "=A1*2"), ("C2", "=A2*2"), ("D1", "=SUM($A$1:A1)")] {
        client.set_formula("Data", c(cell), src).unwrap();
        mirror.set_formula(data, c(cell), src).unwrap();
    }
    client.set_formula("Summary", c("B1"), "=Data!C1+A1").unwrap();
    mirror.set_formula(summary, c("B1"), "=Data!C1+A1").unwrap();
    check(&mut client, &mirror, "formula writes");

    let fill = Range::parse_a1("D2:D8").unwrap();
    client.autofill("Data", c("D1"), fill).unwrap();
    mirror.autofill(data, c("D1"), fill).unwrap();
    check(&mut client, &mirror, "an autofill");
    assert!(mirror.sheet(data).graph().stats().reduced.total() > 0, "the fill compressed");

    let cleared = Range::parse_a1("D4:D5").unwrap();
    client.clear_range("Data", cleared).unwrap();
    mirror.clear_range(data, cleared);
    check(&mut client, &mirror, "a clear");

    client.insert_rows("Data", 3, 2).unwrap();
    mirror.insert_rows(data, 3, 2);
    check(&mut client, &mirror, "a structural edit");

    client.set_value("Data", c("A1"), n(99.0)).unwrap();
    mirror.set_value(data, c("A1"), n(99.0));
    check(&mut client, &mirror, "one more value");

    server.shutdown();
    registry.shutdown();
}

#[test]
fn refusals_are_counted_busy_auth_and_scope() {
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("sales", demo_workbook(), Some("hunter2")).unwrap();
    let server = Server::start(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerOptions { max_connections: 2, ..ServerOptions::default() },
    )
    .unwrap();

    let mut main = TcpClient::connect(server.local_addr()).unwrap();
    main.open("sales", Some("hunter2"), Some(&["Data"])).unwrap();

    // AuthFailed: a second connection presents the wrong token.
    let mut second = TcpClient::connect(server.local_addr()).unwrap();
    assert!(matches!(second.open("sales", Some("wrong"), None), Err(ServiceError::AuthFailed)));

    // Busy: both connection slots are held; a third handshakes, is told
    // Busy in a well-formed frame, and is closed.
    let mut third = TcpClient::connect(server.local_addr()).unwrap();
    let err = third.open("sales", Some("hunter2"), None).unwrap_err();
    assert!(
        matches!(err, ServiceError::Busy | ServiceError::Io(_) | ServiceError::Wire(_)),
        "{err:?}"
    );

    // OutOfScope: the scoped session reaches for a foreign sheet.
    drop(second);
    let mut opened = main;
    assert!(matches!(opened.get("Summary", c("A1")), Err(ServiceError::OutOfScope(_))));

    // All three land in Stats (the Busy count is written by the acceptor
    // thread; poll briefly for it).
    let stats = {
        let mut tries = 0;
        loop {
            let s = opened.stats().unwrap();
            if s.busy_rejected >= 1 || tries > 100 {
                break s;
            }
            tries += 1;
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    };
    assert_eq!(stats.auth_failures, 1, "{stats:?}");
    assert_eq!(stats.busy_rejected, 1, "{stats:?}");
    assert!(stats.scope_denials >= 1, "{stats:?}");

    // And in the hub's counters, over the same wire.
    let snap = opened.metrics().unwrap();
    assert_eq!(counter(&snap, "taco_auth_failures_total"), 1);
    assert_eq!(counter(&snap, "taco_busy_rejected_total"), 1);
    assert!(counter(&snap, "taco_scope_denials_total") >= 1);
    // `Stats` has no tally of its own: with no refusal in between, its
    // four fields are the four hub counters.
    let stats = opened.stats().unwrap();
    for (field, name) in [
        (stats.busy_rejected, "taco_busy_rejected_total"),
        (stats.auth_failures, "taco_auth_failures_total"),
        (stats.scope_denials, "taco_scope_denials_total"),
        (stats.deadline_expired, "taco_deadline_expired_total"),
    ] {
        assert_eq!(field, counter(&snap, name), "{name}: {stats:?}");
    }

    server.shutdown();
    registry.shutdown();
}
