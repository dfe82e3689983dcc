//! A live metrics dashboard: spawns a `taco_service` server on an
//! ephemeral port, drives a mixed workload over TCP (edits, autofills,
//! full and demand recalcs, reads, a save), polls [`Client::metrics`]
//! between rounds, and renders the final snapshot as a text dashboard —
//! per-operation latency percentiles, recalc histograms, WAL counters,
//! and the slow-op log.
//!
//! ```sh
//! cargo run --release --example metrics_dashboard
//! ```
//!
//! [`Client::metrics`]: taco_repro::service::Client::metrics

use std::sync::Arc;
use taco_repro::engine::{PersistOptions, PersistentWorkbook, RecalcMode, Workbook};
use taco_repro::formula::Value;
use taco_repro::grid::{Cell, Range};
use taco_repro::obs::MetricsSnapshot;
use taco_repro::service::{Registry, Server, ServerOptions, ServiceOptions, TcpClient};

fn n(v: f64) -> Value {
    Value::Number(v)
}

fn demo_workbook(rows: u32) -> Workbook {
    let mut wb = Workbook::with_taco();
    let data = wb.add_sheet("Data").expect("fresh name");
    let summary = wb.add_sheet("Summary").expect("fresh name");
    for row in 1..=rows {
        wb.set_value(data, Cell::new(1, row), n(f64::from(row)));
    }
    wb.set_formula(data, Cell::new(2, 1), "=SUM($A$1:A1)").expect("valid");
    wb.autofill(data, Cell::new(2, 1), Range::from_coords(2, 2, 2, rows)).expect("fill");
    wb.set_formula(summary, Cell::new(1, 1), &format!("=Data!B{rows}")).expect("valid");
    wb.recalculate(RecalcMode::Serial);
    wb
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders one snapshot as the dashboard.
fn render(snap: &MetricsSnapshot) {
    println!("── request latency ─────────────────────────────────────────");
    println!("{:<28} {:>7} {:>9} {:>9} {:>9}", "op", "count", "p50", "p90", "p99");
    let mut requests: Vec<_> =
        snap.histograms.iter().filter(|h| h.name == "taco_request_ns" && h.count > 0).collect();
    requests.sort_by_key(|h| std::cmp::Reverse(h.count));
    for h in requests {
        println!(
            "{:<28} {:>7} {:>9} {:>9} {:>9}",
            h.labels,
            h.count,
            fmt_ns(h.p50),
            fmt_ns(h.p90),
            fmt_ns(h.p99)
        );
    }
    println!("── engine ──────────────────────────────────────────────────");
    for h in &snap.histograms {
        if h.name.starts_with("taco_recalc") && h.count > 0 {
            println!(
                "{:<28} {:>7} p50={} p99={}",
                format!("{}{{{}}}", h.name, h.labels),
                h.count,
                fmt_ns(h.p50),
                fmt_ns(h.p99)
            );
        }
    }
    for g in &snap.gauges {
        if g.name.starts_with("taco_graph") || g.name == "taco_cross_edges" {
            println!("{:<28} {:>7}", format!("{}{{{}}}", g.name, g.labels), g.value);
        }
    }
    println!("── store / service counters ────────────────────────────────");
    let mut counters: Vec<_> = snap.counters.iter().filter(|c| c.value > 0).collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    for c in counters {
        println!("{:<40} {:>10}", c.name, c.value);
    }
    if !snap.slow_spans.is_empty() {
        println!("── slow ops (over threshold) ───────────────────────────────");
        for s in snap.slow_spans.iter().take(5) {
            println!("{:<20} {:<12} dur={}", s.name, s.cat.label(), fmt_ns(s.dur_ns));
        }
    }
}

fn main() {
    let rows: u32 =
        std::env::var("TACO_EXAMPLE_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(128).max(8);
    let rounds: u32 = if rows <= 64 { 3 } else { 5 };

    let path = std::env::temp_dir().join(format!("taco_dashboard_{}.taco", std::process::id()));
    let wal = taco_repro::engine::wal_path(&path);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
    let pw = PersistentWorkbook::create(&path, demo_workbook(rows), PersistOptions::default())
        .expect("create persistent backing");

    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_persistent("demo", pw, None).expect("register");
    let server = Server::start(Arc::clone(&registry), "127.0.0.1:0", ServerOptions::default())
        .expect("bind ephemeral port");
    println!("listening on {}", server.local_addr());

    let mut client = TcpClient::connect(server.local_addr()).expect("connect");
    client.open("demo", None, None).expect("open");

    for round in 1..=rounds {
        // A mixed round: point edits, a formula + autofill, a demand-driven
        // viewport read, a full recalc barrier, and snapshot reads.
        for i in 0..8u32 {
            let row = (round * 7 + i) % rows + 1;
            client.set_value("Data", Cell::new(1, row), n(f64::from(row * round))).expect("edit");
        }
        client
            .set_formula("Data", Cell::new(3, round), &format!("=B{}*10", round))
            .expect("formula");
        client
            .get_range_fresh("Data", Range::from_coords(1, 1, 3, rows.min(12)))
            .expect("viewport");
        client.recalc().expect("recalc");
        client.get("Summary", Cell::new(1, 1)).expect("read");

        let snap = client.metrics().expect("metrics poll");
        let requests: u64 =
            snap.histograms.iter().filter(|h| h.name == "taco_request_ns").map(|h| h.count).sum();
        let recalcs: u64 =
            snap.counters.iter().filter(|c| c.name == "taco_recalcs_total").map(|c| c.value).sum();
        println!("poll {round}/{rounds}: {requests} requests, {recalcs} recalcs");
    }
    client.save().expect("save folds the WAL");

    let snap = client.metrics().expect("final metrics");
    render(&snap);
    // The same snapshot, as a scraper reads it.
    println!("prometheus exposition: {} lines", snap.to_prometheus().lines().count());

    client.close().expect("close");
    server.shutdown();
    registry.shutdown();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
    println!("done");
}
