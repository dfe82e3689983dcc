//! End-to-end request tracing over live TCP: a client pins one sticky
//! trace context on its connection, drives a mixed workload (a
//! deliberately wide demand recalc, a full recalc, logged writes), then
//! fetches the server's span rings with `TraceDump` and reassembles the
//! tree. The acceptance bar: the demand request's root span is found by
//! the client's trace id, its descendants include at least one sheet-level
//! recalc span; the full recalc's tree holds a `sheet.eval` under its
//! `workbook.recalc`, a write's a `workbook.apply` under its
//! `worker.batch`; the trace holds a WAL append/fsync span; direct
//! children never out-run their parent's duration, and the Chrome
//! `trace_event` export is structurally valid JSON carrying every span.

use std::sync::Arc;
use taco_engine::{PersistOptions, PersistentWorkbook, RecalcMode, Workbook};
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_obs::{ObsOptions, SlowSpan, SpanCat, TraceContext, TraceDump, TracerOptions};
use taco_service::{Registry, Server, ServerOptions, ServiceOptions, TcpClient};

fn n(v: f64) -> Value {
    Value::Number(v)
}

fn c(s: &str) -> Cell {
    Cell::parse_a1(s).unwrap()
}

/// The client's pinned context: a made-up but non-zero trace id, and a
/// span id every server-side request root will carry as its parent.
const CLIENT_SPAN: u64 = 42;
fn client_ctx() -> TraceContext {
    TraceContext {
        trace_hi: 0xC11E_1700,
        trace_lo: 0x07AC_ED1D,
        span_id: CLIENT_SPAN,
        parent_id: 0,
    }
}

/// A workbook with a long serial chain plus a summary sheet, so a
/// viewport demand recalc expands a large closure.
/// When `recalced` is false the whole chain is left dirty — a service
/// workbook registered that way makes the first viewport request expand
/// a genuinely large demand closure (steady-state writes recalculate
/// eagerly, so their closures are empty).
fn chained_workbook(rows: u32, recalced: bool) -> Workbook {
    let mut wb = Workbook::with_taco();
    let data = wb.add_sheet("Data").unwrap();
    let summary = wb.add_sheet("Summary").unwrap();
    wb.set_value(data, c("A1"), n(1.0));
    for row in 2..=rows {
        wb.set_formula(data, Cell::new(1, row), &format!("=A{}+1", row - 1)).unwrap();
    }
    wb.set_formula(summary, c("A1"), &format!("=Data!A{rows}*2")).unwrap();
    if recalced {
        wb.recalculate(RecalcMode::Serial);
    }
    wb
}

/// Spans of `dump` (both rings) that belong to the client's trace.
fn in_trace(dump: &TraceDump) -> Vec<&SlowSpan> {
    let ctx = client_ctx();
    dump.recent
        .iter()
        .chain(dump.slow.iter())
        .filter(|s| s.trace_hi == ctx.trace_hi && s.trace_lo == ctx.trace_lo)
        .collect()
}

/// Every descendant of `root` among `spans` (same trace, transitive
/// parent pointers).
fn descendants<'a>(spans: &[&'a SlowSpan], root: &SlowSpan) -> Vec<&'a SlowSpan> {
    let mut out: Vec<&SlowSpan> = Vec::new();
    let mut frontier = vec![root.span_id];
    while let Some(pid) = frontier.pop() {
        for s in spans {
            if s.parent_id == pid && !out.iter().any(|o| o.span_id == s.span_id) {
                out.push(s);
                frontier.push(s.span_id);
            }
        }
    }
    out
}

#[test]
fn traced_requests_assemble_cross_layer_span_trees() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("taco_trace_wire_{}.taco", std::process::id()));
    let wal = taco_engine::wal_path(&path);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();

    // The chain is registered dirty: the first demand request must
    // expand (and evaluate) the whole 400-cell closure. `Data!C1` reads
    // none of it and is left for the full recalc after.
    let mut wb = chained_workbook(400, false);
    let data = wb.sheet_id("Data").unwrap();
    wb.set_formula(data, c("C1"), "=A1*3").unwrap();
    let pw = PersistentWorkbook::create(
        &path,
        wb,
        PersistOptions { compact_after_records: 0, sync_every_records: 1 },
    )
    .unwrap();
    // A generous span ring so the whole workload's tree survives until
    // the dump.
    let registry = Arc::new(Registry::new(ServiceOptions {
        obs_options: ObsOptions {
            tracer: TracerOptions { span_capacity: 4096, ..TracerOptions::default() },
        },
        ..ServiceOptions::default()
    }));
    registry.add_persistent("books", pw, None).unwrap();
    let server =
        Server::start(Arc::clone(&registry), "127.0.0.1:0", ServerOptions::default()).unwrap();

    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.set_trace(client_ctx());
    client.open("books", None, None).unwrap();

    // The deliberately wide request first: a viewport demand recalc
    // whose closure covers the whole still-dirty 400-cell chain. Then a
    // full recalc of what it left, and a mixed tail of logged writes (WAL
    // appends + fsyncs under their write batches).
    let evaluated = client.recalc_range("Summary", Range::parse_a1("A1:A1").unwrap()).unwrap();
    assert!(evaluated >= 400, "demand closure covers the chain: {evaluated}");
    assert_eq!(client.recalc(), Ok(1), "the full recalc evaluates Data!C1");
    client.set_value("Data", c("A1"), n(5.0)).unwrap();
    client.set_formula("Data", c("B1"), "=SUM(A1:A400)").unwrap();
    assert_eq!(client.get("Data", c("A400")), Ok(n(404.0)));

    let dump = client.trace_dump().unwrap();
    let spans = in_trace(&dump);
    assert!(!spans.is_empty(), "the client trace id reached the server rings");

    // The wide request's root: a Request-cat span parented directly on
    // the client's pinned span id.
    let root = spans
        .iter()
        .find(|s| {
            s.cat == SpanCat::Request && s.parent_id == CLIENT_SPAN && s.name == "recalc_range"
        })
        .unwrap_or_else(|| panic!("no recalc_range root: {spans:?}"));

    // Its subtree reaches the engine layer: the sheet spans of the
    // recalculation. Nothing records cell-level spans.
    let tree = descendants(&spans, root);
    assert!(
        tree.iter().any(|s| s.cat == SpanCat::SheetLevel),
        "no sheet span under recalc_range: {tree:?}"
    );
    assert!(
        !spans.iter().any(|s| s.name == "engine.level"),
        "cell-level spans have no recorder: {spans:?}"
    );
    assert!(
        tree.iter().any(|s| s.name == "workbook.demand"),
        "no demand span under recalc_range: {tree:?}"
    );

    // A request's tree holds the engine's regions under the worker's: a
    // full recalc evaluates each sheet under the recalculation, and a
    // write is applied under the batch it rode in.
    let root_named = |name: &str| {
        spans
            .iter()
            .find(|s| s.cat == SpanCat::Request && s.parent_id == CLIENT_SPAN && s.name == name)
            .unwrap_or_else(|| panic!("no {name} root: {spans:?}"))
    };
    let child_of = |tree: &[&SlowSpan], child: &str, parent: &str| {
        tree.iter().any(|s| {
            s.name == child && tree.iter().any(|p| p.name == parent && p.span_id == s.parent_id)
        })
    };
    let tree = descendants(&spans, root_named("recalc"));
    assert!(child_of(&tree, "sheet.eval", "workbook.recalc"), "recalc: {tree:?}");
    let tree = descendants(&spans, root_named("set_value"));
    assert!(child_of(&tree, "workbook.apply", "worker.batch"), "set_value: {tree:?}");

    // The same trace reaches the WAL layer: the logged writes rode a
    // batch whose appends/fsyncs are descendants of some request root.
    let wal_spans: Vec<_> =
        spans.iter().filter(|s| matches!(s.cat, SpanCat::WalAppend | SpanCat::WalFsync)).collect();
    assert!(!wal_spans.is_empty(), "no WAL spans in the client trace: {spans:?}");

    // Containment: no direct child of any span in the trace runs longer
    // than its parent (single-parent, same clock — the sum of children
    // is bounded by the parent's wall time).
    for parent in &spans {
        let kids: Vec<_> = spans.iter().filter(|s| s.parent_id == parent.span_id).collect();
        let kid_sum: u64 = kids.iter().map(|s| s.dur_ns).sum();
        assert!(
            kid_sum <= parent.dur_ns,
            "children of {} out-run it: {kid_sum} > {} ({kids:?})",
            parent.name,
            parent.dur_ns,
        );
    }

    // Chrome export: structurally sound JSON, one complete event per
    // span in the dump.
    let json = dump.to_chrome_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert_eq!(json.matches("\"ph\":\"X\"").count(), dump.span_count());
    assert!(json.contains("\"traceEvents\":["));

    server.shutdown();
    registry.shutdown();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
}

#[test]
fn untraced_and_disabled_paths_still_answer() {
    // Without a sticky context requests still trace (fresh roots), and
    // TraceDump against a no-obs registry is a typed refusal.
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook("plain", chained_workbook(10, true), None).unwrap();
    let server =
        Server::start(Arc::clone(&registry), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.open("plain", None, None).unwrap();
    client.recalc().unwrap();
    let dump = client.trace_dump().unwrap();
    assert!(
        dump.recent.iter().any(|s| s.cat == SpanCat::Request && s.parent_id == 0),
        "untraced requests get fresh root spans: {dump:?}"
    );
    server.shutdown();
    registry.shutdown();
}
