//! Observability overhead smoke: the cost of running with a metrics hub
//! attached must stay bounded, and the record hot path must stay
//! allocation-free.
//!
//! For each persistence preset the same build → recalc → edit-burst →
//! recalc cycle runs twice — once bare, once with an `Obs` hub
//! attached — and the two runs must produce bit-identical cell values.
//!
//! Contract asserts (these fail the bench, and CI runs it in quick mode):
//!
//! - the instrumented cycle finishes within a **pinned bound** of the
//!   bare cycle (2× plus a fixed noise allowance — observability must
//!   never dominate the work it observes);
//! - instrumented and bare runs evaluate the same cells to the same
//!   values (the hub is a pure observer);
//! - a steady-state batch of record operations — counter add, gauge set,
//!   histogram record, tracer span, trace-context enter/propagate, and
//!   span-guard open/close — performs **zero** heap allocations, counted
//!   by a `#[global_allocator]` wrapper;
//! - the HTTP sidecar answers `GET /metrics` with Prometheus text and
//!   `GET /trace` with Chrome JSON over a plain `std::net::TcpStream`
//!   (the curl-equivalent smoke CI runs in quick mode).
//!
//! With `TACO_BENCH_JSON=path` the run also writes the collected numbers
//! as JSON — commit the artifact to track the perf trajectory over PRs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use taco_bench::{fmt_ms, header, ms};
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::Value;
use taco_grid::Cell;
use taco_obs::{Obs, SpanCat, TraceContext};
use taco_workload::{
    gen_persist_workload, persist_enron_like, persist_giant_sheet, persist_github_like,
    PersistParams, PersistWorkload,
};

/// Counts every allocation and reallocation (frees are not interesting
/// for the steady-state contract).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Instrumented runs must beat `bare × OVERHEAD_FACTOR + OVERHEAD_SLACK_MS`.
/// The factor pins the asymptotic cost; the additive slack absorbs timer
/// and scheduler noise at quick-mode scales where the cycle is sub-ms.
const OVERHEAD_FACTOR: f64 = 2.0;
const OVERHEAD_SLACK_MS: f64 = 50.0;

fn presets() -> Vec<PersistParams> {
    let scale = taco_bench::scale();
    let scaled = |p: PersistParams| {
        let rows = ((f64::from(p.rows) * scale) as u32).max(16);
        PersistParams { rows, ..p }
    };
    vec![scaled(persist_enron_like()), scaled(persist_github_like()), scaled(persist_giant_sheet())]
}

/// Every non-empty cell's value, across all sheets, in a fixed order.
fn snapshot(wb: &Workbook) -> Vec<(usize, Cell, Value)> {
    let mut out = Vec::new();
    for s in 0..wb.sheet_count() {
        let mut cells: Vec<(Cell, Value)> =
            wb.sheet(SheetId(s)).cells().map(|(c, k)| (c, k.value().clone())).collect();
        cells.sort_by_key(|(c, _)| *c);
        out.extend(cells.into_iter().map(|(c, v)| (s, c, v)));
    }
    out
}

/// One full cycle: build the workbook (optionally instrumented), full
/// recalc, edit burst, recalc again. Returns the wall time, the total
/// evaluated-cell count, and the final value snapshot.
fn cycle(w: &PersistWorkload, obs: Option<&Obs>) -> (f64, usize, Vec<(usize, Cell, Value)>) {
    let t0 = Instant::now();
    let mut wb = Workbook::with_taco();
    if let Some(o) = obs {
        wb.attach_obs(o, "bench");
    }
    wb.apply_batch(&w.build).expect("build script applies");
    let mut evaluated = wb.recalculate(RecalcMode::Serial);
    wb.apply_batch(&w.burst).expect("burst applies");
    evaluated += wb.recalculate(RecalcMode::Serial);
    let elapsed = ms(t0.elapsed());
    (elapsed, evaluated, snapshot(&wb))
}

/// Best-of-`reps` cycle time (the snapshot/count are identical across
/// reps, so the last one is returned).
fn best_of(
    reps: u32,
    w: &PersistWorkload,
    obs: Option<&Obs>,
) -> (f64, usize, Vec<(usize, Cell, Value)>) {
    let mut best = f64::INFINITY;
    let mut kept = None;
    for _ in 0..reps {
        let (t, e, s) = cycle(w, obs);
        best = best.min(t);
        kept = Some((e, s));
    }
    let (e, s) = kept.expect("reps >= 1");
    (best, e, s)
}

/// The zero-allocation record contract: after warm-up (which pins the
/// thread's counter shard and faults in the span ring), a batch of
/// record operations must not touch the heap at all.
fn assert_record_path_allocation_free() -> u64 {
    let obs = Obs::new_default();
    let plain = obs.metrics.counter("taco_bench_ops_total");
    let labeled = obs.metrics.counter_with("taco_bench_mode_total", "mode=\"bench\"");
    let gauge = obs.metrics.gauge("taco_bench_depth");
    let hist = obs.metrics.histogram_with("taco_bench_ns", "mode=\"bench\"");

    // A pinned request context, as the server propagates per connection.
    let root = obs.tracer.new_root();

    // Warm-up: first records pick the TLS shard and cycle the span ring
    // past its initial state.
    for i in 0..64u64 {
        plain.inc();
        labeled.add(i);
        gauge.set(i as i64);
        hist.record(i);
        let now = obs.tracer.now_ns();
        obs.tracer.record("warm", SpanCat::Request, now, i, i, 0);
        let _g = root.enter();
        let mut guard = obs.tracer.span_guard("warm.guard", SpanCat::Recalc);
        guard.a = i;
    }

    const BATCH: u64 = 10_000;
    let before = allocations();
    for i in 0..BATCH {
        plain.inc();
        labeled.add(i);
        gauge.set(i as i64);
        hist.record(i);
        let now = obs.tracer.now_ns();
        obs.tracer.record("steady", SpanCat::Recalc, now, i, i, i);
        // The propagation hot path the server runs per request: enter the
        // wire context, open a child guard (ambient-parented), read the
        // current context back, record an explicit-context span, close.
        let _g = root.enter();
        let ctx = TraceContext::current();
        assert_eq!(ctx.span_id, root.span_id, "enter must install the context");
        let mut guard = obs.tracer.span_guard("steady.guard", SpanCat::WalAppend);
        guard.a = i;
        // Explicit-coordinate record, the registry's batch-link hot path.
        let link = TraceContext {
            span_id: i.wrapping_add(1 << 32),
            parent_id: guard.context().span_id,
            ..ctx
        };
        obs.tracer.record_at("steady.child", SpanCat::WalFsync, link, now, i, i, 0);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "record hot path allocated {delta} times over {BATCH} samples — \
         the zero-allocation contract is broken"
    );
    // The records must actually have landed (the loop was not optimised
    // away and the handles are live).
    let snap = obs.snapshot();
    assert_eq!(snap.counter("taco_bench_ops_total"), Some(64 + BATCH));
    assert!(snap.histogram("taco_bench_ns", "mode=\"bench\"").is_some_and(|h| h.count > 0));
    BATCH
}

/// One raw HTTP/1.0 round-trip over a plain socket (the curl-equivalent).
fn http_get(addr: std::net::SocketAddr, request: &str) -> String {
    use std::io::{Read, Write};
    let mut sock = std::net::TcpStream::connect(addr).expect("sidecar connect");
    sock.write_all(request.as_bytes()).expect("sidecar write");
    let mut body = String::new();
    sock.read_to_string(&mut body).expect("sidecar read");
    body
}

/// The sidecar smoke: a hub with live data, scraped over `std::net` the
/// way Prometheus or `curl` would — no TACO protocol involved.
fn assert_http_sidecar_serves() {
    let obs = Obs::new_default();
    obs.metrics.counter("taco_bench_scrape_total").add(9);
    let now = obs.tracer.now_ns();
    obs.tracer.record("scrape.span", SpanCat::Request, now, 1, 0, 0);

    let sidecar =
        taco_service::HttpSidecar::start("127.0.0.1:0", std::sync::Arc::clone(&obs)).expect("bind");
    let addr = sidecar.addr();

    let metrics = http_get(addr, "GET /metrics HTTP/1.0\r\n\r\n");
    assert!(metrics.starts_with("HTTP/1.0 200 OK"), "metrics status: {metrics}");
    assert!(metrics.contains("taco_bench_scrape_total 9"), "metrics body: {metrics}");

    let trace = http_get(addr, "GET /trace HTTP/1.0\r\n\r\n");
    assert!(trace.starts_with("HTTP/1.0 200 OK"), "trace status: {trace}");
    assert!(trace.contains("\"traceEvents\":["), "trace body: {trace}");

    let missing = http_get(addr, "GET /nope HTTP/1.0\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.0 404"), "unknown path: {missing}");
    let bad = http_get(addr, "BOGUS\r\n\r\n");
    assert!(bad.starts_with("HTTP/1.0 400"), "malformed request: {bad}");

    sidecar.shutdown();
    println!("http sidecar: /metrics and /trace served, 404/400 on junk");
}

fn main() {
    header("obs overhead — instrumented vs bare recalc + zero-alloc record contract");
    let mut out = JsonObj::new();
    out.num("scale", taco_bench::scale());
    out.num("overhead_factor", OVERHEAD_FACTOR);
    out.num("overhead_slack_ms", OVERHEAD_SLACK_MS);
    let reps = 3u32;
    let mut presets_json = Vec::new();

    for p in presets() {
        let w = gen_persist_workload(&p);
        let mut pj = JsonObj::new();
        pj.str("name", p.name);
        pj.num("rows", f64::from(p.rows));
        println!("\n[{}] rows={} sheets={}", p.name, p.rows, p.sheets);

        let (bare_ms, bare_eval, bare_snap) = best_of(reps, &w, None);

        let hub = Obs::new_default();
        let (obs_ms, obs_eval, obs_snap) = best_of(reps, &w, Some(&hub));

        assert_eq!(obs_eval, bare_eval, "[{}] evaluated-cell count diverged", p.name);
        assert_eq!(obs_snap, bare_snap, "[{}] instrumented values diverged", p.name);
        let recalcs = hub.snapshot().counter("taco_recalcs_total").unwrap_or(0);
        assert!(recalcs >= 2, "[{}] instrumented run recorded nothing", p.name);

        let bound = bare_ms * OVERHEAD_FACTOR + OVERHEAD_SLACK_MS;
        assert!(
            obs_ms <= bound,
            "[{}] instrumented cycle {obs_ms:.3}ms exceeds pinned bound {bound:.3}ms \
             (bare {bare_ms:.3}ms)",
            p.name
        );
        let overhead_pct = if bare_ms > 0.0 { (obs_ms / bare_ms - 1.0) * 100.0 } else { 0.0 };
        println!(
            "  bare {:>10}  obs {:>10}  overhead {overhead_pct:+.1}%",
            fmt_ms(bare_ms),
            fmt_ms(obs_ms)
        );
        pj.num("bare_ms", bare_ms);
        pj.num("obs_ms", obs_ms);
        pj.num("overhead_pct", overhead_pct);
        presets_json.push(pj);
    }

    let batch = assert_record_path_allocation_free();
    println!("\nrecord hot path: {batch} samples, 0 heap allocations (counted)");
    out.num("zero_alloc_batch", batch as f64);
    assert_http_sidecar_serves();
    out.arr("presets", presets_json);

    if let Ok(path) = std::env::var("TACO_BENCH_JSON") {
        std::fs::write(&path, out.finish()).expect("write TACO_BENCH_JSON");
        println!("\nwrote baseline JSON to {path}");
    }
}

// ---- a tiny JSON writer (keys are plain ASCII identifiers) --------------

struct JsonObj {
    fields: Vec<String>,
}

impl JsonObj {
    fn new() -> Self {
        JsonObj { fields: Vec::new() }
    }

    fn num(&mut self, key: &str, v: f64) {
        self.fields.push(format!("\"{key}\":{v:.3}"));
    }

    fn str(&mut self, key: &str, v: &str) {
        self.fields.push(format!("\"{key}\":\"{v}\""));
    }

    fn arr(&mut self, key: &str, items: Vec<JsonObj>) {
        let body: Vec<String> = items.into_iter().map(JsonObj::finish).collect();
        self.fields.push(format!("\"{key}\":[{}]", body.join(",")));
    }

    fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}
