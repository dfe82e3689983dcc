//! Service throughput: ops/sec and latency percentiles for the
//! `taco_service` layer — in-process vs TCP, one vs several client
//! threads — over the mixed workload preset (zipf-skewed targets, ~70%
//! reads).
//!
//! Two invariants are asserted in-bench so the numbers can never drift
//! away from a correct implementation:
//!
//! 1. every configuration ends in the same final cell state as the
//!    serial reference script on a bare workbook;
//! 2. the coalescing writer runs **at most** as many recalculations as
//!    one recalculation per write would (batching is the point: N queued
//!    edits, one dirty-propagation, one recalc).
//!
//! With `TACO_BENCH_JSON=path` the run also writes the collected numbers
//! as JSON — commit the artifact to track the perf trajectory over PRs.

use std::sync::Arc;
use std::time::Instant;
use taco_bench::{cdf_line, header, ms, percentile};
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_service::{
    Client, InProcClient, Registry, Server, ServerOptions, ServiceOptions, TcpClient, Transport,
};
use taco_workload::service::{gen_service_script, mixed, ClientOp, ServiceScript};

fn setup_workbook(script: &ServiceScript) -> Workbook {
    let mut wb = Workbook::with_taco();
    for rec in &script.setup {
        wb.apply_edit(rec).expect("setup applies");
    }
    wb.recalculate(RecalcMode::Serial);
    wb
}

fn serial_reference(script: &ServiceScript) -> Vec<(Cell, Value)> {
    let mut wb = setup_workbook(script);
    for rec in &script.serial_writes() {
        wb.apply_edit(rec).expect("serial write applies");
    }
    wb.recalculate(RecalcMode::Serial);
    let mut cells: Vec<(Cell, Value)> =
        wb.sheet(SheetId(0)).cells().map(|(c, k)| (c, k.value().clone())).collect();
    cells.sort_unstable_by_key(|(c, _)| (c.row, c.col));
    cells
}

fn run_op<T: Transport>(client: &mut Client<T>, sheet: &str, op: &ClientOp) {
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
    r.expect("bench op applies");
}

/// Drives the script's client streams on `threads` OS threads (streams
/// are dealt round-robin), returning per-op latencies in ms.
fn drive<T: Transport, F>(script: &ServiceScript, threads: usize, connect: F) -> Vec<f64>
where
    F: Fn() -> Client<T> + Sync,
{
    let lanes: Vec<Vec<&Vec<ClientOp>>> = {
        let mut lanes: Vec<Vec<&Vec<ClientOp>>> = vec![Vec::new(); threads];
        for (i, ops) in script.clients.iter().enumerate() {
            lanes[i % threads].push(ops);
        }
        lanes
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|lane| {
                let connect = &connect;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut client = connect();
                    client.open("book", None, None).expect("open");
                    for ops in lane {
                        for op in ops.iter() {
                            let t = Instant::now();
                            run_op(&mut client, &script.sheet, op);
                            samples.push(ms(t.elapsed()));
                        }
                    }
                    samples
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("bench client")).collect()
    })
}

struct Outcome {
    label: String,
    ops_per_sec: f64,
    recalcs: u64,
    coalesced: u64,
    p50_ms: f64,
    p99_ms: f64,
}

fn check_final_state(registry: &Arc<Registry>, want: &[(Cell, Value)], label: &str) {
    let mut client = InProcClient::in_process(Arc::clone(registry));
    client.open("book", None, None).expect("verify open");
    client.recalc().expect("quiesce");
    let snap = registry.snapshot("book").expect("snapshot");
    let got = snap.cells_in(0, Range::from_coords(1, 1, 64, 4096));
    assert_eq!(got, want, "{label}: final state must match the serial reference");
}

fn main() {
    header("Service throughput — mixed preset (70% reads, zipf rows)");
    let script = gen_service_script(&mixed());
    let total_ops: usize = script.clients.iter().map(Vec::len).sum();
    let want = serial_reference(&script);
    println!(
        "{} clients × {} ops ({} total), sheet {}×64",
        script.clients.len(),
        script.clients[0].len(),
        total_ops,
        64
    );

    let mut outcomes: Vec<Outcome> = Vec::new();
    for threads in [1usize, 4] {
        // In-process.
        let registry = Arc::new(Registry::new(ServiceOptions::default()));
        registry.add_workbook("book", setup_workbook(&script), None).unwrap();
        let t = Instant::now();
        let samples = drive(&script, threads, || InProcClient::in_process(Arc::clone(&registry)));
        let wall = t.elapsed();
        check_final_state(&registry, &want, "in-proc");
        let stats = {
            let mut c = InProcClient::in_process(Arc::clone(&registry));
            c.open("book", None, None).unwrap();
            c.stats().unwrap()
        };
        let label = format!("inproc T={threads}");
        cdf_line(&label, &samples);
        outcomes.push(Outcome {
            label,
            ops_per_sec: total_ops as f64 / wall.as_secs_f64(),
            recalcs: stats.recalcs,
            coalesced: stats.coalesced,
            p50_ms: percentile(&samples, 0.50),
            p99_ms: percentile(&samples, 0.99),
        });
        registry.shutdown();

        // TCP.
        let registry = Arc::new(Registry::new(ServiceOptions::default()));
        registry.add_workbook("book", setup_workbook(&script), None).unwrap();
        let server =
            Server::start(Arc::clone(&registry), "127.0.0.1:0", ServerOptions::default()).unwrap();
        let addr = server.local_addr();
        let t = Instant::now();
        let samples = drive(&script, threads, || TcpClient::connect(addr).expect("bench connect"));
        let wall = t.elapsed();
        check_final_state(&registry, &want, "tcp");
        let stats = {
            let mut c = InProcClient::in_process(Arc::clone(&registry));
            c.open("book", None, None).unwrap();
            c.stats().unwrap()
        };
        let label = format!("tcp    T={threads}");
        cdf_line(&label, &samples);
        outcomes.push(Outcome {
            label,
            ops_per_sec: total_ops as f64 / wall.as_secs_f64(),
            recalcs: stats.recalcs,
            coalesced: stats.coalesced,
            p50_ms: percentile(&samples, 0.50),
            p99_ms: percentile(&samples, 0.99),
        });
        server.shutdown();
        registry.shutdown();
    }

    header("Throughput and writer effort");
    println!("{:<12} {:>12} {:>10} {:>10}", "config", "ops/sec", "recalcs", "coalesced");
    for o in &outcomes {
        println!("{:<12} {:>12.0} {:>10} {:>10}", o.label, o.ops_per_sec, o.recalcs, o.coalesced);
    }

    // The batching invariant: the coalescing writer never recalculates
    // more often than once per write op (`Recalc` included) plus the
    // quiesce in `check_final_state`.
    let unbatched_recalcs =
        script.clients.iter().flatten().filter(|op| op.is_write()).count() as u64 + 1;
    for o in &outcomes {
        assert!(
            o.recalcs <= unbatched_recalcs,
            "batching must not add recalcs: {} ran {} vs {unbatched_recalcs} unbatched",
            o.label,
            o.recalcs,
        );
    }
    // With several client threads, coalescing must actually coalesce
    // somewhere (the queue fills while the writer works); summed across
    // the T=4 runs so one unlucky scheduling cannot flake it.
    let multi_thread_coalesced: u64 =
        outcomes.iter().filter(|o| o.label.contains("T=4")).map(|o| o.coalesced).sum();
    println!("\ncoalesced edits across T=4 runs: {multi_thread_coalesced}");
    assert!(multi_thread_coalesced > 0, "multi-threaded runs must coalesce at least one batch");

    if let Ok(path) = std::env::var("TACO_BENCH_JSON") {
        let mut out = JsonObj::new();
        out.num("scale", taco_bench::scale());
        out.num("clients", script.clients.len() as f64);
        out.num("total_ops", total_ops as f64);
        out.num("coalesced_t4_total", multi_thread_coalesced as f64);
        let mut configs = Vec::new();
        for o in &outcomes {
            let mut cj = JsonObj::new();
            cj.str("config", &o.label);
            cj.num("ops_per_sec", o.ops_per_sec);
            cj.num("p50_ms", o.p50_ms);
            cj.num("p99_ms", o.p99_ms);
            cj.num("recalcs", o.recalcs as f64);
            cj.num("coalesced", o.coalesced as f64);
            configs.push(cj);
        }
        out.arr("configs", configs);
        std::fs::write(&path, out.finish()).expect("write TACO_BENCH_JSON");
        println!("\nwrote baseline JSON to {path}");
    }
    println!("done");
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
