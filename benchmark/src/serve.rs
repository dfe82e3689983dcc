//! The service phases — the roadmap's "one request" path end to end: a
//! WAL-backed workbook behind a TCP server in this process, closed-loop
//! client threads replaying a seeded script, then shutdown and reopen
//! from snapshot + WAL. Fresh registry, server and directory every round.

use crate::recalc::{cells_of, same_cells, shipped_mode, Cells};
use crate::run::Round;
use crate::stats;
use crate::trace::Recorder;
use std::path::Path;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;
use taco_engine::{PersistOptions, PersistentWorkbook, RecalcMode, SheetId, Workbook};
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_service::client::{InProc, Tcp};
use taco_service::{
    Client, InProcClient, Registry, Request, Response, Server, ServerOptions, ServiceError,
    ServiceOptions, Transport,
};
use taco_store::{encode_workbook, ReplayMode, StoreReader, WalReader, WalWriter};
use taco_workload::{ClientOp, ServiceScript};

const BOOK: &str = "book";

/// No per-edit fsync, so the numbers measure the program and not this
/// sandbox's disk; everything else as shipped ([`crate::spec::FLUSH_POLICY`]).
fn persist_options() -> PersistOptions {
    PersistOptions { sync_every_records: 0, ..PersistOptions::default() }
}

/// The shared workbook before any client op: setup script, recalculated.
fn setup_workbook(script: &ServiceScript) -> Result<Workbook, String> {
    let mut wb = Workbook::with_taco();
    wb.apply_batch(&script.setup).map_err(|e| format!("setup script: {e}"))?;
    wb.recalculate(shipped_mode());
    Ok(wb)
}

fn sheet0(wb: &Workbook) -> Cells {
    cells_of(wb).into_iter().filter(|(s, ..)| *s == 0).collect()
}

/// What the published state must equal once every client is done: the
/// script's writes applied serially, in client order, to a bare workbook.
pub fn reference(script: &ServiceScript) -> Result<Cells, String> {
    let mut wb = setup_workbook(script)?;
    for rec in &script.serial_writes() {
        wb.apply_edit(rec).map_err(|e| format!("serial write: {e}"))?;
    }
    wb.recalculate(RecalcMode::Serial);
    let mut cells = sheet0(&wb);
    if crate::run::break_check("serve") {
        cells.pop();
    }
    Ok(cells)
}

fn run_op<T: Transport>(
    client: &mut Client<T>,
    sheet: &str,
    op: &ClientOp,
) -> Result<(), ServiceError> {
    match op {
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
    }
}

/// Client-observed latencies of one replay of the script.
#[derive(Default)]
struct Driven {
    wall_s: f64,
    read_us: Vec<f64>,
    write_us: Vec<f64>,
    ops: u64,
    failed: u64,
}

impl Driven {
    // Means, not medians: with two clients on one core a request either
    // runs at once or waits behind the other client's, and the median of
    // such a mixture jumps with the share of each; the mean moves
    // smoothly. Means also add up: TCP = engine + service overhead + wire.
    fn read_mean(&self) -> f64 {
        stats::mean(&self.read_us)
    }

    fn write_mean(&self) -> f64 {
        stats::mean(&self.write_us)
    }
}

/// Replays the script from one closed-loop thread per client stream: each
/// sends its next request when the reply to the last one has arrived.
fn drive<T, F>(
    script: &ServiceScript,
    rec: &mut Recorder,
    phase: &'static str,
    connect: F,
) -> Driven
where
    T: Transport,
    F: Fn() -> Result<Client<T>, ServiceError> + Sync,
{
    let barrier = Barrier::new(script.clients.len());
    let span = rec.open(phase);
    let finished: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = script
            .clients
            .iter()
            .enumerate()
            .map(|(lane, ops)| {
                let mut trec = rec.for_thread(ops.len());
                let (connect, barrier, sheet) = (&connect, &barrier, script.sheet.as_str());
                s.spawn(move || {
                    let mut client =
                        connect().and_then(|mut c| c.open(BOOK, None, None).map(|_| c));
                    let mut samples = Vec::with_capacity(ops.len());
                    let mut failed = 0u64;
                    barrier.wait();
                    let start = Instant::now();
                    for (i, op) in ops.iter().enumerate() {
                        let t0 = Instant::now();
                        let done = match &mut client {
                            Ok(c) => run_op(c, sheet, op),
                            Err(e) => Err(e.clone()),
                        };
                        let t1 = Instant::now();
                        trec.leaf("service.request", t0, t1, (lane as u64) << 32 | i as u64);
                        failed += u64::from(done.is_err());
                        samples.push((op.is_write(), (t1 - t0).as_secs_f64() * 1e6));
                    }
                    (start, Instant::now(), samples, failed, trec)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut out = Driven::default();
    let first = finished.iter().map(|f| f.0).min().expect("at least one client thread");
    let last = finished.iter().map(|f| f.1).max().expect("at least one client thread");
    out.wall_s = (last - first).as_secs_f64();
    for (_, _, samples, failed, trec) in finished {
        rec.adopt(trec);
        out.ops += samples.len() as u64;
        out.failed += failed;
        for (is_write, us) in samples {
            (if is_write { &mut out.write_us } else { &mut out.read_us }).push(us);
        }
    }
    rec.close(span);
    out
}

/// A registry serving a fresh WAL-backed copy of the script's workbook
/// from `path`. Returns the snapshot file's size and the dependencies
/// the workbook's graphs hold.
fn serve_persistent(
    script: &ServiceScript,
    path: &Path,
) -> Result<(Arc<Registry>, u64, u64), String> {
    let wb = setup_workbook(script)?;
    let deps: u64 =
        (0..wb.sheet_count()).map(|s| wb.sheet(SheetId(s)).graph().dependencies_inserted()).sum();
    let pw = PersistentWorkbook::create(path, wb, persist_options())
        .map_err(|e| format!("create {}: {e}", path.display()))?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_persistent(BOOK, pw, None).map_err(|e| e.to_string())?;
    Ok((registry, bytes, deps))
}

/// Quiesces the writer, then reads `(edits, recalcs)` and the published
/// cells of sheet 0.
fn published(registry: &Arc<Registry>, rows: u32) -> Result<((u64, u64), Cells), String> {
    let mut client = InProcClient::in_process(Arc::clone(registry));
    client.open(BOOK, None, None).map_err(|e| e.to_string())?;
    client.recalc().map_err(|e| e.to_string())?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    let snap = registry.snapshot(BOOK).ok_or("no published state")?;
    let all = Range::from_coords(1, 1, 64, rows.max(1) * 2);
    let cells = snap.cells_in(0, all).into_iter().map(|(c, v)| (0, c, v)).collect();
    Ok(((stats.edits, stats.recalcs), cells))
}

/// One served round. Returns `(operations checked, failed)` of the
/// round's correctness checks; client ops are counted into `round.out`.
pub fn run(
    script: &ServiceScript,
    want: &[(usize, Cell, Value)],
    dir: &Path,
    round: &mut Round,
) -> Result<(u64, u64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("book.taco");
    let rows = round.sizes.serve_rows;
    let (registry, snapshot_bytes, deps) = serve_persistent(script, &path)?;
    round.out.push("store_bytes_per_dep", snapshot_bytes as f64 / deps as f64);
    round.out.push("store.snapshot_bytes", snapshot_bytes as f64);
    let server = Server::start(Arc::clone(&registry), "127.0.0.1:0", ServerOptions::default())
        .map_err(|e| format!("server: {e}"))?;
    let addr = server.local_addr();

    round.speed.factor(); // a fresh reading: the set-up above is not part of the phase
    let tcp = drive(script, round.rec, "serve.tcp", || Ok(Client::over(Tcp::connect(addr)?)));
    let tcp_speed = round.speed.factor();
    let speed = tcp_speed;
    round.out.ops(tcp.ops, tcp.failed);
    round.out.rate("ops_per_s", tcp.ops as f64 / tcp.wall_s, speed);
    round.out.time("read_us_mean", tcp.read_mean(), speed);
    round.out.time("write_us_mean", tcp.write_mean(), speed);
    round.out.time("service.tcp_read_us_mean", tcp.read_mean(), speed);
    round.out.time("service.tcp_write_us_mean", tcp.write_mean(), speed);
    round.out.time("service.read_us_p99", stats::tail(&tcp.read_us, 0.99), speed);
    round.out.time("service.write_us_p99", stats::tail(&tcp.write_us, 0.99), speed);

    let ((edits, recalcs), live) = published(&registry, rows)?;
    round.out.push("service.edits_per_recalc", edits as f64 / recalcs.max(1) as f64);
    server.shutdown();
    registry.shutdown();

    // Reopen three times and keep the median: one open of a small file is a
    // few milliseconds, right after the server's threads wound down.
    round.speed.factor();
    let span = round.rec.open("serve.reopen");
    let mut reopen_ms = Vec::with_capacity(3);
    let mut reopened = None;
    for i in 0..3 {
        let t0 = Instant::now();
        let wb = Workbook::open(&path);
        let t1 = Instant::now();
        round.rec.leaf("engine.open", t0, t1, i);
        reopen_ms.push((t1 - t0).as_secs_f64() * 1e3);
        reopened = Some(wb);
    }
    round.rec.close(span);
    let speed = round.speed.factor();
    round.out.time("reopen_ms", stats::median(&reopen_ms), speed);
    let reopened = reopened.expect("opened three times");

    // Untimed checks: the published state equals the serial reference,
    // and the reopened workbook (after one serial recalc) equals the live one.
    let (checked, mut failed) = (2 * tcp.ops, 0);
    if !same_cells(&live, want) {
        eprintln!("check failed: published state differs from the serial reference");
        failed += tcp.ops;
    }
    let durable = reopened.map(|mut wb| {
        wb.recalculate(RecalcMode::Serial);
        sheet0(&wb)
    });
    if !durable.is_ok_and(|cells| same_cells(&cells, &live)) {
        eprintln!("check failed: reopened workbook differs from the live one");
        failed += tcp.ops;
    }

    if round.layers {
        layers(script, dir, (&tcp, tcp_speed), round)?;
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok((checked, failed))
}

/// A transport that keeps the first [`CAPTURE`] exchanges it carries.
struct Capture<T> {
    inner: T,
    log: Arc<Mutex<Vec<(Request, Response)>>>,
    kept: usize,
}

/// Exchanges kept per client for the codec kernel.
const CAPTURE: usize = 4_096;

impl<T: Transport> Transport for Capture<T> {
    fn call_traced(
        &mut self,
        req: Request,
        ctx: Option<taco_obs::TraceContext>,
    ) -> Result<Response, ServiceError> {
        if self.kept >= CAPTURE {
            return self.inner.call_traced(req, ctx);
        }
        self.kept += 1;
        let sent = req.clone();
        let resp = self.inner.call_traced(req, ctx)?;
        self.log.lock().expect("capture log").push((sent, resp.clone()));
        Ok(resp)
    }
}

/// The traced pass's extra measurements: the same script without the
/// wire, the same writes without the service, and store and WAL alone.
fn layers(
    script: &ServiceScript,
    dir: &Path,
    (tcp, tcp_speed): (&Driven, f64),
    round: &mut Round,
) -> Result<(), String> {
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;

    // Same script over the in-process transport: no wire, no connection
    // threads; queue, WAL append and publish still run.
    let path = dir.join("inproc.taco");
    let (registry, ..) = serve_persistent(script, &path)?;
    let log = Arc::new(Mutex::new(Vec::new()));
    round.speed.factor();
    let inproc = drive(script, round.rec, "serve.inproc", || {
        let inner = InProc::new(Arc::clone(&registry));
        Ok(Client::over(Capture { inner, log: Arc::clone(&log), kept: 0 }))
    });
    let speed = round.speed.factor();
    registry.shutdown();
    round.out.ops(inproc.ops, inproc.failed);
    // Differences are taken between scaled times: the two passes ran at
    // different moments, possibly at different machine speeds.
    let (inproc_read, inproc_write) = (inproc.read_mean() * speed, inproc.write_mean() * speed);
    round.out.push("service.inproc_read_us_mean", inproc_read);
    round.out.push("service.inproc_write_us_mean", inproc_write);
    round.out.push("service.wire_read_us", tcp.read_mean() * tcp_speed - inproc_read);
    round.out.push("service.wire_write_us", tcp.write_mean() * tcp_speed - inproc_write);

    // The script's writes on a bare workbook: the engine's share.
    let mut wb = setup_workbook(script)?;
    let mode = shipped_mode();
    let writes = script.serial_writes();
    let mut bare_us = Vec::with_capacity(writes.len());
    let mut failed = 0u64;
    for rec in &writes {
        let t0 = Instant::now();
        failed += u64::from(wb.apply_edit(rec).is_err());
        wb.recalculate(mode);
        bare_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    round.out.ops(writes.len() as u64, failed);
    let bare = stats::mean(&bare_us) * round.speed.factor();
    round.out.push("engine.bare_write_us_mean", bare);
    round.out.push("service.write_overhead_us", inproc_write - bare);

    // Codec alone, on the captured exchanges.
    let log = std::mem::take(&mut *log.lock().expect("capture log"));
    let t0 = Instant::now();
    let (mut bytes, mut bad) = (0usize, 0u64);
    for (req, resp) in &log {
        let (q, p) = (req.encode(), resp.encode());
        bytes += q.len() + p.len();
        bad += u64::from(Request::decode(&q).is_err()) + u64::from(Response::decode(&p).is_err());
    }
    let exchanges = log.len().max(1) as f64;
    let codec_ns = ms(t0) * 1e6 / exchanges;
    round.out.push("service.wire_bytes_per_op", bytes as f64 / exchanges);
    round.out.ops(log.len() as u64, bad);

    // Store alone, on the initial workbook.
    let wb = setup_workbook(script)?;
    let t0 = Instant::now();
    let image = encode_workbook(&wb.to_image()).map_err(|e| e.to_string())?;
    let encode_ms = ms(t0);
    let t0 = Instant::now();
    StoreReader::from_bytes(image).and_then(|r| r.read_all()).map_err(|e| e.to_string())?;
    let decode_ms = ms(t0);
    let saved = dir.join("saved.taco");
    let t0 = Instant::now();
    wb.save(&saved).map_err(|e| e.to_string())?;
    let save_ms = ms(t0);
    let t0 = Instant::now();
    Workbook::open(&saved).map_err(|e| e.to_string())?;
    let open_ms = ms(t0);

    // WAL alone: append the round's write records, sync once, read back.
    let wal_path = dir.join("scratch.wal");
    let mut wal = WalWriter::create(&wal_path).map_err(|e| e.to_string())?;
    let n = writes.len().max(1) as f64;
    let t0 = Instant::now();
    let appended = writes.iter().filter(|rec| wal.append(rec).is_ok()).count();
    let append_ns = ms(t0) * 1e6 / n;
    round.out.push("store.wal_bytes_per_record", wal.byte_len() as f64 / n);
    let t0 = Instant::now();
    wal.sync().map_err(|e| e.to_string())?;
    let sync_ms = ms(t0);
    drop(wal);
    let t0 = Instant::now();
    let replay = WalReader::load(&wal_path, ReplayMode::TolerateTear).map_err(|e| e.to_string())?;
    let parse_ns = ms(t0) * 1e6 / n;
    // These kernels take a few milliseconds together: one reading serves all.
    let speed = round.speed.factor();
    round.out.time("service.codec_ns_per_op", codec_ns, speed);
    round.out.time("store.encode_ms", encode_ms, speed);
    round.out.time("store.decode_ms", decode_ms, speed);
    round.out.time("engine.save_ms", save_ms, speed);
    round.out.time("engine.open_ms", open_ms, speed);
    round.out.time("store.wal_append_ns_per_record", append_ns, speed);
    round.out.time("store.wal_sync_ms", sync_ms, speed);
    round.out.time("store.wal_parse_ns_per_record", parse_ns, speed);
    let lost = (writes.len() - appended) + (writes.len() - replay.records.len().min(writes.len()));
    round.out.ops(2 * writes.len() as u64, lost as u64);
    Ok(())
}
